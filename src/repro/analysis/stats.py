"""Distribution comparison statistics.

Two uses in the paper:

* Fig. 2: the iBoxNet-vs-ground-truth match of p95-delay / loss / rate
  distributions is "verified through a two-sample KS test";
* Table 1: "the difference (in ms) between median of 95th percentiles of
  inferences and GT delays" — i.e. percentile-point deltas between the two
  distributions of per-call p95 delays, reported at P25/P50/P75 and the
  mean, in absolute ms and percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

#: Largest sample size whose p-value is exact; past it the asymptotic
#: Kolmogorov series takes over.
EXACT_MAX_N = 10000


def _clean(values: Sequence[float]) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.sort(values[~np.isnan(values)])


def _lattice_sf(n: int, m: int, h: int) -> float:
    """Exact P(D >= h / lcm(n, m)) for samples of sizes n and m.

    Under the null every interleaving of the two samples is equally
    likely: a monotone lattice path from (0, 0) to (n, m), whose ECDF gap
    at (i, j) is |i*m - j*n| / (n*m).  ``q(i, j)``, the share of paths to
    (i, j) that already touched a gap >= h / lcm, is 1 outside the band
    and ``(i*q(i-1, j) + j*q(i, j-1)) / (i + j)`` inside it: path counts
    normalised by the binomial count, so nothing overflows, and the
    outer share is carried directly so tiny p keep their digits
    (Hodges 1958; Viehmann 2021).  Each anti-diagonal i + j = s depends
    only on the one before, so it is one vector step.
    """
    if h <= 0:
        return 1.0
    if n < m:
        n, m = m, n
    g = math.gcd(n, m)
    ng, mg = n // g, m // g
    k = ng + mg
    idx = np.arange(n + 1, dtype=float)
    q, lo = np.zeros(1), 0  # diagonal 0: (0, 0) is inside the band
    for s in range(1, n + m + 1):
        # Inside: |i*mg - (s - i)*ng| < h, clipped to the grid.
        new_lo = max((s * ng - h) // k + 1, s - m, 0)
        new_hi = min(-(-(s * ng + h) // k) - 1, s, n)
        if new_lo > new_hi:
            return 1.0
        # q over [lo - 1, hi + 1]: out-of-band neighbours count as 1.
        padded = np.concatenate(([1.0], q, [1.0]))
        i = idx[new_lo:new_hi + 1]
        left = padded[new_lo - lo:new_hi - lo + 1]  # q(i - 1, s - i)
        down = padded[new_lo - lo + 1:new_hi - lo + 2]  # q(i, s - 1 - i)
        q, lo = (left * i + down * (s - i)) / s, new_lo
    return float(q[-1])


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov limit law of sqrt(nm/(n+m)) * D."""
    if x <= 0:
        return 1.0
    if x < 1.0:  # the alternating series converges slowly here
        c = -(math.pi ** 2) / (8 * x * x)
        tail = sum(math.exp(c * (2 * j - 1) ** 2) for j in range(1, 11))
        return max(0.0, 1.0 - math.sqrt(2 * math.pi) / x * tail)
    return 2 * sum(
        (-1) ** (j - 1) * math.exp(-2 * j * j * x * x) for j in range(1, 11)
    )


def _ks_sf(n: int, m: int, h: int) -> float:
    """P(D >= h / lcm(n, m)): exact up to EXACT_MAX_N, asymptotic past it."""
    if max(n, m) > EXACT_MAX_N:
        d = h / (n * m // math.gcd(n, m))
        return _kolmogorov_sf(math.sqrt(n * m / (n + m)) * d)
    return _lattice_sf(n, m, h)


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov test; returns (statistic, p-value).

    Two-sided, NaNs dropped.  D is the largest gap between the two ECDFs
    over the pooled values (ties handled by ``searchsorted(..., "right")``),
    snapped to the lattice ``h / lcm(n, m)`` it lies on.  The p-value is
    exact while both samples have at most :data:`EXACT_MAX_N` values and
    comes from the asymptotic Kolmogorov series past that.
    """
    a, b = _clean(a), _clean(b)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    gap = (
        np.searchsorted(a, pooled, side="right") / n
        - np.searchsorted(b, pooled, side="right") / m
    )
    d = float(np.max(np.abs(gap)))
    lcm = n * m // math.gcd(n, m)
    h = round(d * lcm)
    return h / lcm, _ks_sf(n, m, h)


def ks_critical_d(n: int, m: int, alpha: float = 0.05) -> float:
    """The smallest D whose two-sample KS p-value is <= ``alpha``.

    Same p-value as :func:`ks_statistic` (exact up to
    :data:`EXACT_MAX_N`), searched over the attainable D = h / lcm(n, m).
    Raises when even D = 1 does not reach ``alpha`` (too few values).
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    lcm = n * m // math.gcd(n, m)
    if _ks_sf(n, m, lcm) > alpha:
        raise ValueError(f"no D reaches p <= {alpha} with n={n}, m={m}")
    lo, hi = 1, lcm  # p(hi) <= alpha; the answer is the least such h
    while lo < hi:
        mid = (lo + hi) // 2
        if _ks_sf(n, m, mid) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo / lcm


def distributions_match(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> bool:
    """True when the KS test fails to reject equality at level ``alpha``."""
    _, pvalue = ks_statistic(a, b)
    return pvalue >= alpha


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative probabilities)."""
    values = np.sort(np.asarray(values, dtype=float))
    if len(values) == 0:
        return values, values
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


@dataclass(frozen=True)
class PercentileErrorRow:
    """One row of the Table 1 error metric."""

    label: str
    p25_ms: float
    p50_ms: float
    p75_ms: float
    mean_ms: float
    p25_pct: float
    p50_pct: float
    p75_pct: float
    mean_pct: float

    def __str__(self) -> str:
        return (
            f"{self.label:>4s}  "
            f"{self.p25_ms:.0f} ({self.p25_pct:.0f}%)  "
            f"{self.p50_ms:.0f} ({self.p50_pct:.0f}%)  "
            f"{self.p75_ms:.0f} ({self.p75_pct:.0f}%)  "
            f"{self.mean_ms:.0f} ({self.mean_pct:.0f}%)"
        )


def percentile_error_table(
    predicted_ms: Sequence[float],
    ground_truth_ms: Sequence[float],
    label: str = "",
) -> PercentileErrorRow:
    """The Table 1 metric.

    Both inputs are distributions of per-call 95th-percentile delays (ms).
    The error at percentile P is ``|percentile(pred, P) - percentile(gt, P)|``
    in ms and as a percentage of the GT percentile; "mean" compares the
    distribution means.
    """
    pred = np.asarray(predicted_ms, dtype=float)
    gt = np.asarray(ground_truth_ms, dtype=float)
    pred = pred[~np.isnan(pred)]
    gt = gt[~np.isnan(gt)]
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("both distributions must be non-empty")

    def delta(p: float) -> Tuple[float, float]:
        gt_val = float(np.percentile(gt, p))
        pred_val = float(np.percentile(pred, p))
        err = abs(pred_val - gt_val)
        return err, 100.0 * err / max(gt_val, 1e-9)

    p25_ms, p25_pct = delta(25)
    p50_ms, p50_pct = delta(50)
    p75_ms, p75_pct = delta(75)
    mean_err = abs(float(pred.mean()) - float(gt.mean()))
    mean_pct = 100.0 * mean_err / max(float(gt.mean()), 1e-9)
    return PercentileErrorRow(
        label=label,
        p25_ms=p25_ms,
        p50_ms=p50_ms,
        p75_ms=p75_ms,
        mean_ms=mean_err,
        p25_pct=p25_pct,
        p50_pct=p50_pct,
        p75_pct=p75_pct,
        mean_pct=mean_pct,
    )


def summary_distribution_ks(
    gt_summaries: Sequence,
    sim_summaries: Sequence,
) -> Dict[str, Tuple[float, float]]:
    """KS statistics for each Fig. 2 axis between GT and simulated runs.

    Inputs are sequences of :class:`repro.trace.metrics.TraceSummary`.
    """
    metrics = {
        "p95_delay_ms": lambda s: s.p95_delay_ms,
        "loss_percent": lambda s: s.loss_percent,
        "mean_rate_mbps": lambda s: s.mean_rate_mbps,
    }
    out = {}
    for name, getter in metrics.items():
        gt_vals = [getter(s) for s in gt_summaries]
        sim_vals = [getter(s) for s in sim_summaries]
        out[name] = ks_statistic(gt_vals, sim_vals)
    return out
