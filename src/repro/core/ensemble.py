"""Joint parameter distributions for ensemble testing (§3.1, "ideally").

The paper: "In the ensemble test, the parameters should ideally be drawn
from the joint distribution learnt over the training data set comprising a
potentially large number of traces, thereby ensuring that the appropriate
combinations of bottleneck bandwidth, buffer size, cross-traffic, etc. are
picked.  For simplicity, however, we just use the parameters combinations
derived from individual training traces."

This module implements the *ideal* version the paper deferred: a
:class:`ParameterDistribution` learnt over a collection of fitted iBoxNet
models.  Sampling works in log space (all parameters are positive and
right-skewed) with a Gaussian-copula-style construction: marginal
empirical quantiles joined by the empirical correlation of the log
parameters, so sampled combinations respect the dependencies seen in the
data (fast paths tend to have proportionally larger buffers; congested
paths carry more cross traffic).  Each sample yields a fresh
:class:`~repro.core.iboxnet.IBoxNetModel` whose cross-traffic series is
resampled from a training model and rescaled to the drawn CT level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.cross_traffic import CrossTrafficEstimate
from repro.core.iboxnet import IBoxNetModel
from repro.core.static_params import StaticParams

_EPS = 1e-9
PARAM_NAMES = ("bandwidth", "propagation_delay", "buffer", "ct_level")


@dataclass
class ParameterDistribution:
    """The learnt joint distribution over (b, d, B, CT level)."""

    log_mean: np.ndarray  # (4,)
    log_cov: np.ndarray  # (4, 4)
    source_models: List[IBoxNetModel]
    # Physical cap on sampled CT utilization: the largest level seen in
    # training (with headroom).  A no-CT training model contributes
    # log(1e-4) to the CT marginal, stretching its log-variance; without
    # this cap, tail draws would overload every sampled path.
    max_ct_level: float = 1.0

    @property
    def n_sources(self) -> int:
        return len(self.source_models)

    def correlation(self, a: str, b: str) -> float:
        """Empirical correlation between two log parameters."""
        i, j = PARAM_NAMES.index(a), PARAM_NAMES.index(b)
        denom = np.sqrt(self.log_cov[i, i] * self.log_cov[j, j])
        if denom < _EPS:
            return 0.0
        return float(self.log_cov[i, j] / denom)

    def sample(self, n: int, seed: int = 0) -> List[IBoxNetModel]:
        """Draw ``n`` new parameter combinations as ready-to-run models."""
        rng = np.random.default_rng(seed)
        # Regularise the covariance so degenerate corpora still sample.
        cov = self.log_cov + np.eye(4) * 1e-6
        draws = rng.multivariate_normal(self.log_mean, cov, size=n)
        models = []
        for k in range(n):
            bandwidth, delay, buffer_bytes, ct_level = np.exp(draws[k])
            ct_level = min(ct_level, self.max_ct_level)
            donor = self.source_models[rng.integers(self.n_sources)]
            ct = _rescale_ct(donor.cross_traffic, ct_level * bandwidth)
            params = StaticParams(
                bandwidth_bytes_per_sec=float(bandwidth),
                propagation_delay=float(delay),
                buffer_bytes=float(max(1500.0, buffer_bytes)),
            )
            models.append(
                replace(
                    donor,
                    params=params,
                    cross_traffic=ct,
                    source_flow_id=f"sampled-{k}",
                )
            )
        return models


def _ct_level(model: IBoxNetModel) -> float:
    """Cross-traffic utilization of one fitted model (CT / bandwidth)."""
    return model.cross_traffic.mean_rate / max(
        model.params.bandwidth_bytes_per_sec, _EPS
    )


def _rescale_ct(
    ct: CrossTrafficEstimate, target_mean_rate: float
) -> CrossTrafficEstimate:
    """Scale a donor CT series to a target mean rate, keeping its shape
    (burst structure) intact."""
    current = ct.mean_rate
    if current < _EPS:
        # Donor had no CT: synthesize a flat series at the target level.
        rates = tuple(
            target_mean_rate for _ in ct.rates_bytes_per_sec
        )
        return CrossTrafficEstimate(
            bin_edges=ct.bin_edges,
            rates_bytes_per_sec=rates,
            busy_fraction=ct.busy_fraction,
        )
    scale = target_mean_rate / current
    return CrossTrafficEstimate(
        bin_edges=ct.bin_edges,
        rates_bytes_per_sec=tuple(
            r * scale for r in ct.rates_bytes_per_sec
        ),
        busy_fraction=ct.busy_fraction,
    )


def fit_distribution_from_paths(
    trace_paths: Sequence,
    workers: int = 1,
    cache_dir=None,
    fit_kwargs=None,
) -> ParameterDistribution:
    """Learn the joint distribution straight from saved trace files.

    Fitting fans out across ``workers`` processes through the runtime's
    content-addressed profile cache, so re-learning the distribution
    over a growing corpus only ever fits the *new* traces.  Traces that
    fail to fit (corrupt file, degenerate trace) are skipped — the
    distribution is learnt from whatever survives, matching the
    batch runtime's never-kill-the-batch contract.
    """
    from repro.runtime.batch import ExecutorConfig, fit_profiles

    models, results = fit_profiles(
        trace_paths,
        fit_kwargs=fit_kwargs,
        cache_dir=cache_dir,
        config=ExecutorConfig(workers=workers),
    )
    fitted = [m for m in models if m is not None]
    if len(fitted) < 2:
        failures = [r.error.message for r in results if not r.ok]
        raise ValueError(
            "need at least two fittable traces; "
            f"{len(fitted)} fitted, failures: {failures}"
        )
    return fit_parameter_distribution(fitted)


def fit_parameter_distribution(
    models: Sequence[IBoxNetModel],
) -> ParameterDistribution:
    """Learn the joint log-space distribution from fitted models."""
    if len(models) < 2:
        raise ValueError("need at least two fitted models")
    rows = []
    for model in models:
        rows.append(
            [
                model.params.bandwidth_bytes_per_sec,
                model.params.propagation_delay,
                model.params.buffer_bytes,
                max(_ct_level(model), 1e-4),  # keep log finite
            ]
        )
    logs = np.log(np.asarray(rows))
    observed_levels = [row[3] for row in rows]
    return ParameterDistribution(
        log_mean=logs.mean(axis=0),
        log_cov=np.cov(logs, rowvar=False),
        source_models=list(models),
        max_ct_level=1.2 * max(max(observed_levels), 0.05),
    )
