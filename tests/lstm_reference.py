"""Preserved pre-optimization LSTM and iBoxML unroll implementations.

When the LSTM hot paths were optimized (split GEMMs, cached weight
views, whole-sequence input projection), the original implementations
moved here instead of being deleted.  The golden-output tests
(``tests/test_ml_lstm_golden.py``) assert the optimized paths still
compute the same function (≤1e-9 for float64 — the only legitimate
differences are floating-point association).

These are deliberately *faithful* copies of the shipped originals — do
not "fix" or modernise them; their value is being the old code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.layers import _sigmoid

# ---------------------------------------------------------------------------
# LSTM: per-step concatenation (pre split-GEMM / cached weight views)
# ---------------------------------------------------------------------------


def reference_cell_gates(cell, x_t: np.ndarray, h_prev: np.ndarray):
    """Original ``LSTMCell._gates``: one fused GEMM on ``[x, h]``."""
    z = np.concatenate([x_t, h_prev], axis=1) @ cell.W.value + cell.b.value
    H = cell.hidden_dim
    return z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]


def reference_cell_step(
    cell, x_t: np.ndarray, state: Optional[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Original ``LSTMCell.step`` (per-call concatenate)."""
    batch = x_t.shape[0]
    if state is None:
        h = np.zeros((batch, cell.hidden_dim))
        c = np.zeros((batch, cell.hidden_dim))
    else:
        h, c = state
    zi, zf, zg, zo = reference_cell_gates(cell, x_t, h)
    i, f = _sigmoid(zi), _sigmoid(zf)
    g, o = np.tanh(zg), _sigmoid(zo)
    c = f * c + i * g
    h = o * np.tanh(c)
    return h, (h, c)


def reference_cell_forward(cell, x: np.ndarray) -> np.ndarray:
    """Original ``LSTMCell.forward`` loop: per-timestep concat + GEMM.

    Caches activations exactly like the shipped original did (into a
    local dict, so the cell's own training state is left untouched).
    """
    batch, steps, _ = x.shape
    H = cell.hidden_dim
    h = np.zeros((batch, H))
    c = np.zeros((batch, H))
    hs = np.zeros((batch, steps, H))
    cache = {
        "x": x,
        "h_prev": np.zeros((batch, steps, H)),
        "c_prev": np.zeros((batch, steps, H)),
        "i": np.zeros((batch, steps, H)),
        "f": np.zeros((batch, steps, H)),
        "g": np.zeros((batch, steps, H)),
        "o": np.zeros((batch, steps, H)),
        "c": np.zeros((batch, steps, H)),
    }
    for t in range(steps):
        cache["h_prev"][:, t] = h
        cache["c_prev"][:, t] = c
        zi, zf, zg, zo = reference_cell_gates(cell, x[:, t], h)
        i, f = _sigmoid(zi), _sigmoid(zf)
        g, o = np.tanh(zg), _sigmoid(zo)
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t] = h
        for key, val in (("i", i), ("f", f), ("g", g), ("o", o), ("c", c)):
            cache[key][:, t] = val
    return hs


def reference_stack_forward(lstm, x: np.ndarray) -> np.ndarray:
    """Original stacked forward built on :func:`reference_cell_forward`."""
    out = x
    for cell in lstm.layers:
        out = reference_cell_forward(cell, out)
    return out


def reference_stack_step(
    lstm, x_t: np.ndarray, states: Optional[list]
) -> Tuple[np.ndarray, list]:
    """Original ``LSTM.step`` built on :func:`reference_cell_step`."""
    if states is None:
        states = [None] * lstm.num_layers
    out = x_t
    new_states = []
    for cell, state in zip(lstm.layers, states):
        out, new_state = reference_cell_step(cell, out, state)
        new_states.append(new_state)
    return out, new_states


def reference_model_step(
    model, x_t: np.ndarray, states: Optional[list]
) -> Tuple[np.ndarray, np.ndarray, list]:
    """Original ``GaussianSequenceModel.step`` (full-matrix head GEMMs)."""
    h, new_states = reference_stack_step(model.lstm, x_t, states)
    mu = (h @ model.head_mu.W.value + model.head_mu.b.value)[:, 0]
    log_sigma = (
        h @ model.head_log_sigma.W.value + model.head_log_sigma.b.value
    )[:, 0]
    return mu, np.exp(log_sigma), new_states


# ---------------------------------------------------------------------------
# iBoxML: generic free-running unroll (pre vectorized input projection)
# ---------------------------------------------------------------------------


def reference_unroll(model, feats: np.ndarray, sample: bool, seed: int = 0):
    """Original ``IBoxMLModel._unroll_features_inner``.

    Steps the full generic model per packet: per-step feature copy,
    scaler array round-trips, stacked :func:`reference_cell_step`, and
    full-matrix Gaussian heads.  RNG call order matches the optimized
    implementation exactly, so sampled outputs are comparable too.
    """
    from repro.core.iboxml import _PREV_DELAY_COL

    n = len(feats)
    scaled = model.feature_scaler.transform(feats)
    rng = np.random.default_rng(seed)
    predictions = np.zeros(n)
    states = None
    prev_delay_real = 0.0
    floor = model.config.min_delay_floor
    prev_mean = model.feature_scaler.mean_[_PREV_DELAY_COL]
    prev_std = model.feature_scaler.std_[_PREV_DELAY_COL]
    rho = (
        model.config.sample_ar_rho
        if model.config.sample_ar_rho is not None
        else model.fitted_rho_
    )
    innovation_scale = np.sqrt(max(0.0, 1.0 - rho**2))
    noise_state = float(rng.normal()) if sample else 0.0
    for t in range(n):
        x_t = scaled[t].copy()
        x_t[_PREV_DELAY_COL] = (prev_delay_real - prev_mean) / prev_std
        mu, sigma, states = reference_model_step(
            model.model, x_t[None, :], states
        )
        mean_delay = model.target_scaler.inverse_transform_column(
            np.array([float(mu[0])]), 0
        )[0]
        mean_delay = max(floor, float(mean_delay))
        if sample:
            noise_state = (
                rho * noise_state + innovation_scale * float(rng.normal())
            )
            value = float(mu[0]) + float(sigma[0]) * noise_state
            delay = model.target_scaler.inverse_transform_column(
                np.array([value]), 0
            )[0]
            delay = max(floor, float(delay))
        else:
            delay = mean_delay
        predictions[t] = delay
        prev_delay_real = mean_delay
    return predictions
