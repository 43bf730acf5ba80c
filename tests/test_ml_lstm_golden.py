"""Golden-output tests: optimized hot paths vs preserved originals.

The optimized LSTM forward/step and the iBoxML unroll restructure GEMMs
(split weights, whole-sequence input projection, fused-tanh gates).  All
of that is algebraically the same function; the only legitimate drift is
floating-point association.  These tests pin the optimized paths to the
faithful pre-optimization implementations in ``tests/lstm_reference.py``
at ≤1e-9 — far above fp-association noise (~1e-15), far below anything
behavioural.
"""

import numpy as np
import pytest

from repro.core.iboxml import IBoxMLConfig, IBoxMLModel
from repro.ml.lstm import LSTM
from repro.ml.model import GaussianSequenceModel
from repro.trace.records import PacketRecord, Trace
from tests import lstm_reference as reference

GOLDEN_ATOL = 1e-9


def _poisson_trace(n: int, seed: int = 0, mean_gap: float = 1e-3) -> Trace:
    """Synthetic Poisson-arrival trace with smooth queueing-like delays."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap, size=n)
    sent = np.cumsum(gaps)
    # AR(1) delay process: marginally plausible, temporally smooth.
    delays = np.empty(n)
    state = 0.0
    for i in range(n):
        state = 0.95 * state + 0.05 * float(rng.normal())
        delays[i] = 0.02 + 0.005 * state
    delays = np.clip(delays, 1e-3, None)
    records = [
        PacketRecord(
            uid=i,
            seq=i,
            size=int(rng.integers(200, 1500)),
            sent_at=float(sent[i]),
            delivered_at=float(sent[i] + delays[i]),
        )
        for i in range(n)
    ]
    return Trace("bench-synth", records, duration=float(sent[-1]) + 1.0)


def _unroll_model(hidden: int, layers: int, n: int, seed: int = 0):
    """An iBoxML model ready to unroll, without paying for training.

    The unroll only consumes weights and scaler statistics, so random
    (freshly initialised) weights plus scalers fitted to the feature
    matrix benchmark exactly the shipped arithmetic.
    """
    from repro.core.iboxml import IBoxMLConfig, IBoxMLModel

    trace = _poisson_trace(n, seed)
    model = IBoxMLModel(
        IBoxMLConfig(hidden_dim=hidden, num_layers=layers, seed=seed)
    )
    feats = model._trace_features(trace, None)
    model.feature_scaler.fit(feats)
    model.target_scaler.fit(trace.delays[:, None])
    model._fitted = True
    return model, feats


@pytest.fixture()
def stack():
    return LSTM(input_dim=4, hidden_dim=16, num_layers=2,
                rng=np.random.default_rng(7))


def test_forward_matches_reference(stack):
    x = np.random.default_rng(1).normal(size=(3, 40, 4))
    got = stack.forward(x)
    want = reference.reference_stack_forward(stack, x)
    np.testing.assert_allclose(got, want, atol=GOLDEN_ATOL, rtol=0)


def test_step_matches_reference(stack):
    rng = np.random.default_rng(2)
    states = ref_states = None
    for _ in range(25):
        x_t = rng.normal(size=(2, 4))
        got, states = stack.step(x_t, states)
        want, ref_states = reference.reference_stack_step(
            stack, x_t, ref_states
        )
        np.testing.assert_allclose(got, want, atol=GOLDEN_ATOL, rtol=0)
    for (h, c), (rh, rc) in zip(states, ref_states):
        np.testing.assert_allclose(h, rh, atol=GOLDEN_ATOL, rtol=0)
        np.testing.assert_allclose(c, rc, atol=GOLDEN_ATOL, rtol=0)


def test_gaussian_model_step_matches_reference():
    model = GaussianSequenceModel(
        input_dim=4, hidden_dim=16, num_layers=2, seed=3
    )
    rng = np.random.default_rng(4)
    states = ref_states = None
    for _ in range(10):
        x_t = rng.normal(size=(1, 4))
        mu, sigma, states = model.step(x_t, states)
        rmu, rsigma, ref_states = reference.reference_model_step(
            model, x_t, ref_states
        )
        np.testing.assert_allclose(mu, rmu, atol=GOLDEN_ATOL, rtol=0)
        np.testing.assert_allclose(sigma, rsigma, atol=GOLDEN_ATOL, rtol=0)


@pytest.fixture(scope="module")
def unroll_model():
    return _unroll_model(hidden=16, layers=2, n=120, seed=5)


@pytest.mark.parametrize("sample", [False, True])
def test_unroll_matches_reference(unroll_model, sample):
    """The free-running unroll: same delays, both modes, same RNG path."""
    model, feats = unroll_model
    got = model._unroll_features_inner(feats, sample, seed=42)
    want = reference.reference_unroll(model, feats, sample, seed=42)
    np.testing.assert_allclose(got, want, atol=GOLDEN_ATOL, rtol=0)


def test_unroll_float32_within_documented_tolerance(unroll_model):
    """The float32 fast path tracks float64 to the tolerance documented
    in IBoxMLConfig.unroll_dtype / PERFORMANCE.md (~1e-5 relative)."""
    model, feats = unroll_model
    f64 = model._unroll_features_inner(feats, True, seed=42)
    f32 = model._unroll_features_inner(feats, True, seed=42, dtype="float32")
    np.testing.assert_allclose(f32, f64, rtol=1e-4)


def test_unroll_dtype_config_roundtrip(tmp_path):
    """unroll_dtype is honoured from config and survives save/load."""
    rng = np.random.default_rng(0)
    sent = np.cumsum(rng.exponential(1e-3, size=80))
    records = [
        PacketRecord(uid=i, seq=i, size=1000, sent_at=float(t),
                     delivered_at=float(t) + 0.02)
        for i, t in enumerate(sent)
    ]
    trace = Trace("dtype-rt", records, duration=float(sent[-1]) + 1.0)
    model = IBoxMLModel(IBoxMLConfig(
        hidden_dim=8, num_layers=1, epochs=1, rollout_rounds=1,
        unroll_dtype="float32",
    ))
    model.fit([trace])
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = IBoxMLModel.load(path)
    assert loaded.config.unroll_dtype == "float32"
    np.testing.assert_allclose(
        loaded.predict_delays(trace, seed=1),
        model.predict_delays(trace, seed=1),
        rtol=1e-6,
    )
