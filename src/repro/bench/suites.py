"""The benchmark cases: one per named hot path.

Workload sizes follow the repo's quick/full convention (cf. the
``--scale`` flag of ``repro reproduce``): ``quick`` keeps the whole
suite under ~30 s for CI smoke runs; full sizes give stabler medians
for PERFORMANCE.md numbers.

Micro cases (``ml.*``, ``sim.engine``) time one function against its
preserved pre-optimization reference; macro cases (``fit.iboxnet``,
``emulate.packet_path``, ``runtime.batch_*``) time a whole production
entry point end to end and have no reference — their baseline is the
committed ``BENCH_baseline.json``.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.bench import reference
from repro.bench.harness import BenchCase, CaseResult, PreparedCase, run_case
from repro.bench.results import BenchReport
from repro.trace.records import PacketRecord, Trace

# ---------------------------------------------------------------------------
# Shared workload builders
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Case builders
# ---------------------------------------------------------------------------


def _make_lstm_forward(quick: bool) -> PreparedCase:
    from repro.ml.lstm import LSTM

    steps = 50 if quick else 200
    batch = 8
    lstm = LSTM(4, 64, 2, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(batch, steps, 4))
    return PreparedCase(
        fn=lambda: lstm.forward(x),
        ref_fn=lambda: reference.reference_stack_forward(lstm, x),
        items=batch * steps,
        unit="timesteps",
    )


def _make_lstm_step(quick: bool) -> PreparedCase:
    from repro.ml.lstm import LSTM

    steps = 100 if quick else 400
    lstm = LSTM(4, 64, 2, np.random.default_rng(0))
    xs = np.random.default_rng(1).normal(size=(steps, 1, 4))

    def run_new():
        states = None
        for t in range(steps):
            _, states = lstm.step(xs[t], states)

    def run_ref():
        states = None
        for t in range(steps):
            _, states = reference.reference_stack_step(lstm, xs[t], states)

    return PreparedCase(
        fn=run_new, ref_fn=run_ref, items=steps, unit="timesteps"
    )


def _make_unroll(quick: bool) -> PreparedCase:
    n = 300 if quick else 1500
    model, feats = _unroll_model(hidden=32, layers=2, n=n)
    return PreparedCase(
        fn=lambda: model._unroll_features_inner(feats, True, 42),
        ref_fn=lambda: reference.reference_unroll(model, feats, True, 42),
        items=n,
        unit="packets",
    )


def _make_unroll_f32(quick: bool) -> PreparedCase:
    # Paper-sized stack (§4.1: 4 layers, ~2 M parameters): the float32
    # fast path pays off where GEMV memory traffic dominates, so it is
    # measured there; the reference here is the *optimized* float64
    # unroll — this case isolates the dtype, not the restructuring.
    n = 60 if quick else 250
    model, feats = _unroll_model(hidden=256, layers=4, n=n)
    return PreparedCase(
        fn=lambda: model._unroll_features_inner(
            feats, True, 42, dtype="float32"
        ),
        ref_fn=lambda: model._unroll_features_inner(feats, True, 42),
        items=n,
        unit="packets",
    )


def _make_fit_iboxnet(quick: bool) -> PreparedCase:
    from repro.core import iboxnet

    n = 500 if quick else 2000
    trace = _poisson_trace(n, seed=3)
    return PreparedCase(
        fn=lambda: iboxnet.fit(trace), items=n, unit="packets"
    )


def _engine_workload(sim_factory, n_events: int, polls: int) -> int:
    """Schedule, cancel a slice, poll ``pending_events``, drain.

    Mirrors production usage: protocols cancel timers constantly (every
    ACK cancels an RTO) and monitoring reads ``pending_events`` while
    the calendar is large — which is exactly where the O(n) scan hurt.
    """
    sim = sim_factory()

    def noop() -> None:
        pass

    events = [sim.schedule(i * 1e-6, noop) for i in range(n_events)]
    for event in events[:: 10]:
        event.cancel()
    monitored = 0

    def monitor() -> None:
        nonlocal monitored
        monitored += sim.pending_events

    horizon = n_events * 1e-6
    for j in range(polls):
        sim.schedule(j * horizon / polls, monitor)
    sim.run(until=horizon + 1.0)
    return monitored


def _make_engine(quick: bool) -> PreparedCase:
    from repro.simulation.engine import Simulator

    n_events = 10_000 if quick else 50_000
    polls = 50 if quick else 100
    return PreparedCase(
        fn=lambda: _engine_workload(Simulator, n_events, polls),
        ref_fn=lambda: _engine_workload(
            reference.ReferenceSimulator, n_events, polls
        ),
        items=n_events + polls,
        unit="events",
    )


def _make_emulate(quick: bool) -> PreparedCase:
    from repro.simulation.emulator import EmulatorConfig, NetworkEmulator

    duration = 1.5 if quick else 5.0
    emulator = NetworkEmulator(
        EmulatorConfig(
            bandwidth_bytes_per_sec=1.25e6,  # 10 Mbit/s
            propagation_delay=0.02,
            buffer_bytes=32_000.0,
            include_cross_traffic=False,
        )
    )
    return PreparedCase(
        fn=lambda: len(emulator.run("cubic", duration=duration, seed=0).trace),
        items=None,  # packet count comes back from fn
        unit="packets",
    )


def _make_batch(quick: bool, warm: bool) -> PreparedCase:
    from repro.runtime.batch import ExecutorConfig, run_batch
    from repro.trace.io import save_traces

    n_traces = 2 if quick else 3
    n_packets = 200 if quick else 400
    duration = 1.0 if quick else 2.0
    root = Path(tempfile.mkdtemp(prefix="repro-bench-batch-"))
    traces = [
        _poisson_trace(n_packets, seed=10 + k) for k in range(n_traces)
    ]
    for k, trace in enumerate(traces):
        trace.flow_id = f"bench-batch-{k}"
    trace_paths = save_traces(traces, root / "traces")
    fresh = itertools.count()

    def run(cache_dir: Path) -> int:
        results, _, _ = run_batch(
            trace_paths,
            protocols=("cubic",),
            duration=duration,
            cache_dir=cache_dir,
            config=ExecutorConfig(workers=1),
        )
        failed = [r for r in results if not r.ok]
        if failed:
            raise RuntimeError(
                f"bench batch job failed: {failed[0].error.message}"
            )
        return len(results)

    if warm:
        warm_cache = root / "cache-warm"
        run(warm_cache)  # prefill: every timed call is then a cache hit
        fn = lambda: run(warm_cache)  # noqa: E731
    else:
        fn = lambda: run(root / f"cache-cold-{next(fresh)}")  # noqa: E731

    return PreparedCase(
        fn=fn,
        items=n_traces,
        unit="jobs",
        cleanup=lambda: shutil.rmtree(root, ignore_errors=True),
    )


def _sweep_grid(n_paths: int, protocols, seeds: int, duration: float):
    from repro.sweep import ScenarioGrid, SweepPath

    rates = np.linspace(4e5, 2e6, n_paths)  # 3.2..16 Mbit/s
    delays = np.linspace(0.01, 0.06, n_paths)
    paths = tuple(
        SweepPath(
            bandwidth_bytes_per_sec=float(rate),
            propagation_delay=float(delay),
            buffer_bytes=float(2 * rate * 2 * delay),  # 2 BDP
            label=f"bench-{k}",
        )
        for k, (rate, delay) in enumerate(zip(rates, delays))
    )
    return ScenarioGrid(
        paths=paths,
        protocols=tuple(protocols),
        seeds=tuple(range(seeds)),
        duration=duration,
    )


def _make_sweep_flow(quick: bool) -> PreparedCase:
    """The lockstep fast path: pack once, time ``run_fleet`` alone."""
    from repro.sweep import pack_fleet, run_fleet

    duration = 4.0
    n_paths = 8 if quick else 16
    seeds = 8 if quick else 16
    grid = _sweep_grid(
        n_paths, ("cubic", "reno", "bbr", "rtc"), seeds, duration
    )
    fleet = pack_fleet(grid.expand())
    return PreparedCase(
        fn=lambda: run_fleet(fleet).n_scenarios,
        items=len(grid),
        unit="scenarios",
    )


def _make_sweep_packet_ref(quick: bool) -> PreparedCase:
    """The same scenario shape through the packet engine (the cost the
    flow core displaces; the ≥50× claim is this case vs sweep.flow_1k)."""
    from repro.simulation.topology import run_flow
    from repro.sweep.fidelity import path_config_for

    duration = 4.0
    grid = _sweep_grid(2, ("cubic", "reno"), 1, duration)
    specs = grid.expand()[: 2 if quick else 4]

    def run() -> int:
        for spec in specs:
            run_flow(
                path_config_for(spec.path),
                spec.protocol,
                spec.duration,
                spec.seed,
            )
        return len(specs)

    return PreparedCase(fn=run, items=len(specs), unit="scenarios")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CASES: Dict[str, BenchCase] = {
    case.name: case
    for case in (
        BenchCase(
            name="ml.lstm_forward",
            make=_make_lstm_forward,
            description="stacked LSTM sequence forward (B=8, H=64, 2 "
            "layers) vs pre-PR per-step concat reference",
        ),
        BenchCase(
            name="ml.lstm_step",
            make=_make_lstm_step,
            description="stacked LSTM single-step inference vs pre-PR "
            "per-call concat reference",
        ),
        BenchCase(
            name="ml.unroll",
            make=_make_unroll,
            description="iBoxML free-running unroll (§4.2 bottleneck), "
            "default model size, vs pre-PR generic step loop",
            metric="ml.packets_per_sec",
        ),
        BenchCase(
            name="ml.unroll_f32",
            make=_make_unroll_f32,
            description="float32 unroll fast path at paper model size "
            "(H=256, 4 layers) vs the optimized float64 unroll",
            metric="ml.packets_per_sec",
        ),
        BenchCase(
            name="fit.iboxnet",
            make=_make_fit_iboxnet,
            description="full §3 iBoxNet fit (static params + "
            "cross-traffic reconstruction)",
        ),
        BenchCase(
            name="sim.engine",
            make=_make_engine,
            description="DES event loop with timer cancellations and "
            "pending_events monitoring vs pre-PR kernel",
        ),
        BenchCase(
            name="emulate.packet_path",
            make=_make_emulate,
            description="end-to-end emulator packet path (cubic over a "
            "10 Mbit/s learnt path)",
        ),
        BenchCase(
            name="runtime.batch_cold",
            make=lambda quick: _make_batch(quick, warm=False),
            description="repro batch pipeline, cold profile cache "
            "(every job fits from scratch)",
        ),
        BenchCase(
            name="runtime.batch_warm",
            make=lambda quick: _make_batch(quick, warm=True),
            description="repro batch pipeline, warm profile cache "
            "(every job is a content-address hit)",
        ),
        BenchCase(
            name="sweep.flow_1k",
            make=_make_sweep_flow,
            description="vectorized flow-level fleet (paths x 4 "
            "protocols x seeds, 4 s) advanced in lockstep",
            metric="sweep.scenarios_per_sec",
        ),
        BenchCase(
            name="sweep.packet_ref",
            make=_make_sweep_packet_ref,
            description="identical scenario shape through the per-packet "
            "DES engine (the cost the sweep core displaces)",
            metric="sweep.scenarios_per_sec",
        ),
    )
}


def case_names() -> List[str]:
    return list(CASES)


def run_suite(
    filters: Optional[List[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> BenchReport:
    """Run (a filtered subset of) the suite and assemble a report.

    ``filters`` is a list of substrings; a case runs if any of them
    occurs in its name (no filters = whole suite).  A case that raises
    is recorded with its error instead of aborting the suite.
    """
    selected = [
        case
        for name, case in CASES.items()
        if not filters or any(f in name for f in filters)
    ]
    if not selected:
        raise ValueError(
            f"no benchmark case matches {filters!r}; "
            f"available: {', '.join(CASES)}"
        )
    results: List[CaseResult] = []
    log = obs.get_logger("repro.bench")
    with obs.span("bench.suite", cases=len(selected), quick=quick):
        for case in selected:
            log.info("bench.case_start", case=case.name)
            try:
                results.append(
                    run_case(case, quick=quick, repeats=repeats, warmup=warmup)
                )
            except Exception as exc:  # keep the suite alive
                log.error("bench.case_failed", case=case.name, error=str(exc))
                results.append(
                    CaseResult(
                        name=case.name,
                        times_sec=[],
                        items=0,
                        unit="items",
                        repeats=0,
                        warmup=0,
                        description=case.description,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return BenchReport.create(results, quick=quick)
