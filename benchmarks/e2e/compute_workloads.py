"""The two in-process workloads: ``counterfactual`` (the paper's
instance test: trace, core.iboxnet, simulation, protocols) and
``iboxml`` (section 4.2: ml, core.iboxml).  ``serve`` does none of the
work here.

Both time whole passes over fixed inputs, so a run never stops half way
through a slow item, and both repeat every result bit for bit for a
seed - which the gate checks by comparing later passes with the first.
A traced run repeats one pass with a span around each public call.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import iboxnet
from repro.core.iboxml import IBoxMLConfig, IBoxMLModel, delay_distribution_error
from repro.ml.losses import gaussian_nll
from repro.simulation.engine import Simulator
from repro.trace.features import packet_features
from repro.trace.io import load_trace
from repro.trace.metrics import summarize
from repro.trace.records import Trace

import harness
import inputs
import layerwalk
import spec
from harness import Context, Result, Tracer

_SUMMARY_FIELDS = (
    "mean_rate_mbps", "p95_delay_ms", "loss_percent",
    "packets_sent", "packets_delivered",
)


def _summary_dict(summary: Any) -> Dict[str, float]:
    return {name: getattr(summary, name) for name in _SUMMARY_FIELDS}


def _checksum(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _passes_until(seconds: float, one_pass: Callable[[], None]) -> float:
    """Whole passes while another one still fits; returns the wall time."""
    t0 = time.perf_counter()
    last = 0.0
    while True:
        p0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        last = now - p0
        if now - t0 + last > seconds:
            return now - t0


def _check_span_coverage(result: Result, tracer: Tracer, root: str) -> None:
    """Self times under ``root`` must add up to the traced wall time
    (within 5 %): no time between the spans goes unaccounted."""
    wall = sum(tracer.durations(root))
    covered = sum(tracer.self_times(under=root).values())
    share = abs(covered - wall) / wall if wall else 1.0
    result.check(
        "trace.self_times_cover_wall", share <= 0.05,
        f"self times {covered:.4f}s vs traced wall {wall:.4f}s",
    )


# ----------------------------------------------------------------------
# counterfactual
# ----------------------------------------------------------------------
def counterfactual(ctx: Context) -> Result:
    result = ctx.result()
    sizes = ctx.sizes
    generate_s: List[float] = []

    def setup(attempt: int) -> Tuple[List[Path], Dict[str, Dict[str, float]]]:
        traces, per_trace = inputs.write_traces(
            Path(f"data-{attempt}"), ctx.seed, sizes.cf_paths, sizes.cf_sec
        )
        generate_s.append(per_trace)
        # Ground truth for the same paths - what each protocol really
        # did there - is what the counterfactuals are scored against.
        # Only the traced run reports that score, so only it pays the
        # packet simulations (they would triple the untraced set-up).
        truth = {}
        if ctx.traced:
            truth = {
                f"{index}/{protocol}": _summary_dict(
                    summarize(
                        inputs.generate_trace(
                            ctx.seed, index, protocol, sizes.cf_sec
                        )
                    )
                )
                for index in range(sizes.cf_paths)
                for protocol in inputs.PROTOCOLS
            }
        return traces, truth

    (traces, truth), setup_times = harness.repeat_setup(
        ctx, setup, lambda state: None
    )
    result.timing("setup_s", setup_times, 1.0)

    path_sec: List[float] = []
    reference: Dict[str, Dict[str, float]] = {}
    drifted: List[str] = []

    def one_pass(tracer: Tracer) -> Dict[str, Dict[str, float]]:
        summaries: Dict[str, Dict[str, float]] = {}
        for index, path in enumerate(traces):
            t0 = time.perf_counter()
            with tracer.span("counterfactual.path", f"path-{index}"):
                with tracer.span("trace.load"):
                    trace = load_trace(path)
                with tracer.span("iboxnet.fit"):
                    model = iboxnet.fit(trace)
                for protocol in inputs.PROTOCOLS:
                    with tracer.span(f"emulator.simulate.{protocol}"):
                        predicted = model.simulate(
                            protocol, duration=sizes.cf_sec,
                            seed=inputs.run_seed(ctx.seed, index, salt=7),
                        )
                    with tracer.span("trace.summarize"):
                        summaries[f"{index}/{protocol}"] = _summary_dict(
                            summarize(predicted)
                        )
            path_sec.append(time.perf_counter() - t0)
        return summaries

    def checked_pass(tracer: Tracer) -> None:
        summaries = one_pass(tracer)
        result.count(len(summaries), 0)
        if not reference:
            reference.update(summaries)
        elif summaries != reference:
            drifted.append("a later pass differs from the first")

    if ctx.traced:
        u0 = time.perf_counter()
        checked_pass(harness.NullTracer())
        untraced_wall = time.perf_counter() - u0
        path_sec.clear()
        with ctx.tracer.span("pass"):
            checked_pass(ctx.tracer)
        traced_wall = ctx.tracer.durations("pass")[0]
        wall = traced_wall
        _check_span_coverage(result, ctx.tracer, "pass")
        _counterfactual_layers(
            ctx, result, traces, reference,
            (traced_wall - untraced_wall) / untraced_wall, generate_s,
        )
    else:
        wall = _passes_until(ctx.seconds, lambda: checked_pass(ctx.tracer))
    runs = result.attempted if not ctx.traced else len(reference)
    result.timing("latency_p50_ms", path_sec, 1e3)
    result.timing("latency_p90_ms", path_sec, 1e3, q=90)
    result.metric("throughput_per_s", runs / wall, runs)
    result.metric("peak_rss_mb", harness.peak_rss_mb_self())

    degenerate = [
        key for key, s in reference.items()
        if not (s["packets_delivered"] > 0 and np.isfinite(s["mean_rate_mbps"])
                and np.isfinite(s["p95_delay_ms"]) and s["mean_rate_mbps"] > 0)
    ]
    result.failed += len(degenerate)
    result.check("summaries.sane", not degenerate, f"degenerate runs: {degenerate}")
    result.check("summaries.repeat_exactly", not drifted, "; ".join(drifted[:1]))
    result.exact["summary_checksum"] = _checksum(reference)
    if ctx.traced:
        fidelity = _fidelity(reference, truth)
        result.metric("iboxnet.fidelity_err", fidelity, len(truth))
        result.exact["iboxnet.fidelity_err"] = fidelity
        result.check(
            "fidelity.within_limit", fidelity <= spec.FIDELITY_ERR_LIMIT,
            f"fidelity_err={fidelity:.4f} limit={spec.FIDELITY_ERR_LIMIT}",
        )
    return result


def _fidelity(predicted: Dict[str, Dict[str, float]], truth: Dict[str, Dict[str, float]]) -> float:
    """Mean relative error of mean rate and p95 delay vs ground truth."""
    errors = []
    for key, want in truth.items():
        got = predicted[key]
        for name in ("mean_rate_mbps", "p95_delay_ms"):
            errors.append(abs(got[name] - want[name]) / abs(want[name]))
    return float(np.mean(errors))


def _counterfactual_layers(
    ctx: Context,
    result: Result,
    traces: List[Path],
    predicted: Dict[str, Dict[str, float]],
    overhead: float,
    generate_s: List[float],
) -> None:
    tracer, sizes = ctx.tracer, ctx.sizes
    layerwalk.probe_noop_span(result)
    result.timing("trace.load_ms", tracer.durations("trace.load"), 1e3)
    result.timing("trace.summarize_ms", tracer.durations("trace.summarize"), 1e3)
    result.timing("iboxnet.fit_ms", tracer.durations("iboxnet.fit"), 1e3)
    result.timing("datasets.generate_s_per_trace", generate_s, 1.0)
    simulate_sec: List[float] = []
    packets = 0
    for protocol in inputs.PROTOCOLS:
        durations = tracer.durations(f"emulator.simulate.{protocol}")
        sent = sum(
            s["packets_sent"] for key, s in predicted.items()
            if key.endswith("/" + protocol)
        )
        result.metric(
            f"protocols.pkts_per_s.{protocol}", sent / sum(durations), len(durations)
        )
        simulate_sec += durations
        packets += sent
    result.timing("emulator.simulate_ms", simulate_sec, 1e3)
    result.metric("emulator.pkts_per_s", packets / sum(simulate_sec), len(simulate_sec))

    trace = load_trace(traces[0])
    model = iboxnet.fit(trace)
    result.timing(
        "trace.features_ms", harness.time_calls(lambda: packet_features(trace), 5), 1e3
    )
    result.timing(
        "iboxnet.profile_roundtrip_us",
        harness.time_calls(
            lambda: iboxnet.from_profile(iboxnet.to_profile(model)),
            sizes.probe_calls,
        ),
        1e6,
    )
    # Host time at 3x the simulated duration over 3x the host time at
    # 1x: 1.0 is linear, more means a per-packet cost that grows.
    for protocol in inputs.PROTOCOLS:
        with tracer.span(f"probe.superlinearity.{protocol}"):
            short = harness.time_calls(
                lambda: model.simulate(protocol, duration=sizes.cf_sec, seed=3), 1
            )[0]
            long = harness.time_calls(
                lambda: model.simulate(protocol, duration=3 * sizes.cf_sec, seed=3), 1
            )[0]
        result.metric(f"protocols.superlinearity.{protocol}", long / (3 * short))

    def drain_events() -> None:
        sim = Simulator()
        for n in range(sizes.engine_events):
            sim.schedule(n * 1e-6, _noop)
        sim.run(until=1.0)
        if sim.events_processed != sizes.engine_events:
            raise RuntimeError("engine probe: calendar did not drain")

    engine = harness.time_calls(drain_events, 3)
    result.metric(
        "engine.events_per_s", sizes.engine_events / harness.median(engine), len(engine)
    )
    result.metric("bench.trace_overhead_share", overhead)
    result.metric(
        "bench.failed_share", result.failed / max(result.attempted, 1), result.attempted
    )


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# iboxml
# ----------------------------------------------------------------------
def iboxml(ctx: Context) -> Result:
    result = ctx.result()
    sizes = ctx.sizes

    def setup(attempt: int) -> Tuple[List[Trace], Trace, List[Trace], IBoxMLModel]:
        # Exact packet counts, so every seed trains and unrolls the
        # same amount of work.
        train = [
            inputs.chunks(
                inputs.generate_trace(ctx.seed, index, "cubic", sizes.ml_trace_sec),
                sizes.ml_train_packets, 1,
            )[0]
            for index in range(sizes.ml_train_traces)
        ]
        held_out = inputs.chunks(
            inputs.generate_trace(
                ctx.seed, sizes.ml_train_traces, "cubic", sizes.ml_trace_sec
            ),
            sizes.ml_slice_packets * sizes.ml_slices, 1,
        )[0]
        slices = inputs.chunks(held_out, sizes.ml_slice_packets, sizes.ml_slices)
        # Unroll cost depends on the architecture alone, so the
        # paper-size model is fitted just enough to be usable.
        paper = IBoxMLModel(
            IBoxMLConfig(
                hidden_dim=sizes.paper_hidden, num_layers=sizes.paper_layers,
                epochs=1, rollout_rounds=1, train_seq_len=50,
            )
        )
        paper.fit([slices[-1]])
        return train, held_out, slices, paper

    (train, held_out, slices, paper), setup_times = harness.repeat_setup(
        ctx, setup, lambda state: None
    )
    result.timing("setup_s", setup_times, 1.0)
    tracer = ctx.tracer

    # -- train the default model --------------------------------------
    started = time.perf_counter()
    model = IBoxMLModel(IBoxMLConfig(epochs=sizes.ml_epochs))
    with tracer.span("iboxml.fit"):
        t0 = time.perf_counter()
        log = model.fit(train)
        fit_sec = time.perf_counter() - t0
    epochs = len(log.losses)
    trained_packets = sum(len(t) for t in train) * epochs
    result.count(1, 0 if log.losses and np.isfinite(log.losses[-1]) else 1)
    result.metric("throughput_per_s", trained_packets / fit_sec, trained_packets)

    # -- score it on the held-out trace -------------------------------
    with tracer.span("iboxml.predict_delays.small"):
        t0 = time.perf_counter()
        delays = model.predict_delays(held_out, sample=True, seed=ctx.seed)
        small_sec = time.perf_counter() - t0
    delay_err = delay_distribution_error(delays, held_out.delivered_delays())
    result.count(1, 0 if np.isfinite(delay_err) else 1)

    # -- unroll the paper-size model, slice by slice ------------------
    per_packet: List[float] = []
    first: Dict[int, np.ndarray] = {}
    drifted = 0

    def unroll_pass() -> None:
        nonlocal drifted
        for k, piece in enumerate(slices):
            with tracer.span("iboxml.predict_delays.paper", f"slice-{k}"):
                t0 = time.perf_counter()
                out = paper.predict_delays(piece, sample=False)
                per_packet.append((time.perf_counter() - t0) / len(piece))
            ok = len(out) == len(piece) and bool(np.isfinite(out).all())
            result.count(1, 0 if ok else 1)
            if k not in first:
                first[k] = out
            elif not np.array_equal(first[k], out):
                drifted += 1

    if ctx.traced:
        unroll_pass()
    else:
        _passes_until(ctx.seconds - (time.perf_counter() - started), unroll_pass)
    result.timing("latency_p50_ms", per_packet, 1e3)
    result.timing("latency_p90_ms", per_packet, 1e3, q=90)
    result.metric("peak_rss_mb", harness.peak_rss_mb_self())
    result.check("unroll.repeats_exactly", drifted == 0, f"{drifted} slices drifted")
    result.exact["iboxml.unroll_delay_err"] = delay_err
    result.exact["unroll_checksum"] = _checksum(
        [first[k].tolist() for k in sorted(first)]
    )
    if ctx.traced:
        result.metric("iboxml.train_s_per_epoch", fit_sec / epochs, epochs)
        result.metric("iboxml.unroll_delay_err", delay_err, len(delays))
        result.metric(
            "iboxml.unroll_small_us_per_pkt", small_sec / len(held_out) * 1e6,
            len(held_out),
        )
        _iboxml_layers(ctx, result, model, paper, held_out, slices)
    return result


def _iboxml_layers(
    ctx: Context,
    result: Result,
    model: IBoxMLModel,
    paper: IBoxMLModel,
    held_out: Trace,
    slices: List[Trace],
) -> None:
    layerwalk.probe_noop_span(result)
    result.metric("iboxml.params", paper.num_parameters())
    packets = sum(len(piece) for piece in slices)

    def unroll_all(dtype: str) -> List[np.ndarray]:
        return [paper.predict_delays(p, sample=False, dtype=dtype) for p in slices]

    t0 = time.perf_counter()
    f64 = unroll_all("float64")
    f64_sec = time.perf_counter() - t0
    t0 = time.perf_counter()
    f32 = unroll_all("float32")
    f32_sec = time.perf_counter() - t0
    result.metric("iboxml.unroll_f64_ms_per_pkt", f64_sec / packets * 1e3, packets)
    result.metric("iboxml.unroll_f32_ms_per_pkt", f32_sec / packets * 1e3, packets)
    a, b = np.concatenate(f64), np.concatenate(f32)
    rel_err = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    result.metric("iboxml.f32_vs_f64_rel_err", rel_err, packets)
    result.exact["iboxml.f32_vs_f64_rel_err"] = rel_err
    result.check(
        "iboxml.f32_close_to_f64", rel_err <= spec.F32_REL_ERR_LIMIT,
        f"rel_err={rel_err:.3g} limit={spec.F32_REL_ERR_LIMIT}",
    )

    # One training batch of the default model: forward, and forward +
    # loss + backward.
    rng = np.random.default_rng(ctx.seed)
    config = model.config
    x = rng.standard_normal((config.batch_size, config.train_seq_len, config.input_dim))
    target = rng.standard_normal((config.batch_size, config.train_seq_len))
    net = model.model
    result.timing("lstm.forward_ms", harness.time_calls(lambda: net.lstm.forward(x), 5), 1e3)

    def bptt() -> None:
        mu, log_sigma = net.forward(x)
        _, grad_mu, grad_log_sigma = gaussian_nll(mu, log_sigma, target)
        net.backward(grad_mu, grad_log_sigma)

    result.timing("lstm.bptt_ms", harness.time_calls(bptt, 5), 1e3)
    x_t = np.zeros((1, paper.config.input_dim))
    states: List[Optional[list]] = [None]

    def step() -> None:
        _, _, states[0] = paper.model.step(x_t, states[0])

    step()  # warm-up: allocates the state
    result.timing(
        "lstm.step_us", harness.time_calls(step, ctx.sizes.probe_calls), 1e6
    )

    # The same unroll with and without the benchmark's spans.
    some = slices[: max(1, len(slices) // 2)]

    def unroll_some(tracer: Tracer) -> float:
        t0 = time.perf_counter()
        with tracer.span("overhead.pass"):
            for k, piece in enumerate(some):
                with tracer.span("overhead.predict_delays", f"slice-{k}"):
                    paper.predict_delays(piece, sample=False)
        return time.perf_counter() - t0

    plain = unroll_some(harness.NullTracer())
    traced = unroll_some(ctx.tracer)
    result.metric("bench.trace_overhead_share", (traced - plain) / plain)
    _check_span_coverage(result, ctx.tracer, "overhead.pass")
    result.metric(
        "bench.failed_share", result.failed / max(result.attempted, 1), result.attempted
    )
