"""The four workloads that drive the shipped service as a subprocess:
``serve_noop``, ``fleet_noop``, ``serve_mix`` and ``recover_readback``.

An untraced run measures the end-to-end metrics and nothing else.  A
traced run shortens the phases and adds the shipped-client phase, a
sampled burst, live probes against the still-running service and the
in-process layer walk (`layerwalk`), which together give the per-layer
numbers and say how much of the latency the layers do not account for.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.metrics import histogram_from_snapshot
from repro.runtime.cache import ProfileCache
from repro.serve import JobJournal, fetch_result
from repro.serve.transport import exchange
from repro.sweep import run_scenarios

import harness
import inputs
import layerwalk
import loadgen
import service
import spec
from harness import Context, Result
from loadgen import JobStream, Phase
from service import Service

#: ``phase tag -> stream``: each phase draws from its own seeded stream.
StreamFactory = Callable[[str], JobStream]


# ----------------------------------------------------------------------
# serve_noop / fleet_noop / serve_mix
# ----------------------------------------------------------------------
def serve_noop(ctx: Context) -> Result:
    return _serve(ctx, fleet=False, mix=False)


def fleet_noop(ctx: Context) -> Result:
    return _serve(ctx, fleet=True, mix=False)


def serve_mix(ctx: Context) -> Result:
    return _serve(ctx, fleet=False, mix=True)


def _serve(ctx: Context, fleet: bool, mix: bool) -> Result:
    result = ctx.result()
    generate_s: List[float] = []

    def setup(attempt: int) -> Tuple[Service, StreamFactory]:
        if mix:
            traces, per_trace = inputs.write_traces(
                Path(f"data-{attempt}"), ctx.seed,
                ctx.sizes.mix_traces, ctx.sizes.mix_trace_sec,
            )
            generate_s.append(per_trace)
            streams: StreamFactory = lambda phase: inputs.mix_stream(  # noqa: E731
                ctx.workload, ctx.seed, phase, traces, ctx.sizes.mix_trace_sec
            )
        else:
            streams = lambda phase: inputs.noop_stream(  # noqa: E731
                ctx.workload, ctx.seed, phase
            )
        return Service(Path(f"state-{attempt}"), fleet=fleet).start(), streams

    def teardown(state: Tuple[Service, StreamFactory]) -> None:
        code = state[0].stop()
        result.check("setup.repeat_drained_exit_0", code == 0, f"exit={code}")

    (svc, streams), setup_times = harness.repeat_setup(ctx, setup, teardown)
    result.timing("setup_s", setup_times, 1.0)
    phases: List[Phase] = []
    try:
        if ctx.traced:
            _traced_phases(ctx, result, svc, streams, phases)
        else:
            shares = spec.SERVE_PHASES
            single = loadgen.single_phase(
                svc.endpoint, streams("s"), ctx.seconds * shares["single"], ctx.tracer
            )
            burst = loadgen.burst_phase(
                svc.endpoint, streams("b"), ctx.seconds * shares["burst"]
            )
            phases += [single, burst]
            _report_latency(result, single)
            result.metric(
                "throughput_per_s", burst.rate(),
                sum(landed for _, landed in burst.landings),
            )
        result.metric("peak_rss_mb", svc.peak_rss_mb())
    finally:
        svc.stop()
    submitted = _account(result, phases)
    service.check_journal(result, svc, submitted)
    _check_consistent(result, phases)
    if ctx.traced:
        result.metric("journal.segments", _segments(svc))
        if mix:
            result.timing("datasets.generate_s_per_trace", generate_s, 1.0)
            flags = [
                bool(payload.get("cache_hit"))
                for (kind, _), payload in _served(phases)
                if kind in ("simulate", "fit")
            ]
            result.metric("cache.hit_ratio", sum(flags) / len(flags), len(flags))
        walk = ctx.sizes.walk_jobs_mix if mix else ctx.sizes.walk_jobs
        payloads = _layer_probes(
            ctx, result, streams, walk, result.metrics.get("latency_p50_ms")
        )
        _check_walk_agrees(result, phases, payloads)
    return result


def _report_latency(result: Result, single: Phase) -> None:
    if single.latencies:
        result.timing("latency_p50_ms", single.latencies, 1e3)
        result.timing("latency_p90_ms", single.latencies, 1e3, q=90)


def _account(result: Result, phases: List[Phase]) -> int:
    """Fold the phases' operation counts into the result; returns how
    many jobs the service was sent."""
    for phase in phases:
        result.count(phase.attempted, phase.failed)
        for error in phase.errors:
            result.check("loadgen.operation", False, error)
    return sum(p.attempted for p in phases)


def _segments(svc: Service) -> int:
    dirs = sorted(svc.state.glob("shard-*")) if svc.fleet else [svc.state]
    return sum(service.journal_segments(d) for d in dirs)


def _served(phases: List[Phase]):
    """(content key, payload) of every result the phases fetched."""
    for phase in phases:
        for payload in phase.values.values():
            yield inputs.content_key(payload["value"]), payload


def _check_consistent(result: Result, phases: List[Phase]) -> None:
    """Results computed from the same content must be identical."""
    seen: Dict[Tuple[str, str], Any] = {}
    mismatched = 0
    for key, payload in _served(phases):
        view = inputs.stable_view(key[0], payload["value"])
        if seen.setdefault(key, view) != view:
            mismatched += 1
    result.check(
        "results.same_content_same_value", mismatched == 0,
        f"{mismatched} results differ from another result of the same content",
    )


def _check_walk_agrees(
    result: Result, phases: List[Phase], walked: Dict[str, Any]
) -> None:
    """What the layers produce in-process equals what the service served."""
    served: Dict[Tuple[str, str], Any] = {}
    for key, payload in _served(phases):
        served.setdefault(key, inputs.stable_view(key[0], payload["value"]))
    compared = differing = 0
    for payload in walked.values():
        key = inputs.content_key(payload["value"])
        if key in served:
            compared += 1
            differing += served[key] != inputs.stable_view(key[0], payload["value"])
    result.check(
        "results.walk_equals_service", differing == 0,
        f"{differing} of {compared} walked results differ from the served ones",
    )


# ----------------------------------------------------------------------
# The traced run of a serve workload
# ----------------------------------------------------------------------
def _traced_phases(
    ctx: Context,
    result: Result,
    svc: Service,
    streams: StreamFactory,
    phases: List[Phase],
) -> None:
    shares = spec.TRACED_PHASES
    layerwalk.probe_noop_span(result)
    single = loadgen.single_phase(
        svc.endpoint, streams("s"), ctx.seconds * shares["single"], ctx.tracer
    )
    phases.append(single)
    _report_latency(result, single)

    obs.configure(enabled=True)  # the shipped client counts its own attempts
    client = loadgen.client_phase(
        svc.endpoint, streams("c"), ctx.seconds * shares["client"]
    )
    phases.append(client)
    if client.latencies:
        result.timing("client.latency_p50_ms", client.latencies, 1e3)
        result.metric(
            "client.polls_per_job", client.polls / max(client.ok, 1), client.ok
        )
    result.metric("client.retries", loadgen.client_retries(), client.attempted)
    obs.configure(enabled=False)

    shard_endpoints = svc.shard_endpoints() if svc.fleet else {}
    daemons = list(shard_endpoints.values()) or [svc.endpoint]
    workers = len(daemons) * spec.FIXED_SETTINGS["workers"]
    sampled, busy, depth = loadgen.sampled_burst(
        svc.endpoint, daemons, workers, streams("q"),
        ctx.seconds * shares["sampled"],
    )
    phases.append(sampled)
    if busy:
        result.metric("supervisor.busy_share", sum(busy) / len(busy), len(busy))
        result.metric("queue.depth_p50", harness.median(depth), len(depth))

    _live_probes(ctx, result, svc, daemons, next(iter(single.values), None))


def _live_probes(
    ctx: Context,
    result: Result,
    svc: Service,
    daemons: List[str],
    done_id: Optional[str],
) -> None:
    """Round trips and counters of the still-running service;
    ``done_id`` names a completed job to fetch."""
    calls = ctx.sizes.probe_calls
    health = [{"verb": "health"}]
    rtt = harness.time_calls(lambda: exchange(svc.endpoint, health), calls)
    result.timing(
        "transport.rtt_tcp_us" if svc.fleet else "transport.rtt_unix_us", rtt, 1e6
    )
    if done_id is not None:
        via_front = harness.time_calls(
            lambda: fetch_result(svc.endpoint, done_id), calls
        )
        result.timing("client.fetch_ok_us", via_front, 1e6)
        if svc.fleet:
            owner = fetch_result(svc.endpoint, done_id)["shard"]
            direct = harness.time_calls(
                lambda: fetch_result(svc.shard_endpoints()[owner], done_id), calls
            )
            result.metric(
                "router.hop_us",
                (harness.median(via_front) - harness.median(direct)) * 1e6,
                calls,
            )
    if svc.fleet:
        result.metric("fleet.ready_s", svc.ready_s)
    else:
        result.metric("daemon.startup_s", svc.marker_s)

    shed = restarts = 0.0
    per_shard_jobs: List[int] = []
    run_sec: Dict[str, List[Tuple[float, int]]] = {}
    for endpoint in daemons:
        stats = exchange(endpoint, [{"verb": "stats"}])[0]["stats"]
        counters = stats["metrics"]["counters"]
        shed += counters.get("serve.shed", 0) + counters.get("serve.circuit_rejected", 0)
        restarts += counters.get("supervisor.restarts", 0)
        per_shard_jobs.append(stats["service"]["counts"]["total"])
        for name, described in stats["metrics"]["histograms"].items():
            if name.startswith("serve.latency_sec."):
                hist = histogram_from_snapshot(name, described)
                run_sec.setdefault(name.rsplit(".", 1)[1], []).append(
                    (hist.quantile(0.5), hist.count)
                )
    result.metric("daemon.shed", shed)
    result.metric("supervisor.restarts", restarts)
    if svc.fleet:
        mean = sum(per_shard_jobs) / len(per_shard_jobs)
        result.metric(
            "router.spread_max_over_mean", max(per_shard_jobs) / mean,
            sum(per_shard_jobs),
        )
    for job_class, parts in run_sec.items():
        name = f"worker.run_ms.{job_class}"
        if name in harness.UNITS:
            # Shards each report their own p50; weight by their counts.
            total = sum(count for _, count in parts)
            p50 = sum(q * count for q, count in parts) / total
            result.metric(name, p50 * 1e3, total)


def _layer_probes(
    ctx: Context,
    result: Result,
    streams: StreamFactory,
    walk_jobs: int,
    latency: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """The in-process half: layer walk, daemon walk, unit probes.

    ``latency`` is the submit -> ok latency (a reported metric, in ms)
    that ``daemon.unattributed_ms`` is taken against.
    """
    root = Path("walk")
    layerwalk.probe_codec(result, ctx.sizes.probe_calls)
    payloads = layerwalk.walk_layers(
        result, ctx.tracer, streams("w"), walk_jobs, root
    )
    floor = layerwalk.walk_daemon(result, ctx.tracer, streams("w"), walk_jobs, root)
    rtt = result.metrics.get("transport.rtt_unix_us") or result.metrics.get(
        "transport.rtt_tcp_us"
    )
    if latency and rtt:
        # One round trip for the submit, one for the fetch that says ok.
        result.metric(
            "daemon.unattributed_ms",
            latency["value"] - floor * 1e3 - 2 * rtt["value"] / 1e3,
            latency["samples"],
        )
    if ctx.workload == "serve_mix":
        _mix_probes(ctx, result, root)
    result.metric(
        "bench.failed_share", result.failed / max(result.attempted, 1),
        result.attempted,
    )
    return payloads


def _mix_probes(ctx: Context, result: Result, root: Path) -> None:
    """``ProfileCache.fit_cached`` cold and warm; ``run_scenarios``."""
    traces = sorted(Path(f"data-{ctx.setup_repeats - 1}").glob("*.npz"))
    cache = ProfileCache(root / "probe-cache")
    cold = [
        harness.time_calls(lambda: cache.fit_cached(str(t), {}), 1)[0]
        for t in traces
    ]
    warm = [
        d
        for t in traces
        for d in harness.time_calls(lambda: cache.fit_cached(str(t), {}), 5)
    ]
    result.check(
        "cache.probe_hits", cache.misses == len(traces) and cache.hits == len(warm),
        f"hits={cache.hits} misses={cache.misses}",
    )
    result.timing("cache.miss_ms", cold, 1e3)
    result.timing("cache.hit_us", warm, 1e6)
    scenarios = inputs.sweep_grid(ctx.sizes.mix_trace_sec).expand()
    sweeps = harness.time_calls(lambda: run_scenarios(scenarios), 5)
    result.metric(
        "sweep.scenarios_per_s", len(scenarios) / harness.median(sweeps), len(sweeps)
    )


# ----------------------------------------------------------------------
# recover_readback
# ----------------------------------------------------------------------
def _fabricate_history(journal_dir: Path, jobs: int, tag: str) -> None:
    """A completed history through the public appenders, fsync off;
    rotation and compaction happen as they naturally would."""
    journal = JobJournal(journal_dir, fsync=False)
    for n in range(jobs):
        job_id = f"{tag}-hist-{n}"
        journal.submitted(
            {
                "kind": "chaos",
                "params": {"fault": None},
                "job_id": job_id,
                "label": f"chaos:{job_id}",
                "timeout_sec": None,
                "class": "chaos",
            }
        )
        journal.leased(job_id, 1, pid=1)
        journal.completed(job_id, duration_sec=0.01)
    journal.close()


def _wait_fetchable(endpoint: str, ids: List[str]) -> bool:
    deadline = time.perf_counter() + spec.JOB_TIMEOUT_SEC
    pending = list(ids)
    while pending and time.perf_counter() < deadline:
        answers = exchange(endpoint, [{"verb": "fetch", "job_id": j} for j in pending])
        pending = [j for j, a in zip(pending, answers) if a.get("status") != "ok"]
        if pending:
            time.sleep(spec.POLL_SLEEP_SEC)
    return not pending


def recover_readback(ctx: Context) -> Result:
    result = ctx.result()
    sizes = ctx.sizes
    tag = f"{ctx.workload}-{ctx.seed}"
    first_start: List[float] = []

    def setup(attempt: int) -> Tuple[Service, List[str]]:
        state = Path(f"state-{attempt}")
        _fabricate_history(state / "journal", sizes.history_jobs, tag)
        svc = Service(state).start()
        first_start.append(svc.marker_s)
        stream = inputs.noop_stream(ctx.workload, ctx.seed, f"r{attempt}-")
        real = [stream(0, n)[0] for n in range(sizes.real_jobs)]
        doomed = [stream(1, n)[0] for n in range(sizes.killed_jobs)]
        ids = [r["job_id"] for r in real + doomed]
        accepted = exchange(svc.endpoint, real)
        ran = _wait_fetchable(svc.endpoint, ids[: len(real)])
        accepted += exchange(svc.endpoint, doomed)
        svc.kill()  # in flight: leases orphaned, maybe a torn tail
        svc.start()  # replay + requeue; ready_s is the recovery time
        recovered = _wait_fetchable(svc.endpoint, ids)
        result.check(
            f"setup.{attempt}.jobs_survived_sigkill",
            ran and recovered and all(a.get("status") == "accepted" for a in accepted),
            f"ran={ran} recovered={recovered}",
        )
        return svc, ids

    def teardown(state: Tuple[Service, List[str]]) -> None:
        code = state[0].stop()
        result.check("setup.repeat_drained_exit_0", code == 0, f"exit={code}")
        shutil.rmtree(state[0].state)

    (svc, ids), setup_times = harness.repeat_setup(ctx, setup, teardown)
    result.timing("setup_s", setup_times, 1.0)
    result.count(len(ids), 0)
    expected = {job_id: (lambda v: v == inputs.NOOP_VALUE) for job_id in ids}
    phases: List[Phase] = []
    extra_jobs = 0
    try:
        share = 0.5 if ctx.traced else 1.0
        singly = loadgen.readback_phase(
            svc.endpoint, expected,
            ctx.seconds * share * spec.SERVE_PHASES["single"], batch=1,
        )
        batched = loadgen.readback_phase(
            svc.endpoint, expected,
            ctx.seconds * share * spec.SERVE_PHASES["burst"], batch=spec.BURST_JOBS,
        )
        phases += [singly, batched]
        result.timing("latency_p50_ms", singly.latencies, 1e3)
        result.timing("latency_p90_ms", singly.latencies, 1e3, q=90)
        result.metric("throughput_per_s", batched.ok / batched.wall, batched.ok)
        result.metric("peak_rss_mb", svc.peak_rss_mb())
        if ctx.traced:
            extra_jobs = _recover_probes(ctx, result, svc, ids, first_start[-1])
    finally:
        svc.stop()
    _account(result, phases)
    service.check_journal(
        result, svc, sizes.history_jobs + len(ids) + extra_jobs, allowed_torn=1
    )
    if ctx.traced:
        journal_dir = svc.state / "journal"
        replay = harness.time_calls(lambda: JobJournal.read_state(journal_dir), 3)
        jobs = sizes.history_jobs + len(ids) + extra_jobs
        result.metric(
            "journal.replay_us_per_job", harness.median(replay) / jobs * 1e6, jobs
        )
        result.metric("journal.segments", service.journal_segments(svc.state))
        streams: StreamFactory = lambda phase: inputs.noop_stream(  # noqa: E731
            ctx.workload, ctx.seed, phase
        )
        _layer_probes(
            ctx, result, streams, sizes.walk_jobs,
            result.info.get("job_latency_with_history"),
        )
    return result


def _recover_probes(
    ctx: Context, result: Result, svc: Service, ids: List[str], startup_s: float
) -> int:
    """Probes of the recovered daemon; returns jobs it was sent."""
    layerwalk.probe_noop_span(result)
    # Jobs on a daemon that carries a long history: the reference
    # latency ``daemon.unattributed_ms`` is taken against here.
    single = loadgen.single_phase(
        svc.endpoint,
        inputs.noop_stream(ctx.workload, ctx.seed, "s"),
        ctx.seconds * spec.TRACED_PHASES["single"],
        ctx.tracer,
    )
    # Not an end-to-end number here: on this workload the end-to-end
    # latency is the verified fetch.
    if single.latencies:
        result.info["job_latency_with_history"] = {
            "value": harness.median(single.latencies) * 1e3,
            "unit": "ms",
            "samples": len(single.latencies),
        }
    _live_probes(ctx, result, svc, [svc.endpoint], ids[0])
    # The probes saw the respawned daemon: its start is the recovery.
    result.metric("daemon.recover_s", svc.ready_s)
    result.metric("daemon.startup_s", startup_s)
    return _account(result, [single])
