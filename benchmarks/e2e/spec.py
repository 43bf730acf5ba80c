"""The benchmark's dictionary: workloads, metrics, bounds and sizes.

Everything here is a constant of the benchmark, identical on every
commit: `BENCHMARK.json` at the repo root is this file rendered to the
driver's schema (``test_e2e_smoke.py`` asserts the two agree), and
`README.md` explains each entry.

The driver's contract wants one *uniform* grid: every workload reports
every end-to-end metric.  So the end-to-end names are generic and each
workload binds them to its own unit of work (``E2E_MEANING``); whatever
is specific to one workload is a per-layer metric, reported as ``0``
by the workloads that do not exercise that layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds one run measures (the driver's ``--seconds``).
RUN_SECONDS = 10

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Closed loop: callers of this service wait for their reply.  nproc is
#: 2, so the load generator is one process with at most two client
#: threads and two open connections.
CLIENTS = 2

#: Jobs one client keeps outstanding in a burst phase.
BURST_JOBS = 16

#: A job not ``ok`` after this long counts as failed.
JOB_TIMEOUT_SEC = 30.0

#: Pause between ``fetch`` polls of the raw load generator.
POLL_SLEEP_SEC = 0.005

WORKLOADS: List[Tuple[str, str]] = [
    (
        "serve_noop",
        "no-op jobs through one daemon on a unix socket: serve layers do "
        "all the work, compute layers none - the floor every job pays",
    ),
    (
        "fleet_noop",
        "same jobs through a 2-shard tcp fleet: adds router, fleet and tcp "
        "transport, so a router-hop change shows here and not in serve_noop",
    ),
    (
        "serve_mix",
        "seeded 60/30/10 simulate/fit/sweep mix through one daemon: compute "
        "inside a real service path, cold then warm profile cache",
    ),
    (
        "recover_readback",
        "journal replay after SIGKILL, then verified re-fetches: uses the "
        "journal and result plane the other way round from serve_noop",
    ),
    (
        "counterfactual",
        "the paper's instance test in-process: load, iboxnet.fit, simulate "
        "vegas/ledbat/cubic/bbr, summarize - compute only, no serve layer",
    ),
    (
        "iboxml",
        "paper section 4.2 in-process: train the default LSTM, unroll a "
        "paper-size 4x256 model per packet - ml and core.iboxml only",
    ),
]

# (name, unit, better, bound).  A bound is the share of the parent's
# median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: What the generic end-to-end names mean on each workload.
E2E_MEANING: Dict[str, Dict[str, str]] = {
    "serve_noop": {
        "latency": "single phase: submit sent -> first fetch answering ok",
        "throughput": "burst phase: jobs fetched ok / wall time",
    },
    "fleet_noop": {
        "latency": "single phase through the router endpoint",
        "throughput": "burst phase through the router endpoint",
    },
    "serve_mix": {
        "latency": "single phase over the simulate/fit/sweep mix",
        "throughput": "burst phase over the same mix",
    },
    "recover_readback": {
        "latency": "one checksum-verified fetch of a completed id "
        "(connect + fetch + reply)",
        "throughput": "verified fetches / wall time, 16 per exchange",
    },
    "counterfactual": {
        "latency": "one path: load_trace -> fit -> simulate x4 -> summarize",
        "throughput": "(path, protocol) counterfactuals completed / wall time",
    },
    "iboxml": {
        "latency": "paper-size predict_delays wall time / packets, per "
        "1 s slice of the held-out trace (ms per packet)",
        "throughput": "default-model fit: packets x epochs / wall time",
    },
}

_PROTOCOLS = ("vegas", "ledbat", "cubic", "bbr")

# (name, unit, better).  No bounds: they explain, they do not gate.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("transport.rtt_unix_us", "us", "lower"),
    ("transport.rtt_tcp_us", "us", "lower"),
    ("transport.frame_codec_us", "us", "lower"),
    ("client.polls_per_job", "count", "lower"),
    ("client.fetch_ok_us", "us", "lower"),
    ("client.retries", "count", "lower"),
    ("client.latency_p50_ms", "ms", "lower"),
    ("router.hop_us", "us", "lower"),
    ("router.spread_max_over_mean", "ratio", "lower"),
    ("fleet.ready_s", "s", "lower"),
    ("requests.normalize_us", "us", "lower"),
    ("journal.append_fsync_us", "us", "lower"),
    ("journal.append_fsync_p95_us", "us", "lower"),
    ("journal.append_nofsync_us", "us", "lower"),
    ("journal.appends_per_job", "count", "lower"),
    ("journal.bytes_per_job", "bytes", "lower"),
    ("journal.replay_us_per_job", "us", "lower"),
    ("journal.segments", "count", "lower"),
    ("queue.depth_p50", "count", "lower"),
    ("supervisor.busy_share", "ratio", "higher"),
    ("supervisor.dispatch_us", "us", "lower"),
    ("supervisor.lease_ms", "ms", "lower"),
    ("supervisor.read_result_us", "us", "lower"),
    ("supervisor.result_bytes", "bytes", "lower"),
    ("supervisor.restarts", "count", "lower"),
    ("daemon.startup_s", "s", "lower"),
    ("daemon.recover_s", "s", "lower"),
    ("daemon.admit_us", "us", "lower"),
    ("daemon.tick_idle_us", "us", "lower"),
    ("daemon.job_walk_ms", "ms", "lower"),
    ("daemon.unattributed_ms", "ms", "lower"),
    ("daemon.shed", "count", "lower"),
    *[(f"worker.run_ms.{c}", "ms", "lower") for c in ("chaos", "fit", "simulate", "sweep")],
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.miss_ms", "ms", "lower"),
    ("cache.hit_us", "us", "lower"),
    ("obs.noop_span_ns", "ns", "lower"),
    ("trace.load_ms", "ms", "lower"),
    ("trace.summarize_ms", "ms", "lower"),
    ("trace.features_ms", "ms", "lower"),
    ("iboxnet.fit_ms", "ms", "lower"),
    ("iboxnet.profile_roundtrip_us", "us", "lower"),
    ("iboxnet.fidelity_err", "ratio", "lower"),
    ("emulator.simulate_ms", "ms", "lower"),
    ("emulator.pkts_per_s", "1/s", "higher"),
    ("engine.events_per_s", "1/s", "higher"),
    *[(f"protocols.pkts_per_s.{p}", "1/s", "higher") for p in _PROTOCOLS],
    *[(f"protocols.superlinearity.{p}", "ratio", "lower") for p in _PROTOCOLS],
    ("datasets.generate_s_per_trace", "s", "lower"),
    ("sweep.scenarios_per_s", "1/s", "higher"),
    ("lstm.forward_ms", "ms", "lower"),
    ("lstm.step_us", "us", "lower"),
    ("lstm.bptt_ms", "ms", "lower"),
    ("iboxml.unroll_f64_ms_per_pkt", "ms", "lower"),
    ("iboxml.unroll_f32_ms_per_pkt", "ms", "lower"),
    ("iboxml.unroll_small_us_per_pkt", "us", "lower"),
    ("iboxml.f32_vs_f64_rel_err", "ratio", "lower"),
    ("iboxml.params", "count", "lower"),
    ("iboxml.train_s_per_epoch", "s", "lower"),
    ("iboxml.unroll_delay_err", "s", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.failed_share", "ratio", "lower"),
]

#: ``iboxml.f32_vs_f64_rel_err`` above this fails the correctness gate.
F32_REL_ERR_LIMIT = 1e-4

#: ``iboxnet.fidelity_err`` above this fails it too: the counterfactuals
#: no longer resemble what the protocols really did on those paths.
FIDELITY_ERR_LIMIT = 0.5


@dataclass(frozen=True)
class Sizes:
    """Input sizes; constants of the benchmark (full) or tiny (smoke)."""

    #: serve_mix: pre-generated cubic traces and their length.
    mix_traces: int = 8
    mix_trace_sec: float = 12.0
    #: recover_readback: fabricated completed history, real jobs run
    #: before the kill, jobs in flight when SIGKILL lands.
    history_jobs: int = 6000
    real_jobs: int = 12
    killed_jobs: int = 6
    #: counterfactual: paths and the simulated duration of every run.
    cf_paths: int = 4
    cf_sec: float = 10.0
    #: iboxml: training traces (each cut to exactly ``ml_train_packets``)
    #: and the held-out trace, unrolled in ``ml_slices`` chunks of
    #: exactly ``ml_slice_packets``.
    ml_train_traces: int = 3
    ml_trace_sec: float = 10.0
    ml_train_packets: int = 1200
    ml_slices: int = 8
    ml_slice_packets: int = 250
    ml_epochs: int = 4
    paper_hidden: int = 256
    paper_layers: int = 4
    #: layer walk: jobs taken single-threaded through the serve layers.
    walk_jobs: int = 40
    walk_jobs_mix: int = 16
    #: live probes: round trips per probe.
    probe_calls: int = 200
    #: engine probe: events scheduled and drained.
    engine_events: int = 50_000


FULL = Sizes()

SMOKE = Sizes(
    mix_traces=2,
    mix_trace_sec=3.0,
    history_jobs=300,
    real_jobs=4,
    killed_jobs=2,
    cf_paths=2,
    cf_sec=2.0,
    ml_train_traces=1,
    ml_trace_sec=3.0,
    ml_train_packets=300,
    ml_slices=2,
    ml_slice_packets=100,
    ml_epochs=3,
    paper_hidden=32,
    paper_layers=2,
    walk_jobs=4,
    walk_jobs_mix=3,
    probe_calls=10,
    engine_events=2_000,
)

#: ``--smoke``: seconds per run and set-up repeats.
SMOKE_SECONDS = 2
SMOKE_SETUP_REPEATS = 1

#: Share of ``--seconds`` each phase of a serve workload measures.
SERVE_PHASES = {"single": 0.65, "burst": 0.35}
#: Traced runs add the shipped-client phase and the sampled burst.
TRACED_PHASES = {"single": 0.3, "client": 0.2, "sampled": 0.3}

#: The production defaults the benchmark runs under, echoed in output.
FIXED_SETTINGS = {
    "fsync": True,
    "poll_interval": 0.05,
    "queue_limit": 64,
    "workers": 2,
    "fleet_shards": 2,
    "workers_per_shard": 2,
    "unroll_dtype": "float64",
    "sockets": "loopback tcp / unix only",
    "loop": f"closed, {CLIENTS} clients",
}


def workload_names() -> List[str]:
    return [name for name, _ in WORKLOADS]


def benchmark_json() -> dict:
    """`BENCHMARK.json` as the driver's contract spells it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
