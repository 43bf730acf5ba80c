"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows a downstream user needs:

``reproduce``
    Run one (or all) of the paper's experiments and print its report;
    ``all`` can fan out across worker processes (``--workers``).
``generate``
    Generate a synthetic Pantheon-like dataset and save the traces.
``fit``
    Fit an iBoxNet model to a saved trace and print the learnt
    parameters (optionally dumping the profile as JSON — the "iBoxNet
    profiles" the paper planned to release, §3.2 fn. 2 — or skipping
    the fit entirely when a previously saved profile is supplied).
``simulate``
    Run a counterfactual: fit a trace, simulate another protocol over
    the learnt model, print its summary (optionally saving the trace).
``batch``
    Fan a directory of traces out across a worker pool: fit each trace
    through the content-addressed profile cache, run the requested
    counterfactual protocols, and write a JSON run manifest.
``serve``
    The long-running service (DESIGN.md §10): ``serve run`` starts the
    crash-tolerant daemon (unix/TCP socket intake, durable WAL
    journal, supervised workers, graceful drain on SIGTERM);
    ``serve submit`` sends job requests; ``serve fetch`` retrieves a
    completed job's checksum-verified result by job_id; ``serve
    status`` summarises the journal of a live or dead service.
``chaos``
    Seeded fault-injection campaigns (DESIGN.md §9): ``--campaign
    guards`` (default) corrupts traces, crash/kill/hang workers, and
    tears a cache entry; ``--campaign service`` SIGKILLs the serve
    daemon mid-run and asserts exactly-once recovery plus graceful
    drain; ``--campaign storage`` (DESIGN.md §15) bit-flips the WAL
    and result files, injects ENOSPC, and kills inside the
    result-write/journal-append window.  Exits non-zero on any guard
    violation, so CI can run each as a smoke job.
``sweep``
    Vectorized flow-level scenario sweeps (DESIGN.md §11): ``sweep
    run`` advances a whole grid (paths × protocols × seeds) in lockstep
    through the fluid fast path and writes the standard run manifest;
    ``sweep validate`` runs the pinned golden scenarios through both
    the flow core and the packet engine and reports per-metric error.
``obs``
    Observability helpers: ``obs summarize <path>`` renders a per-stage
    timing table from a JSONL event log, a metrics snapshot, or a run
    manifest.

Global flags (before the subcommand) control telemetry: ``--metrics-out``
/ ``--trace-out`` enable collection and write the artifacts on exit;
``--log-level`` / ``--log-format`` control diagnostic logging.
"""

from __future__ import annotations

import argparse
import json
import signal as _signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.experiments.common import EXPERIMENT_NAMES

EXPERIMENTS = EXPERIMENT_NAMES

_log = obs.get_logger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iBox: Internet in a Box (HotNets 2020) reproduction",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info", help="diagnostic log threshold (default: info)",
    )
    parser.add_argument(
        "--log-format", choices=("human", "jsonl"), default="human",
        help="diagnostic log rendering on stderr (default: human)",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="enable telemetry and write a metrics snapshot JSON here",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="enable telemetry and write the JSONL span/event log here",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser(
        "reproduce", help="run a paper experiment and print its report"
    )
    reproduce.add_argument(
        "experiment", choices=(*EXPERIMENTS, "all"),
        help="which table/figure to reproduce",
    )
    reproduce.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="experiment sizing (default: quick)",
    )
    reproduce.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for 'all' (default: 1, serial)",
    )

    generate = sub.add_parser(
        "generate", help="generate a synthetic Pantheon-like dataset"
    )
    generate.add_argument("output_dir", type=Path)
    generate.add_argument("--paths", type=int, default=5)
    generate.add_argument("--duration", type=float, default=30.0)
    generate.add_argument(
        "--protocols", nargs="+", default=["cubic", "vegas"]
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--fmt", choices=("npz", "jsonl"), default="npz")

    fit = sub.add_parser(
        "fit", help="fit an iBoxNet model to a saved trace"
    )
    fit.add_argument("trace", type=Path)
    fit.add_argument(
        "--profile", type=Path, default=None,
        help="write the learnt profile as JSON",
    )
    fit.add_argument(
        "--from-profile", type=Path, default=None,
        help="load this profile JSON instead of re-fitting the trace",
    )

    simulate = sub.add_parser(
        "simulate", help="counterfactual: fit a trace, run protocol B on it"
    )
    simulate.add_argument("trace", type=Path)
    simulate.add_argument("protocol")
    simulate.add_argument("--duration", type=float, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--output", type=Path, default=None)

    batch = sub.add_parser(
        "batch",
        help="fit+simulate a directory of traces across a worker pool",
    )
    batch.add_argument(
        "trace_dir", type=Path, help="directory of .npz/.jsonl traces"
    )
    batch.add_argument(
        "--protocols", nargs="+", default=["cubic"],
        help="counterfactual protocols to simulate (default: cubic)",
    )
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument(
        "--duration", type=float, default=None,
        help="simulation duration (default: each trace's own duration)",
    )
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--cache-dir", type=Path, default=None,
        help="profile cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/profiles)",
    )
    batch.add_argument(
        "--manifest-dir", type=Path, default=None,
        help="write the run manifest JSON into this directory",
    )
    batch.add_argument(
        "--output-dir", type=Path, default=None,
        help="save each predicted trace here",
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds",
    )
    batch.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failed job (default: 1)",
    )
    batch.add_argument(
        "--budget-sec", type=float, default=None,
        help="total wall-clock budget; jobs not finished in time are "
        "recorded as failed (BudgetExhausted) and can be --resume'd",
    )
    batch.add_argument(
        "--repair-policy", choices=("strict", "repair", "skip"),
        default="strict",
        help="how to load corrupt traces: strict fails the job, repair "
        "sanitizes records, skip drops malformed lines (default: strict)",
    )
    batch.add_argument(
        "--resume", type=Path, default=None, metavar="MANIFEST",
        help="resume from a prior run's manifest: jobs recorded ok "
        "there are skipped, everything else re-runs",
    )

    serve = sub.add_parser(
        "serve",
        help="crash-tolerant job service: run the daemon, submit, status",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run", help="start the supervised daemon (drains on SIGTERM/SIGINT)"
    )
    serve_run.add_argument(
        "--state", type=Path, required=True,
        help="state directory (journal, results, manifests, lock)",
    )
    serve_run.add_argument(
        "--socket", type=Path, default=None,
        help="unix socket path for the request/response protocol",
    )
    serve_run.add_argument(
        "--bind", default=None, metavar="ENDPOINT",
        help="intake endpoint spec: 'unix:<path>' or 'tcp:<host>:<port>' "
        "(port 0 = ephemeral, published in <state>/serve.endpoint); "
        "mutually exclusive with --socket",
    )
    serve_run.add_argument("--workers", type=int, default=2)
    serve_run.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission queue bound; beyond it jobs are shed (default: 64)",
    )
    serve_run.add_argument(
        "--default-timeout", type=float, default=None,
        help="per-job deadline when the request carries none",
    )
    serve_run.add_argument(
        "--drain-timeout", type=float, default=15.0,
        help="seconds to let in-flight leases settle on drain (default: 15)",
    )
    serve_run.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failures that open a job class's circuit "
        "breaker (default: 3)",
    )
    serve_run.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open breaker waits before a half-open probe "
        "(default: 30)",
    )
    serve_run.add_argument(
        "--idle-exit-sec", type=float, default=None,
        help="drain and exit 0 after being idle this long (default: never)",
    )
    serve_run.add_argument(
        "--max-runtime-sec", type=float, default=None,
        help="hard lifetime cap; drain and exit when reached (CI safety)",
    )
    serve_run.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on journal appends (tests only; weakens "
        "crash durability)",
    )
    serve_run.add_argument(
        "--snapshot-interval", type=float, default=2.0,
        help="seconds between live snapshot flushes to "
        "<state>/obs/metrics.json (default: 2)",
    )
    serve_run.add_argument(
        "--slo", action="append", default=None, metavar="CLASS=LAT[:TARGET]",
        help="declare a per-class SLO, e.g. 'drill=250ms:0.99' "
        "(latency objective + success target; repeatable)",
    )
    serve_run.add_argument(
        "--profile", action="store_true",
        help="attach the wall-clock sampling profiler; collapsed "
        "stacks land in <state>/obs/profile.collapsed on drain",
    )
    serve_fleet = serve_sub.add_parser(
        "fleet",
        help="run a routed multi-daemon fleet: N shards behind one "
        "consistent-hashing socket",
    )
    serve_fleet.add_argument(
        "--state", type=Path, required=True,
        help="fleet state directory (spawns shard-<i> subdirs inside)",
    )
    serve_fleet.add_argument(
        "--shards", type=int, default=3,
        help="number of shard daemons to run (default: 3)",
    )
    serve_fleet.add_argument(
        "--socket", type=Path, default=None,
        help="fleet intake socket (default: <state>/fleet.sock)",
    )
    serve_fleet.add_argument(
        "--bind", default=None, metavar="ENDPOINT",
        help="fleet intake endpoint spec: 'unix:<path>' or "
        "'tcp:<host>:<port>' (port 0 = ephemeral, published in "
        "<state>/fleet.endpoint; TCP fleets bind their shards on "
        "tcp:127.0.0.1:0 too); mutually exclusive with --socket",
    )
    serve_fleet.add_argument(
        "--workers-per-shard", type=int, default=2,
        help="worker slots in each shard daemon (default: 2)",
    )
    serve_fleet.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-shard admission queue bound (default: 64)",
    )
    serve_fleet.add_argument(
        "--default-timeout", type=float, default=None,
        help="per-job deadline when the request carries none",
    )
    serve_fleet.add_argument(
        "--drain-timeout", type=float, default=15.0,
        help="per-shard drain budget on fleet shutdown (default: 15)",
    )
    serve_fleet.add_argument(
        "--supervise-interval", type=float, default=0.25,
        help="seconds between shard liveness sweeps (default: 0.25)",
    )
    serve_fleet.add_argument(
        "--heartbeat-timeout", type=float, default=10.0,
        help="live-snapshot age past which a wedged-but-alive shard is "
        "killed and failed over (default: 10)",
    )
    serve_fleet.add_argument(
        "--suspect-sweeps", type=int, default=4,
        help="consecutive unreachable-shard sweeps before the manager "
        "kills and fails over the shard (default: 4)",
    )
    serve_fleet.add_argument(
        "--snapshot-interval", type=float, default=1.0,
        help="per-shard live snapshot flush interval (default: 1)",
    )
    serve_fleet.add_argument(
        "--max-runtime-sec", type=float, default=None,
        help="hard fleet lifetime cap; drain and exit when reached "
        "(CI safety)",
    )
    serve_fleet.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on shard journal appends (tests only)",
    )
    serve_submit = serve_sub.add_parser(
        "submit", help="submit JSONL job requests to a daemon"
    )
    serve_submit.add_argument(
        "requests", nargs="*",
        help="request JSON objects (default: read JSONL from stdin)",
    )
    serve_submit.add_argument(
        "--socket", required=True, metavar="ENDPOINT",
        help="send over this endpoint and print each response: a unix "
        "socket path, 'unix:<path>', or 'tcp:<host>:<port>'",
    )
    serve_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="submit through the resilient client with this overall "
        "deadline budget (bounded retries, backoff, reconnect); "
        "default: one shot, fail fast",
    )
    serve_fetch = serve_sub.add_parser(
        "fetch",
        help="fetch a completed job's checksum-verified result by job_id",
    )
    serve_fetch.add_argument(
        "job_id",
        help="the job_id returned by 'serve submit' (content hash)",
    )
    serve_fetch.add_argument(
        "--socket", required=True, metavar="ENDPOINT",
        help="daemon or fleet router endpoint: a unix socket path, "
        "'unix:<path>', or 'tcp:<host>:<port>'",
    )
    serve_fetch.add_argument(
        "--wait", action="store_true",
        help="poll until the job settles (honours the daemon's "
        "retry-after hints) instead of returning 'pending' immediately",
    )
    serve_fetch.add_argument(
        "--deadline", type=float, default=30.0, metavar="SEC",
        help="overall deadline budget for retries and --wait polling "
        "(default: 30)",
    )
    serve_status = serve_sub.add_parser(
        "status",
        help="summarise a service's journal (live or dead); fleet state "
        "dirs get the cross-shard roll-up",
    )
    serve_status.add_argument(
        "--state", type=Path, required=True,
        help="the daemon's (or fleet's) state dir",
    )
    serve_status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign against the guards",
    )
    chaos.add_argument(
        "--campaign",
        choices=("guards", "service", "fleet", "transport", "storage"),
        default="guards",
        help="guards: trace/file/runtime faults through the batch "
        "pipeline; service: SIGKILL the serve daemon (then a fleet "
        "shard) and assert exactly-once recovery; fleet: just the "
        "shard-kill drill; transport: lossy-wire drill through the "
        "network-chaos proxy over unix and TCP, plus a TCP fleet "
        "kill drill; storage: disk-fault drill — journal/result "
        "bit-rot, ENOSPC shedding, a kill window between result "
        "write and journal append, and fleet-wide fetch "
        "(default: guards)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="campaign seed; same seed, same faults (default: 7)",
    )
    chaos.add_argument(
        "--policy", choices=("strict", "repair", "skip"), default="repair",
        help="repair policy for the corrupted-trace phase (default: repair)",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument(
        "--duration", type=float, default=3.0,
        help="seconds of synthetic trace per fault (default: 3)",
    )
    chaos.add_argument(
        "--workdir", type=Path, default=None,
        help="campaign scratch directory (default: a fresh temp dir)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="vectorized flow-level scenario sweeps (run, validate)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="advance a scenario grid through the flow-level core"
    )
    sweep_run.add_argument(
        "--grid", type=Path, default=None,
        help="scenario grid JSON (ScenarioGrid.to_params format); "
        "overrides the inline path flags",
    )
    sweep_run.add_argument(
        "--profile", type=Path, nargs="+", default=None,
        help="iBoxNet profile JSON file(s) to sweep over",
    )
    sweep_run.add_argument(
        "--bandwidth-mbps", type=float, nargs="+", default=[10.0],
        help="constant bottleneck rates for inline paths (default: 10)",
    )
    sweep_run.add_argument(
        "--delay-ms", type=float, nargs="+", default=[25.0],
        help="one-way propagation delays for inline paths (default: 25)",
    )
    sweep_run.add_argument(
        "--buffer-kb", type=float, nargs="+", default=[125.0],
        help="bottleneck buffer sizes for inline paths (default: 125)",
    )
    sweep_run.add_argument(
        "--protocols", nargs="+", default=["cubic"],
        help="protocols to sweep (default: cubic)",
    )
    sweep_run.add_argument(
        "--seeds", type=int, default=1,
        help="number of seeds per (path, protocol) (default: 1)",
    )
    sweep_run.add_argument(
        "--seed-base", type=int, default=0,
        help="first seed value (default: 0)",
    )
    sweep_run.add_argument("--duration", type=float, default=8.0)
    sweep_run.add_argument(
        "--dt", type=float, default=None,
        help="interval length in seconds (default: 0.01)",
    )
    sweep_run.add_argument(
        "--chunk-size", type=int, default=256,
        help="target scenarios per lockstep chunk (default: 256)",
    )
    sweep_run.add_argument("--workers", type=int, default=1)
    sweep_run.add_argument(
        "--manifest-dir", type=Path, default=None,
        help="write the run manifest JSON into this directory",
    )
    sweep_run.add_argument(
        "--output", type=Path, default=None,
        help="write per-scenario results JSON here",
    )
    sweep_validate = sweep_sub.add_parser(
        "validate",
        help="fidelity check: flow core vs packet engine on the golden grid",
    )
    sweep_validate.add_argument(
        "--duration", type=float, default=8.0,
        help="seconds per golden scenario (default: 8)",
    )
    sweep_validate.add_argument(
        "--report", type=Path, default=None,
        help="write the fidelity report JSON here",
    )

    obs_cmd = sub.add_parser(
        "obs", help="observability helpers (summarize telemetry artifacts)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="per-stage timing table from event logs, metrics "
        "snapshots, or run manifests (multiple inputs merge)",
    )
    summarize.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL event log(s), metrics snapshot JSON(s), or run "
        "manifest JSON(s); glob patterns are expanded, multiple "
        "metrics snapshots are merged (counters/histograms sum)",
    )
    obs_top = obs_sub.add_parser(
        "top",
        help="terminal view of a live daemon: queue depth, leases, "
        "per-class latency percentiles, breakers, SLO budgets",
    )
    obs_top.add_argument(
        "--state", type=Path, default=None,
        help="daemon state dir (reads <state>/obs/metrics.json)",
    )
    obs_top.add_argument(
        "--snapshot", type=Path, default=None,
        help="read this snapshot file directly",
    )
    obs_top.add_argument(
        "--socket", type=Path, default=None,
        help="ask a live daemon over its unix socket (stats verb) "
        "instead of reading the snapshot file",
    )
    obs_top.add_argument(
        "--watch", type=float, default=None, metavar="SEC",
        help="refresh every SEC seconds until interrupted",
    )
    return parser


def _cmd_reproduce(args) -> int:
    from repro.experiments.common import run_experiment

    targets = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    if len(targets) > 1 and args.workers > 1:
        from repro.runtime.batch import ExecutorConfig, run_experiments

        results, manifest = run_experiments(
            targets,
            scale=args.scale,
            config=ExecutorConfig(workers=args.workers),
        )
        for result in results:
            if result.ok:
                print(result.value["report"])
            else:
                print(
                    f"EXPERIMENT FAILED {result.spec.label}: "
                    f"{result.error.error_type}: {result.error.message}"
                )
            print()
        print(manifest.format_report())
        return 0 if all(r.ok for r in results) else 1

    for name in targets:
        print(run_experiment(name, scale=args.scale))
        print()
    return 0


def _cmd_generate(args) -> int:
    from repro.datasets.pantheon import generate_dataset
    from repro.trace.io import save_traces

    dataset = generate_dataset(
        n_paths=args.paths,
        protocols=tuple(args.protocols),
        duration=args.duration,
        base_seed=args.seed,
    )
    paths = save_traces(dataset.traces(), args.output_dir, fmt=args.fmt)
    for run, path in zip(dataset.runs, paths):
        print(f"{path}  <- {run.trace.summary()}")
    return 0


def _cmd_fit(args) -> int:
    from repro.core import iboxnet
    from repro.trace.io import load_trace

    if args.from_profile is not None:
        model = iboxnet.from_profile(
            json.loads(args.from_profile.read_text())
        )
        print(f"loaded profile {args.from_profile}")
        print(f"  {model}")
    else:
        trace = load_trace(args.trace)
        model = iboxnet.fit(trace)
        print(f"fitted from {trace}")
        print(f"  {model}")
    if args.profile is not None:
        args.profile.write_text(
            json.dumps(iboxnet.to_profile(model), indent=2)
        )
        print(f"  profile written to {args.profile}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.core import iboxnet
    from repro.trace.io import load_trace, save_trace

    trace = load_trace(args.trace)
    model = iboxnet.fit(trace)
    duration = args.duration if args.duration is not None else trace.duration
    predicted = model.simulate(args.protocol, duration=duration, seed=args.seed)
    print(f"learnt model: {model}")
    print(f"counterfactual {args.protocol}: {predicted.summary()}")
    if args.output is not None:
        save_trace(predicted, args.output)
        print(f"trace written to {args.output}")
    return 0


# Which interrupt-ish signal the batch handlers caught (exit code is
# 128 + signal: 130 for SIGINT, 143 for SIGTERM).
_CAUGHT_SIGNAL = {"signum": None}


def _install_batch_signal_handlers() -> None:
    """Route SIGINT/SIGTERM into KeyboardInterrupt so ``run_jobs`` can
    checkpoint: finished jobs keep their results, unfinished ones are
    recorded ``Interrupted``, and the partial manifest still gets
    written for ``--resume``."""
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise(signum, frame):
        _CAUGHT_SIGNAL["signum"] = signum
        raise KeyboardInterrupt

    _signal.signal(_signal.SIGINT, _raise)
    _signal.signal(_signal.SIGTERM, _raise)


def _interrupt_exit_code() -> int:
    signum = _CAUGHT_SIGNAL["signum"] or _signal.SIGINT
    return 128 + int(signum)


def _cmd_batch(args) -> int:
    from repro.runtime.batch import ExecutorConfig, run_batch
    from repro.trace.io import iter_trace_paths

    _install_batch_signal_handlers()
    try:
        trace_paths = iter_trace_paths(args.trace_dir)
    except (FileNotFoundError, NotADirectoryError) as exc:
        _log.error("batch.bad_trace_dir", dir=str(args.trace_dir), error=str(exc))
        return 2
    if not trace_paths:
        _log.error("batch.no_traces", dir=str(args.trace_dir))
        return 2
    try:
        results, manifest, manifest_path = run_batch(
            trace_paths,
            protocols=args.protocols,
            duration=args.duration,
            seed=args.seed,
            cache_dir=args.cache_dir,
            output_dir=args.output_dir,
            manifest_dir=args.manifest_dir,
            repair_policy=args.repair_policy,
            resume_from=args.resume,
            config=ExecutorConfig(
                workers=args.workers,
                timeout_sec=args.timeout,
                max_attempts=args.retries + 1,
                budget_sec=args.budget_sec,
            ),
        )
    except (FileNotFoundError, ValueError) as exc:
        _log.error(
            "batch.bad_resume_manifest",
            manifest=str(args.resume),
            error=str(exc),
        )
        return 2
    except KeyboardInterrupt:
        # The signal landed outside run_jobs' checkpointing window
        # (spec hashing, manifest write): nothing partial to save.
        _log.error("batch.interrupted_before_manifest")
        return _interrupt_exit_code()
    for result in results:
        if result.resumed:
            print(f"ok     resumed   {result.spec.params['trace_path']}")
        elif result.ok:
            hit = "cache hit " if result.cache_hit else "fitted    "
            for protocol, s in result.value["summaries"].items():
                print(
                    f"ok     {hit}{result.value['trace_path']} "
                    f"[{protocol}] rate={s['mean_rate_mbps']:.2f} Mb/s "
                    f"p95={s['p95_delay_ms']:.0f} ms "
                    f"loss={s['loss_percent']:.2f}%"
                )
        else:
            print(
                f"FAILED {result.spec.params['trace_path']}: "
                f"{result.error.error_type}: {result.error.message}"
            )
    print()
    print(manifest.format_report())
    if manifest_path is not None:
        print(f"manifest written to {manifest_path}")
    if _CAUGHT_SIGNAL["signum"] is not None:
        # Partial manifest written above; conventional 130/143 exit so
        # wrappers see the interruption, not a job failure.
        print("interrupted: resume with --resume "
              f"{manifest_path or '<manifest>'}")
        return _interrupt_exit_code()
    return 0 if all(r.ok for r in results) else 1


def _cmd_serve(args) -> int:
    from repro.serve import (
        FleetConfig,
        ServeConfig,
        fleet_forever,
        fleet_status,
        format_fleet_status,
        format_status,
        is_fleet_state,
        serve_forever,
        serve_status,
        submit_via_socket,
    )

    if args.serve_command == "fleet":
        try:
            config = FleetConfig(
                state_dir=args.state,
                shards=args.shards,
                socket_path=args.socket,
                bind=args.bind,
                workers_per_shard=args.workers_per_shard,
                queue_limit=args.queue_limit,
                default_timeout_sec=args.default_timeout,
                drain_timeout_sec=args.drain_timeout,
                supervise_interval_sec=args.supervise_interval,
                heartbeat_timeout_sec=args.heartbeat_timeout,
                suspect_sweep_limit=args.suspect_sweeps,
                snapshot_interval_sec=args.snapshot_interval,
                max_runtime_sec=args.max_runtime_sec,
                fsync=not args.no_fsync,
            )
            return fleet_forever(config)
        except (ValueError, RuntimeError) as exc:
            _log.error("serve.fleet_failed", error=str(exc))
            return 2

    if args.serve_command == "run":
        from repro.obs.live import parse_slo

        try:
            slos = tuple(parse_slo(spec) for spec in (args.slo or []))
            config = ServeConfig(
                state_dir=args.state,
                socket_path=args.socket,
                bind=args.bind,
                workers=args.workers,
                queue_limit=args.queue_limit,
                default_timeout_sec=args.default_timeout,
                drain_timeout_sec=args.drain_timeout,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown_sec=args.breaker_cooldown,
                idle_exit_sec=args.idle_exit_sec,
                max_runtime_sec=args.max_runtime_sec,
                fsync=not args.no_fsync,
                snapshot_interval_sec=args.snapshot_interval,
                slos=slos,
                profile=args.profile,
            )
        except ValueError as exc:
            _log.error("serve.bad_config", error=str(exc))
            return 2
        return serve_forever(config)

    if args.serve_command == "fetch":
        from repro.serve import DeadlineExceeded, ResilientClient, TransportError

        client = ResilientClient(args.socket, deadline_sec=args.deadline)
        try:
            response = client.fetch(args.job_id, wait=args.wait)
        except DeadlineExceeded as exc:
            _log.error("serve.fetch_deadline", job_id=args.job_id,
                       error=str(exc))
            return 1
        except (TransportError, OSError, ConnectionError) as exc:
            _log.error("serve.fetch_unreachable", socket=str(args.socket),
                       error=str(exc))
            return 2
        print(json.dumps(response, indent=2))
        return 0 if response.get("status") == "ok" else 1

    if args.serve_command == "submit":
        raw_lines = args.requests or [
            line for line in sys.stdin.read().splitlines() if line.strip()
        ]
        try:
            requests = [json.loads(line) for line in raw_lines]
        except json.JSONDecodeError as exc:
            _log.error("serve.bad_request_json", error=str(exc))
            return 2
        if not requests:
            _log.error("serve.no_requests")
            return 2
        try:
            if args.deadline is not None:
                from repro.serve import ResilientClient

                responses = ResilientClient(
                    args.socket, deadline_sec=args.deadline
                ).submit(requests)
            else:
                responses = submit_via_socket(args.socket, requests)
        except (OSError, ConnectionError) as exc:
            _log.error(
                "serve.socket_unreachable",
                socket=str(args.socket),
                error=str(exc),
            )
            return 2
        for response in responses:
            print(json.dumps(response))
        return 0 if all(
            r.get("status") in ("accepted", "duplicate")
            for r in responses
        ) else 1

    # serve status — fleet state dirs get the cross-shard roll-up
    if is_fleet_state(args.state):
        status = fleet_status(args.state)
        print(json.dumps(status, indent=2) if args.as_json
              else format_fleet_status(status))
        return 0
    status = serve_status(args.state)
    print(json.dumps(status, indent=2) if args.as_json
          else format_status(status))
    return 0


def _cmd_chaos(args) -> int:
    import tempfile

    from repro.guard.chaos import (
        run_campaign,
        run_fleet_campaign,
        run_service_campaign,
        run_storage_campaign,
        run_transport_campaign,
    )

    if args.campaign in ("service", "fleet", "transport", "storage"):
        if args.campaign == "service":
            def runner(workdir):
                return run_service_campaign(workdir, seed=args.seed,
                                            workers=args.workers)
        elif args.campaign == "transport":
            def runner(workdir):
                return run_transport_campaign(workdir, seed=args.seed)
        elif args.campaign == "storage":
            def runner(workdir):
                return run_storage_campaign(workdir, seed=args.seed)
        else:
            def runner(workdir):
                return run_fleet_campaign(workdir, seed=args.seed)
        if args.workdir is not None:
            args.workdir.mkdir(parents=True, exist_ok=True)
            report = runner(args.workdir)
        else:
            with tempfile.TemporaryDirectory(
                prefix=f"repro-chaos-{args.campaign}-"
            ) as tmp:
                report = runner(tmp)
        print(report.format_report())
        return 0 if report.ok else 1

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        report = run_campaign(
            args.workdir,
            seed=args.seed,
            policy=args.policy,
            workers=args.workers,
            duration=args.duration,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report = run_campaign(
                tmp,
                seed=args.seed,
                policy=args.policy,
                workers=args.workers,
                duration=args.duration,
            )
    print(report.format_report())
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    from repro.sweep import ScenarioGrid, SweepPath, run_fidelity, split_grid

    if args.sweep_command == "validate":
        from repro.sweep import golden_grid

        report = run_fidelity(grid=golden_grid(duration=args.duration))
        print(report.format_report())
        if args.report is not None:
            args.report.parent.mkdir(parents=True, exist_ok=True)
            args.report.write_text(json.dumps(report.to_dict(), indent=2))
            print(f"fidelity report written to {args.report}")
        return 0 if report.passed else 1

    # sweep run
    from repro.runtime.batch import ExecutorConfig, run_jobs
    from repro.runtime.jobs import make_sweep_job

    if args.grid is not None:
        try:
            grid = ScenarioGrid.from_params(json.loads(args.grid.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            _log.error("sweep.bad_grid", path=str(args.grid), error=str(exc))
            return 2
    else:
        paths = []
        if args.profile:
            for profile_path in args.profile:
                try:
                    profile = json.loads(profile_path.read_text())
                except (OSError, ValueError) as exc:
                    _log.error(
                        "sweep.bad_profile",
                        path=str(profile_path),
                        error=str(exc),
                    )
                    return 2
                paths.append(
                    SweepPath.from_profile(profile, label=profile_path.stem)
                )
        else:
            for mbps in args.bandwidth_mbps:
                for delay_ms in args.delay_ms:
                    for buffer_kb in args.buffer_kb:
                        paths.append(
                            SweepPath(
                                bandwidth_bytes_per_sec=mbps * 125_000.0,
                                propagation_delay=delay_ms / 1000.0,
                                buffer_bytes=buffer_kb * 1000.0,
                                label=f"{mbps:g}mbps-{delay_ms:g}ms"
                                f"-{buffer_kb:g}kb",
                            )
                        )
        try:
            grid = ScenarioGrid(
                paths=tuple(paths),
                protocols=tuple(args.protocols),
                seeds=tuple(
                    range(args.seed_base, args.seed_base + args.seeds)
                ),
                duration=args.duration,
                **({"dt": args.dt} if args.dt is not None else {}),
            )
        except ValueError as exc:
            _log.error("sweep.bad_grid_params", error=str(exc))
            return 2

    with obs.span("sweep.run", scenarios=len(grid)):
        chunks = split_grid(grid, args.chunk_size)
        specs = [
            make_sweep_job(chunk.to_params(), chunk=f"{i}/{len(chunks)}")
            for i, chunk in enumerate(chunks)
        ]
        results, manifest = run_jobs(
            specs,
            config=ExecutorConfig(workers=args.workers),
            command="sweep",
        )

    rows = []
    for result in results:
        if result.ok and result.value:
            rows.extend(result.value["scenarios"])
        elif not result.ok:
            print(
                f"FAILED {result.spec.label}: "
                f"{result.error.error_type}: {result.error.message}"
            )
    n_faulted = sum(1 for row in rows if row["status"] == "faulted")
    for row in rows[:20]:
        if row["status"] == "ok":
            print(
                f"ok      {row['label']} "
                f"rate={row['mean_rate_mbps']:.2f} Mb/s "
                f"p95={row['p95_delay_ms']:.0f} ms "
                f"loss={row['loss_percent']:.2f}%"
            )
        else:
            print(f"FAULTED {row['label']}: {row['fault_reason']}")
    if len(rows) > 20:
        print(f"... {len(rows) - 20} more scenario(s)")
    print()
    print(
        f"sweep: {len(rows)} scenario(s), {n_faulted} faulted, "
        f"grid {grid.grid_id[:12]}"
    )
    print(manifest.format_report())
    if args.manifest_dir is not None:
        manifest_path = manifest.write(args.manifest_dir)
        print(f"manifest written to {manifest_path}")
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(
                {"grid_id": grid.grid_id, "scenarios": rows}, indent=2
            )
        )
        print(f"results written to {args.output}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_obs(args) -> int:
    if args.obs_command == "top":
        return _cmd_obs_top(args)

    import glob as globlib

    from repro.obs.summarize import summarize_paths

    paths: List[Path] = []
    for raw in args.paths:
        if any(ch in raw for ch in "*?["):
            matches = sorted(globlib.glob(raw))
            if not matches:
                _log.error("obs.glob_no_match", pattern=raw)
                return 2
            paths.extend(Path(m) for m in matches)
        else:
            paths.append(Path(raw))
    try:
        print(summarize_paths(paths))
    except FileNotFoundError as exc:
        _log.error("obs.missing_input", path=str(exc))
        return 2
    except ValueError as exc:
        _log.error("obs.bad_input", error=str(exc))
        return 2
    return 0


def _cmd_obs_top(args) -> int:
    import time as _time

    from repro.obs.live import format_top, read_snapshot

    if args.socket is None and args.state is None and args.snapshot is None:
        _log.error("obs.top_needs_source")
        print("obs top: pass --state, --snapshot, or --socket",
              file=sys.stderr)
        return 2

    def load() -> dict:
        if args.socket is not None:
            from repro.serve import query_daemon

            response = query_daemon(args.socket, "stats")
            if response.get("status") != "ok":
                raise ValueError(f"daemon said {response}")
            return response["stats"]
        path = (
            args.snapshot
            if args.snapshot is not None
            else args.state / "obs" / "metrics.json"
        )
        return read_snapshot(path)

    while True:
        try:
            snapshot = load()
        except (OSError, ValueError, ConnectionError, KeyError) as exc:
            _log.error("obs.top_unreadable", error=str(exc))
            return 2
        print(format_top(snapshot))
        if args.watch is None:
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        print()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure(
        enabled=bool(args.metrics_out or args.trace_out),
        log_level=args.log_level,
        log_format=args.log_format,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
    )
    handlers = {
        "reproduce": _cmd_reproduce,
        "generate": _cmd_generate,
        "fit": _cmd_fit,
        "simulate": _cmd_simulate,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "sweep": _cmd_sweep,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    finally:
        if obs.enabled():
            written = obs.flush()
            if written.get("trace"):
                print(f"event log written to {written['trace']}")
            if written.get("metrics"):
                print(f"metrics written to {written['metrics']}")


if __name__ == "__main__":
    sys.exit(main())
