"""Deterministic, seeded fault injection (the chaos half of repro.guard).

Every injector is a pure function of its inputs and a seed, so a fault
campaign is *replayable*: ``repro chaos --seed 7`` corrupts the same
bytes of the same traces every time, which is what lets CI assert that
the guards recover rather than merely hoping they do.

Three fault surfaces, mirroring where production runs actually break:

* **record faults** (:data:`TRACE_FAULTS`) — semantic corruption of an
  in-memory trace: duplicate transmission uids, clock skew (deliveries
  before sends), timestamp reordering, NaN bursts, size corruption;
* **file faults** (:data:`FILE_FAULTS`) — byte-level damage to a saved
  trace: truncation mid-line, garbage lines, type-corrupted fields;
* **runtime faults** (:func:`chaos_worker`, :func:`tear_cache_entry`) —
  injected worker crashes, process kills and hangs in supervised batch
  jobs (a hang is killed at its deadline), and torn cache writes.

:func:`run_campaign` wires all three through the real batch pipeline
and checks the guard invariants.  The process campaigns —
:func:`run_service_campaign`, :func:`run_fleet_campaign`,
:func:`run_transport_campaign` and :func:`run_storage_campaign` — do the
same to real ``repro serve`` daemons and fleets (SIGKILL, lossy wires,
disk faults) on the :mod:`repro.guard.drill` harness.  The ``repro
chaos`` CLI is a thin wrapper around all five.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import signal
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.guard.drill import (
    CampaignReport,
    DrillFailure,
    ServiceUnderTest,
    job_ids,
    ledger_violations,
    sleep_requests,
    wait_for,
)
from repro.runtime.jobs import JobSpec
from repro.trace.records import PacketRecord, Trace

_log = obs.get_logger("repro.guard")


def _note_injection(surface: str, fault: str, target: str) -> None:
    obs.metrics().counter("chaos.injected").inc()
    _log.info("chaos.injected", surface=surface, fault=fault, target=target)


def _clone(trace: Trace, records: List[PacketRecord]) -> Trace:
    return Trace(
        trace.flow_id,
        records,
        duration=trace.duration,
        protocol=trace.protocol,
        metadata=dict(trace.metadata),
    )


def _copy_record(r: PacketRecord, **overrides) -> PacketRecord:
    return dataclasses.replace(r, **overrides)


# ----------------------------------------------------------------------
# Record-level faults: Trace -> corrupted Trace
# ----------------------------------------------------------------------
def fault_duplicate_uids(trace: Trace, rng: random.Random) -> Trace:
    """Give ~2% of records (at least 2) another record's uid."""
    records = [_copy_record(r) for r in trace.records]
    n = len(records)
    if n < 2:
        return _clone(trace, records)
    k = max(2, n // 50)
    for idx in rng.sample(range(1, n), min(k, n - 1)):
        donor = rng.randrange(0, idx)
        records[idx] = _copy_record(records[idx], uid=records[donor].uid)
    return _clone(trace, records)


def fault_clock_skew(trace: Trace, rng: random.Random) -> Trace:
    """A receiver-clock step: one window's deliveries precede their sends."""
    records = [_copy_record(r) for r in trace.records]
    n = len(records)
    if n == 0:
        return _clone(trace, records)
    start = rng.randrange(0, max(1, n - n // 10))
    skew = 0.005 + rng.random() * 0.05
    for idx in range(start, min(n, start + max(1, n // 10))):
        r = records[idx]
        if not math.isnan(r.delivered_at):
            records[idx] = _copy_record(r, delivered_at=r.sent_at - skew)
    return _clone(trace, records)


def fault_reorder_timestamps(trace: Trace, rng: random.Random) -> Trace:
    """Swap send timestamps between random pairs (logger race condition)."""
    records = [_copy_record(r) for r in trace.records]
    n = len(records)
    for _ in range(max(1, n // 40)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        records[i], records[j] = (
            _copy_record(records[i], sent_at=records[j].sent_at),
            _copy_record(records[j], sent_at=records[i].sent_at),
        )
    return _clone(trace, records)


def fault_nan_burst(trace: Trace, rng: random.Random) -> Trace:
    """A capture hiccup: a contiguous burst of NaN send timestamps."""
    records = [_copy_record(r) for r in trace.records]
    n = len(records)
    if n == 0:
        return _clone(trace, records)
    start = rng.randrange(0, n)
    for idx in range(start, min(n, start + max(1, n // 20))):
        records[idx] = _copy_record(records[idx], sent_at=math.nan)
    return _clone(trace, records)


def fault_bad_sizes(trace: Trace, rng: random.Random) -> Trace:
    """Corrupt ~2% of packet sizes to zero or negative values."""
    records = [_copy_record(r) for r in trace.records]
    n = len(records)
    for idx in rng.sample(range(n), min(max(1, n // 50), n)):
        records[idx] = _copy_record(
            records[idx], size=rng.choice([0, -records[idx].size or -1])
        )
    return _clone(trace, records)


TRACE_FAULTS: Dict[str, Callable[[Trace, random.Random], Trace]] = {
    "duplicate_uids": fault_duplicate_uids,
    "clock_skew": fault_clock_skew,
    "reorder": fault_reorder_timestamps,
    "nan_burst": fault_nan_burst,
    "bad_sizes": fault_bad_sizes,
}


def inject_trace_fault(name: str, trace: Trace, seed: int) -> Trace:
    """Apply one named record fault deterministically under ``seed``."""
    corrupted = TRACE_FAULTS[name](trace, random.Random(seed))
    _note_injection("trace", name, trace.flow_id)
    return corrupted


# ----------------------------------------------------------------------
# File-level faults: path -> damaged bytes on disk
# ----------------------------------------------------------------------
def fault_truncate_file(path: Path, rng: random.Random) -> None:
    """Cut the file at ~60% — mid-record for JSONL, fatal for NPZ."""
    data = path.read_bytes()
    cut = max(1, int(len(data) * 0.6))
    path.write_bytes(data[:cut])


def fault_garbage_line(path: Path, rng: random.Random) -> None:
    """Replace one record line with non-JSON garbage (JSONL only)."""
    lines = path.read_text().splitlines()
    if len(lines) > 1:
        idx = rng.randrange(1, len(lines))  # never the header
        lines[idx] = '{"uid": 3, "seq": '  # torn write
    path.write_text("\n".join(lines) + "\n")


def fault_corrupt_field(path: Path, rng: random.Random) -> None:
    """Type-corrupt one record's fields (valid JSON, wrong schema)."""
    lines = path.read_text().splitlines()
    if len(lines) > 1:
        idx = rng.randrange(1, len(lines))
        lines[idx] = '{"uid": "??", "seq": null}'  # missing keys too
    path.write_text("\n".join(lines) + "\n")


FILE_FAULTS: Dict[str, Callable[[Path, random.Random], None]] = {
    "truncate": fault_truncate_file,
    "garbage_line": fault_garbage_line,
    "corrupt_field": fault_corrupt_field,
}


def inject_file_fault(name: str, path, seed: int) -> None:
    """Apply one named byte-level fault deterministically under ``seed``."""
    path = Path(path)
    FILE_FAULTS[name](path, random.Random(seed))
    _note_injection("file", name, str(path))


# ----------------------------------------------------------------------
# Runtime faults
# ----------------------------------------------------------------------
def chaos_worker(spec: JobSpec):
    """Drill worker for job kind ``chaos``: misbehaves per
    ``spec.params['fault']``.

    ``kill`` refuses to run outside a child process — killing the
    orchestrating process is the one fault nothing could recover from.
    """
    fault = spec.params.get("fault")
    if fault == "crash":
        raise RuntimeError("chaos: injected worker crash")
    if fault == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(13)  # simulates OOM-kill / segfault
        raise RuntimeError("chaos: refusing os._exit outside a worker process")
    if fault == "hang":
        time.sleep(float(spec.params.get("hang_sec", 30.0)))
        return {"fault": "hang", "survived": True}
    if fault == "sleep":
        # A well-behaved slow job: the service campaign uses these so a
        # SIGKILL reliably lands while leases are in flight.
        time.sleep(float(spec.params.get("sleep_sec", 0.5)))
        return {"fault": "sleep", "ok": True}
    return {"fault": None, "ok": True}


def make_chaos_job(
    fault: Optional[str],
    timeout_sec: Optional[float] = None,
    **params,
) -> JobSpec:
    """A drill spec for :func:`chaos_worker` (content-hashed like any job)."""
    from repro.runtime.jobs import content_hash

    all_params = {"fault": fault, **params}
    return JobSpec(
        kind="chaos",
        job_id=content_hash("chaos", all_params),
        label=f"chaos:{fault or 'normal'}",
        params=all_params,
        timeout_sec=timeout_sec,
    )


def tear_cache_entry(cache, key: str, keep_fraction: float = 0.5) -> Path:
    """Simulate a torn write: truncate a cache entry's JSON mid-file."""
    path = cache.path_for(key)
    data = path.read_text()
    path.write_text(data[: max(1, int(len(data) * keep_fraction))])
    _note_injection("cache", "torn_write", str(path))
    return path


# ----------------------------------------------------------------------
# The campaign: every surface through the real pipeline
# ----------------------------------------------------------------------
def run_campaign(
    workdir,
    seed: int = 7,
    policy: str = "repair",
    workers: int = 2,
    duration: float = 3.0,
    trace_faults: Optional[List[str]] = None,
    file_faults: Optional[List[str]] = None,
    runtime_faults: Optional[List[str]] = None,
) -> CampaignReport:
    """Run the full seeded fault campaign through the real pipeline.

    1. Generate a small clean dataset; corrupt one trace per fault.
    2. ``run_batch`` over the directory under ``policy`` — asserts one
       bad trace fails (or repairs) one job, never the batch.
    3. Worker drills through ``run_jobs``: crash / kill / hang, one per
       drill.
    4. Torn cache write: corrupt a profile entry, assert quarantine +
       transparent re-fit.

    Never raises for a guard violation — violations are listed in the
    returned report (the CLI turns them into a non-zero exit).
    """
    from repro.datasets.pantheon import generate_run
    from repro.guard.repair import check_policy
    from repro.runtime.batch import ExecutorConfig, run_batch, run_jobs
    from repro.runtime.cache import ProfileCache
    from repro.trace.io import save_trace

    check_policy(policy)
    workdir = Path(workdir)
    data_dir = workdir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    report = CampaignReport(
        "guards", seed, claim="every fault isolated or repaired"
    )
    report.phase("run")["policy"] = policy
    injected = report.phase("injected")
    if trace_faults is None:
        trace_faults = list(TRACE_FAULTS)
    if file_faults is None:
        file_faults = list(FILE_FAULTS)
    if runtime_faults is None:
        runtime_faults = ["crash", "kill", "hang"]

    # Phase 1: corrupted traces through the batch pipeline
    plan: List[tuple] = [("clean", None)]
    plan += [("trace", name) for name in trace_faults]
    plan += [("file", name) for name in file_faults]
    for i, (surface, name) in enumerate(plan):
        trace = generate_run(seed=seed + i, protocol="cubic",
                             duration=duration).trace
        fmt = "npz" if (surface, name) == ("file", "truncate") else "jsonl"
        path = data_dir / f"{i:02d}_{name or 'clean'}.{fmt}"
        if surface == "trace":
            trace = inject_trace_fault(name, trace, seed=seed + 100 + i)
        save_trace(trace, path)
        if surface == "file":
            inject_file_fault(name, path, seed=seed + 100 + i)
        if surface != "clean":
            injected[f"{surface}/{name}"] = path.name

    cache_dir = workdir / "cache"
    try:
        results, manifest, manifest_path = run_batch(
            sorted(data_dir.iterdir()), protocols=["cubic"],
            duration=duration, seed=seed, cache_dir=cache_dir,
            manifest_dir=workdir / "manifests", repair_policy=policy,
            config=ExecutorConfig(workers=workers, timeout_sec=120.0),
        )
    except Exception as exc:  # noqa: BLE001 — escaping IS the violation
        report.violations.append(
            f"run_batch raised instead of isolating the fault: {exc!r}"
        )
        return report
    report.phase("run")["manifest"] = manifest_path
    batch = report.phase("batch")
    for result in results:
        batch[Path(result.spec.params["trace_path"]).name] = result.status

    jobs = manifest.to_dict()["jobs"]
    report.check(
        len(jobs) == len(plan),
        f"manifest has {len(jobs)} jobs for {len(plan)} traces "
        "(jobs went missing)",
    )
    for job in jobs:
        report.check(
            job["status"] in ("ok", "failed"),
            f"job {job['label']} has status {job['status']!r} "
            "(must be ok|failed)",
        )
    report.check(batch.get("00_clean.jsonl") == "ok",
                 "the clean trace's job did not succeed")
    if policy == "repair":
        # Every record-fault trace must have been repaired into a
        # successful job; only byte-destroyed files may fail.
        for result in results:
            name = Path(result.spec.params["trace_path"]).stem.split("_", 1)[1]
            report.check(
                name not in TRACE_FAULTS or result.status == "ok",
                f"repair policy did not recover trace fault {name!r}: "
                f"{result.error.message if result.error else ''}",
            )

    # Phase 2: worker drills, one fault per drill
    drills = report.phase("drill")
    for fault in runtime_faults:
        spec = make_chaos_job(fault, hang_sec=30.0, seed=seed,
                              timeout_sec=1.0 if fault == "hang" else None)
        config = ExecutorConfig(workers=workers, timeout_sec=60.0,
                                max_attempts=2)
        try:
            drill, _ = run_jobs([spec], config, command="chaos")
        except Exception as exc:  # noqa: BLE001
            report.violations.append(
                f"run_jobs raised for fault {fault!r}: {exc!r}"
            )
            continue
        if not report.check(len(drill) == 1,
                            f"drill {fault!r} lost its job result"):
            continue
        drills[spec.label] = drill[0].status
        report.check(  # crash, kill and hang must all fail the job
            drill[0].status == "failed",
            f"fault {fault!r} resolved to {drill[0].status!r}, "
            "expected 'failed'",
        )

    # Phase 3: torn cache write -> quarantine + transparent re-fit
    cache = ProfileCache(cache_dir)
    key = cache.key_for(
        data_dir / "00_clean.jsonl", fit_kwargs=None, repair_policy=policy
    )
    if report.check(cache.path_for(key).exists(),
                    "expected a cache entry for the clean trace to tear"):
        tear_cache_entry(cache, key)
        injected["cache/torn_write"] = key[:12]
        report.check(cache.get_profile(key) is None,
                     "torn cache entry was served instead of quarantined")
        refit, hit = cache.fit_cached(
            data_dir / "00_clean.jsonl", repair_policy=policy
        )
        report.check(not hit and refit is not None,
                     "cache did not transparently re-fit after quarantine")
    quarantined = len(list((cache.root / "quarantine").glob("*.json")))
    report.phase("cache")["quarantined"] = quarantined
    report.check(quarantined >= 1, "quarantine directory is empty after tear")

    # Phase 4: NaN row in a sweep fleet -> isolated, not batch poison
    _sweep_nan_drill(report, seed=seed)
    return report


def _sweep_nan_drill(report: CampaignReport, seed: int) -> None:
    """Poison one scenario's parameter row in a packed sweep fleet and
    assert the vectorized core isolates it: the poisoned scenario comes
    back ``faulted`` with a reason, and every other scenario's summary
    is *bit-identical* to a clean run of the same fleet."""
    import numpy as np

    from repro.sweep import ScenarioGrid, SweepPath, pack_fleet, run_fleet

    path = SweepPath(bandwidth_bytes_per_sec=1.25e6, propagation_delay=0.02,
                     buffer_bytes=50_000.0, label="chaos-sweep")
    grid = ScenarioGrid(paths=(path,), protocols=("cubic", "reno", "bbr"),
                        seeds=(seed, seed + 1), duration=2.0)
    scenarios = grid.expand()
    clean = run_fleet(pack_fleet(scenarios))

    poisoned_fleet = pack_fleet(scenarios)
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(poisoned_fleet.n_scenarios))
    poisoned_fleet.service_rate[victim, :] = np.nan
    report.phase("injected")["sweep/nan_row"] = (
        poisoned_fleet.scenario_ids[victim][:12]
    )
    try:
        poisoned = run_fleet(poisoned_fleet)
    except Exception as exc:  # noqa: BLE001 — escaping IS the violation
        report.violations.append(
            f"sweep core raised on a NaN parameter row: {exc!r}"
        )
        return

    bad = poisoned.scenarios[victim]
    report.check(
        bad.status == "faulted" and bad.fault_reason,
        "poisoned sweep scenario was not reported as faulted "
        f"(status={bad.status!r}, reason={bad.fault_reason!r})",
    )
    for i, (before, after) in enumerate(
        zip(clean.scenarios, poisoned.scenarios)
    ):
        if i == victim:
            continue
        if not report.check(
            after.status == "ok",
            f"NaN row poisoned neighbour scenario {after.label!r} "
            f"(status={after.status!r})",
        ):
            continue
        report.check(
            after.mean_rate_mbps == before.mean_rate_mbps
            and after.mean_delay_ms == before.mean_delay_ms
            and after.p95_delay_ms == before.p95_delay_ms
            and after.loss_percent == before.loss_percent,
            f"NaN row changed neighbour scenario {after.label!r} "
            "summaries (lockstep isolation broken)",
        )


# ----------------------------------------------------------------------
# The process campaigns: real daemons and fleets, real signals
# ----------------------------------------------------------------------
def _serve(workdir: Path, log_name: str, timeout_sec: float,
           bind: Optional[str] = None, shards: int = 0,
           workers: int = 2) -> ServiceUnderTest:
    """``repro serve run`` (``serve fleet`` when ``shards``) over
    ``<workdir>/state``, on ``bind`` or a unix socket in the state dir."""
    state = workdir / "state"
    if shards:
        argv = ["serve", "fleet", "--shards", shards,
                "--workers-per-shard", "1", "--supervise-interval", "0.1",
                "--bind", bind or f"unix:{state / 'fleet.sock'}"]
    else:
        argv = ["serve", "run", "--workers", workers,
                "--bind", bind or f"unix:{state / 'serve.sock'}"]
    argv += ["--state", state, "--snapshot-interval", "0.5",
             "--max-runtime-sec", "150"]
    return ServiceUnderTest(argv, workdir / log_name,
                            ready_timeout=timeout_sec)


def _drain(report: CampaignReport, svc: ServiceUnderTest,
           facts: Dict[str, Any], label: str, timeout_sec: float = 30.0):
    """SIGTERM ``svc``; record its exit code, which must be 0."""
    code = facts["drain_exit_code"] = svc.drain(timeout_sec)
    report.check(code == 0, f"{label}drain exited {code}, expected 0")


def _fetch_all(report: CampaignReport, endpoint: str, ids: List[str],
               timeout_sec: float, label: str, fleet: bool = False) -> int:
    """Fetch (and wait for) every job's result; returns how many came
    back ``ok``.  Through a fleet router each must name its shard."""
    from repro.serve.transport import ResilientClient

    client = ResilientClient(endpoint, deadline_sec=timeout_sec)
    fetched_ok = 0
    for job_id in ids:
        response = client.fetch(job_id, wait=True)
        name = f"{label}fetch({job_id[:12]})"
        if not report.check(
            response.get("status") == "ok",
            f"{name} ended {response.get('status')!r}: {response}",
        ):
            continue
        if fleet:
            report.check(response.get("shard"),
                         f"{name} response is missing its shard annotation")
        if report.check((response.get("result") or {}).get("status") == "ok",
                        f"{name} served a non-ok payload"):
            fetched_ok += 1
    return fetched_ok


# ----------------------------------------------------------------------
# The service campaign: SIGKILL the daemon, demand exactly-once
# ----------------------------------------------------------------------
def run_service_campaign(
    workdir,
    seed: int = 7,
    jobs: int = 8,
    workers: int = 2,
    kill_after_completions: int = 2,
    sleep_sec: float = 0.4,
    timeout_sec: float = 60.0,
) -> CampaignReport:
    """SIGKILL the serve daemon mid-run and assert full recovery.

    1. Start the daemon over an empty state dir; submit ``jobs`` slow
       (but well-behaved) drill jobs over its unix socket.
    2. Once ``kill_after_completions`` jobs have completed, SIGKILL the
       daemon — leases are orphaned mid-flight by construction.
    3. Restart the daemon over the same state dir: the journal replay
       must requeue every non-terminal job and run them to completion.
       A hung job's lease is then deadline-killed, which must leave a
       ``lease_killed`` flight dump.
    4. SIGTERM for a graceful drain: exit code 0, a complete manifest.
    5. The same kill drill against a routed 3-shard fleet
       (:func:`run_fleet_campaign`), as a sub-report.

    Guard invariants: **no lost jobs**, **no duplicate completions**
    (one ``completed`` record per job across daemon generations), and a
    clean drain.
    """
    from repro.serve.journal import JobJournal

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    report = CampaignReport(
        "service", seed,
        claim="zero lost jobs, zero duplicate completions, flight dump "
        "on lease kill, graceful drain",
    )
    requests = sleep_requests("drill:sleep", jobs, seed, sleep_sec)
    ids = job_ids(requests)
    with report.guard():
        kill = report.phase("sigkill")
        kill.update(jobs=jobs, kill_after_completions=kill_after_completions)
        with _serve(workdir, "daemon-1.log", timeout_sec,
                    workers=workers) as svc:
            svc.submit(requests)
            svc.wait_completed(ids, timeout_sec,
                               at_least=kill_after_completions)
            svc.kill()
            _note_injection("service", "sigkill", f"pid {svc.pid}")
            # The daemon is dead, so its journal's count is final.
            orphaned = jobs - svc.completed(ids)

        # Restart: replay must requeue the orphans and finish everything.
        restart = report.phase("restart")
        with _serve(workdir, "daemon-2.log", timeout_sec,
                    workers=workers) as svc:
            svc.wait_completed(ids, timeout_sec)
            restart["recovered"] = orphaned
            # Flight-recorder phase: a hung lease is SIGKILLed by its
            # deadline, which must leave a parseable flight dump behind.
            hang_request = {
                "kind": "chaos", "label": "hangdrill:flight",
                "params": {"fault": "hang", "hang_sec": 30.0, "seed": seed},
                "class": "hangdrill", "timeout_sec": 1.5,
            }
            [hang_id] = job_ids([hang_request])
            svc.submit([hang_request])

            def hang_failed() -> bool:
                journal = JobJournal.read_state(state / "journal")
                job = journal.jobs.get(hang_id)
                return job is not None and job.status == "failed"

            if report.check(wait_for(hang_failed, timeout_sec),
                            "hung lease was not deadline-killed (journal "
                            "never recorded it failed)"):
                _note_injection("service", "hang", f"job {hang_id[:12]}")
                restart["flight_dump"] = svc.flight_dump("lease_killed")
                report.check(restart["flight_dump"],
                             "no valid flight-recorder dump appeared in "
                             f"{state / 'obs'} after the lease SIGKILL")
            _drain(report, svc, restart, "graceful ")

        report.violations += ledger_violations(svc.journal_dirs(), ids)
        for job_id in ids:
            report.check((state / "results" / f"{job_id}.json").exists(),
                         f"job {job_id[:12]} has no result artifact")
        manifests = sorted((state / "manifests").glob("manifest-*.json"))
        if not manifests:
            raise DrillFailure("drain did not write a run manifest")
        restart["manifest"] = manifests[-1]
        rows = json.loads(manifests[-1].read_text())["jobs"]
        report.check(set(ids) <= {row["job_id"] for row in rows},
                     "manifest is missing submitted jobs")
        not_ok = [row["label"] for row in rows
                  if row["job_id"] in ids and row["status"] != "ok"]
        report.check(not not_ok, f"manifest rows not ok after drain: {not_ok}")

    report.sub.append(run_fleet_campaign(
        workdir / "fleet", seed=seed, timeout_sec=timeout_sec + 30
    ))
    return report


# ----------------------------------------------------------------------
# The fleet campaign: SIGKILL one shard, demand exactly-once fleet-wide
# ----------------------------------------------------------------------
def run_fleet_campaign(
    workdir,
    seed: int = 7,
    shards: int = 3,
    jobs: int = 9,
    kill_after_completions: int = 2,
    sleep_sec: float = 0.5,
    timeout_sec: float = 90.0,
    bind: Optional[str] = None,
) -> CampaignReport:
    """SIGKILL one shard of a routed fleet mid-run; assert exactly-once.

    1. Start ``repro serve fleet --shards N`` (over TCP when ``bind`` is
       e.g. ``tcp:127.0.0.1:0``) and submit ``jobs`` slow drill jobs
       through the fleet endpoint.
    2. Once ``kill_after_completions`` jobs completed fleet-wide,
       SIGKILL the shard that owns the most jobs: the fleet must hand
       its unfinished jobs to the survivors (journal-first ``moved``
       tombstones), respawn it, and re-admit it to the ring.
    3. Every job completes *somewhere*; SIGTERM drains the fleet (exit 0).

    Guard invariants: **zero lost jobs fleet-wide**, **zero double
    completions** (one ``completed`` record per job summed over every
    shard journal), and `serve status` roll-up counters equal to the
    sums of the per-shard snapshots.
    """
    from repro.obs.summarize import merge_metrics_files
    from repro.serve.client import query_daemon
    from repro.serve.journal import JobJournal

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    report = CampaignReport(
        "fleet", seed,
        claim="zero lost jobs fleet-wide, zero double completions, "
        "roll-up equals per-shard sums",
    )
    requests = sleep_requests("fleetdrill:sleep", jobs, seed, sleep_sec)
    ids = job_ids(requests)
    facts = report.phase("shard-kill")
    facts.update(shards=shards, jobs=jobs,
                 kill_after_completions=kill_after_completions)
    if bind is not None:
        facts["bind"] = bind
    with report.guard():
        with _serve(workdir, "fleet.log", timeout_sec, bind, shards) as fleet:
            owned: Dict[str, int] = {}
            for response in fleet.submit(requests):
                owned[response["shard"]] = owned.get(response["shard"], 0) + 1
            victim = facts["victim"] = max(owned, key=owned.get)
            victim_pid = int((state / victim / "serve.pid").read_text())
            fleet.wait_completed(ids, timeout_sec,
                                 at_least=kill_after_completions)
            os.kill(victim_pid, signal.SIGKILL)
            _note_injection("fleet", "sigkill", f"shard {victim}")
            fleet.wait_completed(ids, timeout_sec)

            def victim_live() -> bool:
                try:
                    health = query_daemon(fleet.endpoint, "health")
                except (OSError, ConnectionError):
                    return False
                status = health.get("health", {}).get("shard_status", {})
                return status.get(victim, {}).get("status") == "live"

            facts["readmitted"] = wait_for(victim_live, timeout_sec)
            report.check(facts["readmitted"], f"victim shard {victim} was "
                         "never re-admitted to the ring")
            _drain(report, fleet, facts, "fleet ", 60)

        journals = fleet.journal_dirs()
        report.violations += ledger_violations(journals, ids)
        facts["moved"] = sum(
            1
            for root in journals
            for job in JobJournal.read_state(root).moved_out().values()
            if job.request.get("job_id") in ids
        )
        report.check(facts["moved"], "victim shard was killed but no jobs "
                     "were handed off (kill landed too late to exercise "
                     "the drill)")

        # Roll-up equality: merged counters == sum of per-shard snapshots.
        snapshots = [root.parent / "obs" / "metrics.json" for root in journals
                     if (root.parent / "obs" / "metrics.json").exists()]
        report.check(len(snapshots) == shards, f"only {len(snapshots)}/"
                     f"{shards} shards published a live snapshot")
        sums: Dict[str, float] = {}
        for path in snapshots:
            document = json.loads(path.read_text())
            counters = document.get("metrics", document).get("counters")
            for name, value in (counters or {}).items():
                sums[name] = sums.get(name, 0) + value
        merged = merge_metrics_files(snapshots).get("counters", {})
        for name, value in merged.items():
            report.check(abs(value - sums.get(name, 0)) <= 1e-9,
                         f"roll-up counter {name} is {value}, per-shard sum "
                         f"is {sums.get(name, 0)}")
        report.phase("rollup")["counters_checked"] = len(merged)
    return report


# ----------------------------------------------------------------------
# The transport campaign: a lossy wire between client and daemon
# ----------------------------------------------------------------------
_PROXY_FAULTS = ("dropped", "duplicated", "delayed", "truncated", "severed")


def _transport_drill(
    report: CampaignReport,
    workdir: Path,
    seed: int,
    jobs: int,
    scheme: str,
    timeout_sec: float,
) -> None:
    """One daemon (unix or tcp) behind the chaos proxy, end to end."""
    from repro.guard.netchaos import NetChaosConfig, NetChaosProxy
    from repro.serve.transport import (
        MAX_FRAME_BYTES,
        ResilientClient,
        TransportError,
        exchange,
        parse_endpoint,
        read_frames,
    )

    tag = f"[{scheme}] "
    facts = report.phase(scheme)
    workdir.mkdir(parents=True, exist_ok=True)
    requests = sleep_requests(f"transport:{scheme}", jobs, seed, 0.05,
                              scheme=scheme)
    ids = job_ids(requests)
    bind = "tcp:127.0.0.1:0" if scheme == "tcp" else None
    with _serve(workdir, f"daemon-{scheme}.log", timeout_sec, bind) as svc:
        upstream = facts["upstream"] = svc.endpoint

        # Deterministic hardening probes, straight at the daemon: an
        # oversized frame and a garbage frame must each be *answered*
        # (frame_too_large / invalid), and the connection must survive
        # both — resync at the next newline, not a killed socket.
        conn = parse_endpoint(upstream).connect(timeout=5.0)
        try:
            frames = read_frames(conn, 8 * 1024 * 1024, idle_timeout_sec=5.0)

            def probe(payload: bytes) -> Optional[Dict[str, Any]]:
                conn.sendall(payload)
                for kind, frame in frames:
                    if kind == "frame":
                        return json.loads(frame.decode("utf-8"))
                return None

            response = probe(b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n')
            report.check((response or {}).get("reason") == "frame_too_large",
                         f"{tag}oversized frame was not rejected as "
                         f"frame_too_large: {response}")
            response = probe(b"this is not json\n")
            report.check((response or {}).get("reason") == "invalid",
                         f"{tag}garbage frame was not rejected as invalid: "
                         f"{response}")
            response = probe(b'{"verb": "health"}\n')
            report.check("status" in (response or {}), f"{tag}connection "
                         f"unusable after rejected frames: {response}")
        finally:
            conn.close()
        _note_injection("transport", "oversize+garbage", upstream)

        # The lossy-wire drill: every submission goes through the chaos
        # proxy via the resilient client; every call must come back as
        # an ack or a classified, retryable transport error — never a
        # raw traceback, never a hang past the deadline budget.
        proxy = NetChaosProxy("tcp:127.0.0.1:0", upstream, NetChaosConfig(
            seed=seed, drop_prob=0.08, dup_prob=0.08, delay_prob=0.10,
            delay_sec=0.02, truncate_prob=0.04, sever_prob=0.04,
        ))
        front = proxy.start()
        _note_injection("transport", "netchaos", front.describe())
        deadline_sec = 25.0
        acked = set()
        failures = 0
        try:
            client = ResilientClient(
                front, deadline_sec=deadline_sec, max_attempts=12,
                connect_timeout_sec=2.0, io_timeout_sec=1.5,
                backoff_base_sec=0.05, backoff_max_sec=0.5,
            )
            for request, job_id in zip(requests, ids):
                began = time.monotonic()
                try:
                    response = client.call(dict(request))
                except TransportError as exc:
                    failures += 1
                    report.check(isinstance(exc.retryable, bool),
                                 f"{tag}transport error lacks a retryable "
                                 f"classification: {exc!r}")
                except Exception as exc:  # noqa: BLE001 — escaping IS the bug
                    report.violations.append(
                        f"{tag}unclassified client error (raw traceback "
                        f"escape): {exc!r}"
                    )
                else:
                    if report.check(
                        response.get("status") in ("accepted", "duplicate"),
                        f"{tag}submission answered {response}",
                    ):
                        acked.add(job_id)
                elapsed = time.monotonic() - began
                report.check(elapsed <= deadline_sec + 10.0,
                             f"{tag}client call ran {elapsed:.1f}s, past "
                             f"its {deadline_sec}s deadline budget")
        finally:
            proxy.stop()
        stats = proxy.stats()
        facts["acked"] = len(acked)
        facts["classified_failures"] = failures
        facts.update((k, stats[k]) for k in (*_PROXY_FAULTS, "frames"))
        report.check(sum(stats[k] for k in _PROXY_FAULTS),
                     f"{tag}proxy injected no faults — the drill proved "
                     "nothing (adjust probabilities or seed)")

        # Un-acked jobs are redelivered off-proxy: content-hashed ids
        # make resubmission idempotent even if the lossy copy landed.
        missing = [
            dict(r) for r, job_id in zip(requests, ids) if job_id not in acked
        ]
        for response in exchange(upstream, missing, timeout=10.0):
            report.check(response.get("status") in ("accepted", "duplicate"),
                         f"{tag}off-proxy redelivery answered {response}")

        svc.wait_completed(ids, timeout_sec)
        _drain(report, svc, facts, tag)

    # The exactly-once ledger: dup'd frames, torn responses, and
    # idempotent resubmission must all collapse to one completion each.
    report.violations += ledger_violations(svc.journal_dirs(), ids, scheme)


def run_transport_campaign(
    workdir,
    seed: int = 7,
    jobs: int = 10,
    timeout_sec: float = 90.0,
    fleet_drill: bool = True,
) -> CampaignReport:
    """Prove the transport layer under a seeded lossy wire (DESIGN.md §14).

    Against a daemon on a unix socket, then on ``tcp:127.0.0.1:0``:

    1. **Hardening probes** — an oversized frame is answered
       ``frame_too_large``, a garbage frame ``invalid``, and the
       connection stays usable after both.
    2. **Lossy-wire drill** — submissions go through a seeded
       :class:`repro.guard.netchaos.NetChaosProxy` via
       :class:`ResilientClient`; every call returns an ack or a
       classified retryable error within its deadline budget, and every
       job completes **exactly once** despite duplicated or torn frames.

    Then :func:`run_fleet_campaign` with router and shards on TCP
    (``fleet_drill=False`` skips it for quick local runs).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = CampaignReport(
        "transport", seed,
        claim="every client call succeeded or failed classified, every "
        "job completed exactly once, both transports survived "
        "oversize/garbage/torn frames",
    )
    report.phase("run")["jobs"] = jobs
    for offset, scheme in enumerate(("unix", "tcp")):
        with report.guard(scheme):
            _transport_drill(report, workdir / scheme, seed + offset, jobs,
                             scheme, timeout_sec)
    if fleet_drill:
        report.sub.append(run_fleet_campaign(
            workdir / "fleet-tcp", seed=seed, shards=2,
            bind="tcp:127.0.0.1:0", timeout_sec=timeout_sec + 30,
        ))
    return report


# ----------------------------------------------------------------------
# The storage campaign: disk faults against the durable result plane
# ----------------------------------------------------------------------
class _ENOSPCFile:
    """A file-object proxy whose writes fail with ENOSPC.

    Wrapped around the journal's open segment handle it simulates a
    full disk at exactly the WAL-append syscall boundary; everything
    else (tell/close/fileno) passes through, so the daemon's shedding
    and probe/reopen machinery runs against an otherwise-real file.
    """

    def __init__(self, fh):
        self._fh = fh

    def write(self, *_):
        import errno

        raise OSError(errno.ENOSPC, "no space left on device (injected)")

    flush = write

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _storage_bitrot_phase(
    report: CampaignReport,
    workdir: Path,
    seed: int,
    jobs: int,
    timeout_sec: float,
) -> None:
    """Bit-flip a journal record and a result file; demand quarantine,
    read-repair, and a clean fetch of every job after restart."""
    from repro.serve.journal import JobJournal

    facts = report.phase("bitrot")
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    requests = sleep_requests("storagedrill:bitrot", jobs, seed, 0.05)
    ids = job_ids(requests)
    with _serve(workdir, "daemon-1.log", timeout_sec) as svc:
        svc.submit(requests)
        svc.wait_completed(ids, timeout_sec)
        # SIGKILL — no drain, no compaction: the journal keeps its raw
        # submitted/leased/completed records for us to damage.
        svc.kill()

    # Fault 1 — mid-file WAL bit-rot: damage the `completed` record of
    # ids[0] (payload changed, CRC left stale -> checksum mismatch).
    rng = random.Random(seed)
    wal_victim, result_victim = ids[0], ids[1]

    def flip_completed_record() -> bool:
        for segment in sorted((state / "journal").glob("wal*.jsonl")):
            lines = segment.read_text(encoding="utf-8").splitlines()
            for i, line in enumerate(lines):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (record.get("type") == "completed"
                        and record.get("job_id") == wal_victim):
                    record["duration_sec"] = (
                        float(record.get("duration_sec") or 0.0)
                        + 1.0 + rng.random()
                    )
                    lines[i] = json.dumps(record, separators=(",", ":"))
                    segment.write_text(
                        "\n".join(lines) + "\n", encoding="utf-8"
                    )
                    _note_injection("storage", "wal_bitrot",
                                    f"{segment.name}:{i}")
                    return True
        return False

    if not flip_completed_record():
        raise DrillFailure(
            f"found no completed WAL record for {wal_victim[:12]}"
        )

    # Fault 2 — result-file bit-rot on a different job: flip one byte
    # in the middle of its checksummed envelope.
    result_file = state / "results" / f"{result_victim}.json"
    blob = bytearray(result_file.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    result_file.write_bytes(bytes(blob))
    _note_injection("storage", "result_bitrot", result_file.name)

    # Restart over the damaged state dir.
    with _serve(workdir, "daemon-2.log", timeout_sec) as svc:
        # Replay must have counted + quarantined the corruption ...
        replayed = JobJournal.read_state(state / "journal")
        facts["corrupt_records"] = replayed.corrupt_records
        report.check(replayed.corrupt_records >= 1, "[bitrot] replay "
                     "counted no corrupt journal records after the WAL "
                     "bit-flip")
        report.check(wal_victim in replayed.suspect_jobs,
                     "[bitrot] the damaged job was not flagged suspect")
        quarantined = list((state / "journal" / "quarantine").glob("*"))
        facts["quarantined_segments"] = len(quarantined)
        report.check(quarantined, "[bitrot] no quarantined copy of the "
                     "corrupt WAL segment")
        report.check(svc.flight_dump("journal_corruption"),
                     "[bitrot] no journal_corruption flight dump after "
                     "replay")

        # ... and every job must fetch clean: the WAL victim via
        # artifact repair (its result file is intact), the result
        # victim via read-repair re-execution, the rest straight off
        # disk with their checksums verified.
        facts["fetched_ok"] = _fetch_all(report, svc.endpoint, ids,
                                         timeout_sec, "[bitrot] ")
        quarantined = list((state / "results" / "quarantine").glob("*"))
        facts["quarantined_results"] = len(quarantined)
        report.check(quarantined, "[bitrot] the corrupt result file was "
                     "never quarantined")
        _drain(report, svc, facts, "[bitrot] ")

    # The exactly-once ledger: the voided completion (read-repair) and
    # the artifact repair must both net out to exactly one completion.
    report.violations += ledger_violations(svc.journal_dirs(), ids, "bitrot")


def _storage_enospc_phase(
    report: CampaignReport,
    workdir: Path,
    seed: int,
    timeout_sec: float,
) -> None:
    """Inject ENOSPC at the WAL append; demand disk_full shedding with
    retry-after, then self-clearing once writes succeed again."""
    from repro.serve.daemon import ServeConfig, ServeDaemon

    facts = report.phase("enospc")
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    [request] = sleep_requests("storagedrill:enospc", 1, seed, 0.05)
    # In-process and driven by tick(): the socket is never opened.
    daemon = ServeDaemon(ServeConfig(
        state_dir=state, socket_path=state / "serve.sock", workers=1,
        queue_limit=8, drain_timeout_sec=15.0,
        disk_probe_interval_sec=0.05, fsync=True,
    ))
    try:
        daemon.journal._fh = _ENOSPCFile(daemon.journal._fh)
        _note_injection("storage", "enospc", "journal append")
        response = daemon.admit(dict(request))
        facts["shed_response"] = response.get("reason")
        report.check(
            response.get("status") == "rejected"
            and response.get("reason") == "disk_full"
            and response.get("retry_after_sec"),
            "[enospc] WAL ENOSPC was not shed as rejected/disk_full with "
            f"retry_after_sec: {response}",
        )
        report.check(daemon._shedding == "disk_full", "[enospc] daemon "
                     f"shedding state is {daemon._shedding!r}, expected "
                     "'disk_full'")
        # Still full: re-admission inside the probe interval sheds too.
        daemon._disk_probe_at = time.monotonic() + 30.0
        response = daemon.admit(dict(request))
        report.check(response.get("reason") == "disk_full", "[enospc] "
                     f"second admit during shedding was not shed: {response}")
        # The disk "heals" (the probe's reopen() swaps the poisoned
        # handle for a real one); the next admit must probe, clear the
        # state, and accept.
        daemon._disk_probe_at = 0.0
        response = daemon.admit(dict(request))
        facts["recovered_response"] = response.get("status")
        if response.get("status") != "accepted":
            raise DrillFailure(
                f"admit after the disk healed was not accepted: {response}"
            )
        report.check(daemon._shedding is None, "[enospc] shedding state did "
                     "not self-clear after a successful probe")
        wait_for(lambda: daemon.tick() or daemon.journal.state.counts()
                 .get("completed") == 1, timeout_sec, poll=0.02)
        fetched = daemon._handle_verb(
            {"verb": "fetch", "job_id": response["job_id"]}
        )
        facts["fetch_status"] = fetched.get("status")
        report.check(fetched.get("status") == "ok",
                     f"[enospc] fetch after recovery ended {fetched}")
        daemon.drain()
    finally:
        daemon.supervisor.kill_all()
        daemon._stop_socket()
        with contextlib.suppress(Exception):
            daemon.journal.close()
        daemon._lock_file.release()
    report.violations += ledger_violations(
        [state / "journal"], job_ids([request]), "enospc"
    )


def _storage_killwindow_phase(
    report: CampaignReport,
    workdir: Path,
    seed: int,
    timeout_sec: float,
) -> None:
    """Fabricate the state a SIGKILL leaves when it lands *between*
    result-write and journal-append; recovery must repair the
    completion from the checksummed artifact instead of re-running."""
    from repro.serve.client import fetch_result
    from repro.serve.journal import JobJournal
    from repro.serve.requests import normalize_request
    from repro.serve.supervisor import _write_result

    facts = report.phase("killwindow")
    workdir.mkdir(parents=True, exist_ok=True)
    state = workdir / "state"
    request = normalize_request(
        sleep_requests("storagedrill:killwindow", 1, seed, 0.05)[0]
    )
    job_id = request["job_id"]

    # The exact on-disk state of the kill window, deterministically:
    # the WAL says leased, the checksummed result says done, and no
    # `completed` record ever made it to the journal.
    journal = JobJournal(state / "journal", fsync=True)
    journal.submitted(request)
    journal.leased(job_id, lease=1, pid=999999)
    journal.close()
    _write_result(state / "results" / f"{job_id}.json", {
        "status": "ok", "job_id": job_id, "cache_hit": False,
        "value": {"fault": "sleep", "ok": True}, "duration_sec": 0.01,
    })
    _note_injection("storage", "killwindow", f"job {job_id[:12]}")

    with _serve(workdir, "daemon.log", timeout_sec) as svc:
        # The orphaned lease with a valid result artifact must be
        # journaled completed (repaired, not re-run).
        svc.wait_completed([job_id], timeout_sec)
        response = fetch_result(svc.endpoint, job_id)
        facts["fetch_status"] = response.get("status")
        report.check(response.get("status") == "ok",
                     f"[killwindow] fetch after repair ended {response}")
        facts["drain_exit_code"] = svc.drain()
    ledger = ledger_violations(svc.journal_dirs(), [job_id], "killwindow")
    report.violations += ledger
    if not ledger:
        facts["completions"] = 1


def _storage_fleet_phase(
    report: CampaignReport,
    workdir: Path,
    seed: int,
    jobs: int,
    timeout_sec: float,
) -> None:
    """Fetch every completed job's result *through the router* of a
    2-shard TCP fleet (owner-shard hashing plus fan-out)."""
    from repro.serve.client import fetch_result

    facts = report.phase("fleet-fetch")
    workdir.mkdir(parents=True, exist_ok=True)
    requests = sleep_requests("storagedrill:fleet", jobs, seed, 0.1)
    ids = job_ids(requests)
    with _serve(workdir, "fleet.log", timeout_sec,
                "tcp:127.0.0.1:0", shards=2) as fleet:
        facts["endpoint"] = fleet.endpoint
        fleet.submit(requests)
        fleet.wait_completed(ids, timeout_sec)
        facts["fetched_ok"] = _fetch_all(report, fleet.endpoint, ids,
                                         timeout_sec, "[fleet-fetch] ",
                                         fleet=True)
        unknown = fetch_result(fleet.endpoint, "f" * 64).get("status")
        facts["unknown_status"] = unknown
        report.check(unknown == "not_found", "[fleet-fetch] fetch of an "
                     f"unknown job_id was {unknown!r}, expected not_found")
        _drain(report, fleet, facts, "[fleet-fetch] ", 60)
    report.violations += ledger_violations(
        fleet.journal_dirs(), ids, "fleet-fetch"
    )


def run_storage_campaign(
    workdir,
    seed: int = 7,
    jobs: int = 6,
    timeout_sec: float = 90.0,
) -> CampaignReport:
    """Prove the durable result plane under disk faults (DESIGN.md §15).

    1. **bitrot** — after a SIGKILL, one WAL ``completed`` record and
       one result file are bit-flipped.  The restarted daemon must
       quarantine the segment, count ``corrupt_records``, dump a
       ``journal_corruption`` flight record, repair the WAL victim from
       its artifact, read-repair the corrupt result, and serve every
       result clean — one completion per job.
    2. **enospc** — WAL writes fail with ``ENOSPC``: admission degrades
       to ``rejected: disk_full`` with a retry-after hint and self-clears
       via the disk probe once writes succeed again.
    3. **killwindow** — a SIGKILL between result-write and
       journal-append, fabricated on disk; recovery journals the
       completion from the verified artifact instead of re-running.
    4. **fleet-fetch** — every result of a 2-shard TCP fleet comes back
       ``ok`` *through the router*, an unknown id is ``not_found``, and
       the fleet-wide ledger stays exactly-once.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = CampaignReport(
        "storage", seed,
        claim="zero lost jobs, zero double completions, zero corrupt "
        "results served; corruption quarantined and read-repaired, ENOSPC "
        "shed and self-cleared, the result-write/journal-append kill "
        "window repaired from the artifact, and every result fetched "
        "through the router",
    )
    with report.guard("bitrot"):
        _storage_bitrot_phase(report, workdir / "bitrot", seed, jobs,
                              timeout_sec)
    with report.guard("enospc"):
        _storage_enospc_phase(report, workdir / "enospc", seed + 1,
                              timeout_sec)
    with report.guard("killwindow"):
        _storage_killwindow_phase(report, workdir / "killwindow", seed + 2,
                                  timeout_sec)
    with report.guard("fleet-fetch"):
        _storage_fleet_phase(report, workdir / "fleet", seed + 3, jobs,
                             timeout_sec)
    return report
