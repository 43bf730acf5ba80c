"""Batch orchestration: fan traces/experiments out across workers.

This is the layer the ``repro batch`` CLI (and the parallelised
``reproduce all`` / ``sweep run`` / ensemble fitting) sits on.  The
stock workers are module-level functions taking a
:class:`~repro.runtime.jobs.JobSpec` and returning a JSON-able dict, so
their outputs travel through a result file and drop straight into a run
manifest.

Per-trace unit of work (``simulate_worker``):

1. fit the trace *through the profile cache* (content-addressed on the
   trace bytes + fit kwargs — a second identical run does zero fitting);
2. simulate each requested counterfactual protocol over the learnt model;
3. return the profile plus a summary triple per protocol (optionally
   saving the predicted traces).

Execution runs on the serve daemon's
:class:`~repro.serve.supervisor.Supervisor` — one forked child per
attempt, no journal (the run manifest is the durable record).
:func:`run_jobs` **never raises** for a job failure; every spec resolves
to a :class:`JobResult`, in input order:

* a job that raises, or whose worker dies without a result, is retried
  up to ``max_attempts`` times after a jittered exponential delay;
* a job that outlives its timeout is killed and recorded as
  ``TimeoutError`` (not retried — deterministic work that blew its
  limit once will blow it again);
* when the batch budget runs out every worker is killed and each
  unfinished job becomes ``BudgetExhausted``;
* a ``KeyboardInterrupt`` (SIGINT, or SIGTERM re-raised by the CLI)
  keeps every result that already came back (ok, or failed with its
  real error — no retry once stopping), kills the rest and records
  them ``Interrupted`` — the partial manifest is what ``--resume`` picks
  up;
* a refused fork fails that one job, not the batch.

Telemetry (no-op unless ``repro.obs`` is enabled): each attempt runs in
an ``executor.job`` span carrying the spec's ``job_id``; the parent's
trace context rides into the child and the child's spans and metrics
ride back in the result, so one event log covers the fan-out.
Counters ``executor.jobs_ok`` / ``jobs_failed`` / ``retries`` /
``timeouts`` / ``budget_exhausted`` / ``interrupted``, histogram
``executor.job_sec``, and an ``executor.retry`` event per retry.
"""

from __future__ import annotations

import importlib
import random
import tempfile
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.runtime.cache import ProfileCache
from repro.runtime.jobs import (
    JobError,
    JobResult,
    JobSpec,
    make_experiment_job,
    make_fit_job,
    make_simulate_job,
)
from repro.runtime.manifest import RunManifest
from repro.trace.io import PathLike

_log = obs.get_logger("repro.runtime")


# ----------------------------------------------------------------------
# Stock workers (looked up by kind in the forked child)
# ----------------------------------------------------------------------
def fit_worker(spec: JobSpec) -> Dict[str, Any]:
    """Fit one trace through the cache; returns the profile dict."""
    from repro.core.iboxnet import to_profile

    cache = ProfileCache(spec.params.get("cache_dir"))
    model, hit = cache.fit_cached(
        spec.params["trace_path"],
        spec.params.get("fit_kwargs") or {},
        trace_digest=spec.params.get("trace_digest"),
        repair_policy=spec.params.get("repair_policy", "strict"),
    )
    return {"profile": to_profile(model), "cache_hit": hit}


def simulate_worker(spec: JobSpec) -> Dict[str, Any]:
    """Fit (cached) + simulate every requested protocol over one trace."""
    from repro.core.iboxnet import to_profile
    from repro.trace.io import save_trace
    from repro.trace.metrics import summarize

    params = spec.params
    policy = params.get("repair_policy", "strict")
    cache = ProfileCache(params.get("cache_dir"))
    model, hit = cache.fit_cached(
        params["trace_path"],
        params.get("fit_kwargs") or {},
        trace_digest=params.get("trace_digest"),
        repair_policy=policy,
    )
    duration = params.get("duration")
    seed = int(params.get("seed", 0))
    output_dir = params.get("output_dir")
    summaries: Dict[str, dict] = {}
    for protocol in params["protocols"]:
        sim_duration = duration
        if sim_duration is None:
            from repro.trace.io import load_trace

            sim_duration = load_trace(
                params["trace_path"], policy=policy
            ).duration
        predicted = model.simulate(protocol, duration=sim_duration, seed=seed)
        summary = summarize(predicted)
        summaries[protocol] = {
            "mean_rate_mbps": summary.mean_rate_mbps,
            "p95_delay_ms": summary.p95_delay_ms,
            "loss_percent": summary.loss_percent,
            "packets_sent": summary.packets_sent,
            "packets_delivered": summary.packets_delivered,
        }
        if output_dir:
            stem = Path(params["trace_path"]).stem
            out = Path(output_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_trace(predicted, out / f"{stem}__{protocol}.npz")
    return {
        "trace_path": params["trace_path"],
        "profile": to_profile(model),
        "cache_hit": hit,
        "summaries": summaries,
    }


def experiment_worker(spec: JobSpec) -> Dict[str, Any]:
    """Run one paper experiment; returns its formatted report."""
    from repro.experiments.common import run_experiment

    report = run_experiment(
        spec.params["name"], scale=spec.params.get("scale", "quick")
    )
    return {"name": spec.params["name"], "report": report}


def sweep_worker(spec: JobSpec) -> Dict[str, Any]:
    """Advance one chunk of flow-level sweep scenarios in lockstep."""
    from repro.sweep import ScenarioGrid, run_scenarios

    grid = ScenarioGrid.from_params(spec.params["grid"])
    fleet = run_scenarios(grid.expand())
    return {"grid_id": grid.grid_id, **fleet.to_dict()}


_WORKERS = {
    "fit": fit_worker,
    "simulate": simulate_worker,
    "experiment": experiment_worker,
    "sweep": sweep_worker,
}

#: The job kinds this module can execute (the serve daemon builds its
#: request vocabulary from this).
WORKER_KINDS = tuple(_WORKERS)

#: What a lease would otherwise import cold.  Each lease is a fresh fork,
#: so a cold import costs on every job; loading these here pays once, in
#: the parent (daemon, shard, ``repro batch``).  numpy 2 imports
#: ``numpy.random`` lazily, ``np.quantile`` -> ``np.unique`` imports
#: ``numpy.ma`` on first use, ``np.load``'s zipfile needs
#: ``encodings.cp437``, and :func:`sweep_worker` needs ``repro.sweep``.
_LEASE_PRELOAD = ("numpy.random", "numpy.ma", "encodings.cp437", "repro.sweep")
for _name in _LEASE_PRELOAD:
    importlib.import_module(_name)


def worker_for(kind: str):
    """The stock worker callable for ``kind``; raises on unknown kinds."""
    worker = _WORKERS.get(kind)
    if worker is None:
        raise ValueError(f"unknown job kind: {kind!r}")
    return worker


# ----------------------------------------------------------------------
# Execution: a dispatch/poll loop over the serve Supervisor
# ----------------------------------------------------------------------
#: Delay before a job's second attempt; doubles per further attempt.
_BACKOFF_SEC = 0.25
#: Backoff jitter as a +/- fraction of the delay (0.5 => each delay is
#: uniform in [0.5x, 1.5x]); decorrelates retry storms.
_JITTER = 0.5
_rng = random.Random()


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for one batch run."""

    workers: int = 1
    #: Default per-job limit; a spec's own ``timeout_sec`` overrides it.
    timeout_sec: Optional[float] = None
    max_attempts: int = 2
    #: Total wall-clock budget for the whole batch.  When it runs out,
    #: jobs not yet finished are recorded as failed with error type
    #: ``BudgetExhausted`` — the manifest stays complete and a later
    #: ``--resume`` picks up exactly the unfinished ones.
    budget_sec: Optional[float] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget_sec is not None and self.budget_sec <= 0:
            raise ValueError("budget_sec must be positive")


def _backoff_delay(next_attempt: int) -> float:
    """Jittered exponential delay before attempt ``next_attempt``."""
    base = _BACKOFF_SEC * (2 ** (next_attempt - 2))
    return max(0.0, base * (1 + _rng.uniform(-_JITTER, _JITTER)))


class _BatchRun:
    """One execution of distinct specs; ``run()`` maps job_id -> result."""

    def __init__(self, specs: Sequence[JobSpec], config: ExecutorConfig):
        self.config = config
        # Result files are keyed by job_id, so each distinct id runs once.
        self.specs: Dict[str, JobSpec] = {}
        for spec in specs:
            self.specs.setdefault(spec.job_id, spec)
        self.done: Dict[str, JobResult] = {}
        #: (ready_at monotonic, job_id, attempt), in dispatch order.
        self.waiting = [(0.0, job_id, 1) for job_id in self.specs]
        self.obs_ctx = obs.current_context()

    def run(self) -> Dict[str, JobResult]:
        if not self.specs:
            return self.done
        from repro.serve.supervisor import Supervisor

        budget = self.config.budget_sec
        deadline = None if budget is None else time.monotonic() + budget
        with tempfile.TemporaryDirectory(prefix="repro-batch-") as tmp:
            # No slot backoff after a crash: the retry delay and the
            # bounded max_attempts already keep a crash from hot-looping.
            sup = Supervisor(workers=self.config.workers, results_dir=Path(tmp),
                             backoff_base=0.0)
            try:
                self._loop(sup, deadline)
            except KeyboardInterrupt:
                obs.metrics().counter("executor.interrupted").inc()
                _log.warning("executor.interrupted")
                for event in sup.poll():  # keep what already finished
                    if event.outcome in ("completed", "failed"):
                        self._on_event(event, retry=False)
                self._fail_rest("Interrupted", "batch interrupted by signal "
                                "before this job finished; re-run it with --resume")
            finally:
                sup.kill_all()
        return self.done

    def _loop(self, sup, deadline: Optional[float]) -> None:
        while True:
            for event in sup.poll():
                self._on_event(event)
            if len(self.done) == len(self.specs):
                return
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                budget = self.config.budget_sec
                unfinished = len(self.specs) - len(self.done)
                obs.metrics().counter("executor.budget_exhausted").inc(unfinished)
                _log.warning("executor.budget_exhausted", budget_sec=budget,
                             unfinished=unfinished)
                self._fail_rest("BudgetExhausted", f"batch budget of {budget}s "
                                "ran out before this job finished")
                return
            self._dispatch_ready(sup, now)
            sup.wait(self._wake_after(deadline, now))

    def _dispatch_ready(self, sup, now: float) -> None:
        still = []
        free = sup.free_slots()
        for entry in self.waiting:
            ready_at, job_id, attempt = entry
            if ready_at > now or not free:
                still.append(entry)
                continue
            free -= 1
            spec = self.specs[job_id]
            timeout = spec.timeout_sec
            if timeout is None:
                timeout = self.config.timeout_sec
            request = {"kind": spec.kind, "params": spec.params, "job_id": job_id,
                       "label": spec.label, "timeout_sec": timeout,
                       "attempt": attempt, "obs": self.obs_ctx}
            try:
                sup.dispatch(request, attempt)
            except OSError as exc:  # fork refused (EAGAIN/ENOMEM)
                error = JobError(type(exc).__name__, str(exc))
                self._finish(JobResult(spec, "failed", error=error, attempts=attempt))
        self.waiting = still

    def _wake_after(self, deadline, now: float) -> Optional[float]:
        """Seconds until the budget deadline or the next retry; None
        means only the supervisor's own events matter."""
        times = [ready for ready, _, _ in self.waiting if ready > now]
        if deadline is not None:
            times.append(deadline)
        return max(0.0, min(times) - now) if times else None

    def _on_event(self, event, retry: bool = True) -> None:
        request, result = event.request, event.result or {}
        spec, attempt = self.specs[request["job_id"]], request["attempt"]
        obs.merge_telemetry(result.get("telemetry"))
        if event.outcome == "completed":
            self._finish(JobResult(
                spec, "ok", value=result.get("value"), attempts=attempt,
                duration_sec=event.duration_sec,
                cache_hit=bool(result.get("cache_hit")),
            ))
            return
        if event.outcome == "timeout":
            # Killed at its deadline.  Deterministic work would time out
            # again, so no retry.
            timeout = request["timeout_sec"]
            obs.metrics().counter("executor.timeouts").inc()
            _log.warning("executor.timeout", job_id=spec.job_id,
                         label=spec.label, timeout_sec=timeout)
            error = JobError("TimeoutError", f"job exceeded {timeout}s")
            self._finish(JobResult(spec, "failed", error=error,
                                   attempts=attempt, duration_sec=timeout))
            return
        if event.outcome == "failed":
            error = JobError(**result["error"])
        else:  # crashed: the worker died without writing a result
            error = JobError("WorkerCrashed", f"worker exited with code "
                             f"{event.exitcode} before writing a result")
        if retry and attempt < self.config.max_attempts:
            delay = _backoff_delay(attempt + 1)
            obs.metrics().counter("executor.retries").inc()
            _log.warning("executor.retry", job_id=spec.job_id, label=spec.label,
                         attempt=attempt + 1, delay_sec=round(delay, 4))
            self.waiting.append((time.monotonic() + delay, spec.job_id, attempt + 1))
            return
        self._finish(JobResult(spec, "failed", error=error, attempts=attempt,
                               duration_sec=event.duration_sec))

    def _fail_rest(self, error_type: str, message: str) -> None:
        for job_id, spec in self.specs.items():
            if job_id not in self.done:
                error = JobError(error_type, message)
                self._finish(JobResult(spec, "failed", error=error, attempts=0))

    def _finish(self, result: JobResult) -> None:
        registry = obs.metrics()
        registry.counter(
            "executor.jobs_ok" if result.ok else "executor.jobs_failed"
        ).inc()
        registry.histogram("executor.job_sec").observe(result.duration_sec)
        self.done[result.spec.job_id] = result


# ----------------------------------------------------------------------
# Orchestration entry points
# ----------------------------------------------------------------------
def run_jobs(
    specs: Sequence[JobSpec],
    config: Optional[ExecutorConfig] = None,
    command: str = "batch",
    resume_manifest: Optional[RunManifest] = None,
) -> Tuple[List[JobResult], RunManifest]:
    """Execute heterogeneous specs with the stock workers; build a manifest.

    Kinds are dispatched per-spec, so one batch may mix fit, simulate,
    and experiment jobs.  A ``job_id`` listed more than once (the same
    trace twice) runs once; its result fills every position.

    With ``resume_manifest``, specs whose ``job_id`` already completed
    ``ok`` in that manifest are *not* executed: their prior row is
    carried into the new manifest (marked ``resumed``) and their result
    comes back with ``resumed=True`` and ``value=None``.  Failed and
    never-started jobs re-run, so resuming an interrupted batch yields
    a manifest equivalent to an uninterrupted one.
    """
    config = config or ExecutorConfig()
    # perf_counter for the duration; the ISO stamp is presentation only.
    started_perf = time.perf_counter()
    started_at = datetime.now(timezone.utc).isoformat()

    completed: Dict[str, dict] = {}
    if resume_manifest is not None:
        completed = {
            row["job_id"]: row
            for row in resume_manifest.jobs
            if row["status"] == "ok"
        }
    to_run = [s for s in specs if s.job_id not in completed]
    skipped = len(specs) - len(to_run)
    if skipped:
        obs.metrics().counter("batch.resumed_jobs").inc(skipped)
        _log.info(
            "batch.resume",
            resumed_from=resume_manifest.run_id,
            completed=skipped,
            to_run=len(to_run),
        )

    with obs.span(
        "batch.run", command=command, jobs=len(to_run), workers=config.workers
    ):
        ran = _BatchRun(to_run, config).run()

    results: List[JobResult] = []
    for spec in specs:
        if spec.job_id in completed:
            row = completed[spec.job_id]
            results.append(
                JobResult(
                    spec=spec,
                    status="ok",
                    value=None,
                    attempts=row.get("attempts", 1),
                    duration_sec=row.get("duration_sec", 0.0),
                    cache_hit=bool(row.get("cache_hit")),
                    resumed=True,
                )
            )
        else:
            results.append(replace(ran[spec.job_id], spec=spec))

    manifest = RunManifest.from_results(
        results,
        command=command,
        workers=config.workers,
        started_perf=started_perf,
        started_at_iso=started_at,
        resumed_from=(
            resume_manifest.run_id if resume_manifest is not None else None
        ),
        metrics=obs.metrics_snapshot(),
    )
    return results, manifest


def run_batch(
    trace_paths: Sequence[PathLike],
    protocols: Sequence[str],
    duration: Optional[float] = None,
    seed: int = 0,
    fit_kwargs: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[PathLike] = None,
    output_dir: Optional[PathLike] = None,
    manifest_dir: Optional[PathLike] = None,
    config: Optional[ExecutorConfig] = None,
    repair_policy: str = "strict",
    resume_from: Optional[PathLike] = None,
) -> Tuple[List[JobResult], RunManifest, Optional[Path]]:
    """The ``repro batch`` pipeline: one simulate job per trace.

    Returns ``(results, manifest, manifest_path)``; the manifest is
    written only when ``manifest_dir`` is given.  ``repair_policy``
    (``strict|repair|skip``) governs how corrupt traces are loaded and
    is part of each job's identity.  ``resume_from`` points at a prior
    run's manifest: jobs recorded there as ``ok`` are skipped.
    """
    from repro.guard.repair import check_policy

    check_policy(repair_policy)
    resume_manifest = (
        RunManifest.load(resume_from) if resume_from is not None else None
    )
    specs = [
        make_simulate_job(
            path,
            protocols=protocols,
            duration=duration,
            seed=seed,
            fit_kwargs=fit_kwargs,
            cache_dir=None if cache_dir is None else str(cache_dir),
            output_dir=None if output_dir is None else str(output_dir),
            repair_policy=repair_policy,
        )
        for path in trace_paths
    ]
    results, manifest = run_jobs(
        specs,
        config=config,
        command="batch",
        resume_manifest=resume_manifest,
    )
    manifest_path = manifest.write(manifest_dir) if manifest_dir else None
    return results, manifest, manifest_path


def fit_profiles(
    trace_paths: Sequence[PathLike],
    fit_kwargs: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[PathLike] = None,
    config: Optional[ExecutorConfig] = None,
) -> Tuple[List[Optional[Any]], List[JobResult]]:
    """Fit many traces in parallel through the cache.

    Returns ``(models, results)`` aligned with ``trace_paths``; a failed
    fit leaves ``None`` at its position (and a structured error in the
    matching result) instead of raising.
    """
    from repro.core.iboxnet import from_profile

    specs = [
        make_fit_job(
            path,
            fit_kwargs=fit_kwargs,
            extra_params={
                "cache_dir": None if cache_dir is None else str(cache_dir)
            },
        )
        for path in trace_paths
    ]
    results, _ = run_jobs(specs, config=config, command="fit")
    models = [
        from_profile(r.value["profile"]) if r.ok else None for r in results
    ]
    return models, results


def run_experiments(
    names: Sequence[str],
    scale: str = "quick",
    config: Optional[ExecutorConfig] = None,
) -> Tuple[List[JobResult], RunManifest]:
    """Fan the paper experiments out across workers (``reproduce all``)."""
    specs = [make_experiment_job(name, scale=scale) for name in names]
    return run_jobs(specs, config=config, command="reproduce")
