"""repro.runtime — the batch execution subsystem.

Turns the one-shot fit/simulate pipeline into an orchestrated engine:

* :mod:`repro.runtime.jobs` — declarative job specs with stable
  content-hash identities;
* :mod:`repro.runtime.cache` — a content-addressed on-disk store for
  fitted iBoxNet profiles (fit once, reuse everywhere);
* :mod:`repro.runtime.manifest` — per-run JSON manifests so performance
  and failures are observable run-over-run;
* :mod:`repro.runtime.batch` — the orchestration entry points the
  ``repro batch`` / ``repro reproduce`` CLI commands sit on, running
  each job in a child forked by the serve daemon's
  :class:`~repro.serve.supervisor.Supervisor` (per-job timeout kill,
  bounded retry, batch budget).

The library API mirrors the CLI one-to-one.  Simulate counterfactuals
over a directory of traces, in parallel, through the profile cache::

    from pathlib import Path
    from repro.runtime import ExecutorConfig, run_batch

    results, manifest, path = run_batch(
        sorted(Path("data").glob("*.npz")),
        protocols=["vegas", "cubic"],
        cache_dir="cache/",
        manifest_dir="runs/",
        config=ExecutorConfig(workers=4, timeout_sec=120.0),
    )
    failed = [r for r in results if not r.ok]   # structured, never raises

Fit (or re-fit from cache) without simulating — ``models`` is aligned
with the input paths, with ``None`` at failed positions::

    from repro.runtime import fit_profiles

    models, results = fit_profiles(paths, cache_dir="cache/")

Higher layers compose on these primitives rather than re-implementing
pooling: e.g. :func:`repro.core.ensemble.fit_distribution_from_paths`
learns the §3.1 joint parameter distribution straight from trace files
by fanning ``fit_profiles`` across workers and keeping whatever fits.

Every run produces a :class:`RunManifest` whose per-job rows carry
content-derived ``job_id`` values — manifests from different runs join
on ``job_id``, which is how speed or failure regressions are diffed.
"""

from repro.runtime.cache import ProfileCache, default_cache_dir
from repro.runtime.jobs import (
    JobError,
    JobResult,
    JobSpec,
    make_experiment_job,
    make_fit_job,
    make_simulate_job,
)
from repro.runtime.manifest import MANIFEST_VERSION, RunManifest, new_run_id
from repro.runtime.batch import (
    ExecutorConfig,
    fit_profiles,
    run_batch,
    run_experiments,
    run_jobs,
)

__all__ = [
    "ExecutorConfig",
    "JobError",
    "JobResult",
    "JobSpec",
    "MANIFEST_VERSION",
    "ProfileCache",
    "RunManifest",
    "default_cache_dir",
    "fit_profiles",
    "make_experiment_job",
    "make_fit_job",
    "make_simulate_job",
    "new_run_id",
    "run_batch",
    "run_experiments",
    "run_jobs",
]
