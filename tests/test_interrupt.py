"""Interrupt checkpointing (SIGINT/SIGTERM mid-batch) and the cache
fit lock.

The batch-level contract: a KeyboardInterrupt (which the CLI's signal
handlers raise for SIGINT/SIGTERM) stops the batch, kills the running
workers, records every unfinished job as ``Interrupted``, and still
returns a full result list — so the partial manifest is written and
``--resume`` re-runs exactly the jobs the signal cut short.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.cli import (
    _CAUGHT_SIGNAL,
    _install_batch_signal_handlers,
    _interrupt_exit_code,
)
from repro.runtime import batch
from repro.runtime.batch import ExecutorConfig, run_jobs
from repro.runtime.cache import ProfileCache
from repro.runtime.jobs import JobSpec
from repro.serve import supervisor
from repro.trace.io import save_trace


def _well_behaved(spec: JobSpec):
    return spec.params["n"] * 10


def _slow_job_zero(spec: JobSpec):
    if spec.params["n"] == 0:
        time.sleep(3.0)
    return spec.params["n"] * 10


def _slow_job_one(spec: JobSpec):
    if spec.params["n"] == 1:
        time.sleep(30.0)
    return spec.params["n"] * 10


def _fails_job_one(spec: JobSpec):
    if spec.params["n"] == 0:
        time.sleep(30.0)
    raise RuntimeError("job one always fails")


def _specs(n):
    return [
        JobSpec(kind="test", job_id=f"job-{i}", label=f"job-{i}",
                params={"n": i})
        for i in range(n)
    ]


def _run_with_sigint(specs, config, after_sec=1.0, **kwargs):
    """``run_jobs`` with a SIGINT delivered to this process mid-batch."""
    timer = threading.Timer(
        after_sec, os.kill, args=(os.getpid(), signal.SIGINT)
    )
    timer.start()
    try:
        return run_jobs(specs, config=config, **kwargs)
    finally:
        timer.cancel()


class TestExecutorInterrupt:
    def test_serial_interrupt_checkpoints_remaining_jobs(self, monkeypatch):
        # job-0 finishes at once; job-1 is mid-run when the signal lands
        # and jobs 2-3 never start.
        obs.configure(enabled=True)
        monkeypatch.setitem(batch._WORKERS, "test", _slow_job_one)
        start = time.monotonic()
        results, _ = _run_with_sigint(_specs(4), ExecutorConfig(workers=1))
        assert time.monotonic() - start < 10.0
        assert len(results) == 4
        assert results[0].ok and results[0].value == 0
        for result in results[1:]:
            assert not result.ok
            assert result.error.error_type == "Interrupted"
            assert result.attempts == 0
        counters = obs.metrics_snapshot()["counters"]
        assert counters["executor.interrupted"] == 1
        assert multiprocessing.active_children() == []

    def test_pool_interrupt_keeps_already_finished_results(
        self, monkeypatch
    ):
        # job-0 sleeps well past the SIGINT; jobs 1 and 2 finish almost
        # immediately in their own workers.  The interrupt lands while
        # the orchestrator waits on job-0 — the contract is that the
        # finished results survive and only job-0 is Interrupted.
        monkeypatch.setitem(batch._WORKERS, "test", _slow_job_zero)
        results, _ = _run_with_sigint(_specs(3), ExecutorConfig(workers=3))
        assert len(results) == 3
        by_id = {r.spec.job_id: r for r in results}
        assert not by_id["job-0"].ok
        assert by_id["job-0"].error.error_type == "Interrupted"
        assert by_id["job-1"].ok and by_id["job-1"].value == 10
        assert by_id["job-2"].ok and by_id["job-2"].value == 20

    def test_interrupt_keeps_a_failure_already_back(self, monkeypatch):
        # job-1 fails at once and job-0 hangs; the interrupt lands before
        # the loop has reaped job-1.  Its real error survives (no retry
        # once stopping); only job-0 is Interrupted.
        obs.configure(enabled=True)
        real_wait = supervisor.wait

        def wait_then_interrupt(sentinels, timeout=None):
            real_wait(sentinels[1:], 10.0)  # job-1's worker is exiting
            time.sleep(0.5)  # its pipe closes just before it is reapable
            raise KeyboardInterrupt

        monkeypatch.setitem(batch._WORKERS, "test", _fails_job_one)
        monkeypatch.setattr(supervisor, "wait", wait_then_interrupt)
        results, _ = run_jobs(_specs(2), ExecutorConfig(workers=2))
        assert results[0].error.error_type == "Interrupted"
        assert results[1].error.error_type == "RuntimeError"
        assert results[1].attempts == 1
        spans = [e["attrs"]["job_id"] for e in obs.events()
                 if e["type"] == "span" and e["name"] == "executor.job"]
        assert spans == ["job-1"]
        assert multiprocessing.active_children() == []

    def test_interrupted_run_resumes(self, tmp_path, monkeypatch):
        monkeypatch.setitem(batch._WORKERS, "test", _slow_job_one)
        specs = _specs(3)
        config = ExecutorConfig(workers=1)
        results, manifest = _run_with_sigint(specs, config, command="batch")
        assert [r.ok for r in results] == [True, False, False]
        manifest_path = manifest.write(tmp_path)

        # Second run, signal-free: only the interrupted jobs re-execute.
        monkeypatch.setitem(batch._WORKERS, "test", _well_behaved)
        from repro.runtime.manifest import RunManifest

        resumed_results, resumed_manifest = run_jobs(
            specs,
            config=config,
            command="batch",
            resume_manifest=RunManifest.load(manifest_path),
        )
        assert [r.ok for r in resumed_results] == [True, True, True]
        assert [r.resumed for r in resumed_results] == [True, False, False]
        assert resumed_manifest.counts["ok"] == 3


class TestSignalHandlers:
    @pytest.fixture(autouse=True)
    def _restore_signals(self):
        old_int = signal.getsignal(signal.SIGINT)
        old_term = signal.getsignal(signal.SIGTERM)
        _CAUGHT_SIGNAL["signum"] = None
        yield
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)
        _CAUGHT_SIGNAL["signum"] = None

    @pytest.mark.parametrize("signum,code", [
        (signal.SIGINT, 130),
        (signal.SIGTERM, 143),
    ])
    def test_signal_becomes_keyboard_interrupt_and_exit_code(
        self, signum, code
    ):
        _install_batch_signal_handlers()
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signum)
        assert _CAUGHT_SIGNAL["signum"] == signum
        assert _interrupt_exit_code() == code

    def test_default_exit_code_is_sigint(self):
        assert _interrupt_exit_code() == 130


# ----------------------------------------------------------------------
# Cache fit lock
# ----------------------------------------------------------------------
def _fit_once(args):
    cache_root, trace_path = args
    cache = ProfileCache(cache_root)
    _, hit = cache.fit_cached(trace_path)
    return hit


class TestCacheFitLock:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.datasets.pantheon import generate_run

        run = generate_run(seed=91, protocol="cubic", duration=3.0)
        path = tmp_path_factory.mktemp("fitlock") / "trace.npz"
        save_trace(run.trace, path)
        return path

    def test_concurrent_misses_fit_exactly_once(self, tmp_path, trace_path):
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        with ctx.Pool(3) as pool:
            hits = pool.map(
                _fit_once, [(tmp_path / "cache", trace_path)] * 3
            )
        # Whoever wins the per-key lock fits; everyone else reads the
        # winner's entry as a hit.  Never three duplicate fits.
        assert sorted(hits) == [False, True, True]
        cache = ProfileCache(tmp_path / "cache")
        assert len(cache) == 1

    def test_lockfile_location_is_outside_entry_shards(self, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        lock = cache.lock_path_for("ab" * 32)
        assert lock.parent == cache.root / "locks"
        assert lock.suffix == ".lock"
