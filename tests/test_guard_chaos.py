"""Tests for seeded fault injection and the chaos campaign."""

import math
import time

import pytest

from repro.guard.chaos import (
    FILE_FAULTS,
    TRACE_FAULTS,
    chaos_worker,
    inject_file_fault,
    inject_trace_fault,
    make_chaos_job,
    run_campaign,
)
from repro.runtime import batch
from repro.runtime.batch import ExecutorConfig, run_jobs
from repro.trace.io import TraceLoadError, load_trace, save_trace
from repro.trace.validate import validate_trace


def _records_equal(a, b):
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        for name in ("uid", "seq", "size", "is_retransmit"):
            if getattr(ra, name) != getattr(rb, name):
                return False
        for name in ("sent_at", "delivered_at"):
            va, vb = getattr(ra, name), getattr(rb, name)
            if math.isnan(va) != math.isnan(vb):
                return False
            if not math.isnan(va) and va != vb:
                return False
    return True


class TestDeterminism:
    @pytest.mark.parametrize("fault", sorted(TRACE_FAULTS))
    def test_trace_faults_replay_identically(self, fault, cubic_trace):
        a = inject_trace_fault(fault, cubic_trace, seed=42)
        b = inject_trace_fault(fault, cubic_trace, seed=42)
        assert _records_equal(a, b)

    @pytest.mark.parametrize("fault", sorted(TRACE_FAULTS))
    def test_trace_faults_actually_corrupt(self, fault, cubic_trace):
        corrupted = inject_trace_fault(fault, cubic_trace, seed=42)
        assert validate_trace(corrupted) != []

    @pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
    def test_file_faults_replay_identically(self, fault, tmp_path,
                                            cubic_trace):
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            save_trace(cubic_trace, path)
            inject_file_fault(fault, path, seed=9)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_input_trace_untouched(self, cubic_trace):
        before = len(cubic_trace)
        inject_trace_fault("nan_burst", cubic_trace, seed=1)
        assert len(cubic_trace) == before
        assert validate_trace(cubic_trace) == []


class TestFileFaultsThroughLoader:
    @pytest.mark.parametrize("fault", ("garbage_line", "corrupt_field"))
    def test_jsonl_fault_strict_fails_skip_recovers(self, fault, tmp_path,
                                                    cubic_trace):
        path = tmp_path / "t.jsonl"
        save_trace(cubic_trace, path)
        inject_file_fault(fault, path, seed=3)
        with pytest.raises(TraceLoadError):
            load_trace(path, policy="strict")
        loaded = load_trace(path, policy="skip")
        assert len(loaded) == len(cubic_trace) - 1

    def test_truncated_npz_unrecoverable_but_contained(self, tmp_path,
                                                       cubic_trace):
        path = tmp_path / "t.npz"
        save_trace(cubic_trace, path)
        inject_file_fault("truncate", path, seed=3)
        for policy in ("strict", "repair", "skip"):
            with pytest.raises(TraceLoadError):
                load_trace(path, policy=policy)


class TestExecutorDrills:
    def _drill(self, spec, workers=2, **cfg):
        cfg.setdefault("timeout_sec", 60.0)
        cfg.setdefault("max_attempts", 2)
        results, _ = run_jobs([spec], ExecutorConfig(workers=workers, **cfg))
        assert len(results) == 1
        return results[0]

    def test_crash_contained_as_failed_result(self):
        result = self._drill(make_chaos_job("crash"))
        assert result.status == "failed"
        assert result.error.error_type == "RuntimeError"
        assert result.attempts == 2

    def test_kill_contained_as_failed_result(self):
        result = self._drill(make_chaos_job("kill"))
        assert result.status == "failed"

    def test_repeated_kills_cost_only_the_retry_delay(self):
        # Eight worker deaths on one slot: the batch waits only its own
        # retry delay between attempts, never a growing slot backoff.
        specs = [make_chaos_job("kill", n=i) for i in range(4)]
        start = time.monotonic()
        results, _ = run_jobs(specs, ExecutorConfig(workers=1, max_attempts=2))
        elapsed = time.monotonic() - start
        assert [r.error.error_type for r in results] == ["WorkerCrashed"] * 4
        assert all(r.attempts == 2 for r in results)
        assert elapsed < 2 * batch._BACKOFF_SEC + 2.0

    def test_hang_trips_per_job_timeout(self):
        # The spec's own 1 s limit overrides the 60 s config default.
        spec = make_chaos_job("hang", timeout_sec=1.0, hang_sec=30.0)
        result = self._drill(spec)
        assert result.status == "failed"
        assert result.error.error_type == "TimeoutError"
        assert "1.0" in result.error.message

    def test_normal_job_survives(self):
        result = self._drill(make_chaos_job(None))
        assert result.status == "ok"
        assert result.value == {"fault": None, "ok": True}

    def test_kill_refuses_to_run_in_process(self):
        # Serial/in-process execution must never os._exit the
        # orchestrator (or this very test process).
        with pytest.raises(RuntimeError, match="refusing"):
            chaos_worker(make_chaos_job("kill"))

    def test_timeout_sec_not_part_of_job_id(self):
        a = make_chaos_job("hang", timeout_sec=1.0)
        b = make_chaos_job("hang", timeout_sec=9.0)
        assert a.job_id == b.job_id


def test_campaign_smoke(tmp_path):
    """A reduced campaign: one fault per surface, all guards hold."""
    report = run_campaign(
        tmp_path,
        seed=7,
        policy="repair",
        workers=2,
        duration=1.5,
        trace_faults=["nan_burst"],
        file_faults=["garbage_line"],
        runtime_faults=["crash"],
    )
    assert report.ok, report.format_report()
    assert report.phases["cache"]["quarantined"] >= 1
    statuses = set(report.phases["batch"].values())
    assert statuses <= {"ok", "failed"}
    text = report.format_report()
    assert "all guards held" in text
