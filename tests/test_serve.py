"""Tests for repro.serve: journal, breaker, queue, locks, and daemon.

Daemon tests drive :meth:`ServeDaemon.tick` directly instead of
:meth:`run` so each scheduling step is deterministic; only the worker
child processes are real.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.runtime.locks import LockTimeout, ProcessLock, file_lock
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.obs.live import SLO
from repro.serve.client import (
    format_status,
    query_daemon,
    read_live_snapshot,
    serve_status,
    submit_via_socket,
)
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.journal import JobJournal, record_crc_ok, seal_record
from repro.serve.queue import AdmissionQueue
from repro.serve.supervisor import _write_result, quarantine_result, read_result
from repro.serve.requests import BadRequest, normalize_request, request_to_spec


def _req(i: int, fault=None, job_class: str = "drill", **params):
    """A chaos-kind request: fault=None completes immediately."""
    return {
        "kind": "chaos",
        "params": {"fault": fault, "i": i, **params},
        "label": f"drill:{i}",
        "class": job_class,
        "timeout_sec": 30.0,
    }


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_roundtrip_replay(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.leased(request["job_id"], 1, pid=123)
        journal.completed(request["job_id"], duration_sec=0.5, cache_hit=True)
        journal.close()

        state = JobJournal.read_state(tmp_path)
        assert state.counts()["completed"] == 1
        job = state.jobs[request["job_id"]]
        assert job.attempts == 1
        assert job.completions == 1
        assert job.cache_hit is True
        assert job.duration_sec == 0.5

    def test_torn_tail_is_truncated_and_survives_replay(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        first = normalize_request(_req(0))
        second = normalize_request(_req(1))
        journal.submitted(first)
        journal.completed(first["job_id"])
        journal.close()

        # Simulate a SIGKILL mid-append: half a record, no newline.
        with open(tmp_path / JobJournal.ACTIVE, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"type":"submitted","job_id":"to')

        reopened = JobJournal(tmp_path, fsync=False)
        assert reopened.state.counts()["completed"] == 1
        # The torn tail is gone from disk, so new appends stay parseable.
        data = (tmp_path / JobJournal.ACTIVE).read_bytes()
        assert data.endswith(b"\n")
        reopened.submitted(second)
        reopened.close()
        state = JobJournal.read_state(tmp_path)
        assert state.counts() == {
            "total": 2, "pending": 1, "leased": 0,
            "completed": 1, "failed": 0, "rejected": 0,
        }

    def test_undecodable_complete_line_is_corrupt_not_torn(self, tmp_path):
        # A garbage line *with* its newline was fully written by someone
        # — that is corruption, not a torn tail (only a missing trailing
        # newline on the final line of the final segment is torn).
        journal = JobJournal(tmp_path, fsync=False)
        journal.submitted(normalize_request(_req(0)))
        journal.close()
        with open(tmp_path / JobJournal.ACTIVE, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        state = JobJournal.read_state(tmp_path)
        assert state.torn_records == 0
        assert state.corrupt_records == 1
        assert state.corrupt_segments == [JobJournal.ACTIVE]
        assert state.counts()["total"] == 1

    def test_rotation_and_compaction_preserve_state(self, tmp_path):
        journal = JobJournal(
            tmp_path, fsync=False,
            max_segment_bytes=256, compact_after_segments=2,
        )
        requests = [normalize_request(_req(i)) for i in range(8)]
        for request in requests:
            journal.submitted(request)
            journal.leased(request["job_id"], 1)
            journal.completed(request["job_id"], duration_sec=0.1)
        live = journal.state.counts()
        assert live["completed"] == 8
        # Rotation happened (tiny segments), and compaction folded the
        # rotated segments away again.
        assert not list(tmp_path.glob("wal-*.jsonl"))
        journal.close()
        replayed = JobJournal.read_state(tmp_path)
        assert replayed.counts() == live
        assert [j.request["job_id"] for j in replayed.in_order()] == [
            r["job_id"] for r in requests
        ]

    def test_duplicate_submit_is_deduped(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.submitted(request)
        journal.close()
        assert journal.state.duplicate_submits == 1
        assert len(journal.state.jobs) == 1

    def test_requeue_reverts_lease_but_never_completion(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.leased(request["job_id"], 1)
        journal.requeued(request["job_id"], "orphaned_lease")
        assert journal.state.jobs[request["job_id"]].status == "pending"
        journal.completed(request["job_id"])
        journal.requeued(request["job_id"], "bogus")
        assert journal.state.jobs[request["job_id"]].status == "completed"
        journal.close()

    def test_requeue_reverts_rejection_for_resubmission(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.rejected(request["job_id"], "overloaded", retry_after_sec=2.0)
        assert journal.state.jobs[request["job_id"]].status == "rejected"
        journal.requeued(request["job_id"], "resubmitted")
        job = journal.state.jobs[request["job_id"]]
        assert job.status == "pending"
        assert job.reason is None
        journal.close()
        replayed = JobJournal.read_state(tmp_path)
        assert replayed.jobs[request["job_id"]].status == "pending"

    def test_concurrent_appends_never_tear_records(self, tmp_path):
        # Socket-intake threads and the main loop append concurrently;
        # tiny segments force rotation + compaction under contention.
        journal = JobJournal(
            tmp_path, fsync=False,
            max_segment_bytes=4096, compact_after_segments=2,
        )
        threads_n, per_thread = 4, 200

        def _hammer(t: int) -> None:
            for i in range(per_thread):
                journal.submitted(
                    {"job_id": f"job-{t}-{i}", "kind": "chaos", "params": {}}
                )

        threads = [
            threading.Thread(target=_hammer, args=(t,))
            for t in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        state = JobJournal.read_state(tmp_path)
        assert state.torn_records == 0
        assert len(state.jobs) == threads_n * per_thread


# ----------------------------------------------------------------------
# Journal corruption matrix (PR 10): torn vs corrupt, CRC envelopes
# ----------------------------------------------------------------------
def _tamper_record(segment, rtype: str, job_id: str) -> bool:
    """Flip a field inside the first matching record WITHOUT resealing,
    so the stored CRC no longer matches the canonical body."""
    lines = segment.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("type") == rtype and record.get("job_id") == job_id:
            record["ts"] = float(record.get("ts") or 0.0) + 1.0
            lines[i] = json.dumps(record, separators=(",", ":"))
            segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return True
    return False


class TestJournalCorruption:
    @pytest.mark.parametrize("rtype", ["submitted", "leased", "completed",
                                       "rejected"])
    def test_bitflip_in_each_record_type_is_skipped_and_flagged(
        self, tmp_path, rtype
    ):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        job_id = request["job_id"]
        journal.submitted(request)
        if rtype in ("leased", "completed"):
            journal.leased(job_id, 1, pid=123)
        if rtype == "completed":
            journal.completed(job_id, duration_sec=0.5)
        if rtype == "rejected":
            journal.rejected(job_id, "overloaded", retry_after_sec=2.0)
        journal.close()

        assert _tamper_record(tmp_path / JobJournal.ACTIVE, rtype, job_id)
        state = JobJournal.read_state(tmp_path)
        assert state.corrupt_records == 1
        assert state.torn_records == 0
        assert job_id in state.suspect_jobs
        assert JobJournal.ACTIVE in state.corrupt_segments
        # The damaged record must NOT have been applied.
        job = state.jobs.get(job_id)
        if rtype == "submitted":
            assert job is None
        elif rtype == "leased":
            assert job.status == "pending" and job.attempts == 0
        elif rtype == "completed":
            # The job's last good state (leased) is not terminal: the
            # corrupt completion is never believed.
            assert job.status == "leased" and job.completions == 0
        elif rtype == "rejected":
            assert job.status == "pending" and job.reason is None

    def test_bitflip_in_snapshot_job_record_is_corrupt(self, tmp_path):
        # Compaction snapshots carry the same envelope: damage one and
        # replay must refuse it rather than resurrect a wrong state.
        journal = JobJournal(
            tmp_path, fsync=False,
            max_segment_bytes=256, compact_after_segments=2,
        )
        requests = [normalize_request(_req(i)) for i in range(8)]
        for request in requests:
            journal.submitted(request)
            journal.leased(request["job_id"], 1)
            journal.completed(request["job_id"], duration_sec=0.1)
        journal.close()
        victim = requests[0]["job_id"]
        assert _tamper_record(tmp_path / JobJournal.ACTIVE, "job", victim)
        state = JobJournal.read_state(tmp_path)
        assert state.corrupt_records == 1
        assert victim in state.suspect_jobs
        assert victim not in state.jobs  # absolute record refused whole
        assert state.counts()["completed"] == 7

    def test_torn_looking_line_in_rotated_segment_is_corrupt(self, tmp_path):
        # A line without a trailing newline is only "torn" at the very
        # end of the journal; at a rotation boundary it means the
        # segment lost bytes mid-history — corruption.
        journal = JobJournal(tmp_path, fsync=False)
        first = normalize_request(_req(0))
        journal.submitted(first)
        journal.rotate()
        second = normalize_request(_req(1))
        journal.submitted(second)
        journal.close()
        rotated = sorted(tmp_path.glob("wal-*.jsonl"))[0]
        with open(rotated, "a", encoding="utf-8") as fh:
            fh.write('{"v":2,"type":"completed","job_id":"to')
        state = JobJournal.read_state(tmp_path)
        assert state.torn_records == 0
        assert state.corrupt_records == 1
        assert rotated.name in state.corrupt_segments
        assert state.counts()["total"] == 2

    def test_unknown_version_with_valid_crc_is_preserved(self, tmp_path):
        # Forward compat: a record sealed by a NEWER writer whose
        # checksum holds must be applied, not dropped as corrupt.
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.close()
        future = seal_record({
            "v": 99, "type": "completed", "job_id": request["job_id"],
            "duration_sec": 0.25, "from": "the future",
        })
        assert record_crc_ok(future)
        with open(tmp_path / JobJournal.ACTIVE, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(future, separators=(",", ":")) + "\n")
        state = JobJournal.read_state(tmp_path)
        assert state.corrupt_records == 0
        job = state.jobs[request["job_id"]]
        assert job.status == "completed"
        assert job.duration_sec == 0.25

    def test_v2_record_without_crc_is_corrupt(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.close()
        naked = {"v": 2, "type": "completed", "job_id": request["job_id"]}
        with open(tmp_path / JobJournal.ACTIVE, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(naked, separators=(",", ":")) + "\n")
        state = JobJournal.read_state(tmp_path)
        assert state.corrupt_records == 1
        assert state.jobs[request["job_id"]].status == "pending"

    def test_v1_record_without_crc_is_corrupt(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.close()
        unsealed = {"v": 1, "type": "completed", "job_id": request["job_id"],
                    "duration_sec": 0.1}
        with open(tmp_path / JobJournal.ACTIVE, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(unsealed, separators=(",", ":")) + "\n")
        state = JobJournal.read_state(tmp_path)
        assert state.corrupt_records == 1
        assert request["job_id"] in state.suspect_jobs
        assert state.jobs[request["job_id"]].status == "pending"

    def test_writer_quarantines_corrupt_segment_copy(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.completed(request["job_id"])
        journal.close()
        assert _tamper_record(
            tmp_path / JobJournal.ACTIVE, "completed", request["job_id"]
        )
        reopened = JobJournal(tmp_path, fsync=False)
        quarantined = list((tmp_path / "quarantine").glob("*"))
        assert len(quarantined) == 1
        # The copy preserves the damaged bytes for post-mortem while the
        # live journal keeps appending to the original.
        assert quarantined[0].name == JobJournal.ACTIVE
        reopened.completed(request["job_id"])
        reopened.close()
        assert JobJournal.read_state(tmp_path).counts()["completed"] == 1

    def test_result_corrupt_requeue_voids_exactly_one_completion(
        self, tmp_path
    ):
        # Read-repair semantics: a ``result_corrupt*`` requeue (and only
        # that) reverts a completed job AND decrements its completion
        # count, so the re-execution that follows nets out exactly-once.
        journal = JobJournal(tmp_path, fsync=False)
        request = normalize_request(_req(0))
        journal.submitted(request)
        journal.leased(request["job_id"], 1)
        journal.completed(request["job_id"])
        journal.requeued(request["job_id"], "result_corrupt_corrupt")
        job = journal.state.jobs[request["job_id"]]
        assert job.status == "pending"
        assert job.completions == 0
        journal.leased(request["job_id"], 2)
        journal.completed(request["job_id"])
        journal.close()
        replayed = JobJournal.read_state(tmp_path)
        job = replayed.jobs[request["job_id"]]
        assert job.status == "completed"
        assert job.completions == 1


# ----------------------------------------------------------------------
# Result envelope (PR 10): checksummed artifacts
# ----------------------------------------------------------------------
class TestResultEnvelope:
    def test_roundtrip_is_checksummed_and_valid(self, tmp_path):
        path = tmp_path / "results" / "abc.json"
        payload = {"status": "ok", "job_id": "abc", "value": {"x": 1},
                   "duration_sec": 0.5}
        _write_result(path, payload)
        envelope = json.loads(path.read_text())
        assert envelope["v"] == 2
        assert record_crc_ok(envelope)
        read, verdict = read_result(path)
        assert verdict == "valid"
        assert read == payload

    def test_bitflip_reads_corrupt_and_quarantines(self, tmp_path):
        path = tmp_path / "results" / "abc.json"
        _write_result(path, {"status": "ok", "job_id": "abc"})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        read, verdict = read_result(path)
        assert read is None
        assert verdict == "corrupt"
        moved = quarantine_result(path)
        assert moved is not None and moved.exists()
        assert not path.exists()
        assert read_result(path) == (None, "missing")

    def test_bare_payload_is_corrupt(self, tmp_path):
        # An unsealed payload has no checksum to verify: read-repair
        # re-executes it rather than serving it.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"status": "ok", "job_id": "abc"}))
        assert read_result(path) == (None, "corrupt")

    def test_quarantine_of_missing_file_is_noop(self, tmp_path):
        assert quarantine_result(tmp_path / "nope.json") is None
        assert not (tmp_path / "quarantine").exists()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    @pytest.fixture()
    def clocked(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_sec=10.0, clock=clock
        )
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self, clocked):
        obs.configure(enabled=True)
        breaker, _ = clocked
        for _ in range(2):
            breaker.record_failure("sim")
        assert breaker.state("sim") == CLOSED
        assert breaker.allow("sim")
        breaker.record_failure("sim")
        assert breaker.state("sim") == OPEN
        assert not breaker.allow("sim")
        counters = obs.metrics_snapshot()["counters"]
        assert counters["breaker.open"] == 1

    def test_success_resets_the_failure_streak(self, clocked):
        breaker, _ = clocked
        breaker.record_failure("sim")
        breaker.record_failure("sim")
        breaker.record_success("sim")
        breaker.record_failure("sim")
        breaker.record_failure("sim")
        assert breaker.state("sim") == CLOSED

    def test_half_open_admits_exactly_one_probe(self, clocked):
        breaker, clock = clocked
        for _ in range(3):
            breaker.record_failure("sim")
        clock.now += 10.0
        assert breaker.state("sim") == HALF_OPEN
        assert breaker.allow("sim")       # the probe
        assert not breaker.allow("sim")   # everyone else still waits

    def test_probe_success_closes(self, clocked):
        breaker, clock = clocked
        for _ in range(3):
            breaker.record_failure("sim")
        clock.now += 10.0
        assert breaker.allow("sim")
        breaker.record_success("sim")
        assert breaker.state("sim") == CLOSED
        assert breaker.allow("sim")

    def test_probe_failure_reopens_and_restarts_cooldown(self, clocked):
        breaker, clock = clocked
        for _ in range(3):
            breaker.record_failure("sim")
        clock.now += 10.0
        assert breaker.allow("sim")
        breaker.record_failure("sim")
        assert breaker.state("sim") == OPEN
        clock.now += 9.0
        assert not breaker.allow("sim")
        clock.now += 1.0
        assert breaker.allow("sim")

    def test_classes_are_independent(self, clocked):
        breaker, _ = clocked
        for _ in range(3):
            breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_fifo_and_front_push(self):
        queue = AdmissionQueue(limit=4)
        assert queue.push({"job_id": "a"})
        assert queue.push({"job_id": "b"})
        assert queue.push({"job_id": "c"}, front=True)
        assert [queue.pop()["job_id"] for _ in range(3)] == ["c", "a", "b"]
        assert queue.pop() is None

    def test_full_queue_sheds_and_force_bypasses(self):
        queue = AdmissionQueue(limit=2)
        assert queue.push({"job_id": "a"})
        assert queue.push({"job_id": "b"})
        assert queue.full
        assert not queue.push({"job_id": "c"})
        assert len(queue) == 2
        # Crash-recovery requeues were already admitted once; the cap
        # must never drop them.
        assert queue.push({"job_id": "d"}, force=True)
        assert len(queue) == 3

    def test_retry_after_hint_scales_with_backlog(self):
        queue = AdmissionQueue(limit=64)
        queue.ema_service_sec = 2.0
        empty_hint = queue.retry_after_hint(workers=1)
        for i in range(9):
            queue.push({"job_id": str(i)})
        assert queue.retry_after_hint(workers=1) == 20.0
        assert queue.retry_after_hint(workers=4) == 5.0
        assert queue.retry_after_hint(workers=1) > empty_hint
        assert queue.retry_after_hint(workers=1000) >= 1.0

    def test_service_time_ema(self):
        queue = AdmissionQueue(limit=4)
        queue.observe_service_time(11.0, alpha=0.5)
        assert queue.ema_service_sec == 6.0
        queue.observe_service_time(0.0)  # ignored
        assert queue.ema_service_sec == 6.0

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(limit=0)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TestRequests:
    def test_defaults_and_content_hashed_id(self):
        a = normalize_request({"kind": "chaos", "params": {"i": 1}})
        b = normalize_request({"kind": "chaos", "params": {"i": 1}})
        c = normalize_request({"kind": "chaos", "params": {"i": 2}})
        assert a["job_id"] == b["job_id"] != c["job_id"]
        assert a["class"] == "chaos"

    def test_timeout_propagates_into_spec(self):
        request = normalize_request(_req(0))
        spec = request_to_spec(request)
        assert spec.timeout_sec == 30.0
        assert spec.kind == "chaos"

    @pytest.mark.parametrize("raw", [
        "not a dict",
        {"kind": "no-such-kind"},
        {"kind": "chaos", "params": []},
        {"kind": "chaos", "timeout_sec": -1},
        {"kind": "chaos", "timeout_sec": "soon"},
    ])
    def test_bad_requests_rejected(self, raw):
        with pytest.raises(BadRequest):
            normalize_request(raw)


# ----------------------------------------------------------------------
# Locks
# ----------------------------------------------------------------------
class TestLocks:
    def test_uncontended_lock_reports_no_wait(self, tmp_path):
        with file_lock(tmp_path / "x.lock") as waited:
            assert waited is False

    def test_contended_lock_waits_and_reports_it(self, tmp_path):
        path = tmp_path / "x.lock"
        held = threading.Event()

        def _holder():
            with file_lock(path):
                held.set()
                time.sleep(0.3)

        thread = threading.Thread(target=_holder)
        thread.start()
        assert held.wait(5.0)
        with file_lock(path, timeout=5.0) as waited:
            assert waited is True
        thread.join()

    def test_lock_timeout(self, tmp_path):
        path = tmp_path / "x.lock"
        held = threading.Event()
        release = threading.Event()

        def _holder():
            with file_lock(path):
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=_holder)
        thread.start()
        assert held.wait(5.0)
        with pytest.raises(LockTimeout):
            with file_lock(path, timeout=0.1, poll_interval=0.01):
                pass
        release.set()
        thread.join()

    def test_process_lock_is_exclusive_until_released(self, tmp_path):
        first = ProcessLock(tmp_path / "serve.lock")
        second = ProcessLock(tmp_path / "serve.lock")
        assert first.acquire()
        assert not second.acquire()
        first.release()
        assert second.acquire()
        second.release()


# ----------------------------------------------------------------------
# Daemon (tick-driven)
# ----------------------------------------------------------------------
def _run_until(daemon: ServeDaemon, predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        daemon.tick()
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("daemon did not reach the expected state in time")


@pytest.fixture()
def serve_dir(tmp_path):
    return tmp_path


@contextlib.contextmanager
def _daemons(serve_dir):
    """Build daemons on demand; tear every one down on exit."""
    daemons = []

    def _make(**overrides):
        kwargs = dict(
            state_dir=serve_dir / "state",
            socket_path=serve_dir / "serve.sock",
            workers=1,
            queue_limit=8,
            drain_timeout_sec=10.0,
            fsync=False,
        )
        kwargs.update(overrides)
        daemon = ServeDaemon(ServeConfig(**kwargs))
        daemons.append(daemon)
        return daemon

    try:
        yield _make
    finally:
        for daemon in daemons:
            daemon.supervisor.kill_all()
            daemon._stop_socket()
            try:
                daemon.journal.close()
            except Exception:
                pass
            daemon._lock_file.release()
            daemon._close_wake_pipe()


@pytest.fixture()
def daemon_factory(serve_dir):
    with _daemons(serve_dir) as make:
        yield make


def _open_fds() -> int:
    gc.collect()  # close what earlier tests left unreferenced first
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_factory_teardown_closes_every_fd(serve_dir):
    before = _open_fds()
    with _daemons(serve_dir) as make:
        make()
        assert _open_fds() > before
    # ``make`` keeps the daemon alive: only its teardown can close its fds.
    assert _open_fds() == before


class TestServeDaemon:
    def test_accepts_runs_and_drains_with_complete_manifest(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory(workers=2)
        for i in range(3):
            response = daemon.admit(_req(i))
            assert response["status"] == "accepted"
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 3
        )
        manifest_path = daemon.drain()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "serve"
        assert [j["status"] for j in manifest["jobs"]] == ["ok"] * 3
        # Every completion left a durable result artifact.
        for job in manifest["jobs"]:
            assert (serve_dir / "state" / "results"
                    / f"{job['job_id']}.json").exists()

    def test_sweep_job_submits_and_completes(
        self, daemon_factory, serve_dir
    ):
        from repro.sweep import ScenarioGrid, SweepPath

        grid = ScenarioGrid(
            paths=(
                SweepPath(
                    bandwidth_bytes_per_sec=1.25e6,
                    propagation_delay=0.02,
                    buffer_bytes=50_000.0,
                    label="serve-sweep",
                ),
            ),
            protocols=("cubic", "reno"),
            seeds=(0, 1),
            duration=1.0,
        )
        daemon = daemon_factory()
        response = daemon.admit(
            {
                "kind": "sweep",
                "params": {"grid": grid.to_params()},
                "label": "sweep:serve-test",
                "timeout_sec": 60.0,
            }
        )
        assert response["status"] == "accepted"
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        result_path = (
            serve_dir / "state" / "results" / f"{response['job_id']}.json"
        )
        result, verdict = read_result(result_path)
        assert verdict == "valid"
        assert result["status"] == "ok"
        value = result["value"]
        assert value["grid_id"] == grid.grid_id
        assert value["n_scenarios"] == 4
        assert value["n_faulted"] == 0
        assert all(
            row["status"] == "ok" for row in value["scenarios"]
        )
        manifest_path = daemon.drain()
        manifest = json.loads(manifest_path.read_text())
        assert [j["status"] for j in manifest["jobs"]] == ["ok"]
        assert manifest["jobs"][0]["kind"] == "sweep"

    def test_duplicate_submission_is_idempotent(self, daemon_factory):
        daemon = daemon_factory()
        first = daemon.admit(_req(0))
        second = daemon.admit(_req(0))
        assert first["status"] == "accepted"
        assert second["status"] == "duplicate"
        assert second["job_id"] == first["job_id"]
        assert daemon.journal.state.counts()["total"] == 1

    def test_invalid_request_is_rejected_not_fatal(self, daemon_factory):
        obs.configure(enabled=True)
        daemon = daemon_factory()
        response = daemon.admit({"kind": "no-such-kind"})
        assert response == {
            "status": "rejected",
            "reason": "invalid",
            "detail": response["detail"],
        }
        assert obs.metrics_snapshot()["counters"]["serve.invalid"] == 1

    def test_load_shed_under_full_queue(self, daemon_factory):
        obs.configure(enabled=True)
        daemon = daemon_factory(queue_limit=1)
        accepted = daemon.admit(_req(0))
        shed = daemon.admit(_req(1))
        assert accepted["status"] == "accepted"
        assert shed["status"] == "rejected"
        assert shed["reason"] == "overloaded"
        assert shed["retry_after_sec"] >= 1.0
        counters = obs.metrics_snapshot()["counters"]
        assert counters["serve.shed"] == 1
        # The shed job is journaled as rejected — visible in status, and
        # resubmittable once load drops.
        assert daemon.journal.state.jobs[shed["job_id"]].status == "rejected"

    def test_shed_job_resubmitted_after_backoff_is_accepted(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory(queue_limit=1)
        first = daemon.admit(_req(0))
        shed = daemon.admit(_req(1))
        assert shed["status"] == "rejected"
        assert shed["reason"] == "overloaded"
        # The client honours retry_after_sec; by then the queue drained.
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[first["job_id"]].status
            == "completed",
        )
        retry = daemon.admit(_req(1))
        assert retry["status"] == "accepted"
        assert retry["job_id"] == shed["job_id"]
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[retry["job_id"]].status
            == "completed",
        )
        assert daemon.journal.state.jobs[retry["job_id"]].completions == 1
        # Replay agrees: the resubmission record survives a restart.
        daemon.journal.flush()
        state = JobJournal.read_state(serve_dir / "state" / "journal")
        assert state.counts()["completed"] == 2

    def test_circuit_open_rejection_is_resubmittable(self, daemon_factory):
        daemon = daemon_factory(
            breaker_threshold=1, breaker_cooldown_sec=0.5
        )
        bad = daemon.admit(_req(0, fault="crash", job_class="bad"))
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[bad["job_id"]].terminal,
        )
        # New work of the open class is short-circuited at the door,
        # with a retry-after hint that is actually honourable.
        rejected = daemon.admit(_req(1, job_class="bad"))
        assert rejected["status"] == "rejected"
        assert rejected["reason"] == "circuit_open"
        assert rejected["retry_after_sec"] > 0
        time.sleep(0.6)  # cooldown elapses; breaker half-opens
        retry = daemon.admit(_req(1, job_class="bad"))
        assert retry["status"] == "accepted"
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[retry["job_id"]].terminal,
        )
        job = daemon.journal.state.jobs[retry["job_id"]]
        assert job.status == "completed"
        assert job.completions == 1

    def test_moved_tombstone_is_not_resubmittable(self, daemon_factory):
        """A fleet ``moved:<shard>`` tombstone must dedupe — the job
        belongs to another shard now, and re-running it here would
        break fleet-wide exactly-once — except for the fleet manager's
        ``requeue``-flagged recovery resubmission."""
        daemon = daemon_factory()
        request = normalize_request(_req(0))
        daemon.journal.submitted(request)
        daemon.journal.moved(request["job_id"], "shard-1")

        response = daemon.admit(_req(0))
        assert response["status"] == "duplicate"
        assert response["state"] == "moved"
        assert response["moved_to"] == "shard-1"
        job = daemon.journal.state.jobs[request["job_id"]]
        assert job.status == "rejected"  # tombstone untouched

        revived = daemon.admit({**_req(0), "requeue": True})
        assert revived["status"] == "accepted"
        job = daemon.journal.state.jobs[request["job_id"]]
        assert job.status == "pending"
        assert "requeue" not in job.request  # flag is transport-only

    def test_admitted_job_is_deferred_not_rejected_by_open_breaker(
        self, daemon_factory
    ):
        daemon = daemon_factory(
            breaker_threshold=1, breaker_cooldown_sec=0.3
        )
        bad = daemon.admit(_req(0, fault="crash", job_class="flaky"))
        good = daemon.admit(_req(1, job_class="flaky"))
        assert good["status"] == "accepted"
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[bad["job_id"]].terminal,
        )
        # The crash opened the breaker; the already-accepted job is
        # parked (still pending in the journal), never rejected.
        _run_until(daemon, lambda: len(daemon._deferred) == 1)
        assert daemon.journal.state.jobs[good["job_id"]].status == "pending"
        # After cooldown it becomes the half-open probe and completes,
        # closing the breaker.
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[good["job_id"]].terminal,
        )
        job = daemon.journal.state.jobs[good["job_id"]]
        assert job.status == "completed"
        assert daemon.breaker.state("flaky") == CLOSED

    def test_draining_daemon_rejects_new_work(self, daemon_factory):
        daemon = daemon_factory()
        daemon.draining = True
        response = daemon.admit(_req(0))
        assert response["status"] == "rejected"
        assert response["reason"] == "draining"
        assert response["retry_after_sec"] > 0

    def test_drain_waits_for_inflight_lease(self, daemon_factory, serve_dir):
        daemon = daemon_factory()
        daemon.admit(_req(0, fault="sleep", sleep_sec=0.4))
        _run_until(daemon, lambda: daemon.supervisor.busy == 1)
        manifest_path = daemon.drain()
        manifest = json.loads(manifest_path.read_text())
        assert [j["status"] for j in manifest["jobs"]] == ["ok"]
        state = JobJournal.read_state(serve_dir / "state" / "journal")
        assert state.counts()["completed"] == 1

    def test_drain_timeout_requeues_not_loses(self, daemon_factory, serve_dir):
        daemon = daemon_factory(drain_timeout_sec=0.2)
        daemon.admit(_req(0, fault="sleep", sleep_sec=30.0))
        _run_until(daemon, lambda: daemon.supervisor.busy == 1)
        manifest_path = daemon.drain()
        manifest = json.loads(manifest_path.read_text())
        (row,) = manifest["jobs"]
        assert row["status"] == "failed"
        assert row["error"]["error_type"] == "Drained"
        # ...but the journal still owns the job: the next daemon resumes it.
        state = JobJournal.read_state(serve_dir / "state" / "journal")
        assert state.counts()["pending"] == 1

    def test_sigkill_recovery_requeues_and_completes(
        self, daemon_factory, serve_dir
    ):
        first = daemon_factory()
        for i in range(3):
            first.admit(_req(i))
        # Lease one so recovery sees both pending and orphaned-leased jobs.
        first._dispatch()
        assert first.supervisor.busy == 1
        # Simulate SIGKILL: no drain, no requeue, just gone.
        first.supervisor.kill_all()
        first.journal.close()
        first._lock_file.release()

        second = daemon_factory()
        assert second.recovered == 3
        _run_until(
            second, lambda: second.journal.state.counts()["completed"] == 3
        )
        for job in second.journal.state.jobs.values():
            assert job.completions == 1  # exactly-once accounting

    def test_crash_looping_job_is_bounded(self, daemon_factory):
        obs.configure(enabled=True)
        daemon = daemon_factory(max_leases=2)
        daemon.supervisor.backoff_base = 0.02
        response = daemon.admit(_req(0, fault="kill"))
        job_id = response["job_id"]
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[job_id].terminal,
        )
        job = daemon.journal.state.jobs[job_id]
        assert job.status == "failed"
        assert job.error["error_type"] == "WorkerCrashLoop"
        assert job.attempts == 2
        counters = obs.metrics_snapshot()["counters"]
        assert counters["supervisor.restarts"] == 2

    def test_breaker_short_circuits_failing_class(self, daemon_factory):
        daemon = daemon_factory(breaker_threshold=1)
        first = daemon.admit(_req(0, fault="crash", job_class="bad"))
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[first["job_id"]].terminal,
        )
        assert daemon.journal.state.jobs[first["job_id"]].status == "failed"
        second = daemon.admit(_req(1, fault="crash", job_class="bad"))
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[second["job_id"]].terminal,
        )
        job = daemon.journal.state.jobs[second["job_id"]]
        assert job.status == "rejected"
        assert job.reason == "circuit_open"
        assert job.attempts == 0  # never leased

    def test_second_daemon_on_same_state_dir_refused(
        self, daemon_factory, serve_dir
    ):
        daemon_factory()
        with pytest.raises(RuntimeError, match="serve.lock"):
            ServeDaemon(ServeConfig(
                state_dir=serve_dir / "state",
                socket_path=serve_dir / "serve.sock",
                fsync=False,
            ))

    def test_socket_admission_roundtrip(self, daemon_factory, serve_dir):
        daemon = daemon_factory(socket_path=serve_dir / "serve.sock")
        daemon._start_socket()
        responses = submit_via_socket(
            serve_dir / "serve.sock", [_req(0), _req(0), {"bad": True}]
        )
        assert responses[0]["status"] == "accepted"
        assert responses[1]["status"] == "duplicate"
        assert responses[2]["status"] == "rejected"
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )

    def test_status_reads_journal_without_touching_it(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory()
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        status = serve_status(serve_dir / "state")
        assert status["counts"]["completed"] == 1
        assert status["jobs"][0]["completions"] == 1
        assert "completed" in format_status(status)


# ----------------------------------------------------------------------
# The run loop wakes on events (worker exit, deadlines, intake, signals)
# ----------------------------------------------------------------------
def _wait_for(predicate, timeout: float) -> float:
    """Poll ``predicate`` from the test thread; the time it held."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return time.monotonic()
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def _run_in_thread(daemon: ServeDaemon):
    codes = []
    thread = threading.Thread(target=lambda: codes.append(daemon.run()),
                              daemon=True)
    thread.start()
    _wait_for(lambda: (daemon.state_dir / "serve.pid").exists(), 10.0)
    return thread, codes


def _stop(daemon: ServeDaemon, thread, codes) -> None:
    daemon._stop_signal = signal.SIGTERM
    with daemon._admission:
        daemon._wake()
    thread.join(15.0)
    assert codes == [0]


class TestEventWait:
    def test_idle_run_loop_sleeps_to_its_deadline(self, daemon_factory):
        daemon = daemon_factory(max_runtime_sec=1.2)
        ticks = []
        real_tick = daemon.tick
        daemon.tick = lambda: (ticks.append(1), real_tick())
        thread, codes = _run_in_thread(daemon)
        thread.join(10.0)
        assert codes == [0]
        assert len(ticks) <= 3

    def test_intake_wakes_the_loop(self, daemon_factory):
        daemon = daemon_factory(max_runtime_sec=30)
        thread, codes = _run_in_thread(daemon)
        time.sleep(0.2)  # let the loop block in its wait
        start = time.monotonic()
        job_id = daemon.admit(_req(0))["job_id"]
        leased = _wait_for(
            lambda: daemon.journal.state.jobs[job_id].attempts >= 1, 5.0
        )
        assert leased - start < 0.5
        _stop(daemon, thread, codes)

    def test_freed_slot_takes_queued_work_at_once(self, daemon_factory):
        # One worker, three queued jobs: each worker exit must both reap
        # and refill the slot, or the loop blocks with work queued.
        daemon = daemon_factory(max_runtime_sec=30)
        thread, codes = _run_in_thread(daemon)
        for i in range(3):
            daemon.admit(_req(i, fault="sleep", sleep_sec=0.2))
        _wait_for(
            lambda: daemon.journal.state.counts()["completed"] == 3, 5.0
        )
        _stop(daemon, thread, codes)

    def test_lease_deadline_wakes_the_loop(self, daemon_factory):
        daemon = daemon_factory(max_runtime_sec=30)
        thread, codes = _run_in_thread(daemon)
        request = _req(0, fault="hang", hang_sec=30.0)
        request["timeout_sec"] = 0.5
        job_id = daemon.admit(request)["job_id"]
        _wait_for(daemon.supervisor.in_flight, 5.0)
        lease_deadline = daemon.supervisor.in_flight()[0].deadline_mono
        killed = _wait_for(
            lambda: daemon.journal.state.jobs[job_id].terminal, 5.0
        )
        job = daemon.journal.state.jobs[job_id]
        assert job.error["error_type"] == "TimeoutError"
        assert killed - lease_deadline < 0.5
        _stop(daemon, thread, codes)

    def test_slot_backoff_end_wakes_the_loop(self, daemon_factory):
        daemon = daemon_factory(max_runtime_sec=30, max_leases=2)
        daemon.supervisor.backoff_base = 0.3
        thread, codes = _run_in_thread(daemon)
        start = time.monotonic()
        job_id = daemon.admit(_req(0, fault="kill"))["job_id"]
        # Lease 2 needs no further intake: the loop wakes when the
        # crashed slot's backoff ends.
        done = _wait_for(
            lambda: daemon.journal.state.jobs[job_id].terminal, 5.0
        )
        job = daemon.journal.state.jobs[job_id]
        assert job.error["error_type"] == "WorkerCrashLoop"
        assert job.attempts == 2
        assert done - start >= 0.3
        _stop(daemon, thread, codes)

    def test_idle_daemon_process_exits_at_once_on_sigterm(self, tmp_path):
        from repro.guard.drill import ServiceUnderTest

        state = tmp_path / "state"
        argv = ["serve", "run", "--state", state, "--socket",
                state / "serve.sock", "--workers", "1", "--no-fsync",
                "--max-runtime-sec", "60"]
        with ServiceUnderTest(argv, tmp_path / "daemon.log",
                              ready_timeout=30) as svc:
            time.sleep(0.3)  # let the loop block in its wait
            svc.proc.send_signal(signal.SIGTERM)
            assert svc.proc.wait(timeout=5) == 0


# ----------------------------------------------------------------------
# Durable result plane (PR 10): fetch, read-repair, disk-full shedding
# ----------------------------------------------------------------------
class TestDurableResultPlane:
    def test_fetch_verb_returns_verified_result(self, daemon_factory):
        daemon = daemon_factory()
        response = daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        fetched = daemon._handle_verb(
            {"verb": "fetch", "job_id": response["job_id"]}
        )
        assert fetched["status"] == "ok"
        assert fetched["state"] == "completed"
        assert fetched["result"]["status"] == "ok"
        assert fetched["result"]["job_id"] == response["job_id"]

    def test_fetch_unknown_job_is_not_found(self, daemon_factory):
        daemon = daemon_factory()
        fetched = daemon._handle_verb({"verb": "fetch", "job_id": "f" * 64})
        assert fetched == {"status": "not_found", "job_id": "f" * 64}

    def test_fetch_pending_job_gives_retry_hint(self, daemon_factory):
        daemon = daemon_factory()
        response = daemon.admit(_req(0, fault="sleep", sleep_sec=5.0))
        fetched = daemon._handle_verb(
            {"verb": "fetch", "job_id": response["job_id"]}
        )
        assert fetched["status"] == "pending"
        assert fetched["state"] in ("pending", "leased")
        assert fetched["retry_after_sec"] > 0
        daemon.supervisor.kill_all()

    def test_fetch_corrupt_result_read_repairs_exactly_once(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory()
        response = daemon.admit(_req(0))
        job_id = response["job_id"]
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        result_path = serve_dir / "state" / "results" / f"{job_id}.json"
        blob = bytearray(result_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        result_path.write_bytes(bytes(blob))

        # The corrupt artifact is never served: quarantined, completion
        # voided, job re-executed.
        fetched = daemon._handle_verb({"verb": "fetch", "job_id": job_id})
        assert fetched["status"] == "pending"
        assert fetched["state"] == "repairing"
        assert list(
            (serve_dir / "state" / "results" / "quarantine").glob("*")
        )
        assert daemon.journal.state.jobs[job_id].status == "pending"
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[job_id].status == "completed",
        )
        fetched = daemon._handle_verb({"verb": "fetch", "job_id": job_id})
        assert fetched["status"] == "ok"
        assert fetched["result"]["status"] == "ok"
        # Exactly-once ledger: the voided completion does not count.
        assert daemon.journal.state.jobs[job_id].completions == 1
        daemon.journal.flush()
        replayed = JobJournal.read_state(serve_dir / "state" / "journal")
        assert replayed.jobs[job_id].completions == 1

    def test_wal_write_fault_sheds_disk_full_then_self_clears(
        self, daemon_factory
    ):
        from repro.guard.chaos import _ENOSPCFile

        daemon = daemon_factory(disk_probe_interval_sec=0.01)
        daemon.journal._fh = _ENOSPCFile(daemon.journal._fh)
        response = daemon.admit(_req(0))
        assert response["status"] == "rejected"
        assert response["reason"] == "disk_full"
        assert response["retry_after_sec"] > 0
        assert daemon._shedding == "disk_full"
        health = daemon._handle_verb({"verb": "health"})
        assert health["health"]["shedding"] == "disk_full"
        # Probe gated: still shedding inside the interval.
        daemon._disk_probe_at = time.monotonic() + 30.0
        assert daemon.admit(_req(0))["reason"] == "disk_full"
        # The "disk" heals — the probe's reopen() drops the poisoned
        # handle — and admission must recover without a restart.
        daemon._disk_probe_at = 0.0
        retry = daemon.admit(_req(0))
        assert retry["status"] == "accepted"
        assert daemon._shedding is None
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        assert daemon.journal.state.jobs[retry["job_id"]].completions == 1

    def test_recovery_repairs_completion_from_artifact(
        self, daemon_factory, serve_dir
    ):
        # The SIGKILL-between-result-write-and-journal-append window:
        # WAL says leased, the checksummed artifact says done.  Recovery
        # must journal the completion from the artifact, not re-run.
        request = normalize_request(_req(0))
        job_id = request["job_id"]
        journal = JobJournal(serve_dir / "state" / "journal", fsync=False)
        journal.submitted(request)
        journal.leased(job_id, 1, pid=999999)
        journal.close()
        _write_result(
            serve_dir / "state" / "results" / f"{job_id}.json",
            {"status": "ok", "job_id": job_id, "value": {"ok": True},
             "cache_hit": False, "duration_sec": 0.125},
        )
        daemon = daemon_factory()
        assert daemon.recovered == 0  # repaired, not requeued
        job = daemon.journal.state.jobs[job_id]
        assert job.status == "completed"
        assert job.completions == 1
        assert job.attempts == 1
        assert job.duration_sec == 0.125
        fetched = daemon._handle_verb({"verb": "fetch", "job_id": job_id})
        assert fetched["status"] == "ok"

    def test_recovery_reverifies_suspect_completion(
        self, daemon_factory, serve_dir
    ):
        # A job named by a corrupt journal record is only believed
        # completed if its artifact's checksum holds; here it does not,
        # so the completion is voided and the job re-runs.
        request = normalize_request(_req(0))
        job_id = request["job_id"]
        journal = JobJournal(serve_dir / "state" / "journal", fsync=False)
        journal.submitted(request)
        journal.leased(job_id, 1)
        journal.completed(request["job_id"], duration_sec=0.5)
        # A second, corrupt record naming the same job makes it suspect.
        journal.close()
        segment = serve_dir / "state" / "journal" / JobJournal.ACTIVE
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"v": 2, "type": "leased", "job_id": job_id, "lease": 2}
            ) + "\n")
        result_path = serve_dir / "state" / "results" / f"{job_id}.json"
        _write_result(result_path, {"status": "ok", "job_id": job_id})
        blob = bytearray(result_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        result_path.write_bytes(bytes(blob))

        daemon = daemon_factory()
        assert job_id in daemon.journal.state.suspect_jobs
        _run_until(
            daemon,
            lambda: daemon.journal.state.jobs[job_id].status == "completed",
        )
        assert daemon.journal.state.jobs[job_id].completions == 1
        fetched = daemon._handle_verb({"verb": "fetch", "job_id": job_id})
        assert fetched["status"] == "ok"
        assert fetched["result"]["status"] == "ok"

    def test_fetch_over_socket_and_resilient_wait(
        self, daemon_factory, serve_dir
    ):
        from repro.serve.client import fetch_result
        from repro.serve.transport import ResilientClient

        daemon = daemon_factory(socket_path=serve_dir / "serve.sock")
        daemon._start_socket()
        response = daemon.admit(_req(0, fault="sleep", sleep_sec=0.2))
        job_id = response["job_id"]
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                daemon.tick()
                if daemon.journal.state.counts()["completed"] >= 1:
                    return
                time.sleep(0.02)

        pumper = threading.Thread(target=pump)
        pumper.start()
        try:
            client = ResilientClient(
                serve_dir / "serve.sock", deadline_sec=20.0
            )
            fetched = client.fetch(job_id, wait=True)
        finally:
            stop.set()
            pumper.join()
        assert fetched["status"] == "ok"
        assert fetched["result"]["status"] == "ok"
        # The one-shot helper agrees now that the job settled.
        assert fetch_result(serve_dir / "serve.sock", job_id)["status"] == "ok"


# ----------------------------------------------------------------------
# Live observability wiring (PR 7)
# ----------------------------------------------------------------------
class TestServeLiveObs:
    def test_daemon_self_enables_telemetry(self, daemon_factory):
        daemon_factory()
        assert obs.enabled()

    def test_live_obs_false_leaves_obs_alone(self, daemon_factory):
        obs.reset()
        daemon_factory(live_obs=False)
        assert not obs.enabled()

    def test_stats_verb_over_socket(self, daemon_factory, serve_dir):
        daemon = daemon_factory(socket_path=serve_dir / "serve.sock")
        daemon._start_socket()
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        response = query_daemon(serve_dir / "serve.sock", "stats")
        assert response["status"] == "ok"
        stats = response["stats"]
        service = stats["service"]
        assert service["queue_depth"] == 0
        assert service["workers"] == 1
        assert service["counts"]["completed"] == 1
        assert service["journal"]["records"] >= 3  # submit+lease+complete
        assert service["journal"]["lag_sec"] is not None
        assert "drill" in service["breakers"]
        metrics = stats["metrics"]
        assert metrics["counters"]["serve.completed"] == 1.0
        assert "serve.latency_sec.drill" in metrics["histograms"]

    def test_health_verb_and_unknown_verb(self, daemon_factory, serve_dir):
        daemon = daemon_factory(socket_path=serve_dir / "serve.sock")
        daemon._start_socket()
        health = query_daemon(serve_dir / "serve.sock", "health")
        assert health["status"] == "ok"
        assert health["health"]["draining"] is False
        assert health["health"]["pid"] > 0
        bad = query_daemon(serve_dir / "serve.sock", "reboot")
        assert bad["status"] == "rejected"
        assert bad["reason"] == "invalid"

    def test_per_class_latency_histograms(self, daemon_factory):
        daemon = daemon_factory(workers=2)
        daemon.admit(_req(0, job_class="drill"))
        daemon.admit(_req(1, job_class="Weird-Class"))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 2
        )
        registry = obs.metrics()
        assert registry.log_histogram("serve.latency_sec.drill").count == 1
        # Class names are sanitised into metric-name-safe labels.
        assert (
            registry.log_histogram("serve.latency_sec.weird_class").count
            == 1
        )

    def test_serve_status_live_section(self, daemon_factory, serve_dir):
        daemon = daemon_factory()
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        daemon.flusher.flush_now()
        snapshot = read_live_snapshot(serve_dir / "state")
        assert snapshot is not None
        assert snapshot["age_sec"] < 60.0
        status = serve_status(serve_dir / "state")
        live = status["live"]
        assert live["queue_depth"] == 0
        assert live["draining"] is False
        assert live["in_flight"] == {}
        assert "live: queue_depth=0" in format_status(status)

    def test_status_without_snapshot_has_no_live_section(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory()
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        status = serve_status(serve_dir / "state")
        assert "live" not in status
        assert "live:" not in format_status(status)

    def test_flusher_publishes_prometheus_and_json(
        self, daemon_factory, serve_dir
    ):
        daemon = daemon_factory()
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        daemon.flusher.flush_now()
        obs_dir = serve_dir / "state" / "obs"
        snapshot = json.loads((obs_dir / "metrics.json").read_text())
        assert snapshot["service"]["counts"]["completed"] == 1
        prom = (obs_dir / "metrics.prom").read_text()
        assert "repro_serve_completed 1" in prom
        assert 'repro_serve_latency_sec_drill_bucket{le="+Inf"} 1' in prom

    def test_flight_dump_on_lease_timeout(self, daemon_factory, serve_dir):
        daemon = daemon_factory()
        request = _req(0, fault="hang", hang_sec=30.0)
        request["timeout_sec"] = 1.0
        daemon.admit(request)
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["failed"] == 1
        )
        dumps = sorted((serve_dir / "state" / "obs").glob("flight-*.json"))
        assert dumps, "expected a flight dump after the SIGKILLed lease"
        payload = json.loads(dumps[-1].read_text())
        assert payload["reason"] == "lease_killed"
        assert payload["context"]["job_class"] == "drill"
        assert isinstance(payload["events"], list)
        assert payload["metrics"]["counters"]["serve.failed"] == 1.0

    def test_slo_tracking_wired_into_daemon(self, daemon_factory):
        daemon = daemon_factory(
            slos=(SLO("drill", latency_objective_sec=0.000001),)
        )
        daemon.admit(_req(0))
        _run_until(
            daemon, lambda: daemon.journal.state.counts()["completed"] == 1
        )
        # The job completed but blew its (absurd) latency objective.
        status = daemon.slo_tracker.status()["drill"]
        assert status["total"] == 1
        assert status["bad"] == 1
        payload = daemon._stats_payload()
        assert payload["slo"]["drill"]["bad"] == 1
