"""Fleet mode: hash-ring routing, cross-shard roll-up, shard-kill recovery.

Three layers, cheapest first: pure ring properties, offline status
aggregation over synthetic shard state dirs, and one end-to-end drill
that runs a real 2-shard fleet as subprocesses, SIGKILLs a shard
mid-run, and demands exactly-once completion fleet-wide.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.guard.drill import ServiceUnderTest, ledger_violations, wait_for
from repro.serve import (
    FleetConfig,
    FleetManager,
    FleetRouter,
    HashRing,
    JobJournal,
    fleet_status,
    format_fleet_status,
    format_status,
    is_fleet_state,
    serve_status,
)
from repro.serve.transport import exchange


# ----------------------------------------------------------------------
# HashRing properties
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [f"job-{i}" for i in range(500)]
        owners = {k: ring.owner(k) for k in keys}
        again = HashRing(["shard-2", "shard-1", "shard-0"])  # order-free
        assert all(again.owner(k) == owners[k] for k in keys)
        assert set(owners.values()) == {"shard-0", "shard-1", "shard-2"}

    def test_stability_under_shard_loss(self):
        """Removing a member only remaps *that member's* keys."""
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [f"job-{i}" for i in range(1000)]
        owners = {k: ring.owner(k) for k in keys}
        survivors = ring.without("shard-1")
        for key in keys:
            if owners[key] != "shard-1":
                assert survivors.owner(key) == owners[key]
            else:
                assert survivors.owner(key) in ("shard-0", "shard-2")

    def test_readmission_restores_ownership(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [f"job-{i}" for i in range(300)]
        owners = {k: ring.owner(k) for k in keys}
        back = ring.without("shard-2").with_member("shard-2")
        assert all(back.owner(k) == owners[k] for k in keys)

    def test_balance_is_roughly_even(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        spread = ring.spread([f"job-{i}" for i in range(2000)])
        assert all(count > 200 for count in spread.values())

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing([]).owner("job")


# ----------------------------------------------------------------------
# Offline status: dead-daemon reporting and cross-shard aggregation
# ----------------------------------------------------------------------
def _write_snapshot(state_dir: Path, counters: dict, ts: float) -> None:
    obs_dir = state_dir / "obs"
    obs_dir.mkdir(parents=True, exist_ok=True)
    (obs_dir / "metrics.json").write_text(
        json.dumps(
            {
                "v": 1,
                "ts": ts,
                "metrics": {
                    "counters": counters,
                    "gauges": {},
                    "histograms": {},
                },
                "service": {"queue_depth": 0, "in_flight": {}},
            }
        )
    )


def _seed_shard(
    shard_dir: Path, jobs: list, counters: dict, snapshot_age: float
) -> None:
    journal = JobJournal(shard_dir / "journal", fsync=False)
    for job_id, outcome in jobs:
        request = {"job_id": job_id, "kind": "chaos", "label": job_id,
                   "params": {}}
        journal.submitted(request)
        if outcome == "completed":
            journal.leased(job_id, lease=1)
            journal.completed(job_id, duration_sec=0.1)
        elif outcome == "moved":
            journal.moved(job_id, "elsewhere")
        elif outcome == "leased":
            journal.leased(job_id, lease=1)
    journal.close()
    _write_snapshot(shard_dir, counters, ts=time.time() - snapshot_age)


class TestServeStatusDown:
    def test_dead_daemon_reports_down_with_snapshot_age(self, tmp_path):
        """Satellite fix: status on a dead daemon must not raise."""
        state = tmp_path / "state"
        _seed_shard(state, [("j1", "completed")], {"serve.completed": 1},
                    snapshot_age=42.0)
        # A pid that is long gone: our own dead child.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (state / "serve.pid").write_text(str(child.pid))

        status = serve_status(state)
        assert status["daemon"] == "down"
        assert status["live"]["snapshot_age_sec"] == pytest.approx(
            42.0, abs=5.0
        )
        text = format_status(status)
        assert "down" in text
        assert "last snapshot" in text

    def test_live_daemon_reports_up(self, tmp_path):
        state = tmp_path / "state"
        _seed_shard(state, [("j1", "completed")], {}, snapshot_age=0.0)
        (state / "serve.pid").write_text(str(os.getpid()))
        status = serve_status(state)
        assert status["daemon"] == "up"
        assert "up" in format_status(status)

    def test_missing_snapshot_does_not_crash_format(self, tmp_path):
        state = tmp_path / "state"
        journal = JobJournal(state / "journal", fsync=False)
        journal.close()
        status = serve_status(state)
        assert status["daemon"] == "down"
        format_status(status)  # must not raise


class TestFleetStatusAggregation:
    def test_rollup_equals_per_shard_sums(self, tmp_path):
        state = tmp_path / "fleet"
        _seed_shard(
            state / "shard-0",
            [("a", "completed"), ("b", "completed")],
            {"serve.admitted": 2, "serve.completed": 2},
            snapshot_age=1.0,
        )
        _seed_shard(
            state / "shard-1",
            [("c", "completed")],
            {"serve.admitted": 1, "serve.completed": 1, "serve.shed": 4},
            snapshot_age=1.0,
        )
        assert is_fleet_state(state)
        status = fleet_status(state)
        assert status["counts"]["total"] == 3
        assert status["counts"]["completed"] == 3
        # Merged counters are exactly the sums of the shard snapshots.
        assert status["rollup"]["counters"]["serve.admitted"] == 3
        assert status["rollup"]["counters"]["serve.completed"] == 3
        assert status["rollup"]["counters"]["serve.shed"] == 4
        assert status["rollup"]["inputs"] == 2

    def test_moved_job_counts_once_at_its_new_owner(self, tmp_path):
        """A handed-off job is 'rejected: moved' on the dead shard and
        completed on the survivor — the fleet view must count it once,
        as completed."""
        state = tmp_path / "fleet"
        _seed_shard(state / "shard-0", [("x", "moved")], {}, 1.0)
        _seed_shard(state / "shard-1", [("x", "completed")], {}, 1.0)
        status = fleet_status(state)
        assert status["counts"]["total"] == 1
        assert status["counts"]["completed"] == 1
        assert status["counts"]["rejected"] == 0
        (job,) = status["jobs"]
        assert job["status"] == "completed"
        assert job["shard"] == "shard-1"
        assert job["completions"] == 1
        text = format_fleet_status(status)
        assert "DOUBLE-COMPLETED" not in text

    def test_leased_beats_rejected_in_precedence(self, tmp_path):
        state = tmp_path / "fleet"
        _seed_shard(state / "shard-0", [("x", "moved")], {}, 1.0)
        _seed_shard(state / "shard-1", [("x", "leased")], {}, 1.0)
        status = fleet_status(state)
        assert status["jobs"][0]["status"] == "leased"

    def test_single_daemon_dir_is_not_a_fleet(self, tmp_path):
        state = tmp_path / "state"
        _seed_shard(state, [("j", "completed")], {}, 1.0)
        assert not is_fleet_state(state)


# ----------------------------------------------------------------------
# Start-up recovery scan for half-finished handoffs
# ----------------------------------------------------------------------
class TestRecoverMoved:
    def test_orphaned_move_is_resubmitted(self, tmp_path):
        state = tmp_path / "fleet"
        # shard-0 journaled the move but the old manager died before
        # forwarding; no other shard ever saw the job.
        _seed_shard(state / "shard-0", [("lost", "moved")], {}, 1.0)
        _seed_shard(state / "shard-1", [], {}, 1.0)
        manager = FleetManager(FleetConfig(state_dir=state, shards=2))
        manager._recover_moved()
        assert "lost" in manager._pending_handoffs
        # Flagged so a moved tombstone at its (respawned) ring owner
        # cannot dedupe the recovery resubmission away.
        assert manager._pending_handoffs["lost"]["requeue"] is True

    def test_malformed_moved_request_is_surfaced_as_lost(self, tmp_path):
        """A tombstone whose stored request cannot be resubmitted must
        land in the lost-handoffs list, not vanish into a log line."""
        state = tmp_path / "fleet"
        # A moved record for a job that was never submitted leaves only
        # a stub request ({"job_id": ...}, no kind) behind.
        journal = JobJournal(state / "shard-0" / "journal", fsync=False)
        journal.moved("ghost", "elsewhere")
        journal.close()
        _seed_shard(state / "shard-1", [], {}, 1.0)
        manager = FleetManager(FleetConfig(state_dir=state, shards=2))
        manager._recover_moved()
        assert "ghost" not in manager._pending_handoffs
        assert "ghost" in manager._lost_handoffs
        section = manager._fleet_section()
        assert section["lost_handoffs"] == 1
        assert section["lost_handoff_jobs"] == ["ghost"]

    def test_delivered_move_is_left_alone(self, tmp_path):
        state = tmp_path / "fleet"
        _seed_shard(state / "shard-0", [("x", "moved")], {}, 1.0)
        _seed_shard(state / "shard-1", [("x", "completed")], {}, 1.0)
        manager = FleetManager(FleetConfig(state_dir=state, shards=2))
        manager._recover_moved()
        assert manager._pending_handoffs == {}


# ----------------------------------------------------------------------
# Supervision sweeps: empty-ring respawn, wedged-shard escalation,
# undeliverable-handoff surfacing (hand-rigged shard handles; the only
# real subprocesses are inert sleepers standing in for wedged daemons)
# ----------------------------------------------------------------------
class TestFleetSupervision:
    def _manager(self, tmp_path, **overrides) -> FleetManager:
        return FleetManager(
            FleetConfig(state_dir=tmp_path / "fleet", shards=1, **overrides)
        )

    def _sleeper(self) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )

    def test_empty_ring_respawns_dead_shard(self, tmp_path, monkeypatch):
        """Regression: with every shard dead there is no handoff target,
        and gating respawn on the handoff deadlocked the fleet forever
        (no_live_shard for every request until a manager restart)."""
        manager = self._manager(tmp_path)
        shard = manager.shards[0]
        shard.status = "dead"
        shard.needs_handoff = True
        shard.next_restart_at = 0.0
        spawned = []
        monkeypatch.setattr(
            manager, "_spawn", lambda s: spawned.append(s.name)
        )
        manager._sweep()
        assert spawned == ["shard-0"]
        assert not shard.needs_handoff

    def test_persistent_suspicion_kills_wedged_shard(self, tmp_path):
        """Router forwarding failures against an alive process must
        escalate to a kill + failover, not be discarded every sweep."""
        manager = self._manager(tmp_path, suspect_sweep_limit=3)
        shard = manager.shards[0]
        proc = self._sleeper()
        try:
            shard.process = proc
            shard.status = "live"
            shard.live_since = time.monotonic()
            for _ in range(2):
                manager._note_suspect(shard.name)
                manager._sweep()
                assert shard.status == "live"  # below the limit
            manager._note_suspect(shard.name)
            manager._sweep()
            assert shard.status == "dead"
            assert proc.poll() is not None  # SIGKILLed by the manager
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_one_off_suspicion_is_forgiven(self, tmp_path):
        manager = self._manager(tmp_path, suspect_sweep_limit=3)
        shard = manager.shards[0]
        proc = self._sleeper()
        try:
            shard.process = proc
            shard.status = "live"
            shard.live_since = time.monotonic()
            manager._note_suspect(shard.name)
            manager._sweep()
            manager._sweep()  # clean sweep resets the streak
            manager._note_suspect(shard.name)
            manager._sweep()
            assert shard.status == "live"
            assert shard.suspect_sweeps == 1
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_stale_heartbeat_kills_wedged_shard(self, tmp_path):
        manager = self._manager(tmp_path, heartbeat_timeout_sec=5.0)
        shard = manager.shards[0]
        proc = self._sleeper()
        try:
            shard.process = proc
            shard.status = "live"
            _write_snapshot(shard.state_dir, {}, ts=time.time() - 60)
            # Grace window: a freshly (re)admitted shard is not judged
            # on the snapshot left over from its previous life.
            shard.live_since = time.monotonic()
            manager._sweep()
            assert shard.status == "live"
            # Long-live shard with a long-stale snapshot: wedged.
            shard.live_since = time.monotonic() - 30.0
            manager._sweep()
            assert shard.status == "dead"
            assert proc.poll() is not None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_undeliverable_handoff_is_surfaced_not_dropped(self, tmp_path):
        """An 'invalid' resubmission response means the job can never
        run anywhere — it must show up in health/stats, not just a log."""
        manager = self._manager(tmp_path)
        request = {"job_id": "bad", "kind": "chaos", "params": {}}
        manager._pending_handoffs["bad"] = request

        def fake_route(req):
            return {
                "status": "rejected", "reason": "invalid", "detail": "boom"
            }

        manager.router.route = fake_route
        manager._pump_handoffs()
        assert manager._pending_handoffs == {}
        assert manager._lost_handoffs["bad"]["request"] == request
        section = manager._fleet_section()
        assert section["lost_handoffs"] == 1
        assert section["lost_handoff_jobs"] == ["bad"]

    def test_suspect_noted_mid_sweep_is_judged_next_sweep(
        self, tmp_path, monkeypatch
    ):
        """Router threads note suspects while a sweep runs; the sweep
        must not discard what arrived after it started."""
        manager = self._manager(tmp_path)
        shard = manager.shards[0]
        proc = self._sleeper()
        try:
            shard.process = proc
            shard.status = "live"

            def snapshot_meanwhile(state_dir):
                manager._note_suspect(shard.name)
                return None

            monkeypatch.setattr(
                "repro.serve.fleet.read_live_snapshot", snapshot_meanwhile
            )
            manager._sweep()
            assert manager._suspect == {shard.name}
            monkeypatch.undo()
            manager._sweep()
            assert shard.suspect_sweeps == 1
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_intake_answers_while_supervision_is_busy(
        self, tmp_path, monkeypatch
    ):
        """A slow sweep (journal replay, fsync, waiting on a killed
        shard) must not delay requests: the router answers on its own
        threads."""
        manager = self._manager(tmp_path, max_runtime_sec=4)
        monkeypatch.setattr(manager, "start", lambda: None)
        monkeypatch.setattr(manager, "_sweep", lambda: time.sleep(1.0))
        runner = threading.Thread(target=manager.run, daemon=True)
        runner.start()
        try:
            assert wait_for(
                lambda: (manager.state_dir / "fleet.pid").exists(), 10,
                poll=0.02,
            )
            endpoint = (manager.state_dir / "fleet.endpoint").read_text()
            for _ in range(5):
                began = time.monotonic()
                response = exchange(endpoint.strip(), [{"verb": "health"}])
                assert response[0]["status"] == "ok"
                assert time.monotonic() - began < 0.3
        finally:
            runner.join(timeout=15)
        assert not runner.is_alive()


class TestFleetStatusRouterProbe:
    def test_permission_error_means_alive(self, tmp_path, monkeypatch):
        """A fleet pid owned by another user is up, not down — mirror
        serve_status's treatment of PermissionError."""
        state = tmp_path / "fleet"
        _seed_shard(state / "shard-0", [], {}, 1.0)
        (state / "fleet.pid").write_text("4242")

        def fake_kill(pid, sig):
            raise PermissionError(f"pid {pid} belongs to someone else")

        monkeypatch.setattr(os, "kill", fake_kill)
        status = fleet_status(state)
        assert status["router"] == {"pid": 4242, "alive": True}


# ----------------------------------------------------------------------
# Router forwarding (in-process fake shard; no subprocesses)
# ----------------------------------------------------------------------
class TestFleetRouter:
    def test_forwards_and_annotates_shard(self, tmp_path, fake_shard):
        shard, _ = fake_shard({"status": "accepted"})
        router = FleetRouter(
            tmp_path / "fleet.sock",
            owner_of=lambda job_id: ("shard-7", shard.bound),
            control=lambda verb: {"status": "ok", "verb": verb},
        )
        response = router.route(
            {"job_id": "j1", "kind": "chaos", "params": {},
             "label": "j1", "class": "chaos"}
        )
        assert response["status"] == "accepted"
        assert response["shard"] == "shard-7"
        assert response["job_id"] == "j1"

    def test_unreachable_shard_rejects_and_reports(self, tmp_path):
        suspected = []
        router = FleetRouter(
            tmp_path / "fleet.sock",
            owner_of=lambda job_id: ("shard-9", tmp_path / "nowhere.sock"),
            control=lambda verb: {},
            on_shard_error=suspected.append,
        )
        response = router.route(
            {"job_id": "j2", "kind": "chaos", "params": {}}
        )
        assert response["status"] == "rejected"
        assert response["reason"] == "shard_unavailable"
        assert response["retry_after_sec"] > 0
        assert suspected == ["shard-9"]

    def test_no_live_shard_rejects_with_retry_hint(self, tmp_path):
        router = FleetRouter(
            tmp_path / "fleet.sock",
            owner_of=lambda job_id: None,
            control=lambda verb: {},
        )
        response = router.route(
            {"job_id": "j3", "kind": "chaos", "params": {}}
        )
        assert response["status"] == "rejected"
        assert response["reason"] == "no_live_shard"


# ----------------------------------------------------------------------
# End-to-end: real fleet, SIGKILL one shard, exactly-once fleet-wide
# ----------------------------------------------------------------------
def _fleet(state: Path, shards: int, log_path: Path, *extra_args):
    return ServiceUnderTest(
        ["serve", "fleet", "--state", state, "--shards", shards,
         "--workers-per-shard", "1", "--no-fsync",
         "--snapshot-interval", "0.25", "--supervise-interval", "0.1",
         "--max-runtime-sec", "90", *extra_args],
        log_path, ready_timeout=30,
    )


def _requests(prefix: str, jobs: int, job_class: str, sleep_sec: float):
    return [
        {
            "kind": "chaos",
            "job_id": f"{prefix}-{i}",
            "label": f"{prefix}-{i}",
            "class": job_class,
            "timeout_sec": 30.0,
            "params": {"fault": "sleep", "sleep_sec": sleep_sec, "idx": i},
        }
        for i in range(jobs)
    ]


def _respawned(shard_dir: Path, old_pid: int) -> bool:
    try:
        return int((shard_dir / "serve.pid").read_text()) != old_pid
    except (OSError, ValueError):
        return False


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX signals required"
)
def test_shard_kill_requeue_drill(tmp_path):
    """Kill one shard of a live 2-shard fleet; every job must complete
    exactly once somewhere, and the fleet must re-admit the shard."""
    state = tmp_path / "fleet"
    requests = _requests("drill", 6, "drill", 0.4)
    ids = [r["job_id"] for r in requests]

    with _fleet(state, 2, tmp_path / "fleet.log") as fleet:
        # The default fleet intake is <state>/fleet.sock.
        assert fleet.endpoint == f"unix:{state / 'fleet.sock'}"
        by_shard = Counter(r["shard"] for r in fleet.submit(requests))
        victim = max(by_shard, key=by_shard.get)
        victim_pid = int((state / victim / "serve.pid").read_text())

        # Let at least one job finish, then SIGKILL the busier shard.
        fleet.wait_completed(ids, 30, at_least=1)
        os.kill(victim_pid, signal.SIGKILL)
        fleet.wait_completed(ids, 45)
        assert ledger_violations(fleet.journal_dirs(), ids) == []

        # The victim must come back and be re-admitted (new pid marker).
        assert wait_for(lambda: _respawned(state / victim, victim_pid), 30)
        assert fleet.drain(40) == 0, fleet.log_tail(2000)

    # Offline roll-up over the same state dir agrees with the journals.
    status = fleet_status(state)
    assert status["counts"]["completed"] == len(ids)
    assert not status["router"]["alive"]


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX signals required"
)
def test_single_shard_fleet_recovers_from_kill(tmp_path):
    """Regression for the empty-ring deadlock: killing the only shard of
    a --shards 1 fleet leaves no handoff target, but the manager must
    still respawn it (journal replay requeues its jobs) instead of
    rejecting everything with no_live_shard until restarted by hand."""
    state = tmp_path / "fleet"
    requests = _requests("solo", 3, "solo", 0.3)
    ids = [r["job_id"] for r in requests]

    with _fleet(state, 1, tmp_path / "fleet.log") as fleet:
        fleet.submit(requests)
        victim_pid = int((state / "shard-0" / "serve.pid").read_text())
        os.kill(victim_pid, signal.SIGKILL)

        # The shard must come back on its own and finish every job
        # exactly once (its own replay requeues them; nothing moved).
        fleet.wait_completed(ids, 45)
        assert _respawned(state / "shard-0", victim_pid)
        assert fleet.drain(40) == 0, fleet.log_tail(2000)
    assert ledger_violations(fleet.journal_dirs(), ids) == []


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX signals required"
)
def test_tcp_fleet_passes_the_same_kill_drill(tmp_path):
    """Parity check (DESIGN.md §14): a fleet bound on ``tcp:`` must
    survive the same shard-kill drill as the unix fleet — routing,
    journal-first handoff, exactly-once, and shard re-admission all
    ride the transport abstraction, not the socket family."""
    state = tmp_path / "fleet"
    requests = _requests("tcp", 4, "drill", 0.4)
    ids = [r["job_id"] for r in requests]

    with _fleet(state, 2, tmp_path / "fleet.log",
                "--bind", "tcp:127.0.0.1:0") as fleet:
        assert fleet.endpoint.startswith("tcp:127.0.0.1:")
        assert not fleet.endpoint.endswith(":0")  # ephemeral port resolved
        # No unix front-door socket exists in tcp mode.
        assert not (state / "fleet.sock").exists()

        by_shard = Counter(r["shard"] for r in fleet.submit(requests))
        victim = max(by_shard, key=by_shard.get)
        victim_pid = int((state / victim / "serve.pid").read_text())
        os.kill(victim_pid, signal.SIGKILL)

        fleet.wait_completed(ids, 45)
        assert ledger_violations(fleet.journal_dirs(), ids) == []

        # The victim respawns with a fresh (tcp-ephemeral) endpoint.
        assert wait_for(
            lambda: _respawned(state / victim, victim_pid)
            and (state / victim / "serve.endpoint").exists(),
            30,
        )
        assert (
            (state / victim / "serve.endpoint").read_text().strip()
            .startswith("tcp:127.0.0.1:")
        )
        assert fleet.drain(40) == 0, fleet.log_tail(2000)
