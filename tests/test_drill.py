"""The chaos drill harness: the exactly-once ledger and the spawner.

The campaigns only exercise :func:`ledger_violations` on journals where
it passes; these negative controls fabricate journals with the public
``JobJournal`` appenders and demand that each broken ledger is flagged.
"""

from __future__ import annotations

import gc
import os
import warnings
from pathlib import Path

import pytest

from repro.guard.drill import (
    CampaignReport,
    DrillFailure,
    ServiceUnderTest,
    ledger_violations,
)
from repro.serve.journal import JobJournal


def _journal(root: Path, *history):
    """Write ``(job_id, [record types...])`` histories into a journal."""
    journal = JobJournal(root, fsync=False)
    for job_id, types in history:
        for rtype in types:
            if rtype == "submitted":
                journal.submitted({"job_id": job_id, "kind": "chaos",
                                   "params": {}})
            elif rtype == "leased":
                journal.leased(job_id, lease=1)
            elif rtype == "completed":
                journal.completed(job_id, duration_sec=0.1)
            elif rtype == "moved":
                journal.moved(job_id, "shard-1")
    journal.close()
    return root


DONE = ["submitted", "leased", "completed"]


def test_clean_ledger_passes(tmp_path):
    root = _journal(tmp_path / "j", ("a", DONE), ("b", DONE))
    assert ledger_violations([root], ["a", "b"]) == []


def test_lost_id_is_flagged(tmp_path):
    root = _journal(tmp_path / "j", ("a", DONE))
    [violation] = ledger_violations([root], ["a", "ghost"], "unix")
    assert violation.startswith("[unix] job ghost")
    assert "lost" in violation


def test_pending_job_is_flagged(tmp_path):
    root = _journal(tmp_path / "j", ("a", ["submitted", "leased"]))
    [violation] = ledger_violations([root], ["a"])
    assert "never completed" in violation and "leased" in violation


def test_double_completion_in_one_journal_is_flagged(tmp_path):
    root = _journal(tmp_path / "j", ("a", DONE + ["completed"]))
    [violation] = ledger_violations([root], ["a"])
    assert "2 completed records" in violation


def test_one_completion_on_each_of_two_shards_is_flagged(tmp_path):
    shard0 = _journal(tmp_path / "shard-0", ("a", DONE))
    shard1 = _journal(tmp_path / "shard-1", ("a", DONE))
    [violation] = ledger_violations([shard0, shard1], ["a"])
    assert "2 completed records" in violation


def test_moved_tombstone_plus_one_completion_elsewhere_passes(tmp_path):
    shard0 = _journal(tmp_path / "shard-0", ("a", ["submitted", "moved"]))
    shard1 = _journal(tmp_path / "shard-1", ("a", DONE))
    assert JobJournal.read_state(shard0).jobs["a"].moved_target == "shard-1"
    assert ledger_violations([shard0, shard1], ["a"]) == []


def _open_fds_on(path: Path):
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.exists():
        pytest.skip("needs /proc/self/fd")
    found = []
    for fd in os.listdir(fd_dir):
        try:
            if os.readlink(fd_dir / fd) == str(path):
                found.append(fd)
        except OSError:
            pass
    return found


def test_service_that_exits_at_once_raises_and_leaves_nothing(tmp_path):
    # `serve run` without --socket/--bind refuses to start (exit 2).
    log = tmp_path / "daemon.log"
    with warnings.catch_warnings(record=True) as caught:
        # A leaked log file is collected (and warned about) as soon as
        # nothing references it, so record instead of raising.
        warnings.simplefilter("always", ResourceWarning)
        svc = ServiceUnderTest(
            ["serve", "run", "--state", tmp_path / "state"], log,
            ready_timeout=30,
        )
        with pytest.raises(DrillFailure, match="exited 2 before it was"):
            with svc:
                pytest.fail("readiness must not succeed")
        assert svc.proc.poll() == 2  # reaped, not left running
        assert _open_fds_on(log) == []
        del svc
        gc.collect()
    assert "intake endpoint" in log.read_text()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_campaign_report_guard_sub_and_format():
    report = CampaignReport("demo", 7, claim="nothing broke")
    report.phase("first")["jobs"] = 3
    with report.guard("first"):
        raise DrillFailure("daemon never became ready")
    report.phase("second")  # recorded, no facts
    sub = CampaignReport("inner", 7, claim="inner held")
    report.sub.append(sub)
    assert report.violations == ["[first] daemon never became ready"]
    assert not report.ok and sub.ok
    text = report.format_report()
    assert text.splitlines()[:3] == [
        "demo chaos campaign: seed=7", "  [first] jobs=3", "  [second]",
    ]
    assert "!! [first] daemon never became ready" in text
    assert text.endswith("all guards held: inner held")
    report.violations.clear()
    sub.violations.append("lost a job")
    assert not report.ok
