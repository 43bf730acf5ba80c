"""Batch budget enforcement and checkpoint/resume semantics."""

import json
import multiprocessing
import time

import pytest

from repro import obs
from repro.guard.chaos import make_chaos_job
from repro.runtime.batch import ExecutorConfig, run_batch, run_jobs
from repro.runtime.jobs import make_simulate_job
from repro.runtime.manifest import RunManifest
from repro.trace.io import save_trace


@pytest.fixture(scope="module")
def batch_env(tmp_path_factory):
    """Three small saved traces plus a shared cache/manifest area."""
    from repro.datasets.pantheon import generate_run

    root = tmp_path_factory.mktemp("resume")
    data_dir = root / "data"
    data_dir.mkdir()
    for i in range(3):
        run = generate_run(seed=20 + i, protocol="cubic", duration=1.5)
        save_trace(run.trace, data_dir / f"t{i}.jsonl")
    return {
        "traces": sorted(data_dir.glob("*.jsonl")),
        "cache_dir": root / "cache",
        "manifest_dir": root / "manifests",
    }


def _batch(env, paths=None, **kwargs):
    kwargs.setdefault("config", ExecutorConfig(workers=1))
    return run_batch(
        paths if paths is not None else env["traces"],
        protocols=["cubic"],
        duration=1.5,
        seed=0,
        cache_dir=env["cache_dir"],
        manifest_dir=env["manifest_dir"],
        **kwargs,
    )


class TestBudget:
    def test_config_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget_sec"):
            ExecutorConfig(budget_sec=0)

    def test_serial_budget_leaves_complete_manifest(self, batch_env):
        obs.configure(enabled=True)
        results, manifest, manifest_path = _batch(
            batch_env,
            config=ExecutorConfig(workers=1, budget_sec=1e-4),
        )
        assert manifest_path is not None
        # Every job is accounted for, nothing hangs or vanishes.
        assert len(results) == 3
        assert all(r.status in ("ok", "failed") for r in results)
        exhausted = [
            r for r in results
            if r.error and r.error.error_type == "BudgetExhausted"
        ]
        # A 0.1 ms budget cannot cover three fits.
        assert exhausted
        assert all(r.attempts == 0 for r in exhausted)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["executor.budget_exhausted"] == len(exhausted)

    def test_pool_budget_vs_job_timeout_disambiguation(self):
        # No per-job timeout: a hung worker can only be the budget's
        # fault, so it must resolve to BudgetExhausted, not TimeoutError.
        specs = [
            make_chaos_job(None),
            make_chaos_job("hang", hang_sec=30.0),
        ]
        start = time.monotonic()
        results, _ = run_jobs(
            specs, ExecutorConfig(workers=2, budget_sec=2.0, max_attempts=1)
        )
        # The budget kills the hung worker instead of waiting it out.
        assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []
        by_label = {r.spec.label: r for r in results}
        assert by_label["chaos:normal"].status == "ok"
        hung = by_label["chaos:hang"]
        assert hung.status == "failed"
        assert hung.error.error_type == "BudgetExhausted"
        assert hung.attempts == 0


class TestResume:
    def test_resume_skips_ok_jobs_and_matches_uninterrupted(self, batch_env):
        obs.configure(enabled=True)
        # "Interrupted" run: only the first two traces got done.
        _, m1, m1_path = _batch(batch_env, paths=batch_env["traces"][:2])
        assert m1.counts == {"total": 2, "ok": 2, "failed": 0}
        executed_before = obs.metrics_snapshot()["counters"].get(
            "executor.jobs_ok", 0
        )

        results, m2, _ = _batch(batch_env, resume_from=m1_path)
        assert m2.resumed_from == m1.run_id
        assert [r.status for r in results] == ["ok", "ok", "ok"]

        resumed = [r for r in results if r.resumed]
        executed = [r for r in results if not r.resumed]
        assert len(resumed) == 2 and len(executed) == 1
        # Carried-over results have no recomputed value; the executed
        # one went through the worker and carries real summaries.
        assert all(r.value is None for r in resumed)
        assert "summaries" in executed[0].value
        counters = obs.metrics_snapshot()["counters"]
        assert counters["batch.resumed_jobs"] == 2
        # Only the one incomplete job touched the executor.
        assert counters["executor.jobs_ok"] - executed_before == 1

        # The resumed manifest is equivalent to an uninterrupted run.
        _, full, _ = _batch(batch_env)
        key = lambda m: [(j["job_id"], j["status"]) for j in m.jobs]
        assert key(m2) == key(full)
        assert [j["resumed"] for j in m2.jobs] == [True, True, False]

    def test_resume_report_mentions_carryover(self, batch_env):
        _, m1, m1_path = _batch(batch_env, paths=batch_env["traces"][:1])
        _, m2, _ = _batch(batch_env, resume_from=m1_path)
        assert "carried over from run" in m2.format_report()
        assert m1.run_id in m2.format_report()

    def test_resumed_manifest_roundtrips(self, batch_env, tmp_path):
        _, m1, m1_path = _batch(batch_env, paths=batch_env["traces"][:1])
        _, m2, _ = _batch(batch_env, resume_from=m1_path)
        path = m2.write(tmp_path)
        loaded = RunManifest.load(path)
        assert loaded.resumed_from == m1.run_id
        assert loaded.jobs == m2.jobs

    def test_failed_jobs_rerun_on_resume(self, batch_env, tmp_path):
        # A manifest where one job failed: resume must re-execute it.
        _, m1, _ = _batch(batch_env)
        m1.jobs[1]["status"] = "failed"
        m1.jobs[1]["error"] = {"error_type": "TimeoutError", "message": "x"}
        doctored = m1.write(tmp_path)
        results, m2, _ = _batch(batch_env, resume_from=doctored)
        assert [r.resumed for r in results] == [True, False, True]
        assert all(r.status == "ok" for r in results)

    def test_resume_from_manifest_with_degraded_flag(
        self, batch_env, tmp_path
    ):
        # Manifests from before the batch runtime ran on the Supervisor
        # carry "degraded_to_serial"; load ignores it.
        _, m1, m1_path = _batch(batch_env, paths=batch_env["traces"][:1])
        data = json.loads(m1_path.read_text())
        data["degraded_to_serial"] = True
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        results, m2, _ = _batch(batch_env, resume_from=old)
        assert [r.resumed for r in results] == [True, False, False]
        assert m2.resumed_from == m1.run_id
        assert "degraded_to_serial" not in m2.to_dict()

    def test_resume_from_missing_manifest_raises(self, batch_env, tmp_path):
        with pytest.raises(FileNotFoundError):
            _batch(batch_env, resume_from=tmp_path / "nope.json")

    def test_resume_from_wrong_version_raises(self, batch_env, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"manifest_version": 99}')
        with pytest.raises(ValueError, match="manifest version"):
            _batch(batch_env, resume_from=bad)


class TestJobIdentity:
    def test_repair_policy_is_part_of_job_identity(self, batch_env):
        path = batch_env["traces"][0]
        strict = make_simulate_job(path, protocols=["cubic"], duration=1.5,
                                   seed=0, repair_policy="strict")
        repair = make_simulate_job(path, protocols=["cubic"], duration=1.5,
                                   seed=0, repair_policy="repair")
        assert strict.job_id != repair.job_id

    def test_cache_dir_is_not_part_of_job_identity(self, batch_env):
        path = batch_env["traces"][0]
        a = make_simulate_job(path, protocols=["cubic"], duration=1.5,
                              seed=0, cache_dir="/tmp/a")
        b = make_simulate_job(path, protocols=["cubic"], duration=1.5,
                              seed=0, cache_dir="/tmp/b")
        assert a.job_id == b.job_id

    def test_resumed_flag_in_describe(self, batch_env):
        _, m1, m1_path = _batch(batch_env, paths=batch_env["traces"][:1])
        results, _, _ = _batch(batch_env, resume_from=m1_path)
        described = results[0].describe()
        assert described["resumed"] is True
