"""Tests for the repro.runtime batch subsystem."""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro import obs
from repro.core import iboxnet
from repro.runtime import batch
from repro.runtime.cache import ProfileCache
from repro.runtime.jobs import (
    JobSpec,
    content_hash,
    make_experiment_job,
    make_fit_job,
    make_simulate_job,
)
from repro.runtime.manifest import MANIFEST_VERSION, RunManifest
from repro.runtime.batch import (
    ExecutorConfig,
    fit_profiles,
    run_batch,
    run_jobs,
)
from repro.trace.io import save_trace, trace_file_digest


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """Three small saved cubic traces (plus room for corruption)."""
    from repro.datasets.pantheon import generate_run

    directory = tmp_path_factory.mktemp("traces")
    for i in range(3):
        run = generate_run(seed=40 + i, protocol="cubic", duration=3.0)
        save_trace(run.trace, directory / f"{i:02d}_cubic.npz")
    return directory


@pytest.fixture(scope="module")
def trace_paths(trace_dir):
    return sorted(trace_dir.glob("*.npz"))


# ----------------------------------------------------------------------
# Jobs: content-derived identity
# ----------------------------------------------------------------------
class TestJobs:
    def test_same_inputs_same_id(self, trace_paths):
        a = make_fit_job(trace_paths[0])
        b = make_fit_job(trace_paths[0])
        assert a.job_id == b.job_id

    def test_different_trace_different_id(self, trace_paths):
        assert (
            make_fit_job(trace_paths[0]).job_id
            != make_fit_job(trace_paths[1]).job_id
        )

    def test_fit_kwargs_change_id(self, trace_paths):
        base = make_fit_job(trace_paths[0])
        tweaked = make_fit_job(
            trace_paths[0], fit_kwargs={"bandwidth_window": 0.5}
        )
        assert base.job_id != tweaked.job_id

    def test_operational_knobs_do_not_change_id(self, trace_paths):
        base = make_fit_job(trace_paths[0])
        routed = make_fit_job(
            trace_paths[0], extra_params={"cache_dir": "/somewhere/else"}
        )
        assert base.job_id == routed.job_id

    def test_trace_bytes_change_id(self, trace_paths, tmp_path):
        copy = tmp_path / "copy.npz"
        data = trace_paths[0].read_bytes()
        copy.write_bytes(data)
        assert make_fit_job(copy).job_id == make_fit_job(trace_paths[0]).job_id
        copy.write_bytes(data + b"\0")
        assert make_fit_job(copy).job_id != make_fit_job(trace_paths[0]).job_id

    def test_simulate_id_covers_protocols(self, trace_paths):
        a = make_simulate_job(trace_paths[0], ["vegas"], 3.0, 0)
        b = make_simulate_job(trace_paths[0], ["cubic"], 3.0, 0)
        assert a.job_id != b.job_id

    def test_experiment_job_id_stable(self):
        assert (
            make_experiment_job("fig2").job_id
            == make_experiment_job("fig2").job_id
        )
        assert (
            make_experiment_job("fig2").job_id
            != make_experiment_job("fig2", scale="paper").job_id
        )

    def test_content_hash_order_insensitive(self):
        assert content_hash("k", {"a": 1, "b": 2}) == content_hash(
            "k", {"b": 2, "a": 1}
        )


# ----------------------------------------------------------------------
# Profile cache
# ----------------------------------------------------------------------
class TestProfileCache:
    def test_miss_then_hit(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        model, hit = cache.fit_cached(trace_paths[0])
        assert not hit
        again, hit = cache.fit_cached(trace_paths[0])
        assert hit
        assert again == model
        assert len(cache) == 1

    def test_key_sensitive_to_fit_kwargs(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        assert cache.key_for(trace_paths[0]) != cache.key_for(
            trace_paths[0], {"ct_bin_width": 0.25}
        )

    def test_key_uses_trace_bytes(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        copy = tmp_path / "copy.npz"
        copy.write_bytes(trace_paths[0].read_bytes())
        # Same bytes at a different path: same key (content addressing).
        assert cache.key_for(copy) == cache.key_for(trace_paths[0])

    def test_corrupt_entry_is_a_miss_and_removed(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        cache.fit_cached(trace_paths[0])
        key = cache.key_for(trace_paths[0])
        cache.path_for(key).write_text("{ not json")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_clear(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        cache.fit_cached(trace_paths[0])
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_stats_counters(self, trace_paths, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        cache.fit_cached(trace_paths[0])
        cache.fit_cached(trace_paths[0])
        assert cache.stats() == {"hits": 1, "misses": 1}


# ----------------------------------------------------------------------
# Executor: run_jobs over supervised child processes
# ----------------------------------------------------------------------
def _echo_worker(spec: JobSpec):
    return {"echo": spec.params["n"], "cache_hit": spec.params["n"] % 2 == 0}


def _picky_worker(spec: JobSpec):
    if spec.params["n"] == 1:
        raise RuntimeError("job one always fails")
    return spec.params["n"] * 10


def _flaky_worker(spec: JobSpec):
    marker = spec.params["marker"]
    from pathlib import Path

    if not Path(marker).exists():
        Path(marker).write_text("seen")
        raise RuntimeError("first attempt fails")
    return "recovered"


def _sleepy_worker(spec: JobSpec):
    time.sleep(spec.params["sleep"])
    return "woke"


def _marking_worker(spec: JobSpec):
    with open(spec.params["marker"], "a") as fh:
        fh.write("ran\n")
    return "marked"


def _specs(n, **extra):
    return [
        JobSpec(kind="test", job_id=f"job-{i}", label=f"job-{i}",
                params={"n": i, **extra})
        for i in range(n)
    ]


def _run(specs, worker, monkeypatch, **config):
    """``run_jobs`` with ``worker`` registered for the ``test`` kind
    (the forked child inherits the patched registry)."""
    monkeypatch.setitem(batch._WORKERS, "test", worker)
    results, _ = run_jobs(specs, ExecutorConfig(**config))
    return results


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr(batch, "_BACKOFF_SEC", 0.01)


class TestExecutor:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_order_with_cache_hits(self, workers, monkeypatch):
        results = _run(_specs(4), _echo_worker, monkeypatch, workers=workers)
        assert [r.value["echo"] for r in results] == [0, 1, 2, 3]
        assert [r.cache_hit for r in results] == [True, False, True, False]
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_is_isolated(self, workers, monkeypatch):
        results = _run(_specs(3), _picky_worker, monkeypatch,
                       workers=workers, max_attempts=1)
        assert [r.ok for r in results] == [True, False, True]
        failed = results[1]
        assert failed.error.error_type == "RuntimeError"
        assert "job one" in failed.error.message
        assert results[2].value == 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_recovers(self, tmp_path, workers, monkeypatch,
                            fast_backoff):
        spec = JobSpec(
            kind="test", job_id="flaky", label="flaky",
            params={"marker": str(tmp_path / f"marker-{workers}")},
        )
        (result,) = _run([spec], _flaky_worker, monkeypatch,
                         workers=workers, max_attempts=2)
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_retries_exhausted(self, monkeypatch, fast_backoff):
        (result,) = _run(_specs(2)[1:2], _picky_worker, monkeypatch,
                         workers=1, max_attempts=3)
        assert not result.ok
        assert result.attempts == 3

    def test_timeout_fails_job_not_batch(self, monkeypatch):
        specs = [
            JobSpec(kind="test", job_id="slow", label="slow",
                    params={"sleep": 30.0}),
            JobSpec(kind="test", job_id="fast", label="fast",
                    params={"sleep": 0.0}),
        ]
        start = time.monotonic()
        results = _run(specs, _sleepy_worker, monkeypatch, workers=2,
                       timeout_sec=1.0, max_attempts=1)
        # The slow worker is killed at its deadline, not waited out.
        assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []
        assert [r.ok for r in results] == [False, True]
        assert results[0].error.error_type == "TimeoutError"

    def test_serial_timeout_is_killed_not_retried(self, monkeypatch):
        # workers=1 runs in a child too, so the per-job limit applies.
        specs = [
            JobSpec(kind="test", job_id="slow", label="slow",
                    params={"sleep": 30.0}),
        ]
        start = time.monotonic()
        (result,) = _run(specs, _sleepy_worker, monkeypatch, workers=1,
                         timeout_sec=0.5, max_attempts=2)
        assert time.monotonic() - start < 10.0
        assert result.error.error_type == "TimeoutError"
        assert result.attempts == 1

    def test_empty_batch(self):
        results, manifest = run_jobs([])
        assert results == []
        assert manifest.counts["total"] == 0

    def test_duplicate_job_ids_run_once(self, tmp_path, monkeypatch):
        marker = tmp_path / "marker"
        spec = JobSpec(kind="test", job_id="dup", label="dup",
                       params={"marker": str(marker)})
        monkeypatch.setitem(batch._WORKERS, "test", _marking_worker)
        results, manifest = run_jobs([spec, spec], ExecutorConfig(workers=2))
        assert [r.value for r in results] == ["marked", "marked"]
        assert [j["status"] for j in manifest.jobs] == ["ok", "ok"]
        assert marker.read_text().splitlines() == ["ran"]

    def test_fork_failure_fails_only_that_job(self, monkeypatch):
        import errno

        process_cls = multiprocessing.get_context("fork").Process
        real_start = process_cls.start

        def start(self):
            if self._args[0]["job_id"] == "job-1":
                raise OSError(errno.EAGAIN, "fork refused")
            return real_start(self)

        monkeypatch.setattr(process_cls, "start", start)
        results = _run(_specs(3), _echo_worker, monkeypatch, workers=2)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error.error_type == "BlockingIOError"
        assert "fork refused" in results[1].error.message

    def test_jitter_varies_backoff(self, monkeypatch):
        monkeypatch.setattr(batch, "_BACKOFF_SEC", 1.0)
        delays = {batch._backoff_delay(2) for _ in range(50)}
        assert len(delays) > 1
        assert all(0.5 <= d <= 1.5 for d in delays)

    def test_zero_jitter_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(batch, "_JITTER", 0.0)
        assert batch._backoff_delay(2) == 0.25
        assert batch._backoff_delay(3) == 0.5
        assert batch._backoff_delay(4) == 1.0


class TestExecutorTelemetry:
    """Failure paths must leave a metrics/event trail when enabled."""

    def _counters(self):
        return obs.metrics_snapshot()["counters"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ok_and_failed_counters(self, workers, monkeypatch):
        obs.configure(enabled=True)
        _run(_specs(3), _picky_worker, monkeypatch,
             workers=workers, max_attempts=1)
        counters = self._counters()
        assert counters["executor.jobs_ok"] == 2.0
        assert counters["executor.jobs_failed"] == 1.0
        snap = obs.metrics_snapshot()
        assert snap["histograms"]["executor.job_sec"]["count"] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_counter_and_event(self, tmp_path, workers, monkeypatch,
                                     fast_backoff):
        obs.configure(enabled=True)
        spec = JobSpec(
            kind="test", job_id="flaky", label="flaky",
            params={"marker": str(tmp_path / f"m-{workers}")},
        )
        (result,) = _run([spec], _flaky_worker, monkeypatch,
                         workers=workers, max_attempts=2)
        assert result.ok
        assert self._counters()["executor.retries"] == 1.0
        (retry,) = [
            e for e in obs.events()
            if e["type"] == "event" and e["name"] == "executor.retry"
        ]
        assert retry["fields"]["job_id"] == "flaky"
        assert retry["fields"]["attempt"] == 2
        assert retry["fields"]["delay_sec"] >= 0.0

    def test_timeout_counter(self, monkeypatch):
        obs.configure(enabled=True)
        specs = [
            JobSpec(kind="test", job_id="slow", label="slow",
                    params={"sleep": 30.0}),
        ]
        (result,) = _run(specs, _sleepy_worker, monkeypatch, workers=2,
                         timeout_sec=0.5, max_attempts=1)
        assert not result.ok
        assert self._counters()["executor.timeouts"] == 1.0
        (timeout_event,) = [
            e for e in obs.events()
            if e["type"] == "event" and e["name"] == "executor.timeout"
        ]
        assert timeout_event["fields"]["job_id"] == "slow"

    def test_disabled_executor_records_nothing(self, monkeypatch):
        _run(_specs(2), _picky_worker, monkeypatch,
             workers=1, max_attempts=1)
        assert obs.metrics_snapshot() is None
        assert obs.events() == []


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_write_load_roundtrip(self, tmp_path, trace_paths):
        _, results = fit_profiles(
            trace_paths[:2], cache_dir=tmp_path / "cache"
        )
        _, manifest = run_jobs([], command="noop")
        manifest.jobs = [r.describe() for r in results]
        path = manifest.write(tmp_path / "manifests")
        loaded = RunManifest.load(path)
        assert loaded.run_id == manifest.run_id
        assert loaded.counts == {"total": 2, "ok": 2, "failed": 0}
        assert loaded.cache == {"hits": 0, "misses": 2}
        data = json.loads(path.read_text())
        assert data["manifest_version"] == MANIFEST_VERSION

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"manifest_version": 999}))
        with pytest.raises(ValueError):
            RunManifest.load(path)

    def test_metrics_embedded_when_enabled(self, tmp_path, trace_paths):
        obs.configure(enabled=True)
        results, manifest, manifest_path = run_batch(
            trace_paths[:2],
            protocols=["vegas"],
            duration=3.0,
            cache_dir=tmp_path / "cache",
            manifest_dir=tmp_path / "manifests",
            config=ExecutorConfig(workers=2),
        )
        assert manifest.metrics is not None
        assert manifest.metrics["counters"]["executor.jobs_ok"] == 2.0
        loaded = RunManifest.load(manifest_path)
        assert loaded.metrics == manifest.metrics
        # Worker-side executor.job spans join manifest rows on job_id.
        span_ids = {
            e["attrs"]["job_id"]
            for e in obs.events()
            if e["type"] == "span" and e["name"] == "executor.job"
        }
        assert span_ids == {j["job_id"] for j in manifest.jobs}

    def test_metrics_absent_when_disabled(self, tmp_path, trace_paths):
        _, manifest, manifest_path = run_batch(
            trace_paths[:1],
            protocols=["vegas"],
            duration=3.0,
            cache_dir=tmp_path / "cache",
            manifest_dir=tmp_path / "manifests",
        )
        assert manifest.metrics is None
        assert "metrics" not in json.loads(manifest_path.read_text())


# ----------------------------------------------------------------------
# Batch orchestration (the acceptance-criteria path)
# ----------------------------------------------------------------------
class TestRunBatch:
    def test_cold_then_warm_run(self, trace_paths, tmp_path):
        kwargs = dict(
            protocols=["vegas"],
            duration=3.0,
            cache_dir=tmp_path / "cache",
            manifest_dir=tmp_path / "manifests",
            config=ExecutorConfig(workers=2),
        )
        results, manifest, manifest_path = run_batch(trace_paths, **kwargs)
        assert manifest.counts == {"total": 3, "ok": 3, "failed": 0}
        assert manifest.cache == {"hits": 0, "misses": 3}
        assert manifest_path.exists()

        results2, manifest2, _ = run_batch(trace_paths, **kwargs)
        assert manifest2.cache == {"hits": 3, "misses": 0}
        # Identical inputs -> identical content-addressed job ids.
        assert [j["job_id"] for j in manifest.jobs] == [
            j["job_id"] for j in manifest2.jobs
        ]
        # Cached fits must reproduce the cold-run predictions exactly.
        for cold, warm in zip(results, results2):
            assert cold.value["summaries"] == warm.value["summaries"]

    def test_corrupt_trace_yields_structured_failure(
        self, trace_paths, tmp_path
    ):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"not a trace at all")
        results, manifest, _ = run_batch(
            [*trace_paths, corrupt],
            protocols=["vegas"],
            duration=3.0,
            cache_dir=tmp_path / "cache",
            config=ExecutorConfig(workers=2, max_attempts=1),
        )
        assert manifest.counts["failed"] == 1
        assert manifest.counts["ok"] == 3
        (failure,) = manifest.failures
        assert failure["error"]["error_type"]
        assert "corrupt" in failure["label"]

    def test_output_dir_saves_predictions(self, trace_paths, tmp_path):
        out = tmp_path / "out"
        run_batch(
            trace_paths[:1],
            protocols=["vegas"],
            duration=3.0,
            cache_dir=tmp_path / "cache",
            output_dir=out,
        )
        (saved,) = sorted(out.glob("*.npz"))
        from repro.trace.io import load_trace

        assert load_trace(saved).protocol == "vegas"


class TestFitProfiles:
    def test_failed_fit_leaves_none(self, trace_paths, tmp_path):
        corrupt = tmp_path / "bad.jsonl"
        corrupt.write_text("definitely not json\n")
        models, results = fit_profiles(
            [trace_paths[0], corrupt],
            cache_dir=tmp_path / "cache",
            config=ExecutorConfig(workers=1, max_attempts=1),
        )
        assert models[0] is not None
        assert models[1] is None
        assert not results[1].ok

    def test_distribution_from_paths(self, trace_paths, tmp_path):
        from repro.core.ensemble import fit_distribution_from_paths

        dist = fit_distribution_from_paths(
            trace_paths, workers=2, cache_dir=tmp_path / "cache"
        )
        assert dist.n_sources == 3
        assert len(dist.sample(2, seed=0)) == 2


# ----------------------------------------------------------------------
# Profile round-trip (the to_profile/from_profile satellite)
# ----------------------------------------------------------------------
class TestProfileRoundTrip:
    def test_lossless(self, trace_paths):
        from repro.trace.io import load_trace

        model = iboxnet.fit(load_trace(trace_paths[0]))
        assert iboxnet.from_profile(iboxnet.to_profile(model)) == model

    def test_round_trips_ablations_and_schedule(self, trace_paths):
        from repro.trace.io import load_trace

        model = iboxnet.fit(load_trace(trace_paths[0]))
        model = model.with_statistical_loss(0.02).with_variable_bandwidth(
            ((0.0, 1.0), (125_000.0, 250_000.0))
        )
        restored = iboxnet.from_profile(iboxnet.to_profile(model))
        assert restored == model
        assert restored.bandwidth_schedule == ((0.0, 1.0), (125_000.0, 250_000.0))

    def test_accepts_version1_profiles(self, trace_paths):
        from repro.trace.io import load_trace

        model = iboxnet.fit(load_trace(trace_paths[0]))
        legacy = iboxnet.to_profile(model)
        # Strip everything version 1 did not have.
        for key in (
            "profile_version",
            "include_cross_traffic",
            "statistical_loss_rate",
            "bandwidth_schedule",
        ):
            legacy.pop(key)
        legacy["cross_traffic"].pop("busy_fraction")
        restored = iboxnet.from_profile(legacy)
        assert restored.params == model.params
        assert restored.cross_traffic.bin_edges == model.cross_traffic.bin_edges

    def test_rejects_future_versions(self):
        with pytest.raises(ValueError):
            iboxnet.from_profile({"profile_version": 99, "cross_traffic": {}})

    def test_digest_stable(self, trace_paths):
        assert trace_file_digest(trace_paths[0]) == trace_file_digest(
            trace_paths[0]
        )
