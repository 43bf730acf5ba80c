"""Tests for spans, the structured logger, and cross-process propagation."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.obs.tracing import NULL_SPAN
from repro.runtime import batch
from repro.runtime.batch import ExecutorConfig, run_jobs
from repro.runtime.jobs import JobSpec


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("fit.static_params") is NULL_SPAN
        with obs.span("fit.static_params") as s:
            s.set("anything", 1)
        assert obs.events() == []

    def test_span_records_timing_and_attrs(self):
        obs.configure(enabled=True)
        with obs.span("fit.static_params", packets=10) as s:
            s.set("extra", "yes")
        (record,) = obs.events()
        assert record["type"] == "span"
        assert record["name"] == "fit.static_params"
        assert record["status"] == "ok"
        assert record["wall_sec"] >= 0
        assert record["cpu_sec"] >= 0
        assert record["attrs"] == {"packets": 10, "extra": "yes"}
        assert record["trace_id"] == obs.trace_id()
        assert record["parent_id"] is None

    def test_nesting_sets_parent_id(self):
        obs.configure(enabled=True)
        with obs.span("batch.run"):
            with obs.span("executor.job"):
                pass
        inner, outer = obs.events()
        assert inner["name"] == "executor.job"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_exception_marks_error_and_propagates(self):
        obs.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("executor.job"):
                raise RuntimeError("boom")
        (record,) = obs.events()
        assert record["status"] == "error"
        assert record["attrs"]["error_type"] == "RuntimeError"

    def test_configure_enable_starts_fresh_trace(self):
        obs.configure(enabled=True)
        first = obs.trace_id()
        with obs.span("a.b"):
            pass
        obs.configure(enabled=False)
        obs.configure(enabled=True)
        assert obs.trace_id() != first
        assert obs.events() == []


class TestLogger:
    def test_human_format(self):
        stream = io.StringIO()
        obs.configure(log_stream=stream, log_format="human")
        obs.get_logger("repro.test").info("train.epoch", epoch=3, nll=0.5)
        line = stream.getvalue().strip()
        assert "INFO" in line
        assert "repro.test" in line
        assert "train.epoch" in line
        assert "epoch=3" in line
        assert "nll=0.5" in line

    def test_jsonl_format(self):
        stream = io.StringIO()
        obs.configure(log_stream=stream, log_format="jsonl")
        obs.get_logger("repro.test").warning("executor.retry", attempt=2)
        record = json.loads(stream.getvalue())
        assert record["level"] == "warning"
        assert record["event"] == "executor.retry"
        assert record["fields"] == {"attempt": 2}

    def test_level_threshold(self):
        stream = io.StringIO()
        obs.configure(log_stream=stream, log_level="warning")
        log = obs.get_logger("repro.test")
        log.info("quiet.event")
        log.error("loud.event")
        assert "quiet.event" not in stream.getvalue()
        assert "loud.event" in stream.getvalue()

    def test_events_mirrored_into_trace_buffer_when_enabled(self):
        stream = io.StringIO()
        obs.configure(enabled=True, log_stream=stream)
        with obs.span("batch.run"):
            obs.get_logger("repro.test").info("cache.warm", entries=3)
        events = [e for e in obs.events() if e["type"] == "event"]
        (event,) = events
        assert event["name"] == "cache.warm"
        assert event["fields"] == {"entries": 3}
        # Linked to the enclosing span.
        span = next(e for e in obs.events() if e["type"] == "span")
        assert event["span_id"] == span["span_id"]

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            obs.get_logger("x").log("loud", "event")


class TestContextPropagation:
    def test_disabled_context_is_none(self):
        assert obs.current_context() is None

    def test_activate_context_adopts_identity(self):
        obs.configure(enabled=True)
        with obs.span("batch.run"):
            ctx = obs.current_context()
        parent_events = obs.events()
        with obs.activate_context(ctx) as collected:
            with obs.span("executor.job", job_id="j1"):
                obs.metrics().counter("cache.hits").inc()
        telemetry = collected.telemetry()
        # The worker-side span carries the parent's trace id and hangs
        # off the submitting span.
        (span,) = telemetry["events"]
        assert span["trace_id"] == ctx["trace_id"]
        assert span["parent_id"] == ctx["parent_span_id"]
        assert telemetry["metrics"]["counters"]["cache.hits"] == 1.0
        # Parent state was restored untouched.
        assert obs.events() == parent_events
        obs.merge_telemetry(telemetry)
        assert span in obs.events()
        assert obs.metrics_snapshot()["counters"]["cache.hits"] == 1.0

    def test_activate_none_is_transparent(self):
        with obs.activate_context(None) as collected:
            assert collected is None
            with obs.span("a.b"):
                pass
        assert obs.events() == []


def _traced_worker(spec: JobSpec):
    with obs.span("worker.stage", n=spec.params["n"]):
        obs.metrics().counter("worker.calls").inc()
    return spec.params["n"]


def _run_traced(specs, workers, monkeypatch):
    monkeypatch.setitem(batch._WORKERS, "test", _traced_worker)
    results, _ = run_jobs(specs, ExecutorConfig(workers=workers))
    return results


class TestCrossProcess:
    """Real child-process round trip: worker spans join the parent trace."""

    def test_trace_id_propagates_through_pool(self, monkeypatch):
        obs.configure(enabled=True)
        specs = [
            JobSpec(kind="test", job_id=f"job-{i}", label=f"job-{i}",
                    params={"n": i})
            for i in range(3)
        ]
        results = _run_traced(specs, 2, monkeypatch)
        assert all(r.ok for r in results)
        events = obs.events()
        job_spans = [e for e in events if e["name"] == "executor.job"]
        stage_spans = [e for e in events if e["name"] == "worker.stage"]
        assert len(job_spans) == 3
        assert len(stage_spans) == 3
        assert {e["trace_id"] for e in events} == {obs.trace_id()}
        # Worker-side stage spans nest under their executor.job span.
        job_ids = {e["span_id"] for e in job_spans}
        assert all(e["parent_id"] in job_ids for e in stage_spans)
        # Worker metrics merged into the parent registry.
        assert obs.metrics_snapshot()["counters"]["worker.calls"] == 3.0

    def test_executor_spans_carry_job_ids(self, monkeypatch):
        obs.configure(enabled=True)
        specs = [
            JobSpec(kind="test", job_id="abc123", label="one",
                    params={"n": 1}),
        ]
        _run_traced(specs, 1, monkeypatch)
        (job_span,) = [
            e for e in obs.events() if e["name"] == "executor.job"
        ]
        assert job_span["attrs"]["job_id"] == "abc123"
        assert job_span["attrs"]["attempt"] == 1

    def test_disabled_pool_run_collects_nothing(self, monkeypatch):
        specs = [
            JobSpec(kind="test", job_id=f"j{i}", label=f"j{i}",
                    params={"n": i})
            for i in range(2)
        ]
        results = _run_traced(specs, 2, monkeypatch)
        assert all(r.ok for r in results)
        assert obs.events() == []
        assert obs.metrics_snapshot() is None
