"""repro.obs — structured telemetry: spans, metrics, and event logs.

The observability layer for the whole stack (see DESIGN.md §7).  Three
instruments, one convention (``subsystem.stage`` dotted names), one
switch:

* :func:`span` — context-manager tracing with wall/CPU durations,
  nesting, and trace/span ids that survive the worker-process boundary;
* :func:`metrics` — counters, gauges, and fixed-bucket histograms with
  JSON and Prometheus-text exporters;
* :func:`get_logger` — structured events (``train.epoch``,
  ``executor.retry``) rendered human-readably or as JSONL, and mirrored
  into the trace buffer when telemetry is on.

Telemetry is **off by default and free when off**: every accessor
returns a shared no-op stub until :func:`configure` enables it (the CLI
does so when ``--trace-out`` or ``--metrics-out`` is passed).

Typical instrumentation::

    from repro import obs

    with obs.span("fit.static_params", trace_len=len(trace)):
        params = estimate(trace)
    obs.metrics().counter("cache.misses").inc()
    obs.get_logger("repro.runtime").warning(
        "executor.retry", job_id=spec.job_id, attempt=2, delay_sec=0.31
    )

Enabling, exporting, and merging across processes::

    from repro import obs

    obs.configure(enabled=True, trace_out="events.jsonl")

    snapshot = obs.metrics_snapshot()        # plain dict -> json.dump()
    text = obs.metrics().to_prometheus_text()  # Prometheus exposition

    # Worker processes ship ``{"events": [...], "metrics": {...}}``
    # payloads back with their job results; the parent folds them into
    # its own registry and trace buffer so one report covers the whole
    # pool (counters/histograms add, gauges last-write-wins, spans keep
    # the parent run's trace_id):
    obs.merge_telemetry(worker_telemetry)

    obs.flush()                              # write buffered events out

Post-hoc analysis reads the files back: :func:`load_events` /
:func:`span_stats` / :func:`format_span_table` power
``repro obs summarize <events.jsonl | metrics.json | manifest.json>``.
"""

from repro.obs.core import (
    ObsState,
    activate_context,
    bound_event_buffer,
    configure,
    current_context,
    enabled,
    events,
    flush,
    get_logger,
    merge_telemetry,
    metrics,
    metrics_snapshot,
    reset,
    set_event_sink,
    span,
    trace_id,
)
from repro.obs.logger import LEVELS, StructuredLogger
from repro.obs.metrics import (
    DURATION_BUCKETS,
    NULL_REGISTRY,
    RATE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LogHistogram,
    MetricsRegistry,
    histogram_from_snapshot,
)
from repro.obs.summarize import (
    format_span_table,
    load_events,
    merge_metrics_files,
    span_stats,
    summarize_path,
    summarize_paths,
)
from repro.obs.tracing import EVENT_VERSION, NULL_SPAN, Span, Tracer

__all__ = [
    "ObsState",
    "activate_context",
    "configure",
    "current_context",
    "enabled",
    "events",
    "flush",
    "get_logger",
    "merge_telemetry",
    "metrics",
    "metrics_snapshot",
    "reset",
    "span",
    "trace_id",
    "LEVELS",
    "StructuredLogger",
    "DURATION_BUCKETS",
    "RATE_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "histogram_from_snapshot",
    "bound_event_buffer",
    "set_event_sink",
    "format_span_table",
    "load_events",
    "merge_metrics_files",
    "span_stats",
    "summarize_path",
    "summarize_paths",
    "EVENT_VERSION",
    "NULL_SPAN",
    "Span",
    "Tracer",
]
