"""Global observability state and the process-boundary plumbing.

One module-level :class:`ObsState` holds the active registry, tracer,
and logging configuration.  Everything instrumented in the codebase
goes through three accessors — :func:`span`, :func:`metrics`,
:func:`get_logger` — which read the state *at call time*, so:

* disabled (the default) costs a dict-free attribute check and returns
  shared no-op stubs;
* :func:`configure` (the CLI) or a test can enable/redirect telemetry
  at any point;
* :func:`activate_context` can swap in a fresh, isolated state inside a
  worker process and collect its telemetry for the parent to merge.

The cross-process contract (used by :mod:`repro.runtime.batch`):

1. parent calls :func:`current_context` -> small picklable dict with
   the trace id and the submitting span's id;
2. worker wraps the job in ``with activate_context(ctx) as collected:``
   — spans/metrics/events recorded inside land in a private state
   seeded with the parent's trace identity;
3. worker returns ``collected.telemetry()`` with the job result;
4. parent calls :func:`merge_telemetry` to fold events and metrics in.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Union

from repro.obs.logger import LEVELS, StructuredLogger, level_number
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import NULL_SPAN, NullSpan, Span, Tracer


@dataclass
class ObsState:
    """Everything the accessors consult; one active instance per process."""

    enabled: bool = False
    #: Render log events to ``log_stream``?  Worker processes set this
    #: False so console output is not interleaved across the pool.
    console: bool = True
    log_level: int = LEVELS["info"]
    log_format: str = "human"
    log_stream: Optional[IO[str]] = None  # None -> sys.stderr at emit time
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    trace_out: Optional[Path] = None
    metrics_out: Optional[Path] = None


_STATE = ObsState()


def _state() -> ObsState:
    return _STATE


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def configure(
    enabled: Optional[bool] = None,
    log_level: Optional[str] = None,
    log_format: Optional[str] = None,
    log_stream: Optional[IO[str]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    metrics_out: Optional[Union[str, Path]] = None,
) -> None:
    """Reconfigure telemetry for this process.

    Enabling starts a **fresh** trace (new trace id, empty event buffer
    and registry); disabling drops buffered telemetry.  Omitted
    arguments leave the corresponding setting untouched.
    """
    if log_format is not None:
        if log_format not in ("human", "jsonl"):
            raise ValueError(
                f"unknown log format {log_format!r}; use 'human' or 'jsonl'"
            )
        _STATE.log_format = log_format
    if log_level is not None:
        _STATE.log_level = level_number(log_level)
    if log_stream is not None:
        _STATE.log_stream = log_stream
    if trace_out is not None:
        _STATE.trace_out = Path(trace_out)
    if metrics_out is not None:
        _STATE.metrics_out = Path(metrics_out)
    if enabled is not None and enabled != _STATE.enabled:
        _STATE.enabled = enabled
        _STATE.registry = MetricsRegistry()
        _STATE.tracer = Tracer()
        if not enabled:
            _STATE.trace_out = None
            _STATE.metrics_out = None


def reset() -> None:
    """Restore the defaults (used by tests and CLI teardown)."""
    global _STATE
    _STATE = ObsState()


def enabled() -> bool:
    return _STATE.enabled


# ----------------------------------------------------------------------
# The three instrumentation accessors
# ----------------------------------------------------------------------
def span(name: str, **attrs: Any) -> Union[Span, NullSpan]:
    """Context manager measuring one ``subsystem.stage``; no-op if disabled."""
    if not _STATE.enabled:
        return NULL_SPAN
    return _STATE.tracer.span(name, **attrs)


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry (no-op stub when disabled)."""
    return _STATE.registry if _STATE.enabled else NULL_REGISTRY


def get_logger(name: str) -> StructuredLogger:
    """A structured logger bound to the live global state."""
    return StructuredLogger(name, _state)


# ----------------------------------------------------------------------
# Introspection / export
# ----------------------------------------------------------------------
def events() -> List[dict]:
    """A copy of the buffered events (spans + log events)."""
    return list(_STATE.tracer.events) if _STATE.enabled else []


def trace_id() -> Optional[str]:
    return _STATE.tracer.trace_id if _STATE.enabled else None


def metrics_snapshot() -> Optional[dict]:
    """The registry snapshot, or ``None`` when telemetry is disabled."""
    return _STATE.registry.snapshot() if _STATE.enabled else None


def set_event_sink(sink) -> None:
    """Install (or clear, with ``None``) a tap on finished trace records.

    The sink is called with every finished span/log-event dict in
    addition to normal buffering; the flight recorder uses this to feed
    its ring.  Applies to the *current* tracer, so install after
    :func:`configure`.
    """
    _STATE.tracer.sink = sink


def bound_event_buffer(maxlen: int) -> None:
    """Cap the trace event buffer (drop-oldest) for long-running daemons.

    The default unbounded list is right for batch runs that flush on
    exit; a daemon alive for days would grow it without limit, so the
    serve runtime swaps in a ``deque(maxlen=...)`` — ``flush`` and
    ``merge_telemetry`` only need append/extend/iterate, which deques
    provide.
    """
    tracer = _STATE.tracer
    tracer.events = collections.deque(tracer.events, maxlen=maxlen)


def flush(
    trace_out: Optional[Union[str, Path]] = None,
    metrics_out: Optional[Union[str, Path]] = None,
) -> Dict[str, Path]:
    """Write buffered events (JSONL) and the metrics snapshot (JSON).

    Destinations default to the configured ``--trace-out`` /
    ``--metrics-out`` paths; returns ``{"trace": path, "metrics": path}``
    for whatever was written.  A disabled state writes nothing.
    """
    written: Dict[str, Path] = {}
    if not _STATE.enabled:
        return written
    trace_path = Path(trace_out) if trace_out else _STATE.trace_out
    metrics_path = Path(metrics_out) if metrics_out else _STATE.metrics_out
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = trace_path.with_suffix(f"{trace_path.suffix}.tmp.{os.getpid()}")
        with tmp.open("w") as handle:
            for event in _STATE.tracer.events:
                handle.write(json.dumps(event) + "\n")
        os.replace(tmp, trace_path)
        written["trace"] = trace_path
    if metrics_path is not None:
        written["metrics"] = _STATE.registry.write_json(metrics_path)
    return written


# ----------------------------------------------------------------------
# Cross-process propagation
# ----------------------------------------------------------------------
def current_context() -> Optional[Dict[str, Any]]:
    """A picklable capsule of the caller's trace identity (or ``None``)."""
    if not _STATE.enabled:
        return None
    return {
        "enabled": True,
        "trace_id": _STATE.tracer.trace_id,
        "parent_span_id": _STATE.tracer.current_span_id(),
        "log_level": _STATE.log_level,
    }


class _Collected:
    """Handle yielded by :func:`activate_context`; filled on exit."""

    __slots__ = ("_events", "_metrics")

    def __init__(self) -> None:
        self._events: List[dict] = []
        self._metrics: Optional[dict] = None

    def telemetry(self) -> Optional[dict]:
        if self._metrics is None and not self._events:
            return None
        return {"events": self._events, "metrics": self._metrics}


@contextlib.contextmanager
def activate_context(ctx: Optional[Dict[str, Any]]):
    """Adopt a parent's trace identity inside a worker process.

    Installs a fresh state (private registry + tracer seeded with the
    parent's ``trace_id``/``parent_span_id``), yields a
    :class:`_Collected` whose :meth:`~_Collected.telemetry` is valid
    after the block, then restores the previous state.  With a falsy
    ``ctx`` this is a transparent no-op (yields ``None``).
    """
    global _STATE
    if not ctx or not ctx.get("enabled"):
        yield None
        return
    previous = _STATE
    _STATE = ObsState(
        enabled=True,
        console=False,
        log_level=ctx.get("log_level", LEVELS["info"]),
        tracer=Tracer(
            trace_id=ctx["trace_id"],
            root_parent_id=ctx.get("parent_span_id"),
        ),
    )
    collected = _Collected()
    try:
        yield collected
    finally:
        collected._events = _STATE.tracer.events
        collected._metrics = _STATE.registry.snapshot()
        _STATE = previous


def merge_telemetry(telemetry: Optional[dict]) -> None:
    """Fold a worker's collected telemetry into this process's state."""
    if not telemetry or not _STATE.enabled:
        return
    _STATE.tracer.events.extend(telemetry.get("events") or [])
    _STATE.registry.merge_snapshot(telemetry.get("metrics"))
