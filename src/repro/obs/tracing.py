"""Span-based tracing with cross-process trace/span-id propagation.

A *span* measures one named stage: wall time (``time.perf_counter``),
CPU time (``time.process_time``), nesting (the enclosing span becomes
``parent_id``), and arbitrary JSON-able attributes.  Finished spans are
buffered on the owning :class:`Tracer` as plain dicts — one JSONL line
each when flushed to ``--trace-out``.

Names follow the ``subsystem.stage`` dotted convention (DESIGN.md §7):
``executor.job``, ``fit.static_params``, ``ml.train``, ``sim.run``.

Cross-process story: ``run_jobs`` snapshots the parent's
``(trace_id, current span_id)`` into the job request; the worker
process builds a fresh ``Tracer`` *seeded with that identity*, so every
span it records carries the parent run's ``trace_id`` and hangs off the
submitting span.  The worker's event buffer rides back with the job
result and is appended to the parent's buffer — no cross-process file
appends, no locks.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

#: Event-log schema version, stamped on every record.
EVENT_VERSION = 1


def _new_id(bits: int = 64) -> str:
    return uuid.uuid4().hex[: bits // 4]


class Span:
    """One active stage measurement (use via ``obs.span(name, **attrs)``)."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "start_ts", "_wall0", "_cpu0", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_id()
        self.parent_id: Optional[str] = None
        self.start_ts = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, key: str, value: Any) -> "Span":
        """Attach an attribute computed mid-span (chainable)."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        parent = self.tracer.current()
        self.parent_id = (
            parent.span_id if parent is not None else self.tracer.root_parent_id
        )
        self._token = self.tracer._current.set(self)
        # Wall-clock epoch is a *timestamp* (for ordering/joining events);
        # durations below come exclusively from perf_counter/process_time.
        self.start_ts = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if self._token is not None:
            self.tracer._current.reset(self._token)
        record = {
            "v": EVENT_VERSION,
            "type": "span",
            "name": self.name,
            "trace_id": self.tracer.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.start_ts,
            "wall_sec": wall,
            "cpu_sec": cpu,
            "status": "ok" if exc_type is None else "error",
        }
        if exc_type is not None:
            self.attrs.setdefault("error_type", exc_type.__name__)
        if self.attrs:
            record["attrs"] = self.attrs
        self.tracer.emit(record)
        return False  # never swallow exceptions


class NullSpan:
    """Shared do-nothing span handed out when telemetry is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Owns a trace identity, the current-span context, and the buffer."""

    def __init__(
        self,
        trace_id: Optional[str] = None,
        root_parent_id: Optional[str] = None,
    ):
        self.trace_id = trace_id or _new_id(128)
        #: Parent span id inherited across a process boundary: worker-side
        #: top-level spans hang off the submitting span in the parent.
        self.root_parent_id = root_parent_id
        self.events: List[dict] = []
        #: Optional tap called with every finished record *in addition to*
        #: buffering it — the flight recorder's feed (see obs.live).  Sink
        #: failures are swallowed: observability must never take down the
        #: instrumented code path.
        self.sink: Optional[Callable[[dict], None]] = None
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )

    def emit(self, record: dict) -> None:
        """Buffer a finished record and tee it to the sink, if any."""
        self.events.append(record)
        if self.sink is not None:
            try:
                self.sink(record)
            except Exception:
                pass

    def current(self) -> Optional[Span]:
        return self._current.get()

    def current_span_id(self) -> Optional[str]:
        span = self.current()
        return span.span_id if span is not None else self.root_parent_id

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def record_event(
        self,
        level: str,
        logger: str,
        event: str,
        fields: Dict[str, Any],
    ) -> None:
        """Buffer a structured log event, linked to the current span."""
        self.emit(
            {
                "v": EVENT_VERSION,
                "type": "event",
                "name": event,
                "trace_id": self.trace_id,
                "span_id": self.current_span_id(),
                "ts": time.time(),
                "level": level,
                "logger": logger,
                "fields": fields,
            }
        )
