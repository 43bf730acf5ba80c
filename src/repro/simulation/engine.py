"""Discrete-event simulation kernel.

A minimal but complete event-driven engine: a binary-heap calendar of
timestamped callbacks, a simulated clock, event cancellation, and
deterministic tie-breaking (events scheduled at the same instant fire in
scheduling order), which keeps runs reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, List, Optional, Tuple

from repro import obs


class Event:
    """A scheduled callback.

    Events are created via :meth:`Simulator.schedule` and may be cancelled
    with :meth:`Simulator.cancel` (or :meth:`Event.cancel`).  A cancelled
    event stays in the heap but is skipped when popped; the owning
    simulator keeps a count of cancelled-but-still-heaped events so
    :attr:`Simulator.pending_events` never has to scan the calendar.  The
    back-reference is dropped when the event is popped, so cancelling an
    already-fired event (a stale timer handle, say) cannot skew the count.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._cancelled_pending += 1

    def __repr__(self) -> str:
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, {name}{state})"


class Simulator:
    """Event calendar plus simulated clock.

    Example::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Entries are (time, seq, event) so heapq orders them by
        # comparing a float and an int in C; seq is unique, so the event
        # itself is never compared.
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        event = Event(time, callback, args, sim=self)
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    @staticmethod
    def cancel(event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events in timestamp order until the clock reaches ``until``.

        The clock is left at ``until`` even if the calendar drains early, so
        measurements normalised by duration stay consistent.
        """
        if self._running:
            raise RuntimeError("simulator is already running")
        self._running = True
        self._stopped = False
        # Hot loop: heap, pop, and the processed counter live in locals
        # (the counter folds back into the instance in ``finally`` so a
        # raising callback still leaves the tally correct).
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        wall0 = time.perf_counter()
        try:
            with obs.span("sim.run", until=until) as run_span:
                while heap and not self._stopped:
                    if heap[0][0] > until:
                        break
                    event = pop(heap)[2]
                    event._sim = None
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    self.now = event.time
                    event.callback(*event.args)
                    processed += 1
                run_span.set("events", processed)
                wall = time.perf_counter() - wall0
                if wall > 0 and processed:
                    obs.metrics().histogram(
                        "sim.events_per_sec", obs.RATE_BUCKETS
                    ).observe(processed / wall)
            if not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._events_processed += processed
            self._running = False

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if the calendar is empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            event._sim = None
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self.now = event.time
            event.callback(*event.args)
            self._events_processed += 1
            return True
        return False

    def stop(self) -> None:
        """Stop a :meth:`run` in progress after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled_pending

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
