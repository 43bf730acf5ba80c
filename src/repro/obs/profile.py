"""Zero-dependency wall-clock sampling profiler → collapsed stacks.

A background thread wakes every ``interval_sec``, grabs every Python
thread's current frame via ``sys._current_frames()``, and walks the
``f_back`` chain into a ``module:function`` stack tuple.  Identical
stacks accumulate a count; :meth:`SamplingProfiler.collapsed` renders
the standard *collapsed-stack* flamegraph text format (one
``frame;frame;frame count`` line per unique stack), which
``flamegraph.pl``, speedscope, and most flamegraph viewers ingest
directly.

Wall-clock sampling (as opposed to ``cProfile``-style tracing) has two
properties that matter for the serve daemon and for one-off
measurements of a hot path:

* overhead is bounded by the sampling rate, not the call rate — the
  default 10ms interval (100 Hz, the same default as py-spy) keeps the
  slowdown under 5% even on call-heavy paths (each sample costs a few
  µs, but every wakeup also forces a GIL handoff, which is the part
  that actually shows up), so it is safe to leave attached to a
  production daemon;
* blocked time (lock waits, ``select``, child-process waits) is
  sampled like any other time, which is exactly what you want when
  diagnosing a stuck service.

Attach via ``repro serve run --profile`` or directly::

    from repro.obs.profile import SamplingProfiler

    with SamplingProfiler() as prof:
        work()
    prof.write("profile.collapsed")
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Default sampling interval: 10ms = 100 samples/sec.
DEFAULT_INTERVAL_SEC = 0.01

#: Hard cap on accumulated samples (bounds memory on week-long runs).
DEFAULT_MAX_SAMPLES = 1_000_000


def _frame_label(frame) -> str:
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


class SamplingProfiler:
    """Thread-stack sampler producing collapsed flamegraph text."""

    def __init__(
        self,
        interval_sec: float = DEFAULT_INTERVAL_SEC,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        max_depth: int = 128,
    ):
        if not interval_sec > 0:
            raise ValueError("interval_sec must be > 0")
        self.interval_sec = interval_sec
        self.max_samples = max_samples
        self.max_depth = max_depth
        self.samples = 0
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.wall_sec = 0.0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.interval_sec * 10 + 1.0)
        if self._started_at is not None:
            self.wall_sec += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling --------------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_sec):
            if self.samples >= self.max_samples:
                return
            self.sample_once(skip_ident=own_id)

    def sample_once(self, skip_ident: Optional[int] = None) -> int:
        """Take one sample of every live thread; returns stacks recorded."""
        recorded = 0
        try:
            frames = sys._current_frames()
        except Exception:
            return 0
        for ident, frame in frames.items():
            if ident == skip_ident:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            key = tuple(reversed(stack))  # outermost first
            with self._lock:
                self._stacks[key] = self._stacks.get(key, 0) + 1
                self.samples += 1
            recorded += 1
        return recorded

    # -- output ----------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c count`` line per stack."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(
            f"{';'.join(stack)} {count}" for stack, count in items
        ) + ("\n" if items else "")

    def write(self, path) -> Path:
        """Atomically write the collapsed stacks; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
        tmp.write_text(self.collapsed())
        os.replace(tmp, path)
        return path

    def top_functions(self, limit: int = 10) -> list:
        """(label, inclusive_samples) for the hottest leaf frames."""
        leaves: Dict[str, int] = {}
        with self._lock:
            for stack, count in self._stacks.items():
                leaf = stack[-1]
                leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: -kv[1])[:limit]
