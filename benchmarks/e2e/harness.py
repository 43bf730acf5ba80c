"""Shared plumbing for the workload children: statistics, the
benchmark's own span recorder, the result record, environment facts.

Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

import spec


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a sample."""
    return float(np.percentile(values, q))


def time_calls(fn: Callable[[], Any], calls: int) -> List[float]:
    """Seconds per call of ``fn`` over ``calls`` back-to-back calls."""
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# Spans recorded by the benchmark's own files
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent, job id.

    One stack per thread, so the two client threads nest independently.
    Written out once, at the end of the run (`dump`).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, job_id: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            record: Dict[str, Any] = {
                "id": len(self.spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "job_id": job_id,
                "start": 0.0,
                "end": 0.0,
            }
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, under: Optional[str] = None) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover.

        ``under`` restricts the sum to spans named so and their
        descendants.
        """
        child_time: Dict[int, float] = {}
        inside = set()
        for s in self.spans:  # recorded parents first
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
            if s["name"] == under or s["parent"] in inside:
                inside.add(s["id"])
        out: Dict[str, float] = {}
        for s in self.spans:
            if under is not None and s["id"] not in inside:
                continue
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"spans": self.spans, "self_time_s": self.self_times()},
                indent=1,
            )
        )


class NullTracer(Tracer):
    """The untraced run: same call sites, nothing recorded."""

    @contextmanager
    def span(self, name: str, job_id: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        yield {}


# ----------------------------------------------------------------------
# The result one workload child hands back
# ----------------------------------------------------------------------
@dataclass
class Result:
    """Metrics, operation counts and correctness checks of one run."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Values that must be identical across two same-seed runs.
    exact: Dict[str, Any] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {
            "value": float(value),
            "unit": UNITS[name],
            "samples": int(samples),
        }

    def timing(self, name: str, seconds: Sequence[float], scale: float, q: Optional[float] = None) -> None:
        """Report the median (or percentile ``q``) of ``seconds`` x ``scale``."""
        value = median(seconds) if q is None else percentile(seconds, q)
        self.metric(name, value * scale, len(seconds))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "correct": self.correct}


UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in spec.END_TO_END},
    **{name: unit for name, unit, _ in spec.PER_LAYER},
}


@dataclass
class Context:
    """What a workload function is given."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    sizes: spec.Sizes
    setup_repeats: int
    tracer: Tracer

    def result(self) -> Result:
        return Result(self.workload, self.seed, self.traced)


def repeat_setup(ctx: Context, setup: Callable[[int], Any], teardown: Callable[[Any], None]) -> tuple:
    """Set up ``ctx.setup_repeats`` times; keep the last, time them all.

    Returns ``(state, seconds_per_setup)``.  Earlier set-ups are torn
    down at once, so every repeat starts from the same cold state.
    """
    times: List[float] = []
    state = None
    for attempt in range(ctx.setup_repeats):
        if state is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = setup(attempt)
        times.append(time.perf_counter() - t0)
    return state, times


# ----------------------------------------------------------------------
# Environment facts echoed in the output
# ----------------------------------------------------------------------
def peak_rss_mb_self() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path`` (longest mount-point match)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if target.startswith(mount.rstrip("/") + "/") or target == mount:
                    if len(mount) > len(best):
                        best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def git_commit(repo_root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "library default"


def environment(repo_root: Path, state_dir: Path) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(repo_root),
        "state_dir_filesystem": filesystem_of(state_dir),
        "platform": sys.platform,
        "settings": spec.FIXED_SETTINGS,
    }
