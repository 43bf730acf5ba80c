"""Run manifests: one JSON record per batch, for run-over-run observability.

Every batch run writes ``manifest-<run_id>.json`` capturing what was
asked (job ids + labels), what happened (status, attempts, per-job wall
time, structured errors), and how the cache behaved (hit/miss counts).
Because job ids are content hashes, two manifests are directly joinable
on ``job_id``: a job that got faster, started failing, or flipped from
miss to hit between runs is one dict lookup away.

Schema (``manifest_version`` 1)::

    {
      "manifest_version": 1,
      "run_id": "20260805-142233-1a2b3c",
      "command": "batch",
      "workers": 4,
      "started_at": "2026-08-05T14:22:33+00:00",
      "finished_at": "...",
      "wall_time_sec": 12.3,
      "counts": {"total": 6, "ok": 5, "failed": 1},
      "cache": {"hits": 5, "misses": 1},
      "jobs": [ {job_id, kind, label, status, attempts,
                 duration_sec, cache_hit, error}, ... ],
      "metrics": { counters/gauges/histograms snapshot }   // optional
    }

The optional ``metrics`` key is the :mod:`repro.obs` registry snapshot
taken at the end of a telemetry-enabled run (``--metrics-out`` format);
runs with telemetry disabled omit it, keeping the schema backward
compatible within ``manifest_version`` 1.  :meth:`RunManifest.load`
ignores keys it does not know, such as the ``degraded_to_serial`` flag
older manifests carry, so they still work with ``--resume``.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.runtime.jobs import JobResult
from repro.trace.io import PathLike

MANIFEST_VERSION = 1


def new_run_id() -> str:
    """Sortable-by-time, collision-safe run identifier."""
    # Microsecond resolution keeps ids from back-to-back runs sortable;
    # the random suffix guards against clock collisions across hosts.
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S%f")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunManifest:
    """The persistent record of one batch run."""

    run_id: str
    command: str
    workers: int
    started_at: str
    finished_at: str
    wall_time_sec: float
    jobs: List[dict] = field(default_factory=list)
    #: run_id of the manifest this run resumed from (``batch --resume``).
    resumed_from: Optional[str] = None
    #: Optional repro.obs metrics snapshot (telemetry-enabled runs only).
    metrics: Optional[dict] = None

    # ------------------------------------------------------------------
    # Derived accounting
    # ------------------------------------------------------------------
    @property
    def counts(self) -> Dict[str, int]:
        ok = sum(1 for j in self.jobs if j["status"] == "ok")
        return {"total": len(self.jobs), "ok": ok, "failed": len(self.jobs) - ok}

    @property
    def cache(self) -> Dict[str, int]:
        hits = sum(1 for j in self.jobs if j.get("cache_hit"))
        # Only jobs that *could* have hit (fit-bearing kinds) count as
        # misses; experiment jobs have no profile to cache.
        fit_like = [j for j in self.jobs if j["kind"] in ("fit", "simulate")]
        return {"hits": hits, "misses": len(fit_like) - hits}

    @property
    def failures(self) -> List[dict]:
        return [j for j in self.jobs if j["status"] == "failed"]

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_results(
        cls,
        results: Sequence[JobResult],
        command: str,
        workers: int,
        started_perf: float,
        started_at_iso: str,
        run_id: Optional[str] = None,
        resumed_from: Optional[str] = None,
        metrics: Optional[dict] = None,
    ) -> "RunManifest":
        return cls(
            run_id=run_id or new_run_id(),
            command=command,
            workers=workers,
            started_at=started_at_iso,
            finished_at=datetime.now(timezone.utc).isoformat(),
            # Durations always come from perf_counter, never wall clock.
            wall_time_sec=round(time.perf_counter() - started_perf, 6),
            jobs=[r.describe() for r in results],
            resumed_from=resumed_from,
            metrics=metrics,
        )

    def to_dict(self) -> dict:
        data = {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "workers": self.workers,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_time_sec": self.wall_time_sec,
            "counts": self.counts,
            "cache": self.cache,
            "jobs": self.jobs,
        }
        if self.resumed_from is not None:
            data["resumed_from"] = self.resumed_from
        if self.metrics is not None:
            data["metrics"] = self.metrics
        return data

    def write(self, directory: PathLike) -> Path:
        """Atomically write ``manifest-<run_id>.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"manifest-{self.run_id}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.to_dict(), indent=2))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version: {version}")
        return cls(
            run_id=data["run_id"],
            command=data["command"],
            workers=data["workers"],
            started_at=data["started_at"],
            finished_at=data["finished_at"],
            wall_time_sec=data["wall_time_sec"],
            jobs=data["jobs"],
            resumed_from=data.get("resumed_from"),
            metrics=data.get("metrics"),
        )

    def format_report(self) -> str:
        """Human summary printed at the end of ``repro batch``."""
        counts, cache = self.counts, self.cache
        lines = [
            f"run {self.run_id}: {counts['ok']}/{counts['total']} jobs ok, "
            f"{counts['failed']} failed, "
            f"cache {cache['hits']} hit / {cache['misses']} miss, "
            f"{self.workers} worker(s), {self.wall_time_sec:.2f}s wall",
        ]
        resumed = sum(1 for j in self.jobs if j.get("resumed"))
        if resumed:
            lines.append(
                f"  ({resumed} job(s) carried over from run "
                f"{self.resumed_from})"
            )
        for job in self.failures:
            err = job.get("error") or {}
            lines.append(
                f"  FAILED {job['label']}: "
                f"{err.get('error_type', '?')}: {err.get('message', '')}"
            )
        return "\n".join(lines)
