"""Spawn, probe and stop the shipped service: one ``repro serve run``
daemon or one ``repro serve fleet``, driven through the CLI as a
subprocess with production defaults (fsync on, ``poll_interval`` 0.05,
``queue_limit`` 64).

All paths are relative to the work root the child runs in, so unix
socket paths stay short however deep the checkout sits.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve import fleet_status, serve_status
from repro.serve.transport import ProtocolError, exchange

import harness
import spec

#: How long a service may take to come up or to drain.
START_TIMEOUT_SEC = 60.0
#: The daemon's own ``--drain-timeout`` default, plus slack.
DRAIN_TIMEOUT_SEC = 25.0

#: Every service this child started and has not yet reaped.
_LIVE: List["Service"] = []


class Service:
    """One spawned daemon or fleet under ``state`` (a relative path)."""

    def __init__(self, state: Path, fleet: bool = False):
        self.state = Path(state)
        self.fleet = fleet
        self.proc: Optional[subprocess.Popen] = None
        self.endpoint = ""
        #: spawn -> readiness marker, spawn -> first ``health`` answer.
        self.marker_s = 0.0
        self.ready_s = 0.0
        self.exit_codes: List[int] = []

    # ------------------------------------------------------------------
    def _argv(self) -> List[str]:
        base = [sys.executable, "-m", "repro", "serve"]
        if self.fleet:
            return base + [
                "fleet",
                "--state", str(self.state),
                "--shards", str(spec.FIXED_SETTINGS["fleet_shards"]),
                "--bind", "tcp:127.0.0.1:0",
            ]
        return base + [
            "run",
            "--state", str(self.state),
            "--socket", str(self.state / "serve.sock"),
            "--workers", str(spec.FIXED_SETTINGS["workers"]),
        ]

    def start(self) -> "Service":
        """Spawn and wait until ``health`` answers (every shard live)."""
        self.state.mkdir(parents=True, exist_ok=True)
        marker = self.state / ("fleet.pid" if self.fleet else "serve.pid")
        endpoint_file = self.state / (
            "fleet.endpoint" if self.fleet else "serve.endpoint"
        )
        marker.unlink(missing_ok=True)  # a SIGKILL leaves the old one
        log = open(self.state / "bench-service.log", "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self._argv(), stdout=log, stderr=subprocess.STDOUT
        )
        log.close()
        _LIVE.append(self)
        deadline = t0 + START_TIMEOUT_SEC
        while not marker.exists():
            self._still_starting(deadline)
        self.marker_s = time.perf_counter() - t0
        self.endpoint = endpoint_file.read_text().strip()
        while not self._healthy():
            self._still_starting(deadline)
        self.ready_s = time.perf_counter() - t0
        return self

    def _still_starting(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"service under {self.state} exited {self.proc.returncode} "
                f"while starting: {self.log_tail()}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError(f"service under {self.state} never came up")
        time.sleep(0.002)

    def _healthy(self) -> bool:
        try:
            health = exchange(self.endpoint, [{"verb": "health"}])[0]
        except ProtocolError:
            return False
        if health.get("status") != "ok":
            return False
        if self.fleet:
            section = health["health"]
            return section["live"] == section["shards"]
        return True

    # ------------------------------------------------------------------
    def shard_endpoints(self) -> Dict[str, str]:
        """A fleet's shard name -> bound endpoint (from the state dir)."""
        return {
            d.name: (d / "serve.endpoint").read_text().strip()
            for d in sorted(self.state.glob("shard-*"))
        }

    def pids(self) -> List[int]:
        """The service's own processes: daemon, or router + shards."""
        pids = [self.proc.pid]
        if self.fleet:
            health = exchange(self.endpoint, [{"verb": "health"}])[0]
            pids += [s["pid"] for s in health["health"]["shard_status"].values()]
        return pids

    def peak_rss_mb(self) -> float:
        return sum(harness.vm_hwm_mb(pid) for pid in self.pids())

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = (self.state / "bench-service.log").read_text()
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    # ------------------------------------------------------------------
    def stop(self) -> int:
        """SIGTERM, wait for the drain, SIGKILL if it overruns."""
        if self.proc is None or self.proc.poll() is not None:
            code = self.proc.returncode if self.proc else 0
        else:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=DRAIN_TIMEOUT_SEC)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                code = self.proc.wait()
        self.exit_codes.append(code)
        if self in _LIVE:
            _LIVE.remove(self)
        return code

    def kill(self) -> None:
        """SIGKILL: the crash the journal has to survive."""
        self.proc.kill()
        self.proc.wait()
        if self in _LIVE:
            _LIVE.remove(self)

    def status(self) -> Dict[str, Any]:
        """Journal-derived state (works on a stopped service)."""
        if self.fleet:
            return fleet_status(self.state)
        return serve_status(self.state)


def stop_all() -> None:
    """Reap whatever is still running (failure paths end here)."""
    for service in list(_LIVE):
        service.stop()


# ----------------------------------------------------------------------
# The correctness gate over a stopped service's journal
# ----------------------------------------------------------------------
def check_journal(
    result: harness.Result,
    service: Service,
    submitted: int,
    allowed_torn: int = 0,
) -> None:
    """completed == submitted, completions <= 1, nothing corrupt."""
    status = service.status()
    counts = status["counts"]
    result.check(
        "journal.completed_equals_submitted",
        counts["completed"] == submitted and counts["total"] == submitted,
        f"counts={counts} submitted={submitted}",
    )
    worst = max((j["completions"] for j in status["jobs"]), default=0)
    result.check(
        "journal.completions_at_most_one", worst <= 1, f"max={worst}"
    )
    shards = status["shards"] if service.fleet else [status]
    torn = sum(s["torn_records"] for s in shards)
    corrupt = sum(s["corrupt_records"] for s in shards)
    result.check(
        "journal.no_corruption",
        corrupt == 0 and torn <= allowed_torn,
        f"corrupt={corrupt} torn={torn} allowed_torn={allowed_torn}",
    )
    result.check(
        "service.drained_exit_0",
        bool(service.exit_codes) and all(c == 0 for c in service.exit_codes),
        f"exit_codes={service.exit_codes}",
    )


def journal_segments(state: Path) -> int:
    return len(list((state / "journal").glob("wal*.jsonl")))


def service_env(work_root: Path, src_dir: Path) -> None:
    """Point every spawned process at this checkout and this temp root.

    The profile cache lives under the temp root too, so the user's
    cache is never read or polluted.
    """
    os.environ["PYTHONPATH"] = str(src_dir)
    os.environ["REPRO_CACHE_DIR"] = str(work_root / "cache")
