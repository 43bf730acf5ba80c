"""One harness for the process chaos campaigns (DESIGN.md §10, §13–§15).

Every process campaign in :mod:`repro.guard.chaos` does the same things
around its fault: start ``repro serve run`` or ``repro serve fleet`` as
a real child, wait until it is ready, submit work, wait for it, drain,
and check the journals for exactly-once.  This module is that code,
once:

* :class:`ServiceUnderTest` — spawn through the CLI, readiness,
  submit, wait, kill, drain; always reaps the child and never leaks its
  log file;
* :func:`ledger_violations` — the exactly-once check over one daemon's
  journal or every shard journal of a fleet;
* :class:`CampaignReport` — the ordered phases of printed facts, the
  violations, and nested sub-campaign reports.

A harness call that cannot go on raises :class:`DrillFailure`; its
message is the violation, and :meth:`CampaignReport.guard` records it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


class DrillFailure(Exception):
    """A drill step that cannot go on; the message is the violation."""


def wait_for(
    predicate: Callable[[], Any], timeout_sec: float, poll: float = 0.1
) -> Any:
    """Poll ``predicate`` until it returns something truthy and return
    that, or return False once ``timeout_sec`` has passed."""
    deadline = time.monotonic() + timeout_sec
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    return False


def sleep_requests(
    label: str, jobs: int, seed: int, sleep_sec: float, **params
) -> List[Dict[str, Any]]:
    """``jobs`` well-behaved slow drill requests labelled ``<label>:<i>``.

    The job id is the content hash of the params, so ``seed`` and any
    extra ``params`` keep two drills' jobs apart.
    """
    return [
        {
            "kind": "chaos",
            "params": {"fault": "sleep", "sleep_sec": sleep_sec, "idx": i,
                       "seed": seed, **params},
            "label": f"{label}:{i}",
            "class": "drill",
            "timeout_sec": 30.0,
        }
        for i in range(jobs)
    ]


def job_ids(requests: Iterable[Dict[str, Any]]) -> List[str]:
    """The job id the service will journal for each request."""
    from repro.serve.requests import normalize_request

    return [normalize_request(dict(r))["job_id"] for r in requests]


def ledger_violations(
    journal_dirs: Sequence[Path], ids: Iterable[str], label: str = ""
) -> List[str]:
    """The exactly-once check: every id appears in some journal, is
    completed, and its ``completions`` summed over all journals is 1.

    A fleet handoff leaves a ``moved:`` tombstone (zero completions) on
    the dead shard and one completion elsewhere — that passes.
    """
    from repro.serve.journal import JobJournal

    prefix = f"[{label}] " if label else ""
    states = [JobJournal.read_state(root) for root in journal_dirs]
    violations = []
    for job_id in ids:
        jobs = [s.jobs[job_id] for s in states if job_id in s.jobs]
        count = sum(job.completions for job in jobs)
        if not jobs:
            problem = "left no journal trace (lost)"
        elif not any(job.status == "completed" for job in jobs):
            problem = f"never completed (ended {[j.status for j in jobs]})"
        elif count != 1:
            problem = f"has {count} completed records (exactly-once violated)"
        else:
            continue
        violations.append(f"{prefix}job {job_id[:12]} {problem}")
    return violations


class ServiceUnderTest:
    """``repro serve run|fleet`` as a real child process.

    ``argv`` is the CLI invocation after ``repro`` (it must carry
    ``--state``); ``log_path`` receives the child's stdout and stderr.
    Entering spawns the child and waits for readiness — the pid marker
    naming this child, the published endpoint, and for a fleet every
    ``shard-<i>/serve.pid`` — or raises :class:`DrillFailure` (after
    reaping the child).  Leaving always reaps the child.
    """

    def __init__(
        self, argv: Sequence[str], log_path: Path, ready_timeout: float = 60.0
    ):
        from repro.cli import build_parser

        self.argv = [str(a) for a in argv]
        args = build_parser().parse_args(self.argv)
        self.fleet = args.serve_command == "fleet"
        self.shards = args.shards if self.fleet else 0
        self.state = Path(args.state)
        self.log_path = Path(log_path)
        self.ready_timeout = ready_timeout
        self.endpoint: Optional[str] = None
        self.proc: Optional[subprocess.Popen] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def __enter__(self) -> "ServiceUnderTest":
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.argv],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        try:
            self._wait_ready()
        except BaseException:
            self._reap()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._reap()

    def _reap(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.kill()
        self.proc.wait(timeout=10)
        # A SIGKILLed fleet manager cannot stop its shards itself.
        for marker in self.state.glob("shard-*/serve.pid"):
            try:
                os.kill(int(marker.read_text()), signal.SIGKILL)
            except (OSError, ValueError):
                pass

    def _wait_ready(self) -> None:
        marker = self.state / ("fleet.pid" if self.fleet else "serve.pid")
        endpoint_file = self.state / (
            "fleet.endpoint" if self.fleet else "serve.endpoint"
        )

        def ready() -> bool:
            if self.proc.poll() is not None:
                raise DrillFailure(
                    f"`repro {' '.join(self.argv[:2])}` exited "
                    f"{self.proc.returncode} before it was ready: "
                    f"{self.log_tail()}"
                )
            try:
                if int(marker.read_text().strip()) != self.proc.pid:
                    return False  # a previous run's stale marker
            except (OSError, ValueError):
                return False
            return endpoint_file.exists() and all(
                (self.state / f"shard-{i}" / "serve.pid").exists()
                for i in range(self.shards)
            )

        if not wait_for(ready, self.ready_timeout):
            raise DrillFailure(
                f"`repro {' '.join(self.argv[:2])}` never became ready "
                f"within {self.ready_timeout}s"
            )
        self.endpoint = endpoint_file.read_text().strip()

    def log_tail(self, chars: int = 400) -> str:
        try:
            return self.log_path.read_text()[-chars:]
        except OSError:
            return ""

    def journal_dirs(self) -> List[Path]:
        if self.fleet:
            return [d / "journal" for d in sorted(self.state.glob("shard-*"))]
        return [self.state / "journal"]

    def submit(self, requests: Sequence[dict]) -> List[Dict[str, Any]]:
        """Submit over the service's endpoint; every response must be
        ``accepted`` (a fleet's also name the owning ``shard``)."""
        from repro.serve.client import submit_via_socket

        responses = submit_via_socket(self.endpoint, requests)
        refused = [r for r in responses if r.get("status") != "accepted"]
        if refused:
            raise DrillFailure(
                f"{len(refused)}/{len(responses)} submissions were not "
                f"accepted: {refused[:3]}"
            )
        return responses

    def completed(self, ids: Iterable[str]) -> int:
        """How many of ``ids`` have completed (on any shard)."""
        from repro.serve.journal import JobJournal

        wanted = set(ids)
        return len({
            job_id
            for root in self.journal_dirs()
            for job_id, job in JobJournal.read_state(root).jobs.items()
            if job_id in wanted and job.completions
        })

    def wait_completed(
        self, ids: Sequence[str], timeout_sec: float,
        at_least: Optional[int] = None,
    ) -> None:
        """Wait until ``at_least`` (default: all) of ``ids`` completed, or
        raise :class:`DrillFailure`.  Returns nothing: while the service
        runs, any count read afterwards is already out of date."""
        want = len(ids) if at_least is None else at_least
        if not wait_for(lambda: self.completed(ids) >= want, timeout_sec):
            raise DrillFailure(
                f"only {self.completed(ids)}/{len(ids)} jobs completed "
                f"within {timeout_sec}s (waiting for {want})"
            )

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Send ``sig``; for SIGKILL also wait for the child to die."""
        self.proc.send_signal(sig)
        if sig == signal.SIGKILL:
            self.proc.wait(timeout=10)

    def drain(self, timeout_sec: float = 30.0) -> int:
        """SIGTERM and wait for the graceful drain; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_sec)
        except subprocess.TimeoutExpired:
            raise DrillFailure(
                f"did not exit within {timeout_sec}s after SIGTERM"
            ) from None

    def flight_dump(self, reason: str, timeout_sec: float = 15.0
                    ) -> Optional[Path]:
        """Wait for the newest valid flight dump with ``reason`` under
        ``<state>/obs``; None if none appears in time."""

        def newest() -> Optional[Path]:
            for path in sorted(self.state.glob("obs/flight-*.json"),
                               reverse=True):
                try:
                    payload = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue  # possibly mid-write; the next poll retries
                if (isinstance(payload, dict)
                        and payload.get("reason") == reason
                        and isinstance(payload.get("events"), list)
                        and isinstance(payload.get("context"), dict)):
                    return path
            return None

        return wait_for(newest, timeout_sec) or None


@dataclass
class CampaignReport:
    """Outcome of one campaign; ``ok`` iff it and every sub-report held.

    ``phases`` maps a phase name to its printed facts, both in the order
    they were recorded; ``claim`` is what the campaign proved when no
    violation was recorded.
    """

    name: str
    seed: int
    claim: str
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    sub: List["CampaignReport"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and all(r.ok for r in self.sub)

    def check(self, ok: Any, violation: str) -> bool:
        """Record ``violation`` unless ``ok``; returns ``bool(ok)``."""
        if not ok:
            self.violations.append(violation)
        return bool(ok)

    def phase(self, name: str) -> Dict[str, Any]:
        """The (created on first use) fact dict of phase ``name``."""
        return self.phases.setdefault(name, {})

    @contextmanager
    def guard(self, label: str = ""):
        """Record a :class:`DrillFailure` raised inside as a violation
        (prefixed ``[label]``) instead of letting it escape."""
        try:
            yield
        except DrillFailure as exc:
            self.violations.append(f"[{label}] {exc}" if label else str(exc))

    def format_report(self) -> str:
        lines = [f"{self.name} chaos campaign: seed={self.seed}"]
        for name, facts in self.phases.items():
            text = " ".join(f"{k}={v}" for k, v in facts.items())
            lines += textwrap.wrap(
                text, width=100, initial_indent=f"  [{name}] ",
                subsequent_indent="      ", break_long_words=False,
                break_on_hyphens=False,
            ) or [f"  [{name}]"]
        if self.violations:
            lines.append("GUARD VIOLATIONS:")
            lines.extend(f"  !! {v}" for v in self.violations)
        else:
            lines.append(f"all guards held: {self.claim}")
        lines.extend(r.format_report() for r in self.sub)
        return "\n".join(lines)
