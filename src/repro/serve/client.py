"""Client helpers: submit jobs to a running daemon, inspect its state.

:func:`submit_via_socket` speaks the framed JSONL request/response
protocol over the daemon's unix *or TCP* endpoint and returns one
response dict per request (``accepted`` / ``rejected`` + retry-after /
``duplicate``).  On a mid-batch connection failure it raises
:class:`repro.serve.transport.ProtocolError` whose ``.responses``
carries everything already answered, so callers know exactly which
requests were delivered.  For a lossy wire (or a daemon that is briefly
down), wrap the same endpoint in
:class:`repro.serve.transport.ResilientClient` instead — it adds a
deadline budget, bounded retries with backoff, and reconnects.

:func:`serve_status` replays the journal read-only — it works on a live
daemon's state dir and on a dead one's (the report then says ``down``
plus the age of the last telemetry snapshot).  Against a fleet state
dir, use :func:`repro.serve.fleet_status` instead (``repro serve
status`` picks automatically).

Against a daemon (or fleet) listening on a unix socket::

    from repro.serve import submit_via_socket, serve_status, format_status

    responses = submit_via_socket(
        "/tmp/ibox-serve/serve.sock",   # or a fleet's .../fleet.sock
        [{"kind": "chaos", "params": {"fault": "sleep"}}],
    )
    assert responses[0]["status"] in ("accepted", "duplicate")
    job_id = responses[0]["job_id"]     # content hash: resubmit-safe

    status = serve_status("/tmp/ibox-serve")   # journal replay, read-only
    print(format_status(status))               # humans; the dict for tools
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.journal import JobJournal
from repro.serve.transport import EndpointLike, exchange
from repro.trace.io import PathLike


def submit_via_socket(
    socket_path: EndpointLike,
    requests: Sequence[Dict[str, Any]],
    timeout: float = 10.0,
) -> List[Dict[str, Any]]:
    """Send requests over the daemon's endpoint; one response each.

    ``socket_path`` is a unix socket path or any ``unix:<path>`` /
    ``tcp:<host>:<port>`` endpoint spec.  One-shot: a mid-batch
    connection failure raises :class:`~repro.serve.transport
    .ProtocolError` (a :class:`ConnectionError`) whose ``.responses``
    holds the already-delivered answers.
    """
    return exchange(socket_path, requests, timeout=timeout)


def query_daemon(
    socket_path: EndpointLike, verb: str = "stats", timeout: float = 10.0
) -> Dict[str, Any]:
    """Ask a live daemon a control verb (``stats`` / ``health``)."""
    responses = submit_via_socket(socket_path, [{"verb": verb}], timeout)
    return responses[0]


def fetch_result(
    socket_path: EndpointLike,
    job_id: str,
    timeout: float = 10.0,
) -> Dict[str, Any]:
    """One-shot ``fetch`` of a job's (checksum-verified) result.

    Works against a single daemon's endpoint or a fleet router (which
    hashes the job_id to its owning shard and fans out when the ring
    moved).  Responses: ``ok`` with the ``result`` payload, ``pending``
    (queued/leased/repairing, with a retry-after hint), ``failed``,
    ``rejected``, or ``not_found``.  For retries, waiting, and deadline
    budgets use :meth:`repro.serve.transport.ResilientClient.fetch`.
    """
    responses = submit_via_socket(
        socket_path, [{"verb": "fetch", "job_id": job_id}], timeout
    )
    return responses[0]


def read_live_snapshot(state_dir: PathLike) -> Optional[Dict[str, Any]]:
    """The flusher-published live snapshot, plus its age; None if absent."""
    path = Path(state_dir) / "obs" / "metrics.json"
    try:
        snapshot = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None
    if not isinstance(snapshot, dict):
        return None
    snapshot["age_sec"] = round(time.time() - snapshot.get("ts", 0.0), 3)
    return snapshot


def serve_status(state_dir: PathLike) -> Dict[str, Any]:
    """Journal-derived service state: counts plus per-job statuses.

    When the daemon's snapshot flusher has published
    ``<state>/obs/metrics.json``, a ``live`` section is attached with
    queue depth, per-class in-flight counts, and the snapshot age —
    near-real-time state that journal replay alone cannot provide.
    """
    state_dir = Path(state_dir)
    state = JobJournal.read_state(state_dir / "journal")
    pid_file = state_dir / "serve.pid"
    pid = None
    if pid_file.exists():
        try:
            pid = int(pid_file.read_text().strip())
        except ValueError:
            pid = None
    # A daemon is "up" only if its pid marker names a live process; a
    # SIGKILL leaves the marker behind, so the pid alone is not enough.
    daemon = "down"
    if pid is not None:
        try:
            os.kill(pid, 0)
            daemon = "up"
        except ProcessLookupError:
            daemon = "down"
        except PermissionError:  # exists, but owned by someone else
            daemon = "up"
    status: Dict[str, Any] = {
        "state_dir": str(state_dir),
        "pid": pid,
        "daemon": daemon,
        "counts": state.counts(),
        "torn_records": state.torn_records,
        "corrupt_records": state.corrupt_records,
        "corrupt_segments": list(state.corrupt_segments),
        "suspect_jobs": sorted(state.suspect_jobs),
        "jobs": [
            {
                "job_id": j.request["job_id"],
                "label": j.request.get("label"),
                "status": j.status,
                "attempts": j.attempts,
                "completions": j.completions,
            }
            for j in state.in_order()
        ],
    }
    snapshot = read_live_snapshot(state_dir)
    if snapshot is not None:
        service = snapshot.get("service") or {}
        status["live"] = {
            "snapshot_age_sec": snapshot["age_sec"],
            "queue_depth": service.get("queue_depth"),
            "in_flight": service.get("in_flight") or {},
            "draining": service.get("draining"),
            "uptime_sec": service.get("uptime_sec"),
        }
    return status


def format_status(status: Dict[str, Any]) -> str:
    counts = status["counts"]
    daemon = status.get("daemon")
    head = f"serve state {status['state_dir']}"
    if daemon == "up":
        head += f" — up (pid {status['pid']})"
    elif daemon == "down":
        head += " — down"
    elif status.get("pid"):
        head += f" (pid {status['pid']})"
    lines = [
        head,
        "  "
        + " ".join(f"{k}={v}" for k, v in counts.items()),
    ]
    live = status.get("live")
    if live and daemon == "down":
        # Dead daemon: the snapshot below is the last thing it
        # published, not the current state — flag its age first.
        age = live.get("snapshot_age_sec")
        if age is not None:
            lines.append(f"  down; last snapshot {age:.1f}s ago")
    if live:
        in_flight = live.get("in_flight") or {}
        detail = " ".join(
            f"{cls}={n}" for cls, n in sorted(in_flight.items())
        )
        age = live.get("snapshot_age_sec")
        lines.append(
            f"  live: queue_depth={live.get('queue_depth')} "
            f"in_flight={sum(in_flight.values())}"
            + (f" ({detail})" if detail else "")
            + (f" snapshot_age={age:.1f}s" if age is not None else "")
        )
    if status.get("torn_records"):
        lines.append(f"  torn journal records dropped: {status['torn_records']}")
    if status.get("corrupt_records"):
        segments = ",".join(status.get("corrupt_segments") or []) or "?"
        lines.append(
            f"  CORRUPT journal records skipped: {status['corrupt_records']} "
            f"(segments: {segments}; see journal/quarantine/)"
        )
    for job in status["jobs"]:
        lines.append(
            f"  {job['status']:<9} attempts={job['attempts']} "
            f"{job['label']}"
        )
    return "\n".join(lines)
