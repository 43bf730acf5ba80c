"""Worker supervision: leases, heartbeats, deadline kills, crash backoff.

Each leased job runs in its own child process (``multiprocessing``)
that writes its outcome to ``results/<job_id>.json`` atomically and
exits 0 — even a *failed* job is a structured result written by a
healthy worker.  A worker that dies without a result file (segfault,
OOM-kill, ``os._exit``) is a **crash**; one that lives past its
deadline is **killed** by the supervisor's heartbeat sweep.

Result files are the durable half of the result plane (DESIGN.md §15):
a version-tagged CRC32 envelope ``{"v":2,"payload":{...},"crc":...}``
written tmp + fsync + ``os.replace`` + parent-dir fsync, so a finished
job's answer survives power loss and bit-rot is *detected* rather than
served.  :func:`read_result` verifies the checksum on every read; a
corrupt file is quarantined and the lease treated as crashed, which
re-runs the job through the bounded-requeue path (read-repair).

Crash handling is slot-local exponential backoff: a slot whose workers
keep dying waits ``backoff_base * 2**(n-1)`` seconds before accepting
its next lease (``supervisor.restarts`` counts every restart), so a
poisonous job class cannot hot-loop the fork path while the breaker is
still counting its way open.  Process liveness is the heartbeat —
``Process.is_alive()`` is checked every poll, which is exactly the
signal a kernel-killed worker stops emitting.

Dispatch/wait/poll, driven by hand (the daemon's scheduler loop and
``repro batch`` do the same)::

    from pathlib import Path
    from repro.serve.requests import normalize_request
    from repro.serve.supervisor import Supervisor

    sup = Supervisor(workers=2, results_dir=Path("/tmp/ibox-results"))
    request = normalize_request(
        {"kind": "chaos", "params": {"fault": "sleep", "sleep_sec": 0.1}}
    )
    lease = sup.dispatch(request, lease=1)   # None when no slot is free
    assert lease is not None

    events = []
    while not events:                        # the heartbeat sweep
        sup.wait()                           # until the worker exits
        events = sup.poll()
    assert events[0].outcome == "completed"  # result file written
    assert sup.free_slots() == 2             # slot released
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serve.journal import record_crc_ok, seal_record
from repro.trace.io import PathLike

_log = obs.get_logger("repro.serve")

#: Envelope version for ``results/<job_id>.json`` files.  v2 wraps the
#: worker payload in ``{"v":2,"payload":{...},"crc":<crc32>}`` (same
#: canonical-JSON checksum as journal records).  Anything else on disk,
#: a bare unsealed payload included, reads back as corrupt.
RESULT_VERSION = 2


def _write_result(path: PathLike, payload: dict) -> None:
    """Durably write a result envelope: tmp + fsync + replace + dirsync.

    Mirrors the journal snapshot discipline — after this returns, the
    envelope either exists complete and checksummed at ``path`` or the
    old content is untouched; a crash can never leave a half-written
    result in place, and the rename itself survives power loss because
    the parent directory is fsync'd too.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        envelope = seal_record({"v": RESULT_VERSION, "payload": payload})
    except TypeError:
        payload = {**payload, "value": repr(payload.get("value"))}
        envelope = seal_record({"v": RESULT_VERSION, "payload": payload})
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(envelope, separators=(",", ":")))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_result(path: PathLike) -> Tuple[Optional[dict], str]:
    """Read and verify a result file: ``(payload, verdict)``.

    Verdicts: ``"valid"`` (payload returned, checksum verified),
    ``"missing"`` (no file), ``"corrupt"`` (undecodable, or the CRC did not match —
    the caller should quarantine and re-execute).
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, "missing"
    except UnicodeDecodeError:  # bit-rot can break the encoding itself
        return None, "corrupt"
    except OSError:
        return None, "corrupt"
    try:
        data = json.loads(raw)
    except json.JSONDecodeError:
        return None, "corrupt"
    if not isinstance(data, dict):
        return None, "corrupt"
    payload = data.get("payload")
    if not record_crc_ok(data) or not isinstance(payload, dict):
        return None, "corrupt"
    return payload, "valid"


def quarantine_result(path: PathLike) -> Optional[Path]:
    """Move a corrupt result file aside for post-mortem; None if gone."""
    path = Path(path)
    if not path.exists():
        return None
    qdir = path.parent / "quarantine"
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{path.name}.{suffix}"
    try:
        shutil.move(str(path), str(target))
    except FileNotFoundError:
        return None
    obs.metrics().counter("serve.results.quarantined").inc()
    _log.warning("result.quarantined", file=path.name, moved_to=str(target))
    return target


def _worker_entry(request: dict, result_path: str) -> None:
    """Child-process body: run the job, write the result, exit 0.

    Any exception becomes a structured ``failed`` result — only a
    process-level death (kill/OOM/``os._exit``) leaves no result file,
    which is how the supervisor tells crashes from failures.  A request
    carrying an ``obs`` trace context (``repro batch`` sends one when
    telemetry is on) runs under that trace, and the child's spans and
    metrics ride back in the result's ``telemetry`` key.
    """
    from repro.serve.requests import request_to_spec, resolve_worker

    # A forked child inherits the parent's obs state — including locks
    # the daemon's flusher/sampler threads may have held at fork time.
    # Reset to a fresh disabled state before touching any of it.
    obs.reset()
    # It also inherits the daemon's state-dir flock fd; give that back
    # immediately, or an orphaned worker outliving a SIGKILLed daemon
    # keeps the lock held and blocks fleet handoff of the dead shard.
    from repro.runtime.locks import release_inherited_locks

    release_inherited_locks()
    started = time.perf_counter()
    with obs.activate_context(request.get("obs")) as collected:
        try:
            spec = request_to_spec(request)
            worker = resolve_worker(spec.kind)
            with obs.span(
                "executor.job",
                job_id=spec.job_id,
                kind=spec.kind,
                label=spec.label,
                attempt=request.get("attempt"),
            ):
                value = worker(spec)
            payload = {
                "status": "ok",
                "job_id": request["job_id"],
                "value": value,
                "cache_hit": isinstance(value, dict) and bool(value.get("cache_hit")),
                "duration_sec": time.perf_counter() - started,
            }
        except BaseException as exc:  # noqa: BLE001 — capture is the contract
            payload = {
                "status": "failed",
                "job_id": request["job_id"],
                "error": {
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
                "duration_sec": time.perf_counter() - started,
            }
    telemetry = collected.telemetry() if collected is not None else None
    if telemetry is not None:
        payload["telemetry"] = telemetry
    _write_result(result_path, payload)


@dataclass
class Lease:
    """One running (or just-finished) worker process."""

    request: dict
    lease: int  # attempt number for this job
    process: multiprocessing.Process
    result_path: Path
    started_mono: float
    deadline_mono: Optional[float]

    @property
    def job_id(self) -> str:
        return self.request["job_id"]


@dataclass
class LeaseEvent:
    """What the poll sweep observed about one lease."""

    outcome: str  # "completed" | "failed" | "crashed" | "timeout"
    request: dict
    result: Optional[dict] = None
    exitcode: Optional[int] = None
    duration_sec: float = 0.0


@dataclass
class _Slot:
    lease: Optional[Lease] = None
    consecutive_crashes: int = 0
    available_at: float = 0.0  # monotonic; backoff gate after crashes


@dataclass
class Supervisor:
    """A fixed set of worker slots over a results directory."""

    workers: int
    results_dir: Path
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    _slots: List[_Slot] = field(default_factory=list)
    _ctx: Optional[multiprocessing.context.BaseContext] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.results_dir = Path(self.results_dir)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._slots = [_Slot() for _ in range(self.workers)]
        # fork keeps dispatch cheap where available; spawn elsewhere.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._ctx = multiprocessing.get_context(method)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def free_slots(self) -> int:
        now = time.monotonic()
        return sum(
            1
            for s in self._slots
            if s.lease is None and s.available_at <= now
        )

    @property
    def busy(self) -> int:
        return sum(1 for s in self._slots if s.lease is not None)

    def in_flight(self) -> List[Lease]:
        return [s.lease for s in self._slots if s.lease is not None]

    def result_path_for(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: dict, lease: int) -> Optional[Lease]:
        """Start a worker for ``request`` in a free slot, or None."""
        now = time.monotonic()
        slot = next(
            (
                s
                for s in self._slots
                if s.lease is None and s.available_at <= now
            ),
            None,
        )
        if slot is None:
            return None
        result_path = self.result_path_for(request["job_id"])
        result_path.unlink(missing_ok=True)  # a fresh lease, a fresh result
        process = self._ctx.Process(
            target=_worker_entry,
            args=(request, str(result_path)),
            daemon=True,
        )
        process.start()
        timeout = request.get("timeout_sec")
        slot.lease = Lease(
            request=request,
            lease=lease,
            process=process,
            result_path=result_path,
            started_mono=now,
            deadline_mono=None if timeout is None else now + float(timeout),
        )
        return slot.lease

    # ------------------------------------------------------------------
    # Heartbeat / reap sweep
    # ------------------------------------------------------------------
    def poll(self) -> List[LeaseEvent]:
        """Reap finished/overdue leases; one event per resolved lease."""
        events: List[LeaseEvent] = []
        now = time.monotonic()
        for slot in self._slots:
            lease = slot.lease
            if lease is None:
                continue
            if lease.process.is_alive():
                if (
                    lease.deadline_mono is not None
                    and now >= lease.deadline_mono
                ):
                    lease.process.kill()
                    lease.process.join(timeout=5.0)
                    events.append(
                        LeaseEvent(
                            outcome="timeout",
                            request=lease.request,
                            duration_sec=now - lease.started_mono,
                        )
                    )
                    self._release(slot, crashed=False)
                continue
            # Process exited: result file decides completed/failed/crash.
            lease.process.join()
            duration = now - lease.started_mono
            result = self._read_result(lease.result_path)
            if result is None:
                obs.metrics().counter("supervisor.restarts").inc()
                # A fresh lease can't legitimately leave a corrupt file
                # (the write is atomic) — if one is there anyway the
                # disk mangled it; keep the evidence, then re-run.
                quarantine_result(lease.result_path)
                events.append(
                    LeaseEvent(
                        outcome="crashed",
                        request=lease.request,
                        exitcode=lease.process.exitcode,
                        duration_sec=duration,
                    )
                )
                self._release(slot, crashed=True)
                continue
            outcome = "completed" if result.get("status") == "ok" else "failed"
            events.append(
                LeaseEvent(
                    outcome=outcome,
                    request=lease.request,
                    result=result,
                    exitcode=lease.process.exitcode,
                    duration_sec=float(result.get("duration_sec", duration)),
                )
            )
            self._release(slot, crashed=False)
        return events

    def wait(
        self, timeout: Optional[float] = None, extra: Sequence[Any] = ()
    ) -> List[Any]:
        """Block until a worker exits, a lease deadline or slot backoff
        comes due, an ``extra`` waitable is ready, or ``timeout`` passes;
        returns the ready ``extra`` objects.  With nothing to wait for it
        returns at once."""
        now = time.monotonic()
        leases = self.in_flight()
        times = [lease.deadline_mono for lease in leases
                 if lease.deadline_mono is not None]
        times += [s.available_at for s in self._slots
                  if s.lease is None and s.available_at > now]
        if timeout is not None:
            times.append(now + timeout)
        sentinels = [lease.process.sentinel for lease in leases]
        if not (sentinels or extra or times):
            return []
        ready = wait(sentinels + list(extra),
                     max(0.0, min(times) - now) if times else None)
        for lease in leases:
            if lease.process.sentinel in ready:
                # The pipe closes just before the child can be reaped;
                # wait that out rather than spin on it.
                lease.process.join(1.0)
        return [obj for obj in extra if obj in ready]

    @staticmethod
    def _read_result(path: Path) -> Optional[dict]:
        """Checksum-verified read; corrupt counts the same as missing
        (both resolve the lease as a crash, which re-runs the job)."""
        payload, verdict = read_result(path)
        if verdict == "corrupt":
            obs.metrics().counter("serve.results.corrupt").inc()
            _log.warning("result.corrupt_on_reap", file=path.name)
        return payload

    def _release(self, slot: _Slot, crashed: bool) -> None:
        lease = slot.lease
        slot.lease = None
        if not crashed:
            slot.consecutive_crashes = 0
            slot.available_at = 0.0
            return
        slot.consecutive_crashes += 1
        delay = min(
            self.backoff_max,
            self.backoff_base * (2 ** (slot.consecutive_crashes - 1)),
        )
        slot.available_at = time.monotonic() + delay
        _log.warning(
            "supervisor.worker_crashed",
            job_id=lease.job_id if lease else None,
            exitcode=lease.process.exitcode if lease else None,
            restart_backoff_sec=round(delay, 3),
            consecutive_crashes=slot.consecutive_crashes,
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def kill_all(self) -> List[Lease]:
        """Kill every in-flight worker (drain timeout); returns leases."""
        killed: List[Lease] = []
        for slot in self._slots:
            if slot.lease is None:
                continue
            if slot.lease.process.is_alive():
                slot.lease.process.kill()
            slot.lease.process.join(timeout=5.0)
            killed.append(slot.lease)
            slot.lease = None
        return killed
