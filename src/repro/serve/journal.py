"""Durable append-only job journal (the serve daemon's WAL).

Every admission decision and lease transition is one fsync'd JSONL
record, so the journal is the single source of truth for "what did the
service promise and what actually happened".  After a SIGKILL the
daemon replays the journal and requeues every job whose lease was
orphaned; a job with a ``completed`` record is never run again, which
is what makes the service's contract *at-least-once execution with
exactly-once completion accounting* (effects are idempotent via
content-hashed job ids and the profile cache).

Record grammar (``v`` 2), one JSON object per line::

    {"v":2,"type":"submitted","job_id":...,"request":{...},"ts":...,"crc":...}
    {"v":2,"type":"leased",   "job_id":...,"lease":n,"pid":...,"crc":...}
    {"v":2,"type":"completed","job_id":...,"duration_sec":...,"cache_hit":...}
    {"v":2,"type":"failed",   "job_id":...,"error":{...}}
    {"v":2,"type":"rejected", "job_id":...,"reason":...,"retry_after_sec":...}
    {"v":2,"type":"requeued", "job_id":...,"reason":...}
    {"v":2,"type":"job", ...}         # compaction snapshot of one job

Every record carries a ``crc`` field: the CRC32 of the record's
canonical JSON (sorted keys, compact separators, ``crc`` itself
excluded) — see :func:`seal_record` / :func:`record_crc_ok`.  A record
without a ``crc`` (whatever its ``v``) is corrupt: no writer emits one.
A record whose checksum verifies is applied even when its version is
newer than this writer knows (forward compat: preserved, not dropped).

Durability model: the active segment is ``wal.jsonl``; when it exceeds
``max_segment_bytes`` it rotates to ``wal-<seq>.jsonl``, and once
``compact_after_segments`` rotated segments pile up the whole history
is compacted into one snapshot (``job`` records) written atomically
(tmp + fsync + ``os.replace``).

Replay distinguishes two kinds of bad line (DESIGN.md §15):

* **Torn tail** — an unparsable *final* line of the *final* segment
  with no trailing newline: the expected artifact of a SIGKILL landing
  mid-append.  Counted in ``torn_records``, truncated away on open,
  and otherwise benign.
* **Mid-file corruption** — an undecodable line anywhere else, or a
  parseable record whose CRC does not match: bit-rot or tampering.
  Counted in ``corrupt_records``, attributed to the record's claimed
  job (``suspect_jobs``) when one is legible, and surfaced by the
  writer as a quarantined copy of the segment plus the
  ``serve.journal.corrupt_records`` metric.  The corrupt record is
  *not* applied — so a bit-rotted ``completed`` record regresses its
  job to the last good (non-terminal) state and the daemon re-verifies
  or re-runs it rather than trusting a checksum-failed completion.

Fleet handoff rides the same grammar: when a shard dies, the router
appends ``rejected`` records with reason ``moved:<target-shard>`` to the
dead shard's journal before resubmitting the jobs elsewhere, so a
restart of the dead shard replays them as terminal and never re-runs a
job another shard now owns; unlike ordinary rejections, a moved job
answers ``duplicate`` if resubmitted to this shard (see DESIGN.md §13).

Usage — write a journal, crash, replay it::

    from repro.serve.journal import JobJournal

    journal = JobJournal("state/journal", fsync=False)
    journal.submitted({"job_id": "j1", "kind": "chaos", "params": {}})
    journal.leased("j1", lease=1, pid=1234)
    # ... SIGKILL here loses nothing already appended ...
    state = JobJournal.read_state("state/journal")
    assert [j.request["job_id"] for j in state.to_requeue()] == ["j1"]
    journal.completed("j1", duration_sec=0.2)
    assert journal.state.jobs["j1"].status == "completed"
    journal.close()
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro import obs
from repro.trace.io import PathLike

_log = obs.get_logger("repro.serve")

JOURNAL_VERSION = 2

#: Subdirectory (of the journal root) where corrupt segments are copied
#: for post-mortem before replay continues without their bad records.
QUARANTINE_DIR = "quarantine"


def _canonical_crc(record: dict) -> int:
    """CRC32 over the canonical JSON of ``record`` minus its ``crc`` key.

    Canonical form (sorted keys, compact separators, ascii escapes) is
    what makes the checksum recomputable from a *parsed* record — the
    original byte layout on disk does not matter.
    """
    body = {k: v for k, v in record.items() if k != "crc"}
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def seal_record(record: dict) -> dict:
    """Return ``record`` with its integrity ``crc`` field (re)computed."""
    sealed = {k: v for k, v in record.items() if k != "crc"}
    sealed["crc"] = _canonical_crc(sealed)
    return sealed


def record_crc_ok(record: dict) -> bool:
    """True iff ``record`` carries a ``crc`` that matches its content."""
    crc = record.get("crc")
    return isinstance(crc, int) and crc == _canonical_crc(record)

#: States a job can be in after replay.  ``pending`` and ``leased`` are
#: the non-terminal ones — exactly the set :meth:`JournalState.to_requeue`
#: hands back to the daemon after a crash.
TERMINAL = ("completed", "failed", "rejected")

#: Rejection-reason prefix marking a job handed off to another shard.
#: ``rejected`` is terminal on replay, which is exactly what handoff
#: needs: the dead shard, once restarted, will never requeue the job.
MOVED_PREFIX = "moved:"


@dataclass
class JobRecord:
    """Replayed state of one job."""

    request: dict
    status: str = "pending"  # pending | leased | completed | failed | rejected
    attempts: int = 0  # number of leases granted
    completions: int = 0  # completed records seen (must end up <= 1)
    duration_sec: float = 0.0
    cache_hit: bool = False
    error: Optional[dict] = None
    reason: Optional[str] = None
    order: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    @property
    def moved_target(self) -> Optional[str]:
        """The shard this job was handed off to, if it was moved."""
        if self.status == "rejected" and (self.reason or "").startswith(
            MOVED_PREFIX
        ):
            return self.reason[len(MOVED_PREFIX):]
        return None

    def snapshot(self) -> dict:
        """The compaction record that reconstructs this state exactly."""
        return {
            "v": JOURNAL_VERSION,
            "type": "job",
            "job_id": self.request["job_id"],
            "request": self.request,
            "status": self.status,
            "attempts": self.attempts,
            "completions": self.completions,
            "duration_sec": self.duration_sec,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "reason": self.reason,
        }

    def manifest_row(self) -> dict:
        """This job as a run-manifest row (status must be ok|failed)."""
        if self.status == "completed":
            status, error = "ok", None
        elif self.status == "failed":
            status, error = "failed", self.error
        elif self.status == "rejected":
            status = "failed"
            error = {
                "error_type": "Rejected",
                "message": self.reason or "rejected",
                "traceback": "",
            }
        else:  # pending/leased at drain time: recoverable, not lost
            status = "failed"
            error = {
                "error_type": "Drained",
                "message": "service drained before this job ran; "
                "it remains pending in the journal",
                "traceback": "",
            }
        return {
            "job_id": self.request["job_id"],
            "kind": self.request.get("kind"),
            "label": self.request.get("label"),
            "status": status,
            "attempts": self.attempts,
            "duration_sec": round(self.duration_sec, 6),
            "cache_hit": self.cache_hit,
            "resumed": False,
            "error": error,
        }


@dataclass
class JournalState:
    """Everything replay can tell us about the journal's jobs."""

    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    torn_records: int = 0
    duplicate_submits: int = 0
    #: Mid-file corruption: undecodable non-tail lines plus records whose
    #: CRC failed verification.  Each one is a record replay *refused* to
    #: apply (unlike torn_records, which are expected SIGKILL artifacts).
    corrupt_records: int = 0
    #: Segment file names in which corruption was seen, replay order.
    corrupt_segments: List[str] = field(default_factory=list)
    #: Jobs named by a corrupt record (when the job_id was legible).
    #: Their replayed state may be missing a transition, so the daemon
    #: re-verifies them on recovery instead of trusting it — in
    #: particular a "completed" suspect is only believed if its result
    #: artifact's checksum holds (see ServeDaemon._recover).
    suspect_jobs: Set[str] = field(default_factory=set)

    def in_order(self) -> List[JobRecord]:
        return sorted(self.jobs.values(), key=lambda j: j.order)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            "total": len(self.jobs),
            "pending": 0,
            "leased": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
        }
        for job in self.jobs.values():
            out[job.status] = out.get(job.status, 0) + 1
        return out

    def to_requeue(self) -> List[JobRecord]:
        """Non-terminal jobs, in submit order — the crash-recovery set."""
        return [j for j in self.in_order() if not j.terminal]

    def moved_out(self) -> Dict[str, JobRecord]:
        """Jobs this journal handed off to another shard, by job id.

        The fleet's start-up recovery scan cross-references these
        against every *other* shard's journal: a moved job that never
        arrived anywhere (the router died between the ``moved`` append
        and the resubmission) is resubmitted to its current owner.
        """
        return {
            job_id: job
            for job_id, job in self.jobs.items()
            if job.moved_target is not None
        }

    def apply(self, record: dict) -> None:
        rtype = record.get("type")
        job_id = record.get("job_id")
        if not job_id:
            return
        if rtype == "job":  # compaction snapshot: absolute, replaces
            self.jobs[job_id] = JobRecord(
                request=record.get("request") or {"job_id": job_id},
                status=record.get("status", "pending"),
                attempts=int(record.get("attempts", 0)),
                completions=int(record.get("completions", 0)),
                duration_sec=float(record.get("duration_sec", 0.0)),
                cache_hit=bool(record.get("cache_hit")),
                error=record.get("error"),
                reason=record.get("reason"),
                order=len(self.jobs),
            )
            return
        if rtype == "submitted":
            if job_id in self.jobs:
                self.duplicate_submits += 1
                return
            self.jobs[job_id] = JobRecord(
                request=record.get("request") or {"job_id": job_id},
                order=len(self.jobs),
            )
            return
        job = self.jobs.get(job_id)
        if job is None:
            # A transition without a submit (lost to compaction bug or
            # manual edit): synthesise a stub so accounting stays total.
            job = JobRecord(request={"job_id": job_id}, order=len(self.jobs))
            self.jobs[job_id] = job
        if rtype == "leased":
            job.attempts += 1
            if not job.terminal:
                job.status = "leased"
        elif rtype == "completed":
            job.status = "completed"
            job.completions += 1
            job.duration_sec = float(record.get("duration_sec", 0.0))
            job.cache_hit = bool(record.get("cache_hit"))
        elif rtype == "failed":
            job.status = "failed"
            job.error = record.get("error")
        elif rtype == "rejected":
            job.status = "rejected"
            job.reason = record.get("reason")
        elif rtype == "requeued":
            # Reverts a lease (crash/drain requeue) and also a
            # *rejection* (a shed or circuit-opened job being
            # resubmitted once there is room again); a job that
            # actually ran to completed/failed is immutable — with one
            # exception: a ``result_corrupt*`` requeue is read-repair
            # (DESIGN.md §15) voiding a completion whose result artifact
            # failed its checksum, so the re-execution that follows does
            # not count as a double completion.
            reason = record.get("reason") or ""
            if job.status == "completed" and reason.startswith("result_corrupt"):
                job.status = "pending"
                job.reason = None
                job.completions = max(job.completions - 1, 0)
            elif job.status not in ("completed", "failed"):
                job.status = "pending"
                job.reason = None


class JobJournal:
    """Writer + replayer for one journal directory.

    The daemon owns exactly one instance (guarded by its state-dir
    lock); read-only observers (``repro serve status``, the chaos
    campaign) use :meth:`read_state` and never touch the files.

    Appends arrive from more than one thread — socket-intake threads
    journal admissions while the main loop journals lease transitions —
    so every write path (append/rotate/compact/flush/close) serialises
    on one internal lock: records never interleave mid-line, and a
    rotation triggered by one thread can't close the handle under
    another thread's append.
    """

    ACTIVE = "wal.jsonl"

    def __init__(
        self,
        root: PathLike,
        fsync: bool = True,
        max_segment_bytes: int = 1 << 20,
        compact_after_segments: int = 4,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.max_segment_bytes = max_segment_bytes
        self.compact_after_segments = compact_after_segments
        self.state = JournalState()
        self._fh = None
        #: Wall-clock time of the most recent durable append (None until
        #: the first one); the live snapshot reports ``now - this`` as
        #: journal lag.
        self.last_append_ts: Optional[float] = None
        #: Records appended by *this* writer (not counting replay).
        self.appended_records = 0
        # Reentrant: append() -> rotate() -> compact() nest on the
        # same thread.
        self._lock = threading.RLock()
        self._replay_existing()
        self._open_active()

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    @property
    def active_path(self) -> Path:
        return self.root / self.ACTIVE

    def _rotated(self) -> List[Path]:
        return sorted(self.root.glob("wal-*.jsonl"))

    def segments(self) -> List[Path]:
        paths = self._rotated()
        if self.active_path.exists():
            paths.append(self.active_path)
        return paths

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @staticmethod
    def _replay_file(
        path: Path, state: JournalState, final_segment: bool = False
    ) -> None:
        """Replay one segment, classifying bad lines torn vs corrupt.

        Only an unparsable *final* line of the *final* segment that is
        missing its trailing newline is a torn tail (the artifact a
        SIGKILL mid-append is expected to leave); every other bad line —
        mid-file garbage, a complete line that fails to parse, or a
        parseable record whose CRC does not verify — is mid-file
        corruption.  Corrupt records are counted, attributed to their
        claimed job when legible, and *not* applied.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        text = data.decode("utf-8", errors="replace")
        lines = text.splitlines()
        last_index = -1
        for index in range(len(lines) - 1, -1, -1):
            if lines[index].strip():
                last_index = index
                break
        torn_candidate = (
            final_segment and bool(data) and not data.endswith(b"\n")
        )
        had_corruption = False

        def _bad(index: int, record: Optional[dict]) -> None:
            nonlocal had_corruption
            if torn_candidate and index == last_index:
                state.torn_records += 1
                return
            state.corrupt_records += 1
            had_corruption = True
            if record is not None:
                job_id = record.get("job_id")
                if isinstance(job_id, str) and job_id:
                    state.suspect_jobs.add(job_id)

        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                _bad(index, None)
                continue
            if not isinstance(record, dict):
                _bad(index, None)
                continue
            if not record_crc_ok(record):
                _bad(index, record)
                continue
            # Checksum holds: apply even if the version is newer than
            # this reader (forward compat — never drop a verified record).
            state.apply(record)
        if had_corruption and path.name not in state.corrupt_segments:
            state.corrupt_segments.append(path.name)

    @classmethod
    def read_state(cls, root: PathLike) -> JournalState:
        """Replay a journal directory without opening it for writing."""
        root = Path(root)
        state = JournalState()
        paths = sorted(root.glob("wal-*.jsonl"))
        active = root / cls.ACTIVE
        if active.exists():
            paths.append(active)
        for index, path in enumerate(paths):
            cls._replay_file(path, state, final_segment=index == len(paths) - 1)
        return state

    def _replay_existing(self) -> None:
        paths = self.segments()
        for index, path in enumerate(paths):
            self._replay_file(
                path, self.state, final_segment=index == len(paths) - 1
            )
        if self.state.torn_records:
            obs.metrics().counter("serve.torn_records").inc(
                self.state.torn_records
            )
            _log.warning(
                "journal.torn_records",
                count=self.state.torn_records,
                root=str(self.root),
            )
        if self.state.corrupt_records:
            quarantined = [
                str(self.quarantine_segment(self.root / name))
                for name in self.state.corrupt_segments
            ]
            obs.metrics().counter("serve.journal.corrupt_records").inc(
                self.state.corrupt_records
            )
            _log.warning(
                "journal.corrupt_records",
                count=self.state.corrupt_records,
                segments=self.state.corrupt_segments,
                suspect_jobs=sorted(self.state.suspect_jobs),
                quarantined=quarantined,
                root=str(self.root),
            )

    def quarantine_segment(self, path: Path) -> Path:
        """Copy a damaged segment into ``quarantine/`` for post-mortem.

        A *copy*, not a move: the live journal keeps rotating and
        compacting over the original (whose good records are still
        load-bearing), while the quarantined snapshot preserves the
        corrupt bytes for the operator (OPERATIONS.md §6).
        """
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{path.name}.{suffix}"
        shutil.copy2(path, target)
        return target

    def _open_active(self) -> None:
        # Truncate a torn tail (a record a SIGKILL cut mid-write) so new
        # appends never concatenate onto half a line.
        path = self.active_path
        if path.exists():
            data = path.read_bytes()
            if data and not data.endswith(b"\n"):
                cut = data.rfind(b"\n") + 1
                with open(path, "r+b") as fh:
                    fh.truncate(cut)
        self._fh = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is closed")
            record = seal_record(
                {"v": JOURNAL_VERSION, "ts": round(time.time(), 3), **record}
            )
            # Write-ahead for real: the in-memory state is updated only
            # once the record is durably on disk, so an OSError (disk
            # full, I/O fault) leaves memory consistent with the WAL
            # and the caller free to shed instead of diverging.
            self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self.state.apply(record)
            self.last_append_ts = time.time()
            self.appended_records += 1
            if self._fh.tell() >= self.max_segment_bytes:
                self.rotate()

    # Typed appenders -- the daemon's vocabulary.
    def submitted(self, request: dict) -> None:
        self.append(
            {"type": "submitted", "job_id": request["job_id"], "request": request}
        )

    def leased(self, job_id: str, lease: int, pid: Optional[int] = None) -> None:
        self.append(
            {"type": "leased", "job_id": job_id, "lease": lease, "pid": pid}
        )

    def completed(
        self, job_id: str, duration_sec: float = 0.0, cache_hit: bool = False
    ) -> None:
        self.append(
            {
                "type": "completed",
                "job_id": job_id,
                "duration_sec": round(duration_sec, 6),
                "cache_hit": cache_hit,
            }
        )

    def failed(self, job_id: str, error: dict) -> None:
        self.append({"type": "failed", "job_id": job_id, "error": error})

    def rejected(
        self,
        job_id: str,
        reason: str,
        retry_after_sec: Optional[float] = None,
    ) -> None:
        self.append(
            {
                "type": "rejected",
                "job_id": job_id,
                "reason": reason,
                "retry_after_sec": retry_after_sec,
            }
        )

    def requeued(self, job_id: str, reason: str) -> None:
        self.append({"type": "requeued", "job_id": job_id, "reason": reason})

    def moved(self, job_id: str, target: str) -> None:
        """Hand ``job_id`` off to ``target`` (a terminal record here).

        Appended to a *dead* shard's journal by the fleet router while
        it holds that shard's state-dir lock; ordering matters — the
        move is journaled before the job is resubmitted elsewhere, so a
        crash between the two steps leaves a journal trail from which
        the handoff can be completed (never a duplicate execution).
        """
        self.append(
            {"type": "rejected", "job_id": job_id, "reason": f"{MOVED_PREFIX}{target}"}
        )

    # ------------------------------------------------------------------
    # Rotation / compaction
    # ------------------------------------------------------------------
    def rotate(self) -> Path:
        """Seal the active segment and start a new one."""
        with self._lock:
            self._fh.close()
            seq = len(self._rotated()) + 1
            target = self.root / f"wal-{seq:06d}.jsonl"
            while target.exists():  # pragma: no cover - defensive
                seq += 1
                target = self.root / f"wal-{seq:06d}.jsonl"
            os.replace(self.active_path, target)
            self._fh = open(self.active_path, "a", encoding="utf-8")
            _log.info("journal.rotated", segment=target.name)
            if len(self._rotated()) >= self.compact_after_segments:
                self.compact()
            return target

    def compact(self) -> None:
        """Fold the whole history into one snapshot segment.

        The snapshot is written to a tmp file, fsync'd, and atomically
        swapped in as the new active segment before the old segments are
        removed — a crash at any point leaves a replayable journal
        (``job`` records are absolute, so replaying stale segments
        before the snapshot is harmless).
        """
        with self._lock:
            self._fh.close()
            tmp = self.root / f"{self.ACTIVE}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                for job in self.state.in_order():
                    fh.write(
                        json.dumps(
                            seal_record(job.snapshot()), separators=(",", ":")
                        )
                        + "\n"
                    )
                fh.flush()
                os.fsync(fh.fileno())
            old = self._rotated()
            os.replace(tmp, self.active_path)
            for path in old:
                path.unlink(missing_ok=True)
            self._fh = open(self.active_path, "a", encoding="utf-8")
        obs.metrics().counter("serve.compactions").inc()
        _log.info(
            "journal.compacted", jobs=len(self.state.jobs), segments=len(old)
        )

    # ------------------------------------------------------------------
    def reopen(self) -> None:
        """Drop and reopen the write handle on the active segment.

        A failed flush (disk full, I/O error) can leave part of a
        record in the userspace buffer — or part of its bytes on disk.
        Reopening discards the buffer and truncates any torn tail, so
        the next append starts on a clean line.  The daemon calls this
        when its disk-full probe clears.
        """
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = None
            self._open_active()

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self.flush()
                self._fh.close()
                self._fh = None
