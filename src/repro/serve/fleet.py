"""Fleet manager: spawn, route to, supervise, and roll up N shard daemons.

``repro serve fleet --shards N`` turns the single-daemon service of
DESIGN.md §10 into a horizontally sharded one without changing any shard
invariant.  The manager:

* spawns N ordinary ``repro serve run`` daemons, each with its own state
  dir ``<state>/shard-<i>`` (own WAL journal, supervisor, breaker, live
  snapshot) and its own unix socket — shards never share files, so the
  single-writer lock discipline is untouched;
* listens on one public endpoint — default unix socket
  ``<state>/fleet.sock``; ``--bind tcp:<host>:<port>`` for cross-node
  fleets (the bound endpoint is published in ``<state>/fleet.endpoint``)
  — via :class:`repro.serve.router.FleetRouter`, consistent-hashing each
  ``job_id`` across the *live* shards.  The router answers on its own
  connection threads, so supervision (a sweep that replays a dead
  shard's journal, fsyncs, waits on a killed process) never delays a
  request;
* supervises the shards: a dead process (or a shard the router fails to
  reach) is marked dead, its ring points are removed, its orphaned
  admitted-but-incomplete jobs are handed off to the surviving shards,
  and the shard is respawned with backoff and re-admitted to the ring
  once its readiness marker reappears.

Handoff is the only cross-shard write, and it is journal-first: while
holding the dead shard's state-dir lock the manager appends a terminal
``moved:<target>`` record for every orphan *before* resubmitting it, so
the restarted shard will not re-run the job and a manager crash between
the two steps is recovered by :meth:`FleetManager._recover_moved` at the
next fleet start (see DESIGN.md §13 for the invariant argument).

Usage — run a fleet and talk to it::

    from repro.serve import FleetConfig, FleetManager, submit_via_socket

    config = FleetConfig(state_dir="fleet-state", shards=3)
    manager = FleetManager(config)          # manager.run() blocks; or:
    # $ repro serve fleet --state fleet-state --shards 3 &
    responses = submit_via_socket(
        "fleet-state/fleet.sock",
        [{"kind": "chaos", "params": {"fault": "sleep", "seconds": 0.1}}],
    )
    print(responses[0]["status"], "on", responses[0]["shard"])

Offline inspection works on the state dir alone (live or dead fleet)::

    from repro.serve import fleet_status, format_fleet_status
    print(format_fleet_status(fleet_status("fleet-state")))
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import get_logger, metrics
from repro.obs.summarize import merge_metrics_files
from repro.runtime.locks import ProcessLock
from repro.serve.client import read_live_snapshot, serve_status
from repro.serve.daemon import ENDPOINT_FILE
from repro.serve.journal import JobJournal
from repro.serve.router import DEFAULT_REPLICAS, FleetRouter, HashRing
from repro.serve.transport import Endpoint, parse_endpoint
from repro.trace.io import PathLike

log = get_logger("repro.serve.fleet")

FLEET_META = "fleet.json"
FLEET_PID = "fleet.pid"
FLEET_SOCKET = "fleet.sock"
#: File naming the router's actually-bound public endpoint (the TCP
#: port of a ``tcp:...:0`` bind is only known after listen).
FLEET_ENDPOINT = "fleet.endpoint"

#: Fleet-wide job status precedence for cross-shard dedupe: a job that
#: completed anywhere is completed, regardless of ``moved`` tombstones
#: or stale pending records elsewhere.
STATUS_PRECEDENCE = ("completed", "failed", "leased", "pending", "rejected")


def shard_name(index: int) -> str:
    return f"shard-{index}"


@dataclass
class FleetConfig:
    """Everything ``repro serve fleet`` needs to run a shard fleet."""

    state_dir: Path
    shards: int = 3
    socket_path: Optional[Path] = None  # default: <state>/fleet.sock
    #: Public endpoint spec for the router: ``unix:<path>`` or
    #: ``tcp:<host>:<port>`` (``tcp:...:0`` = ephemeral port, published
    #: in ``<state>/fleet.endpoint``).  When the fleet binds TCP the
    #: shards do too (each on ``tcp:127.0.0.1:0``, discovered through
    #: their ``serve.endpoint`` files) — this is the cross-node shape:
    #: only the transport layer changes.  Mutually exclusive with
    #: ``socket_path``.
    bind: Optional[str] = None
    workers_per_shard: int = 2
    queue_limit: int = 64
    default_timeout_sec: Optional[float] = None
    drain_timeout_sec: float = 15.0
    supervise_interval_sec: float = 0.25
    heartbeat_timeout_sec: float = 10.0
    #: Consecutive supervision sweeps a shard may stay router-suspect
    #: (forwarding to it keeps failing while its process is alive)
    #: before the manager presumes it wedged and SIGKILLs it into the
    #: normal dead-shard handoff/respawn path.
    suspect_sweep_limit: int = 4
    restart_backoff_sec: float = 0.5
    restart_backoff_max_sec: float = 10.0
    start_timeout_sec: float = 30.0
    snapshot_interval_sec: float = 1.0
    max_runtime_sec: Optional[float] = None
    fsync: bool = True
    ring_replicas: int = DEFAULT_REPLICAS

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        if self.shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if self.socket_path is not None and self.bind is not None:
            raise ValueError("pass either socket_path or bind, not both")
        if self.bind is not None:
            self.endpoint: Endpoint = parse_endpoint(self.bind)
        elif self.socket_path is not None:
            self.socket_path = Path(self.socket_path)
            self.endpoint = parse_endpoint(self.socket_path)
        else:
            self.endpoint = parse_endpoint(self.state_dir / FLEET_SOCKET)
        if self.endpoint.scheme == "unix":
            self.socket_path = self.endpoint.path

    def shard_state_dir(self, index: int) -> Path:
        return self.state_dir / shard_name(index)

    def shard_bind(self, index: int) -> str:
        """The ``--bind`` spec each shard daemon is spawned with."""
        if self.endpoint.scheme == "tcp":
            # Ephemeral loopback port; the manager learns the real one
            # from the shard's serve.endpoint file at readiness.
            return "tcp:127.0.0.1:0"
        return f"unix:{self.shard_state_dir(index) / 'serve.sock'}"


@dataclass
class ShardHandle:
    """One shard daemon as the manager sees it."""

    name: str
    index: int
    state_dir: Path
    process: Optional[subprocess.Popen] = None
    status: str = "starting"  # starting | live | dead
    restarts: int = 0
    needs_handoff: bool = False
    next_restart_at: float = 0.0  # monotonic clock
    last_exit: Optional[int] = None
    #: Consecutive sweeps the router has reported this shard unreachable.
    suspect_sweeps: int = 0
    #: Monotonic time this shard last became live; gives a respawned
    #: shard a grace window before its (possibly stale, pre-restart)
    #: snapshot can trip the heartbeat check.
    live_since: float = 0.0

    @property
    def socket_path(self) -> Path:
        return self.state_dir / "serve.sock"

    @property
    def pid_path(self) -> Path:
        return self.state_dir / "serve.pid"

    @property
    def endpoint_path(self) -> Path:
        return self.state_dir / ENDPOINT_FILE

    def endpoint(self) -> Optional[Endpoint]:
        """The shard's published intake endpoint (unix path or the TCP
        host:port the kernel actually assigned), or None pre-readiness."""
        try:
            return parse_endpoint(self.endpoint_path.read_text().strip())
        except (FileNotFoundError, ValueError, OSError):
            return None

    def process_alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def ready(self) -> bool:
        """Daemon wrote its pid marker (post signal-handler install) and
        published its bound endpoint."""
        if not self.process_alive():
            return False
        try:
            pid = int(self.pid_path.read_text().strip())
        except (FileNotFoundError, ValueError, OSError):
            return False
        return pid == self.process.pid and self.endpoint() is not None


class FleetManager:
    """Spawns and supervises the shard fleet behind one router socket.

    One instance per fleet state dir; :meth:`run` blocks until SIGTERM /
    SIGINT (or ``max_runtime_sec``) and returns an exit code, mirroring
    :meth:`repro.serve.daemon.ServeDaemon.run`.
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.state_dir = config.state_dir
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.shards: List[ShardHandle] = [
            ShardHandle(
                name=shard_name(i),
                index=i,
                state_dir=config.shard_state_dir(i),
            )
            for i in range(config.shards)
        ]
        self._by_name = {s.name: s for s in self.shards}
        self._ring = HashRing([], config.ring_replicas)
        #: Guards every write to ``_pending_handoffs``/``_lost_handoffs``
        #: (the supervision loop) against the copies ``_fleet_section``
        #: takes on router threads.
        self._handoff_lock = threading.Lock()
        self._pending_handoffs: Dict[str, Dict[str, Any]] = {}
        #: Handed-off jobs the fleet could not deliver anywhere, by
        #: job_id — kept (with the verbatim request) and surfaced in
        #: health/stats so operators can detect and replay them.
        self._lost_handoffs: Dict[str, Dict[str, Any]] = {}
        #: Shards the router failed to reach since the last sweep;
        #: router threads add, :meth:`_sweep` takes the set by swap.
        self._suspect: set = set()
        self._stop_signal: Optional[int] = None
        self._started_at = time.time()
        self.router = FleetRouter(
            config.endpoint,
            owner_of=self._owner_of,
            control=self._control,
            shards=self._live_shards,
            on_shard_error=self._note_suspect,
            default_timeout_sec=config.default_timeout_sec,
        )

    # ------------------------------------------------------------------
    # Ring / routing callbacks
    # ------------------------------------------------------------------
    def _rebuild_ring(self) -> None:
        live = [s.name for s in self.shards if s.status == "live"]
        self._ring = HashRing(live, self.config.ring_replicas)
        metrics().gauge("serve.fleet.live_shards").set(len(live))

    def _owner_of(self, job_id: str) -> Optional[Tuple[str, Endpoint]]:
        if len(self._ring) == 0:
            return None
        name = self._ring.owner(job_id)
        endpoint = self._by_name[name].endpoint()
        if endpoint is None:  # ring admission raced an endpoint unlink
            return None
        return name, endpoint

    def _live_shards(self) -> List[Tuple[str, Endpoint]]:
        """Every live shard with a published endpoint — the router's
        fan-out set for ``fetch`` when the hashed owner misses."""
        out: List[Tuple[str, Endpoint]] = []
        for shard in self.shards:
            if shard.status != "live":
                continue
            endpoint = shard.endpoint()
            if endpoint is not None:
                out.append((shard.name, endpoint))
        return out

    def _note_suspect(self, name: str) -> None:
        """Router-side forwarding failure: check this shard next sweep."""
        self._suspect.add(name)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _shard_argv(self, shard: ShardHandle) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "run",
            "--state",
            str(shard.state_dir),
            "--bind",
            config.shard_bind(shard.index),
            "--workers",
            str(config.workers_per_shard),
            "--queue-limit",
            str(config.queue_limit),
            "--drain-timeout",
            str(config.drain_timeout_sec),
            "--snapshot-interval",
            str(config.snapshot_interval_sec),
        ]
        if config.default_timeout_sec is not None:
            argv += ["--default-timeout", str(config.default_timeout_sec)]
        if config.max_runtime_sec is not None:
            # Shards outlive the drill watchdog slightly so the fleet
            # always drains them first.
            argv += ["--max-runtime-sec", str(config.max_runtime_sec + 30)]
        if not config.fsync:
            argv.append("--no-fsync")
        return argv

    def _spawn(self, shard: ShardHandle) -> None:
        import repro

        shard.state_dir.mkdir(parents=True, exist_ok=True)
        # Stale pid/endpoint markers from a SIGKILLed run would
        # otherwise make the shard look ready (and routable) before the
        # new daemon is — worse for tcp binds, where the old port is gone.
        shard.pid_path.unlink(missing_ok=True)
        shard.endpoint_path.unlink(missing_ok=True)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        log_dir = self.state_dir / "logs"
        log_dir.mkdir(exist_ok=True)
        log_file = open(log_dir / f"{shard.name}.log", "a")
        shard.process = subprocess.Popen(
            self._shard_argv(shard),
            stdout=log_file,
            stderr=subprocess.STDOUT,
            env=env,
        )
        log_file.close()
        shard.status = "starting"
        shard.suspect_sweeps = 0
        log.info("fleet.shard_spawned", shard=shard.name, pid=shard.process.pid)

    # ------------------------------------------------------------------
    # Start-up
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard, wait for readiness, recover half-handoffs."""
        self._check_not_running()
        self._write_meta()
        for shard in self.shards:
            self._spawn(shard)
        deadline = time.monotonic() + self.config.start_timeout_sec
        while time.monotonic() < deadline:
            for shard in self.shards:
                if shard.status == "starting" and shard.ready():
                    shard.status = "live"
                    shard.live_since = time.monotonic()
            if all(s.status == "live" for s in self.shards):
                break
            dead = [s for s in self.shards if not s.process_alive()]
            if dead:
                raise RuntimeError(
                    f"shard {dead[0].name} exited during fleet start "
                    f"(rc={dead[0].process.returncode}); "
                    f"see {self.state_dir / 'logs' / (dead[0].name + '.log')}"
                )
            time.sleep(0.05)
        not_ready = [s.name for s in self.shards if s.status != "live"]
        if not_ready:
            raise RuntimeError(f"shards never became ready: {not_ready}")
        self._rebuild_ring()
        self._recover_moved()
        log.info(
            "fleet.started",
            shards=len(self.shards),
            endpoint=self.config.endpoint.describe(),
            recovering=len(self._pending_handoffs),
        )

    def _check_not_running(self) -> None:
        pid_path = self.state_dir / FLEET_PID
        try:
            pid = int(pid_path.read_text().strip())
        except (FileNotFoundError, ValueError, OSError):
            return
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            pid_path.unlink(missing_ok=True)
            return
        raise RuntimeError(
            f"another fleet (pid {pid}) already runs {self.state_dir}"
        )

    def _write_meta(self) -> None:
        meta = {
            "version": 1,
            "shards": self.config.shards,
            "shard_names": [s.name for s in self.shards],
            "socket": (
                str(self.config.socket_path)
                if self.config.socket_path is not None
                else None
            ),
            "endpoint": self.config.endpoint.describe(),
        }
        path = self.state_dir / FLEET_META
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(meta, indent=2) + "\n")
        os.replace(tmp, path)

    def _recover_moved(self) -> None:
        """Finish handoffs a previous manager started but never delivered.

        A moved job whose ``moved:<target>`` tombstone is the *only*
        trace of it fleet-wide was journaled out of its dead shard but
        never resubmitted (the manager died in between).  Resubmit it to
        its current ring owner; everywhere else the tombstone is inert.
        """
        states = {
            s.name: JobJournal.read_state(s.state_dir / "journal")
            for s in self.shards
        }
        rank = {status: i for i, status in enumerate(STATUS_PRECEDENCE)}
        for name, state in states.items():
            for job_id, job in state.moved_out().items():
                best = min(
                    (
                        other.jobs[job_id].status
                        for other in states.values()
                        if job_id in other.jobs
                    ),
                    key=lambda s: rank.get(s, len(rank)),
                )
                if best == "rejected" and job_id not in self._pending_handoffs:
                    request = dict(job.request)
                    if request.get("job_id") and request.get("kind"):
                        # ``requeue`` lets the resubmission through the
                        # moved-tombstone dedupe if its current ring
                        # owner is the (respawned) shard that moved it.
                        request["requeue"] = True
                        with self._handoff_lock:
                            self._pending_handoffs[job_id] = request
                        log.warning(
                            "fleet.recovering_lost_handoff",
                            job_id=job_id,
                            from_shard=name,
                        )
                    else:
                        self._lose_handoff(
                            job_id,
                            request,
                            reason="malformed_moved_request",
                            from_shard=name,
                        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        now = time.monotonic()
        # By swap, not clear(): a suspect the router notes mid-sweep
        # lands in the fresh set and is judged next sweep.
        suspects, self._suspect = self._suspect, set()
        for shard in self.shards:
            if shard.status in ("starting", "live"):
                if not shard.process_alive():
                    self._mark_dead(shard)
                elif shard.name in suspects:
                    # The router could not reach it but the process is
                    # up.  One suspect sweep is usually transient (e.g.
                    # mid-restart); a shard that stays unreachable sweep
                    # after sweep is wedged and must be failed over, or
                    # its ring keys are rejected indefinitely.
                    shard.suspect_sweeps += 1
                    if (
                        shard.suspect_sweeps
                        >= self.config.suspect_sweep_limit
                    ):
                        self._kill_wedged(
                            shard,
                            "router_unreachable",
                            sweeps=shard.suspect_sweeps,
                        )
                else:
                    shard.suspect_sweeps = 0
                    if shard.status == "live":
                        snapshot = read_live_snapshot(shard.state_dir)
                        if (
                            snapshot is not None
                            and snapshot["age_sec"]
                            > self.config.heartbeat_timeout_sec
                            and now - shard.live_since
                            > self.config.heartbeat_timeout_sec
                        ):
                            # Alive process, stale heartbeat: the
                            # flusher publishes every
                            # snapshot_interval_sec, so this is a wedged
                            # main loop — fail it over.  (The live_since
                            # grace keeps a respawned shard's leftover
                            # pre-restart snapshot from re-tripping it.)
                            self._kill_wedged(
                                shard,
                                "heartbeat_stale",
                                age_sec=round(snapshot["age_sec"], 3),
                            )
                if shard.status == "starting" and shard.ready():
                    shard.status = "live"
                    shard.live_since = now
                    self._rebuild_ring()
                    log.info(
                        "fleet.shard_admitted",
                        shard=shard.name,
                        restarts=shard.restarts,
                    )
            if shard.status == "dead":
                if shard.needs_handoff:
                    if len(self._ring) == 0:
                        # No survivor can take the orphans, and waiting
                        # for one would deadlock a fully-dead fleet
                        # (respawn is gated on the handoff).  Respawn
                        # first instead: the restarted daemon's own
                        # journal replay requeues its non-terminal
                        # jobs, so nothing is lost by eliding the move.
                        log.warning(
                            "fleet.handoff_elided_empty_ring",
                            shard=shard.name,
                        )
                        shard.needs_handoff = False
                    else:
                        self._handoff(shard)
                if not shard.needs_handoff and now >= shard.next_restart_at:
                    shard.restarts += 1
                    self._spawn(shard)

    def _kill_wedged(self, shard: ShardHandle, reason: str, **fields) -> None:
        """SIGKILL a wedged-but-alive shard so normal death handling runs.

        A hung daemon keeps its ring keys while answering nothing, so
        every request it owns is rejected until something removes it.
        Escalating to a kill converts "wedged" into the failure mode the
        fleet already handles — handoff plus respawn — and the kill also
        drops the shard's flock, so :meth:`_handoff` can take the lock.
        """
        log.warning(
            "fleet.shard_wedged", shard=shard.name, reason=reason, **fields
        )
        metrics().counter("serve.fleet.shard_wedged").inc()
        process = shard.process
        if process is not None and process.poll() is None:
            process.kill()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._mark_dead(shard)

    def _mark_dead(self, shard: ShardHandle) -> None:
        shard.last_exit = (
            shard.process.returncode if shard.process is not None else None
        )
        shard.status = "dead"
        shard.needs_handoff = True
        backoff = min(
            self.config.restart_backoff_sec * (2 ** min(shard.restarts, 5)),
            self.config.restart_backoff_max_sec,
        )
        shard.next_restart_at = time.monotonic() + backoff
        self._rebuild_ring()
        metrics().counter("serve.fleet.shard_deaths").inc()
        log.warning(
            "fleet.shard_dead",
            shard=shard.name,
            exit=shard.last_exit,
            restart_in_sec=round(backoff, 3),
        )

    def _handoff(self, shard: ShardHandle) -> None:
        """Move the dead shard's unfinished jobs to the survivors.

        Journal-first under the dead shard's own state lock: if the lock
        is unavailable the daemon is somehow still alive (or already
        restarted) and the handoff is skipped — exactly the safe call in
        both cases.
        """
        if len(self._ring) == 0:
            return  # nowhere to move jobs; retry once a shard is live
        lock = ProcessLock(shard.state_dir / "serve.lock")
        if not lock.acquire():
            log.warning("fleet.handoff_lock_busy", shard=shard.name)
            shard.needs_handoff = False  # holder is a live daemon
            return
        moved = 0
        try:
            journal = JobJournal(
                shard.state_dir / "journal", fsync=self.config.fsync
            )
            try:
                for job in journal.state.to_requeue():
                    job_id = job.request["job_id"]
                    target = self._ring.owner(job_id)
                    journal.moved(job_id, target)
                    with self._handoff_lock:
                        self._pending_handoffs[job_id] = {
                            **job.request, "requeue": True
                        }
                    moved += 1
            finally:
                journal.close()
        finally:
            lock.release()
        shard.needs_handoff = False
        if moved:
            metrics().counter("serve.fleet.jobs_moved").inc(moved)
        log.info("fleet.handoff", shard=shard.name, moved=moved)

    def _pump_handoffs(self) -> None:
        """Resubmit pending handoffs to their current ring owners."""
        if not self._pending_handoffs:
            return
        still: Dict[str, Dict[str, Any]] = {}
        for job_id, request in list(self._pending_handoffs.items()):
            response = self.router.route(request)
            status = response.get("status")
            if status in ("accepted", "duplicate"):
                metrics().counter("serve.fleet.jobs_requeued").inc()
                log.info(
                    "fleet.job_requeued",
                    job_id=job_id,
                    shard=response.get("shard"),
                    status=status,
                )
            elif response.get("reason") == "invalid":
                self._lose_handoff(
                    job_id, request, reason="invalid", response=response
                )
            else:  # overloaded / circuit open / no live shard: retry
                still[job_id] = request
        with self._handoff_lock:
            self._pending_handoffs = still

    def _lose_handoff(
        self, job_id: str, request: Dict[str, Any], **detail: Any
    ) -> None:
        """Record a handed-off job the fleet could not deliver anywhere.

        Its only other trace is the ``moved`` tombstone on the dead
        shard, so a silent drop would contradict the zero-lost-jobs
        invariant without anyone noticing; keeping the verbatim request
        here (surfaced via ``health``/``stats``) lets operators detect
        the loss and replay the job.
        """
        with self._handoff_lock:
            self._lost_handoffs[job_id] = {"request": dict(request), **detail}
        metrics().counter("serve.fleet.jobs_lost").inc()
        log.error("fleet.handoff_lost", job_id=job_id, **detail)

    # ------------------------------------------------------------------
    # Control verbs (router-side ``stats`` / ``health``)
    # ------------------------------------------------------------------
    def _fleet_section(self) -> Dict[str, Any]:
        with self._handoff_lock:
            pending = len(self._pending_handoffs)
            lost = sorted(self._lost_handoffs)
        return {
            "shards": len(self.shards),
            "live": sum(1 for s in self.shards if s.status == "live"),
            "dead": [s.name for s in self.shards if s.status == "dead"],
            "restarts": {
                s.name: s.restarts for s in self.shards if s.restarts
            },
            "pending_handoffs": pending,
            "lost_handoffs": len(lost),
            "lost_handoff_jobs": lost,
            "uptime_sec": round(time.time() - self._started_at, 3),
        }

    def _control(self, verb: str) -> Dict[str, Any]:
        if verb == "health":
            section = self._fleet_section()
            section["shard_status"] = {
                s.name: {
                    "status": s.status,
                    "pid": s.process.pid if s.process else None,
                    "restarts": s.restarts,
                }
                for s in self.shards
            }
            return {"status": "ok", "health": section}
        if verb == "stats":
            return {"status": "ok", "stats": self._merged_stats()}
        return {"status": "error", "error": f"unknown verb: {verb}"}

    def _merged_stats(self) -> Dict[str, Any]:
        """Fleet roll-up from the shards' on-disk live snapshots.

        Reading the flusher-published snapshots (instead of querying
        every shard socket inline) keeps the stats verb non-blocking and
        gives the same numbers ``fleet_status`` reports offline.
        """
        merged: Dict[str, Any] = {
            "queue_depth": 0,
            "in_flight": {},
            "counts": {},
            "shards": {},
        }
        for shard in self.shards:
            snapshot = read_live_snapshot(shard.state_dir)
            merged["shards"][shard.name] = {
                "status": shard.status,
                "snapshot_age_sec": (
                    snapshot["age_sec"] if snapshot else None
                ),
            }
            if snapshot is None:
                continue
            service = snapshot.get("service") or {}
            merged["queue_depth"] += service.get("queue_depth") or 0
            for key, value in (service.get("in_flight") or {}).items():
                merged["in_flight"][key] = (
                    merged["in_flight"].get(key, 0) + value
                )
            for key, value in (service.get("counts") or {}).items():
                if isinstance(value, (int, float)):
                    merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["fleet"] = self._fleet_section()
        return merged

    # ------------------------------------------------------------------
    # Main loop / drain
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Start the fleet and block until shutdown; returns exit code."""
        if threading.current_thread() is threading.main_thread():

            def _on_signal(signum, frame):
                self._stop_signal = signum

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start()
        self.router.start()
        # Publish the actually-bound public endpoint (a ``tcp:...:0``
        # bind's real port is only known post-listen), atomically, and
        # *before* the pid marker so pid-present implies endpoint-known.
        endpoint_path = self.state_dir / FLEET_ENDPOINT
        tmp = endpoint_path.with_suffix(".endpoint.tmp")
        tmp.write_text(self.router.bound.describe() + "\n")
        os.replace(tmp, endpoint_path)
        # Readiness marker: handlers installed + router listening, so a
        # fleet that exposes its pid is a fleet that will drain cleanly.
        (self.state_dir / FLEET_PID).write_text(str(os.getpid()))
        max_runtime = self.config.max_runtime_sec
        started = time.monotonic()
        try:
            while self._stop_signal is None:
                if (
                    max_runtime is not None
                    and time.monotonic() - started >= max_runtime
                ):
                    log.warning("fleet.max_runtime_reached")
                    break
                try:
                    self._sweep()
                    self._pump_handoffs()
                except Exception as exc:  # supervision must never die
                    log.error("fleet.supervise_error", error=repr(exc))
                time.sleep(self.config.supervise_interval_sec)
            else:
                log.info("fleet.stop_requested", signal=self._stop_signal)
        finally:
            self._drain()
        return 0

    def _drain(self) -> None:
        """Stop intake, SIGTERM every shard, wait for their drains."""
        log.info("fleet.draining")
        self.router.stop()
        for shard in self.shards:
            if shard.process_alive():
                shard.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + self.config.drain_timeout_sec + 10.0
        while time.monotonic() < deadline:
            if all(not s.process_alive() for s in self.shards):
                break
            time.sleep(0.1)
        for shard in self.shards:
            if shard.process_alive():  # pragma: no cover - last resort
                log.warning("fleet.shard_kill", shard=shard.name)
                shard.process.kill()
                shard.process.wait(timeout=5)
        (self.state_dir / FLEET_PID).unlink(missing_ok=True)
        (self.state_dir / FLEET_ENDPOINT).unlink(missing_ok=True)
        log.info(
            "fleet.drained",
            pending_handoffs=len(self._pending_handoffs),
        )


def fleet_forever(config: FleetConfig) -> int:
    """Run a fleet until SIGTERM; the ``repro serve fleet`` entrypoint."""
    return FleetManager(config).run()


# ----------------------------------------------------------------------
# Offline fleet status (works on a live fleet's state dir and a dead one's)
# ----------------------------------------------------------------------
def find_shard_dirs(state_dir: PathLike) -> List[Path]:
    state_dir = Path(state_dir)
    return sorted(
        p
        for p in state_dir.glob("shard-*")
        if p.is_dir() and (p / "journal").exists()
    )


def is_fleet_state(state_dir: PathLike) -> bool:
    """Does this state dir belong to a fleet (vs a single daemon)?"""
    state_dir = Path(state_dir)
    return (state_dir / FLEET_META).exists() or bool(find_shard_dirs(state_dir))


def fleet_status(state_dir: PathLike) -> Dict[str, Any]:
    """Cross-shard roll-up: journals, live snapshots, and fleet counts.

    Per-shard sections are exactly :func:`repro.serve.client.serve_status`
    of each shard dir; the fleet ``counts``/``jobs`` dedupe job ids
    across shards by :data:`STATUS_PRECEDENCE` (so a job handed off and
    completed elsewhere counts once, as completed); ``rollup.counters``
    merges the shard metric snapshots via
    :func:`repro.obs.summarize.merge_metrics_files`, which makes fleet
    totals equal the sum of the per-shard snapshots by construction.
    """
    state_dir = Path(state_dir)
    shard_dirs = find_shard_dirs(state_dir)
    rank = {status: i for i, status in enumerate(STATUS_PRECEDENCE)}

    router_pid: Optional[int] = None
    router_alive = False
    try:
        router_pid = int((state_dir / FLEET_PID).read_text().strip())
    except (FileNotFoundError, ValueError, OSError):
        pass
    if router_pid is not None:
        try:
            os.kill(router_pid, 0)
            router_alive = True
        except PermissionError:  # exists, but owned by someone else
            router_alive = True
        except OSError:
            pass

    shards: List[Dict[str, Any]] = []
    best: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    completions: Dict[str, int] = {}
    for shard_dir in shard_dirs:
        status = serve_status(shard_dir)
        status["shard"] = shard_dir.name
        shards.append(status)
        for job in status["jobs"]:
            job_id = job["job_id"]
            completions[job_id] = (
                completions.get(job_id, 0) + job["completions"]
            )
            row = {**job, "shard": shard_dir.name}
            if job_id not in best:
                best[job_id] = row
                order.append(job_id)
            elif rank.get(job["status"], len(rank)) < rank.get(
                best[job_id]["status"], len(rank)
            ):
                best[job_id] = row

    counts: Dict[str, int] = {
        "total": len(best),
        "pending": 0,
        "leased": 0,
        "completed": 0,
        "failed": 0,
        "rejected": 0,
    }
    jobs: List[Dict[str, Any]] = []
    for job_id in order:
        row = dict(best[job_id])
        row["completions"] = completions[job_id]
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        jobs.append(row)

    snapshot_paths = [
        d / "obs" / "metrics.json"
        for d in shard_dirs
        if (d / "obs" / "metrics.json").exists()
    ]
    rollup: Dict[str, Any] = {"inputs": len(snapshot_paths)}
    if snapshot_paths:
        merged = merge_metrics_files(snapshot_paths)
        rollup["counters"] = merged.get("counters", {})
        rollup["gauges"] = merged.get("gauges", {})

    return {
        "state_dir": str(state_dir),
        "fleet": True,
        "router": {"pid": router_pid, "alive": router_alive},
        "shards": shards,
        "counts": counts,
        "jobs": jobs,
        "rollup": rollup,
    }


def format_fleet_status(status: Dict[str, Any]) -> str:
    router = status.get("router") or {}
    router_state = "up" if router.get("alive") else "down"
    lines = [
        f"fleet state {status['state_dir']} — router {router_state}"
        + (f" (pid {router['pid']})" if router.get("pid") else ""),
        "  fleet: " + " ".join(f"{k}={v}" for k, v in status["counts"].items()),
    ]
    for shard in status["shards"]:
        counts = shard["counts"]
        daemon = shard.get("daemon", "unknown")
        line = (
            f"  {shard['shard']}: {daemon:<5} "
            + " ".join(f"{k}={v}" for k, v in counts.items())
        )
        live = shard.get("live")
        if live and live.get("snapshot_age_sec") is not None:
            line += f" snapshot_age={live['snapshot_age_sec']:.1f}s"
        lines.append(line)
    counters = (status.get("rollup") or {}).get("counters") or {}
    serve_counters = {
        k: v for k, v in sorted(counters.items()) if k.startswith("serve.")
    }
    if serve_counters:
        lines.append(
            "  rollup: "
            + " ".join(f"{k}={v:g}" for k, v in serve_counters.items())
        )
    double = [
        j["job_id"] for j in status["jobs"] if j["completions"] > 1
    ]
    if double:
        lines.append(f"  DOUBLE-COMPLETED jobs: {double}")
    return "\n".join(lines)
