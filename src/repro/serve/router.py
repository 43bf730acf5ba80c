"""Fleet routing: a consistent-hash ring plus an async intake endpoint.

Two pieces, deliberately separable:

* :class:`HashRing` — pure data structure.  Hashes each shard name onto
  the ring at ``replicas`` virtual points (md5, no seed dependence) and
  assigns every ``job_id`` to the first shard point clockwise from the
  id's own hash.  The property the fleet leans on: removing a member
  only remaps the keys that member owned — every other key keeps its
  owner, so a shard death never migrates jobs between *surviving*
  shards.

* :class:`FleetRouter` — the asyncio framed-JSONL front end (unix
  socket *or* ``tcp:<host>:<port>``, DESIGN.md §14).  Each inbound
  frame is either a control verb (``{"verb": "stats"}``) answered
  locally, or a job request: the router normalises it (so the
  ``job_id`` used for routing is exactly the one the shard will
  journal), asks its
  ``owner_of`` callback for the owning live shard, and forwards the
  frame over that shard's own endpoint, relaying the shard's
  accepted/duplicate/rejected response back annotated with
  ``"shard": <name>``.

Usage — the ring alone is handy for tests and capacity math::

    from repro.serve.router import HashRing

    ring = HashRing(["shard-0", "shard-1", "shard-2"])
    owner = ring.owner("job-abc123")          # deterministic
    survivors = ring.without("shard-1")       # shard-1 dies
    assert [k for k in ("a", "b", "c")
            if ring.owner(k) != "shard-1"
            and survivors.owner(k) != ring.owner(k)] == []

The router is normally driven by :class:`repro.serve.fleet.FleetManager`,
which owns the shard processes and supplies the ``owner_of`` /
``control`` / ``on_shard_error`` callbacks.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from bisect import bisect_right
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import get_logger, metrics
from repro.serve.requests import BadRequest, normalize_request
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    Endpoint,
    EndpointLike,
    FrameAssembler,
    bound_endpoint,
    encode_frame,
    frame_too_large_response,
    parse_endpoint,
    read_frame_async,
)

log = get_logger("repro.serve.router")

#: Virtual points per shard.  64 keeps the ring balanced to within a few
#: percent for single-digit shard counts while staying cheap to rebuild.
DEFAULT_REPLICAS = 64


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (md5 prefix; no PYTHONHASHSEED)."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto named members.

    Immutable by convention: membership changes produce a new ring via
    :meth:`without` / :meth:`with_member`, which keeps ownership lookups
    lock-free for concurrent readers.
    """

    def __init__(
        self, members: Iterable[str], replicas: int = DEFAULT_REPLICAS
    ) -> None:
        self.replicas = int(replicas)
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.members: Tuple[str, ...] = tuple(sorted(set(members)))
        points: List[Tuple[int, str]] = []
        for member in self.members:
            for i in range(self.replicas):
                points.append((_ring_hash(f"{member}#{i}"), member))
        points.sort()
        self._points = points
        self._hashes = [p[0] for p in points]

    def owner(self, key: str) -> str:
        """The member owning ``key`` (first point clockwise from its hash)."""
        if not self._points:
            raise LookupError("hash ring is empty")
        idx = bisect_right(self._hashes, _ring_hash(key))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def without(self, *members: str) -> "HashRing":
        """A new ring with ``members`` removed (e.g. dead shards)."""
        gone = set(members)
        return HashRing(
            (m for m in self.members if m not in gone), self.replicas
        )

    def with_member(self, member: str) -> "HashRing":
        """A new ring with ``member`` (re-)admitted."""
        return HashRing((*self.members, member), self.replicas)

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each member owns — for balance checks."""
        counts = {m: 0 for m in self.members}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, member: object) -> bool:
        return member in self.members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(members={list(self.members)}, replicas={self.replicas})"


class FleetRouter:
    """Asyncio unix-socket JSONL intake that forwards to owning shards.

    The router is transport + routing only; all admission policy
    (dedupe, breaker, queue shed) stays in the shard daemons, so a
    response seen through the router is byte-for-byte a daemon response
    plus the ``shard`` annotation.

    Parameters
    ----------
    bind:
        Where to listen (the fleet's public endpoint): a unix socket
        path, or any ``unix:<path>`` / ``tcp:<host>:<port>`` spec.
    owner_of:
        ``job_id -> (shard_name, shard_endpoint)`` for the current
        ring of *live* shards, or ``None`` when no shard is available.
    control:
        ``verb -> payload`` for ``stats`` / ``health`` verbs, answered
        at the router with fleet-wide aggregates.
    shards:
        ``() -> [(shard_name, shard_endpoint), ...]`` for the *live*
        shard set — the fan-out fallback for ``fetch``: when the ring
        has moved since a job completed (shard death, readmission), the
        hashed owner may answer ``not_found`` even though another shard
        holds the result, so the router asks everyone before giving up.
    on_shard_error:
        Called with a shard name whenever forwarding to it fails — the
        fleet manager uses this as an early death signal, ahead of its
        own supervision sweep.

    The intake is hardened per DESIGN.md §14: a per-connection idle
    deadline (``idle_timeout_sec``) evicts slow-loris clients instead
    of holding the connection forever, frames over
    ``max_frame_bytes`` are answered ``rejected: frame_too_large``
    with the stream resynchronised at the next newline (no
    connection-killing ``LimitOverrunError``), malformed frames are
    counted, and a client that stops draining responses is evicted
    after ``write_timeout_sec``.
    """

    def __init__(
        self,
        bind: EndpointLike,
        owner_of: Callable[[str], Optional[Tuple[str, Endpoint]]],
        control: Callable[[str], Dict[str, Any]],
        shards: Optional[
            Callable[[], List[Tuple[str, Endpoint]]]
        ] = None,
        on_shard_error: Optional[Callable[[str], None]] = None,
        default_timeout_sec: Optional[float] = None,
        forward_timeout_sec: float = 10.0,
        retry_after_sec: float = 1.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        idle_timeout_sec: float = 60.0,
        write_timeout_sec: float = 10.0,
    ) -> None:
        self.endpoint = parse_endpoint(bind)
        #: The endpoint actually bound (``tcp:...:0`` resolved); set by
        #: :meth:`start`.
        self.bound: Optional[Endpoint] = None
        self._owner_of = owner_of
        self._control = control
        self._shards = shards
        self._on_shard_error = on_shard_error
        self._default_timeout_sec = default_timeout_sec
        self._forward_timeout_sec = forward_timeout_sec
        self._retry_after_sec = retry_after_sec
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout_sec = idle_timeout_sec
        self.write_timeout_sec = write_timeout_sec
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def socket_path(self) -> Optional[Path]:
        """The unix socket path, when bound to one (back-compat)."""
        return self.endpoint.path if self.endpoint.scheme == "unix" else None

    async def start(self) -> None:
        if self.endpoint.scheme == "unix":
            path = self.endpoint.path
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path)
            )
            self.bound = self.endpoint
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.endpoint.host,
                port=self.endpoint.port,
            )
            sock = self._server.sockets[0]
            self.bound = bound_endpoint(sock, self.endpoint)
        log.info("router.listen", socket=self.bound.describe())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.endpoint.cleanup()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assembler = FrameAssembler(self.max_frame_bytes)
        pending: List[Tuple[str, Any]] = []
        try:
            while True:
                kind, payload = await read_frame_async(
                    reader, assembler, pending,
                    idle_timeout_sec=self.idle_timeout_sec,
                )
                if kind == "eof":
                    break
                if kind == "idle":
                    # Slow-loris: no byte in idle_timeout_sec.  Close
                    # and count instead of pinning the intake forever.
                    metrics().counter("transport.idle_evicted").inc()
                    log.warning(
                        "router.idle_evicted",
                        idle_sec=self.idle_timeout_sec,
                    )
                    break
                if kind == "too_large":
                    response = frame_too_large_response(self.max_frame_bytes)
                    log.warning("router.frame_too_large", bytes=payload)
                else:
                    if not payload.strip():
                        continue
                    response = await self._handle_line(payload)
                writer.write(encode_frame(response))
                try:
                    await asyncio.wait_for(
                        writer.drain(), timeout=self.write_timeout_sec
                    )
                except asyncio.TimeoutError:
                    # The client stopped reading its responses.
                    metrics().counter(
                        "transport.slow_client_evicted"
                    ).inc()
                    log.warning("router.slow_client_evicted")
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            metrics().counter("transport.malformed_frames").inc()
            return {"status": "rejected", "reason": f"invalid: {exc}"}
        if isinstance(raw, dict) and "verb" in raw:
            if raw.get("verb") == "fetch":
                return await self.fetch(raw)
            try:
                payload = self._control(str(raw["verb"]))
            except Exception as exc:  # control must never kill the loop
                return {"status": "error", "error": str(exc)}
            return payload
        try:
            request = normalize_request(raw, self._default_timeout_sec)
        except BadRequest as exc:
            metrics().counter("serve.fleet.rejected").inc()
            return {"status": "rejected", "reason": f"invalid: {exc}"}
        if request.get("timeout_sec") is None:
            # Leave the key absent so the shard applies its own default
            # instead of seeing an explicit null.
            request.pop("timeout_sec", None)
        return await self.route(request)

    async def route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Forward one normalised request to its owning live shard."""
        job_id = request["job_id"]
        target = self._owner_of(job_id)
        if target is None:
            metrics().counter("serve.fleet.no_shard").inc()
            return {
                "status": "rejected",
                "reason": "no_live_shard",
                "retry_after_sec": self._retry_after_sec,
                "job_id": job_id,
            }
        shard, shard_endpoint = target
        try:
            response = await asyncio.wait_for(
                self._forward(shard_endpoint, request),
                timeout=self._forward_timeout_sec,
            )
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            log.warning("router.forward_failed", shard=shard, error=str(exc))
            metrics().counter("serve.fleet.forward_failed").inc()
            if self._on_shard_error is not None:
                self._on_shard_error(shard)
            return {
                "status": "rejected",
                "reason": "shard_unavailable",
                "retry_after_sec": self._retry_after_sec,
                "job_id": job_id,
                "shard": shard,
            }
        metrics().counter("serve.fleet.routed").inc()
        response.setdefault("shard", shard)
        return response

    async def fetch(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Route a ``fetch`` verb: owning shard first, then fan-out.

        The job_id hashes to its owning shard exactly as admission did,
        so in the steady state one forward answers the fetch.  When the
        owner misses (``not_found``, or a ``moved`` tombstone left by a
        handoff) and the fleet has other live shards, the router fans
        out to each of them — a ring that moved between completion and
        fetch means the result lives on whichever shard ran the job.
        """
        job_id = raw.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return {
                "status": "rejected",
                "reason": "invalid",
                "detail": "fetch needs a string job_id",
            }
        request = {"verb": "fetch", "job_id": job_id}
        candidates: List[Tuple[str, Endpoint]] = []
        target = self._owner_of(job_id)
        if target is not None:
            candidates.append(target)
        if self._shards is not None:
            for shard, endpoint in self._shards():
                if target is None or shard != target[0]:
                    candidates.append((shard, endpoint))
        if not candidates:
            metrics().counter("serve.fleet.no_shard").inc()
            return {
                "status": "rejected",
                "reason": "no_live_shard",
                "retry_after_sec": self._retry_after_sec,
                "job_id": job_id,
            }
        reachable = False
        not_found: Optional[Dict[str, Any]] = None
        moved: Optional[Dict[str, Any]] = None
        for index, (shard, shard_endpoint) in enumerate(candidates):
            if index == 1:
                metrics().counter("serve.fleet.fetch_fanout").inc()
            try:
                response = await asyncio.wait_for(
                    self._forward(shard_endpoint, request),
                    timeout=self._forward_timeout_sec,
                )
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                log.warning(
                    "router.fetch_forward_failed", shard=shard, error=str(exc)
                )
                if self._on_shard_error is not None:
                    self._on_shard_error(shard)
                continue
            reachable = True
            if response.get("status") == "not_found":
                if not_found is None:
                    not_found = response
                continue
            if response.get("state") == "moved":
                if moved is None:
                    moved = response
                    moved.setdefault("shard", shard)
                continue
            metrics().counter("serve.fleet.fetched").inc()
            response.setdefault("shard", shard)
            return response
        if not reachable:
            return {
                "status": "rejected",
                "reason": "shard_unavailable",
                "retry_after_sec": self._retry_after_sec,
                "job_id": job_id,
            }
        miss = not_found or moved or {"status": "not_found"}
        miss.setdefault("job_id", job_id)
        return miss

    async def _forward(
        self, shard_endpoint: EndpointLike, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One framed request/response exchange with a shard daemon.

        Works over the shard's unix socket or its TCP endpoint — the
        only thing that changes for a cross-node fleet is this connect.
        """
        endpoint = parse_endpoint(shard_endpoint)
        if endpoint.scheme == "unix":
            reader, writer = await asyncio.open_unix_connection(
                str(endpoint.path)
            )
        else:
            reader, writer = await asyncio.open_connection(
                endpoint.host, endpoint.port
            )
        try:
            writer.write(encode_frame(request))
            await writer.drain()
            assembler = FrameAssembler(self.max_frame_bytes)
            pending: List[Tuple[str, Any]] = []
            kind, payload = await read_frame_async(reader, assembler, pending)
            if kind != "frame":
                raise ConnectionError(
                    "shard closed the socket mid-protocol"
                    if kind == "eof"
                    else f"shard response unusable ({kind})"
                )
            response = json.loads(payload)
            if not isinstance(response, dict):
                raise ConnectionError("shard returned a non-object response")
            return response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
