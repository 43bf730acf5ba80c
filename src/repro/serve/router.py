"""Fleet routing: a consistent-hash ring plus the fleet's intake endpoint.

Two pieces, deliberately separable:

* :class:`HashRing` — pure data structure.  Hashes each shard name onto
  the ring at ``replicas`` virtual points (md5, no seed dependence) and
  assigns every ``job_id`` to the first shard point clockwise from the
  id's own hash.  The property the fleet leans on: removing a member
  only remaps the keys that member owned — every other key keeps its
  owner, so a shard death never migrates jobs between *surviving*
  shards.

* :class:`FleetRouter` — the framed-JSONL front end (unix socket *or*
  ``tcp:<host>:<port>``, DESIGN.md §14), served by the same threaded
  :class:`~repro.serve.transport.FrameServer` as every shard daemon.
  Each inbound frame is either a control verb (``{"verb": "stats"}``)
  answered locally, or a job request: the router normalises it (so the
  ``job_id`` used for routing is exactly the one the shard will
  journal), asks its ``owner_of`` callback for the owning live shard,
  and forwards the frame to that shard with
  :func:`~repro.serve.transport.exchange`, relaying the shard's
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

import hashlib
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import get_logger, metrics
from repro.serve.requests import BadRequest, normalize_request
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    Endpoint,
    EndpointLike,
    FrameServer,
    FrameTooLargeError,
    TransportError,
    exchange,
    frame_too_large_response,
    invalid_response,
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
    """Framed-JSONL intake that forwards job requests to owning shards.

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

    The intake is a :class:`~repro.serve.transport.FrameServer`, so it
    is hardened exactly like a shard daemon's (DESIGN.md §14): idle and
    slow-reading clients are evicted after ``idle_timeout_sec``, frames
    over ``max_frame_bytes`` are answered ``rejected: frame_too_large``
    with the stream resynchronised, and undecodable frames are answered
    ``rejected: invalid``.  Every connection has its own thread, so a
    slow forward holds up only the client waiting on it; the callbacks
    are called from those threads.
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
    ) -> None:
        self._owner_of = owner_of
        self._control = control
        self._shards = shards
        self._on_shard_error = on_shard_error
        self._default_timeout_sec = default_timeout_sec
        self._forward_timeout_sec = forward_timeout_sec
        self._retry_after_sec = retry_after_sec
        self.max_frame_bytes = max_frame_bytes
        self._server = FrameServer(
            bind,
            self.answer,
            max_frame_bytes=max_frame_bytes,
            idle_timeout_sec=idle_timeout_sec,
        )
        #: The endpoint actually bound (``tcp:...:0`` resolved); set by
        #: :meth:`start`.
        self.bound: Optional[Endpoint] = None

    def start(self) -> None:
        self.bound = self._server.start()
        log.info("router.listen", socket=self.bound.describe())

    def stop(self) -> None:
        self._server.stop()

    def answer(self, raw: Any) -> Dict[str, Any]:
        """One decoded intake frame → its response."""
        if isinstance(raw, dict) and "verb" in raw:
            if raw.get("verb") == "fetch":
                return self.fetch(raw)
            try:
                return self._control(str(raw["verb"]))
            except Exception as exc:  # a control fault answers, not kills
                return {"status": "error", "error": str(exc)}
        try:
            request = normalize_request(raw, self._default_timeout_sec)
        except BadRequest as exc:
            metrics().counter("serve.fleet.rejected").inc()
            return invalid_response(str(exc))
        if request.get("timeout_sec") is None:
            # Leave the key absent so the shard applies its own default
            # instead of seeing an explicit null.
            request.pop("timeout_sec", None)
        return self.route(request)

    def route(self, request: Dict[str, Any]) -> Dict[str, Any]:
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
            response = exchange(
                shard_endpoint,
                [request],
                timeout=self._forward_timeout_sec,
                max_frame_bytes=self.max_frame_bytes,
            )[0]
        except FrameTooLargeError:
            # Normalising added job_id/label to a near-cap frame: the
            # request is too big, the shard is not at fault.
            return frame_too_large_response(self.max_frame_bytes)
        except TransportError as exc:
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

    def fetch(self, raw: Dict[str, Any]) -> Dict[str, Any]:
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
            return invalid_response("fetch needs a string job_id")
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
                response = exchange(
                    shard_endpoint,
                    [request],
                    timeout=self._forward_timeout_sec,
                    max_frame_bytes=self.max_frame_bytes,
                )[0]
            except FrameTooLargeError:
                return frame_too_large_response(self.max_frame_bytes)
            except TransportError as exc:
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
