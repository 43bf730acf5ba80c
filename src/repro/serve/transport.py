"""One framed JSONL transport for unix *and* TCP endpoints, plus the
resilient client that survives a lossy wire (DESIGN.md §14).

Everything the serve stack says over a socket — client→daemon
submissions, client→router submissions, router→shard forwarding —
speaks the same protocol: one JSON object per ``\\n``-terminated frame,
with a hard per-frame byte cap.  This module owns that protocol end to
end so the unix and TCP paths cannot drift:

* :class:`Endpoint` / :func:`parse_endpoint` — ``unix:<path>`` and
  ``tcp:<host>:<port>`` specs (a bare path is a unix socket, for
  backward compatibility).  ``tcp:127.0.0.1:0`` binds an ephemeral
  port; :func:`bound_endpoint` recovers the real one.
* :class:`FrameAssembler` — an incremental, transport-agnostic frame
  parser.  It enforces :data:`MAX_FRAME_BYTES` *and resynchronises* at
  the next newline, so one oversized frame costs one ``rejected:
  frame_too_large`` response instead of the connection.
* :func:`read_frames` — the blocking reader built on the assembler,
  with a per-read idle deadline.
* :class:`FrameServer` — the one server side: an accept thread plus a
  thread per connection, applying the DESIGN.md §14 hardening rules
  (idle eviction, oversize resync, malformed-frame accounting) once for
  both the daemon intake and the fleet router.
* :class:`ResilientClient` — the tentpole: an overall deadline budget,
  bounded retries with exponential backoff + jitter, reconnect on
  half-open/severed connections, ``retry_after_sec`` honoured from
  load-shed / circuit-open / no-shard rejections, and idempotent
  resubmission (safe by construction: job_ids are content hashes and
  the journal dedupes, so a retried "accepted" collapses to
  ``duplicate``).

Usage::

    from repro.serve.transport import ResilientClient

    client = ResilientClient("tcp:127.0.0.1:7777", deadline_sec=30.0)
    responses = client.submit([{"kind": "chaos", "params": {}}])
    assert all(r["status"] in ("accepted", "duplicate") for r in responses)

Every failure escaping the client is a :class:`TransportError` with a
``retryable`` classification and the partial responses already
received — never a raw traceback from a torn socket.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import get_logger, metrics

_log = get_logger("repro.serve.transport")

#: Hard cap on one JSONL frame (request or response).  Far above any
#: legitimate job request, far below anything that could pin intake
#: memory.
MAX_FRAME_BYTES = 1_048_576

#: Read chunk for the incremental frame readers.
_CHUNK = 65536

#: Pause between ``fetch(wait=True)`` polls when the answer carries no
#: ``retry_after_sec`` (``not_found``).
_FETCH_POLL_SEC = 0.25

#: ``rejected`` reasons that mean "try again later" — the server shed
#: or deferred the work without running it, so resubmission is safe and
#: expected (DESIGN.md §10 "rejections are retryable").
RETRYABLE_REJECTIONS = frozenset(
    {
        "overloaded",
        "circuit_open",
        "draining",
        "disk_full",
        "no_live_shard",
        "shard_unavailable",
    }
)


# ----------------------------------------------------------------------
# Endpoints: unix:<path> | tcp:<host>:<port>
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Endpoint:
    """One parsed ``--bind`` target; hashable, printable, connectable."""

    scheme: str  # "unix" | "tcp"
    path: Optional[Path] = None
    host: Optional[str] = None
    port: Optional[int] = None

    def describe(self) -> str:
        if self.scheme == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """A connected stream socket to this endpoint."""
        if self.scheme == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(str(self.path))
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=timeout
        )

    def listen(self, backlog: int = 16) -> socket.socket:
        """A bound, listening stream socket (unlinks a stale unix path)."""
        if self.scheme == "unix":
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass
            server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            server.bind(str(self.path))
        else:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
        server.listen(backlog)
        return server

    def cleanup(self) -> None:
        """Remove a unix socket file; a no-op for TCP."""
        if self.scheme == "unix" and self.path is not None:
            try:
                self.path.unlink()
            except OSError:
                pass


EndpointLike = Union[Endpoint, str, Path, os.PathLike]


def parse_endpoint(spec: EndpointLike) -> Endpoint:
    """``unix:<path>`` / ``tcp:<host>:<port>`` → :class:`Endpoint`.

    A bare path (no scheme) is a unix socket, so every pre-TCP call
    site (`submit_via_socket(path, ...)`) keeps working unchanged.
    """
    if isinstance(spec, Endpoint):
        return spec
    if isinstance(spec, (Path, os.PathLike)) and not isinstance(spec, str):
        return Endpoint(scheme="unix", path=Path(spec))
    text = str(spec)
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path in {text!r}")
        return Endpoint(scheme="unix", path=Path(path))
    if text.startswith("tcp:"):
        rest = text[len("tcp:"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"tcp endpoint must be tcp:<host>:<port>, got {text!r}"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"tcp port must be an integer, got {port_text!r}")
        if not 0 <= port <= 65535:
            raise ValueError(f"tcp port out of range: {port}")
        return Endpoint(scheme="tcp", host=host, port=port)
    return Endpoint(scheme="unix", path=Path(text))


def bound_endpoint(server: socket.socket, endpoint: Endpoint) -> Endpoint:
    """The endpoint a listening socket actually bound (resolves port 0)."""
    if endpoint.scheme == "unix":
        return endpoint
    host, port = server.getsockname()[:2]
    return Endpoint(scheme="tcp", host=endpoint.host or host, port=port)


# ----------------------------------------------------------------------
# Framing: newline-delimited JSON with a byte cap and resync
# ----------------------------------------------------------------------
def encode_frame(obj: Any) -> bytes:
    """One JSON object as a wire frame (caller checks the size cap)."""
    return json.dumps(obj).encode("utf-8") + b"\n"


class FrameAssembler:
    """Incremental newline-frame parser with an oversize-resync path.

    Feed raw chunks; collect ``(kind, payload)`` events:

    * ``("frame", bytes)`` — one complete frame, newline stripped;
    * ``("too_large", size_so_far)`` — the current frame crossed
      ``max_bytes``; emitted once, then input is discarded until the
      next newline so the *following* frame parses normally.

    Pure and transport-agnostic, so :class:`FrameServer`, the client
    side (:func:`exchange`) and the chaos proxy all share one set of
    framing semantics (and one set of tests).
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._buffer = bytearray()
        self._discarding = False
        self._discarded = 0

    def feed(self, data: bytes) -> List[Tuple[str, Any]]:
        events: List[Tuple[str, Any]] = []
        self._buffer += data
        while True:
            idx = self._buffer.find(b"\n")
            if self._discarding:
                if idx < 0:
                    self._discarded += len(self._buffer)
                    self._buffer.clear()
                    break
                self._discarded += idx
                del self._buffer[: idx + 1]
                self._discarding = False
                continue
            if idx >= 0:
                frame = bytes(self._buffer[:idx])
                del self._buffer[: idx + 1]
                if len(frame) > self.max_bytes:
                    events.append(("too_large", len(frame)))
                else:
                    events.append(("frame", frame))
                continue
            if len(self._buffer) > self.max_bytes:
                events.append(("too_large", len(self._buffer)))
                self._discarded = len(self._buffer)
                self._buffer.clear()
                self._discarding = True
                break
            break
        return events

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def frame_too_large_response(max_bytes: int) -> Dict[str, Any]:
    """The server's answer to an oversized frame (not retryable as-is:
    the client must shrink the request, not wait)."""
    metrics().counter("transport.frames_too_large").inc()
    return {
        "status": "rejected",
        "reason": "frame_too_large",
        "max_frame_bytes": int(max_bytes),
    }


def invalid_response(detail: str) -> Dict[str, Any]:
    """The server's answer to a frame it cannot act on: undecodable
    JSON, a request that fails validation, an unknown verb.  Terminal:
    the client must fix the request, not wait."""
    return {"status": "rejected", "reason": "invalid", "detail": detail}


def read_frames(
    conn: socket.socket,
    max_bytes: int = MAX_FRAME_BYTES,
    idle_timeout_sec: Optional[float] = None,
):
    """Generate framing events from a blocking socket until EOF.

    Yields the :class:`FrameAssembler` events plus ``("idle", None)``
    when no byte arrives within ``idle_timeout_sec`` — the caller
    decides to evict.  The timeout also bounds *writes* made through
    the same socket (``settimeout`` applies to both directions), which
    is what evicts a slow client that stops reading its responses.
    """
    assembler = FrameAssembler(max_bytes)
    conn.settimeout(idle_timeout_sec)
    while True:
        try:
            chunk = conn.recv(_CHUNK)
        except socket.timeout:
            yield ("idle", None)
            return
        except OSError:
            return
        if not chunk:
            return
        for event in assembler.feed(chunk):
            yield event


class FrameServer:
    """Threaded framed-JSONL server: one accept thread, one thread per
    connection, and ``answer(obj) -> dict`` called for every decoded
    frame, its return value sent back as the response frame.

    The daemon intake and the fleet router both serve through this
    class, so the DESIGN.md §14 hardening rules live here once: the
    idle deadline is the socket timeout and so also bounds response
    writes, an oversized frame is answered ``frame_too_large`` and the
    stream resyncs, and an undecodable frame is answered ``invalid``.

    ``answer`` runs on the connection's thread, so it may block (a
    journal fsync, a forward to a shard) without stalling other
    connections; shared state it touches needs its own lock.
    """

    def __init__(
        self,
        endpoint: EndpointLike,
        answer: Callable[[Any], Dict[str, Any]],
        max_frame_bytes: int = MAX_FRAME_BYTES,
        idle_timeout_sec: Optional[float] = 60.0,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout_sec = idle_timeout_sec
        self._answer = answer
        self._server: Optional[socket.socket] = None
        #: The endpoint actually bound (``tcp:...:0`` resolved); set by
        #: :meth:`start`.
        self.bound: Optional[Endpoint] = None

    def start(self) -> Endpoint:
        """Listen and start accepting; returns the bound endpoint."""
        server = self.endpoint.listen()
        server.settimeout(0.2)
        self._server = server
        self.bound = bound_endpoint(server, self.endpoint)
        threading.Thread(
            target=self._accept, args=(server,), daemon=True
        ).start()
        return self.bound

    def stop(self) -> None:
        """Stop accepting and remove a unix socket file.  Connections
        already open finish on their own threads."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        self.endpoint.cleanup()

    def _accept(self, server: socket.socket) -> None:
        while self._server is server:
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            for kind, payload in read_frames(
                conn, self.max_frame_bytes, self.idle_timeout_sec
            ):
                if kind == "idle":
                    metrics().counter("transport.idle_evicted").inc()
                    _log.warning(
                        "transport.idle_evicted",
                        idle_sec=self.idle_timeout_sec,
                    )
                    return
                if kind == "too_large":
                    _log.warning("transport.frame_too_large", bytes=payload)
                    response = frame_too_large_response(self.max_frame_bytes)
                elif not payload.strip():
                    continue
                else:
                    try:
                        obj = json.loads(payload)
                    except ValueError:  # not JSON, or not even UTF-8
                        metrics().counter("transport.malformed_frames").inc()
                        response = invalid_response("undecodable JSON frame")
                    else:
                        response = self._answer(obj)
                try:
                    conn.sendall(encode_frame(response))
                except socket.timeout:
                    metrics().counter("transport.slow_client_evicted").inc()
                    _log.warning("transport.slow_client_evicted")
                    return
                except OSError:
                    return


# ----------------------------------------------------------------------
# Classified client-side errors
# ----------------------------------------------------------------------
class TransportError(ConnectionError):
    """A classified transport failure.

    ``retryable`` says whether resubmitting later can succeed;
    ``responses`` carries every response received before the failure
    (satellite fix: a mid-batch drop no longer discards delivered
    responses); ``attempts`` and ``last_error`` summarise the retry
    history for operators.

    Subclasses :class:`ConnectionError`, so every pre-existing
    ``except (OSError, ConnectionError)`` call site keeps catching it.
    """

    retryable = True

    def __init__(
        self,
        message: str,
        responses: Optional[List[Dict[str, Any]]] = None,
        attempts: int = 0,
        last_error: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.responses: List[Dict[str, Any]] = list(responses or [])
        self.attempts = attempts
        self.last_error = last_error


class ProtocolError(TransportError):
    """The peer severed the connection mid-protocol (torn frame, close
    between request and response).  Retryable: resubmission dedupes."""


class FrameTooLargeError(TransportError):
    """The server rejected a frame over its byte cap.  NOT retryable:
    resubmitting the same bytes can only fail the same way."""

    retryable = False


class DeadlineExceeded(TransportError):
    """The overall deadline budget ran out before every request was
    answered.  Retryable later — nothing was lost, only unanswered."""


class RetryBudgetExceeded(TransportError):
    """``max_attempts`` consecutive attempts failed.  Retryable later."""


# ----------------------------------------------------------------------
# One-shot protocol exchange (the primitive ResilientClient loops over)
# ----------------------------------------------------------------------
def exchange(
    endpoint: EndpointLike,
    payloads: Sequence[Dict[str, Any]],
    timeout: float = 10.0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> List[Dict[str, Any]]:
    """Send ``payloads`` over one connection; one response per payload.

    One-shot and fail-fast — no retries, no reconnect.  On a mid-batch
    failure it raises :class:`ProtocolError` carrying the responses
    already received, so the caller knows exactly which requests were
    delivered (this is what :class:`ResilientClient` builds on).
    """
    endpoint = parse_endpoint(endpoint)
    responses: List[Dict[str, Any]] = []

    def checked_frame(payload: Dict[str, Any]) -> bytes:
        frame = encode_frame(payload)
        if len(frame) - 1 > max_frame_bytes:
            raise FrameTooLargeError(
                f"request frame is {len(frame) - 1} bytes "
                f"(cap {max_frame_bytes})",
                responses=responses,
            )
        return frame

    # Checked before dialling: a refused request costs the peer nothing.
    first = checked_frame(payloads[0]) if payloads else b""
    try:
        conn = endpoint.connect(timeout=timeout)
    except OSError as exc:
        raise ProtocolError(
            f"cannot connect to {endpoint.describe()}: {exc}",
            responses=[],
            last_error=exc,
        ) from exc
    with conn:
        assembler = FrameAssembler(max_frame_bytes)
        received: List[Tuple[str, Any]] = []
        for index, payload in enumerate(payloads):
            frame = checked_frame(payload) if index else first
            try:
                conn.sendall(frame)
                while not received:
                    chunk = conn.recv(_CHUNK)
                    if not chunk:
                        raise ProtocolError(
                            "peer closed the socket mid-protocol "
                            f"({len(responses)}/{len(payloads)} answered)",
                            responses=responses,
                        )
                    received.extend(assembler.feed(chunk))
            except socket.timeout as exc:
                raise ProtocolError(
                    f"peer sent no response within {timeout}s "
                    f"({len(responses)}/{len(payloads)} answered)",
                    responses=responses,
                    last_error=exc,
                ) from exc
            except OSError as exc:
                if isinstance(exc, TransportError):
                    raise
                raise ProtocolError(
                    f"connection to {endpoint.describe()} failed: {exc} "
                    f"({len(responses)}/{len(payloads)} answered)",
                    responses=responses,
                    last_error=exc,
                ) from exc
            kind, data = received.pop(0)
            if kind == "too_large":
                raise ProtocolError(
                    "peer sent an oversized response frame",
                    responses=responses,
                )
            try:
                response = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ProtocolError(
                    f"peer sent an undecodable response frame: {exc}",
                    responses=responses,
                    last_error=exc,
                ) from exc
            if not isinstance(response, dict):
                raise ProtocolError(
                    "peer sent a non-object response",
                    responses=responses,
                )
            responses.append(response)
    return responses


# ----------------------------------------------------------------------
# The resilient client
# ----------------------------------------------------------------------
@dataclass
class RetryPolicy:
    """Backoff/deadline knobs for :class:`ResilientClient`."""

    deadline_sec: float = 30.0
    max_attempts: int = 6
    backoff_base_sec: float = 0.05
    backoff_max_sec: float = 2.0
    jitter_frac: float = 0.5
    connect_timeout_sec: float = 5.0
    io_timeout_sec: float = 10.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Exponential backoff with full jitter, capped."""
        base = min(
            self.backoff_base_sec * (2 ** max(attempt - 1, 0)),
            self.backoff_max_sec,
        )
        return base * (1.0 - self.jitter_frac * rng.random())


class ResilientClient:
    """Submit jobs through an unreliable wire and still get an answer.

    Wraps :func:`exchange` with: an overall deadline budget, bounded
    retries under exponential backoff + jitter, reconnection on severed
    or half-open connections, ``retry_after_sec`` honoured (capped by
    the remaining budget) on retryable rejections, and idempotent
    resubmission of only the *unanswered* requests after a partial
    batch.  A request the server already executed answers ``duplicate``
    on resubmission — content-hashed job_ids plus journal dedupe make
    retrying always safe, which is the contract that lets this client
    retry blindly.

    Every exit is classified: the returned list holds one final
    response per request (terminal rejections like ``invalid`` or
    ``frame_too_large`` included), or a :class:`TransportError`
    subclass with ``retryable``, ``attempts`` and the partial
    ``responses`` — never a raw socket traceback, never an unbounded
    hang.
    """

    def __init__(
        self,
        endpoint: EndpointLike,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        **policy_overrides: Any,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint)
        if policy is None:
            policy = RetryPolicy(**policy_overrides)
        elif policy_overrides:
            raise TypeError("pass either policy= or keyword overrides")
        self.policy = policy
        self._rng = rng or random.Random()
        self._sleep = sleep
        self._clock = clock
        self.max_frame_bytes = max_frame_bytes

    # -- public API ----------------------------------------------------
    def submit(
        self, requests: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """One final response per request, in request order."""
        return self._run(list(requests))

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one request; returns its final response."""
        return self._run([request])[0]

    def query(self, verb: str = "stats") -> Dict[str, Any]:
        """A control verb (``stats`` / ``health``) with the same retry
        machinery as job submission."""
        return self._run([{"verb": verb}])[0]

    def fetch(self, job_id: str, wait: bool = False) -> Dict[str, Any]:
        """Fetch a job's result by id (the ``fetch`` verb).

        With ``wait=False`` (default), one retried exchange: the
        response may be ``pending`` (job queued/leased/repairing) or
        ``not_found``.  With ``wait=True``, keeps polling through
        those states — honouring each response's ``retry_after_sec``
        hint — until the job is terminal (``ok``/``failed``/terminal
        ``rejected``) or the policy's deadline budget runs out
        (:class:`DeadlineExceeded`).  Each poll is itself a fully
        retried exchange, so a flaky wire and a slow job compose.
        """
        deadline = self._clock() + self.policy.deadline_sec
        while True:
            response = self._run([{"verb": "fetch", "job_id": job_id}])[0]
            status = response.get("status")
            if not wait or status not in ("pending", "not_found"):
                return response
            hint = response.get("retry_after_sec")
            pause = float(hint) if hint else _FETCH_POLL_SEC
            remaining = deadline - self._clock()
            if remaining <= 0:
                metrics().counter("transport.deadline_exhausted").inc()
                raise DeadlineExceeded(
                    f"fetch({job_id!r}) still {status} after the "
                    f"{self.policy.deadline_sec}s deadline budget",
                    responses=[response],
                )
            self._sleep(min(pause, remaining))

    # -- the retry loop ------------------------------------------------
    def _run(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        policy = self.policy
        deadline = self._clock() + policy.deadline_sec
        final: Dict[int, Dict[str, Any]] = {}
        open_idx = list(range(len(requests)))
        attempts = 0
        consecutive_failures = 0
        last_error: Optional[BaseException] = None

        while open_idx:
            remaining = deadline - self._clock()
            if remaining <= 0:
                metrics().counter("transport.deadline_exhausted").inc()
                raise DeadlineExceeded(
                    f"deadline budget ({policy.deadline_sec}s) exhausted "
                    f"with {len(open_idx)}/{len(requests)} unanswered",
                    responses=self._ordered(final, len(requests)),
                    attempts=attempts,
                    last_error=last_error,
                )
            if consecutive_failures >= policy.max_attempts:
                metrics().counter("transport.gave_up").inc()
                raise RetryBudgetExceeded(
                    f"{consecutive_failures} consecutive attempts failed "
                    f"against {self.endpoint.describe()}",
                    responses=self._ordered(final, len(requests)),
                    attempts=attempts,
                    last_error=last_error,
                )
            attempts += 1
            if attempts > 1:
                metrics().counter("transport.retries").inc()
            batch = [requests[i] for i in open_idx]
            io_timeout = min(policy.io_timeout_sec, max(remaining, 0.05))
            started = time.perf_counter()
            try:
                responses = exchange(
                    self.endpoint,
                    batch,
                    timeout=io_timeout,
                    max_frame_bytes=self.max_frame_bytes,
                )
                delivered = list(zip(open_idx, responses))
                failure: Optional[TransportError] = None
            except FrameTooLargeError:
                raise
            except TransportError as exc:
                delivered = list(zip(open_idx, exc.responses))
                failure = exc
                last_error = exc
                metrics().counter("transport.reconnects").inc()
            metrics().log_histogram("transport.attempt_sec").observe(
                time.perf_counter() - started
            )

            retry_after = 0.0
            still_open: List[int] = []
            answered = 0
            for idx, response in delivered:
                status = response.get("status")
                reason = response.get("reason")
                if status == "rejected" and reason in RETRYABLE_REJECTIONS:
                    hint = response.get("retry_after_sec")
                    if isinstance(hint, (int, float)) and hint > 0:
                        retry_after = max(retry_after, float(hint))
                        metrics().counter(
                            "transport.retry_after_honored"
                        ).inc()
                    still_open.append(idx)
                    continue
                final[idx] = response
                answered += 1
            # Unanswered requests of a torn batch stay open for the
            # next attempt; their job_ids dedupe server-side.
            delivered_idx = {idx for idx, _ in delivered}
            still_open.extend(i for i in open_idx if i not in delivered_idx)
            open_idx = sorted(still_open)

            if not open_idx:
                break
            if failure is None and answered > 0 and retry_after == 0.0:
                # Progress without a transport fault and without a
                # retry hint (shouldn't happen with a well-formed
                # server, but never spin hot on it).
                consecutive_failures = 0
                pause = policy.backoff(1, self._rng)
            elif failure is None:
                consecutive_failures = 0 if answered else (
                    consecutive_failures + 1
                )
                pause = max(retry_after, policy.backoff(1, self._rng))
            else:
                consecutive_failures += 1
                pause = max(
                    retry_after,
                    policy.backoff(consecutive_failures, self._rng),
                )
            # Never sleep past the deadline: cap the pause so the final
            # attempt (or the DeadlineExceeded) happens on time.
            pause = min(pause, max(deadline - self._clock(), 0.0))
            if pause > 0:
                self._sleep(pause)
        return self._ordered(final, len(requests))

    @staticmethod
    def _ordered(
        final: Dict[int, Dict[str, Any]], n: int
    ) -> List[Dict[str, Any]]:
        return [final[i] for i in sorted(final) if i < n]
