"""The closed-loop load generator: one process, two client threads,
one open connection each.

Callers of this service wait for their reply (``serve submit`` then
``fetch --wait``), so every client sends its next request only after
the previous one completed.  Each phase runs for a fixed wall time and
returns its raw samples; a job that is rejected, answers anything but
``ok``, carries the wrong payload or times out is a failure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serve.transport import ResilientClient, TransportError, exchange

import harness
import spec

#: (request, validator of the fetched ``result`` payload's ``value``)
Job = Tuple[Dict[str, Any], Callable[[Any], bool]]
#: ``stream(client, n)`` -> the n-th job of one client's seeded stream.
JobStream = Callable[[int, int], Job]


@dataclass
class Phase:
    """What one phase measured."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ok: int = 0
    #: Burst phases: (time, ok results so far) at every exchange that
    #: brought results back inside the timed part of the phase.
    landings: List[Tuple[float, int]] = field(default_factory=list)
    wall: float = 0.0
    #: Client phase: fetch attempts the shipped client made.
    polls: int = 0
    #: job_id -> fetched ``value``, for the cross-checks afterwards.
    values: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def merge(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.ok += other.ok
        self.landings += other.landings
        self.polls += other.polls
        self.values.update(other.values)
        self.errors += other.errors

    def rate(self) -> float:
        """Results per second: the slope of cumulative results over
        time across both clients' landings.  A count over the window
        would move by one tick's worth of jobs with where the window's
        edges fall; the slope does not."""
        events = sorted(self.landings)
        if len(events) < 3:
            raise ValueError("too few results landed to fit a rate")
        times = [t - events[0][0] for t, _ in events]
        total, cumulative = 0, []
        for _, landed in events:
            total += landed
            cumulative.append(total)
        mean_t = sum(times) / len(times)
        mean_c = sum(cumulative) / len(cumulative)
        return sum(
            (t - mean_t) * (c - mean_c) for t, c in zip(times, cumulative)
        ) / sum((t - mean_t) ** 2 for t in times)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def _run_clients(body: Callable[[int, Phase], None], clients: int) -> Phase:
    """Run ``body(client, phase)`` on ``clients`` threads; merge results."""
    parts = [Phase() for _ in range(clients)]
    crashes: List[BaseException] = []

    def guarded(client: int) -> None:
        try:
            body(client, parts[client])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            crashes.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(c,)) for c in range(clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    if crashes:
        raise crashes[0]
    total = Phase(wall=wall)
    for part in parts:
        total.merge(part)
    return total


def _accepted(response: Dict[str, Any], job_id: str) -> bool:
    return response.get("status") == "accepted" and response.get("job_id") == job_id


def _payload_ok(fetched: Dict[str, Any], job_id: str, valid: Callable[[Any], bool]) -> bool:
    payload = fetched.get("result") or {}
    return (
        fetched.get("status") == "ok"
        and fetched.get("job_id") == job_id
        and payload.get("status") == "ok"
        and payload.get("job_id") == job_id
        and valid(payload.get("value"))
    )


# ----------------------------------------------------------------------
# single: one job outstanding per client, raw exchange + fetch polling
# ----------------------------------------------------------------------
def single_phase(
    endpoint: str,
    stream: JobStream,
    seconds: float,
    tracer: harness.Tracer,
    clients: int = spec.CLIENTS,
) -> Phase:
    def body(client: int, phase: Phase) -> None:
        end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < end:
            request, valid = stream(client, n)
            n += 1
            job_id = request["job_id"]
            phase.attempted += 1
            with tracer.span("job", job_id):
                t0 = time.perf_counter()
                with tracer.span("job.submit", job_id):
                    response = exchange(endpoint, [request])[0]
                if not _accepted(response, job_id):
                    phase.fail(f"submit {job_id}: {response}")
                    continue
                with tracer.span("job.wait", job_id):
                    fetched = _poll_until_done(endpoint, job_id, t0)
                elapsed = time.perf_counter() - t0
            if fetched is None or not _payload_ok(fetched, job_id, valid):
                phase.fail(f"fetch {job_id}: {fetched}")
                continue
            phase.ok += 1
            phase.latencies.append(elapsed)
            phase.values[job_id] = fetched["result"]

    return _run_clients(body, clients)


def _poll_until_done(
    endpoint: str, job_id: str, started: float
) -> Optional[Dict[str, Any]]:
    request = [{"verb": "fetch", "job_id": job_id}]
    while time.perf_counter() - started < spec.JOB_TIMEOUT_SEC:
        fetched = exchange(endpoint, request)[0]
        if fetched.get("status") != "pending":
            return fetched
        time.sleep(spec.POLL_SLEEP_SEC)
    return None


# ----------------------------------------------------------------------
# client: the same loop through the shipped ResilientClient
# ----------------------------------------------------------------------
def client_phase(
    endpoint: str,
    stream: JobStream,
    seconds: float,
    clients: int = spec.CLIENTS,
) -> Phase:
    """What a user of ``ResilientClient.call`` + ``.fetch(wait=True)``
    waits.  Fetch attempts are counted by the client's own
    ``transport.attempt_sec`` histogram, so the caller must have
    telemetry enabled to get ``polls``."""

    def body(client: int, phase: Phase) -> None:
        rc = ResilientClient(endpoint, deadline_sec=spec.JOB_TIMEOUT_SEC)
        end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < end:
            request, valid = stream(client, n)
            n += 1
            job_id = request["job_id"]
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                response = rc.call(request)
                if not _accepted(response, job_id):
                    phase.fail(f"call {job_id}: {response}")
                    continue
                fetched = rc.fetch(job_id, wait=True)
            except TransportError as exc:
                phase.fail(f"client {job_id}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            if not _payload_ok(fetched, job_id, valid):
                phase.fail(f"client fetch {job_id}: {fetched}")
                continue
            phase.ok += 1
            phase.latencies.append(elapsed)

    before = _client_attempts()
    phase = _run_clients(body, clients)
    phase.polls = _client_attempts() - before - phase.attempted
    return phase


def _client_attempts() -> int:
    snapshot = obs.metrics_snapshot() or {}
    hist = (snapshot.get("histograms") or {}).get("transport.attempt_sec")
    return int(hist["count"]) if hist else 0


def client_retries() -> int:
    """Client-side ``transport.retries`` + ``reconnects`` so far."""
    counters = (obs.metrics_snapshot() or {}).get("counters") or {}
    return int(
        counters.get("transport.retries", 0)
        + counters.get("transport.reconnects", 0)
    )


# ----------------------------------------------------------------------
# burst: each client keeps 16 jobs outstanding - workers saturated,
# queue never empty
# ----------------------------------------------------------------------
def _burst_client(
    endpoint: str,
    stream: JobStream,
    client: int,
    end: float,
    window: int,
    phase: Phase,
) -> None:
    """Keep ``window`` jobs outstanding until ``end``, then drain.

    Every exchange fetches the outstanding jobs and submits a
    replacement for each that came back, so no worker waits for a
    client to notice an empty queue (a submit-all / fetch-all barrier
    made throughput depend on how one burst's ids hashed across shards).
    ``phase.landings`` records when results landed before ``end``.
    """
    outstanding: Dict[str, Tuple[Callable[[Any], bool], float]] = {}
    n = 0
    while True:
        now = time.perf_counter()
        running = now < end
        if not running and not outstanding:
            return
        fresh = []
        if running:
            fresh = [stream(client, n + i) for i in range(window - len(outstanding))]
            n += len(fresh)
            phase.attempted += len(fresh)
        ids = list(outstanding)
        answers = exchange(
            endpoint,
            [{"verb": "fetch", "job_id": j} for j in ids]
            + [request for request, _ in fresh],
        )
        landed = good = 0
        for job_id, answer in zip(ids, answers):
            valid, submitted_at = outstanding[job_id]
            if answer.get("status") == "pending":
                if now - submitted_at > spec.JOB_TIMEOUT_SEC:
                    del outstanding[job_id]
                    phase.fail(f"burst timeout {job_id}")
                continue
            del outstanding[job_id]
            landed += 1
            if _payload_ok(answer, job_id, valid):
                good += 1
                phase.values[job_id] = answer["result"]
            else:
                phase.fail(f"burst fetch {job_id}: {answer}")
        phase.ok += good
        if running and good:
            phase.landings.append((time.perf_counter(), good))
        for (request, valid), answer in zip(fresh, answers[len(ids):]):
            if _accepted(answer, request["job_id"]):
                outstanding[request["job_id"]] = (valid, now)
            else:
                phase.fail(f"burst submit: {answer}")
        if not landed:
            time.sleep(spec.POLL_SLEEP_SEC)


def burst_phase(
    endpoint: str,
    stream: JobStream,
    seconds: float,
    clients: int = spec.CLIENTS,
    window: int = spec.BURST_JOBS,
) -> Phase:
    """Throughput is ``phase.rate()`` over the results that landed
    inside the phase (the drain afterwards is verified but not timed)."""
    end = time.perf_counter() + seconds

    def body(client: int, phase: Phase) -> None:
        _burst_client(endpoint, stream, client, end, window, phase)

    phase = _run_clients(body, clients)
    phase.wall = seconds
    return phase


# ----------------------------------------------------------------------
# readback: re-fetch completed results, singly or 16 per exchange
# ----------------------------------------------------------------------
def readback_phase(
    endpoint: str,
    expected: Dict[str, Callable[[Any], bool]],
    seconds: float,
    batch: int,
    clients: int = spec.CLIENTS,
) -> Phase:
    """Round-robin over ``expected`` ids; one latency sample per
    exchange, ``ok`` counts verified fetches."""
    ids = sorted(expected)

    def body(client: int, phase: Phase) -> None:
        end = time.perf_counter() + seconds
        cursor = client * (len(ids) // clients)
        while time.perf_counter() < end:
            wanted = [ids[(cursor + i) % len(ids)] for i in range(batch)]
            cursor += batch
            phase.attempted += batch
            t0 = time.perf_counter()
            answers = exchange(
                endpoint, [{"verb": "fetch", "job_id": j} for j in wanted]
            )
            phase.latencies.append(time.perf_counter() - t0)
            for job_id, answer in zip(wanted, answers):
                if _payload_ok(answer, job_id, expected[job_id]):
                    phase.ok += 1
                else:
                    phase.fail(f"readback {job_id}: {answer}")

    return _run_clients(body, clients)


# ----------------------------------------------------------------------
# sampled burst: one client loads, the other samples ``health``
# ----------------------------------------------------------------------
def sampled_burst(
    load_endpoint: str,
    health_endpoints: Sequence[str],
    workers: int,
    stream: JobStream,
    seconds: float,
) -> Tuple[Phase, List[float], List[int]]:
    """Saturate with one loading client (``2 x BURST_JOBS`` outstanding)
    while the second thread asks ``health`` every 50 ms until the
    phase's end (the drain afterwards is not sampled).

    Returns the load phase, busy shares (busy_workers / workers) and
    queue depths, one entry per sample.
    """
    busy: List[float] = []
    depth: List[int] = []
    end = time.perf_counter() + seconds

    def body(client: int, phase: Phase) -> None:
        if client == 0:
            _burst_client(
                load_endpoint, stream, client, end, 2 * spec.BURST_JOBS, phase
            )
            return
        while time.perf_counter() < end:
            busy_now, depth_now = 0, 0
            for endpoint in health_endpoints:
                health = exchange(endpoint, [{"verb": "health"}])[0]["health"]
                busy_now += health["busy_workers"]
                depth_now += health["queue_depth"]
            busy.append(busy_now / workers)
            depth.append(depth_now)
            time.sleep(0.05)

    return _run_clients(body, 2), busy, depth
