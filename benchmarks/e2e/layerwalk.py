"""The traced half of a serve workload that needs no live service: the
same seeded job stream taken single-threaded through each serve layer's
public functions, one span per call.

Three passes, all under production defaults (fsync on):

* `walk_layers` - ``normalize_request`` -> ``JobJournal.submitted`` ->
  ``AdmissionQueue.push/pop`` -> ``Supervisor.dispatch`` ->
  ``JobJournal.leased`` -> ``Supervisor.poll`` (every 1 ms) ->
  ``JobJournal.completed`` -> ``read_result``;
* `walk_daemon` - an in-process ``ServeDaemon``: ``admit`` then
  ``tick()`` back-to-back with no sleep until the journal says
  completed.  That is the path's floor; the untraced latency minus it
  and two round trips is what tick sleeps and scheduling cost;
* `probe_*` - a layer's unit cost where the walk has no call for it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

from repro import obs
from repro.serve import (
    AdmissionQueue,
    JobJournal,
    ServeConfig,
    ServeDaemon,
    Supervisor,
    normalize_request,
    read_result,
)
from repro.serve.transport import FrameAssembler, encode_frame

import harness
import spec
from loadgen import JobStream

_APPENDS = ("journal.submitted", "journal.leased", "journal.completed")


def walk_layers(
    result: harness.Result,
    tracer: harness.Tracer,
    stream: JobStream,
    jobs: int,
    root: Path,
) -> Dict[str, Any]:
    """Walk ``jobs`` jobs through the layers; report their metrics.

    Returns job_id -> result payload, so the caller can compare what
    the layers produce in-process with what the live service served.
    """
    journal = JobJournal(root / "journal", fsync=True)
    queue = AdmissionQueue(limit=spec.FIXED_SETTINGS["queue_limit"])
    supervisor = Supervisor(workers=1, results_dir=root / "results")
    lease_sec: List[float] = []
    result_bytes: List[int] = []
    payloads: Dict[str, Any] = {}
    with tracer.span("walk"):
        for n in range(jobs):
            raw, _ = stream(0, n)
            job_id = raw["job_id"]
            with tracer.span("walk.job", job_id):
                with tracer.span("requests.normalize", job_id):
                    request = normalize_request(raw)
                with tracer.span("journal.submitted", job_id):
                    journal.submitted(request)
                with tracer.span("queue.push", job_id):
                    queue.push(request)
                with tracer.span("queue.pop", job_id):
                    request = queue.pop()
                t0 = time.perf_counter()
                with tracer.span("supervisor.dispatch", job_id):
                    lease = supervisor.dispatch(request, 1)
                with tracer.span("journal.leased", job_id):
                    journal.leased(job_id, 1, pid=lease.process.pid)
                with tracer.span("supervisor.lease", job_id):
                    events = supervisor.poll()
                    while not events:
                        time.sleep(0.001)
                        events = supervisor.poll()
                lease_sec.append(time.perf_counter() - t0)
                event = events[0]
                with tracer.span("journal.completed", job_id):
                    journal.completed(job_id, duration_sec=event.duration_sec)
                with tracer.span("supervisor.read_result", job_id):
                    payload, verdict = read_result(lease.result_path)
            result.count(1, 0 if event.outcome == "completed" and verdict == "valid" else 1)
            result_bytes.append(lease.result_path.stat().st_size)
            payloads[job_id] = payload
    appended = journal.appended_records
    journal.close()
    wal_bytes = sum(p.stat().st_size for p in (root / "journal").glob("wal*.jsonl"))

    appends = [d for name in _APPENDS for d in tracer.durations(name)]
    result.timing("requests.normalize_us", tracer.durations("requests.normalize"), 1e6)
    result.timing("journal.append_fsync_us", appends, 1e6)
    result.timing("journal.append_fsync_p95_us", appends, 1e6, q=95)
    result.metric("journal.appends_per_job", appended / jobs, jobs)
    result.metric("journal.bytes_per_job", wal_bytes / jobs, jobs)
    result.timing("supervisor.dispatch_us", tracer.durations("supervisor.dispatch"), 1e6)
    result.timing("supervisor.lease_ms", lease_sec, 1e3)
    result.timing("supervisor.read_result_us", tracer.durations("supervisor.read_result"), 1e6)
    result.metric("supervisor.result_bytes", harness.median(result_bytes), jobs)

    # The same appends without the flush: disk vs seal/CRC/encode.
    scratch = JobJournal(root / "journal-nofsync", fsync=False)
    nofsync: List[float] = []
    for n in range(jobs):
        request = normalize_request(stream(0, n)[0])
        job_id = request["job_id"]
        for append in (
            lambda: scratch.submitted(request),
            lambda: scratch.leased(job_id, 1, pid=1),
            lambda: scratch.completed(job_id, duration_sec=0.01),
        ):
            nofsync += harness.time_calls(append, 1)
    scratch.close()
    result.timing("journal.append_nofsync_us", nofsync, 1e6)
    return payloads


def walk_daemon(
    result: harness.Result,
    tracer: harness.Tracer,
    stream: JobStream,
    jobs: int,
    root: Path,
) -> float:
    """``admit`` + back-to-back ``tick()`` per job; returns the median
    walk in seconds (``daemon.job_walk_ms``)."""
    config = ServeConfig(
        state_dir=root / "daemon-state",
        socket_path=root / "daemon-state" / "unbound.sock",
        workers=spec.FIXED_SETTINGS["workers"],
    )
    daemon = ServeDaemon(config)  # self-enables telemetry, as shipped
    walks: List[float] = []
    try:
        for n in range(jobs):
            raw, _ = stream(1, n)
            job_id = raw["job_id"]
            with tracer.span("daemon.job_walk", job_id):
                t0 = time.perf_counter()
                with tracer.span("daemon.admit", job_id):
                    response = daemon.admit(raw)
                while True:
                    daemon.tick()
                    job = daemon.journal.state.jobs.get(job_id)
                    if job is None or job.terminal:
                        break
                    if time.perf_counter() - t0 > spec.JOB_TIMEOUT_SEC:
                        break
                walks.append(time.perf_counter() - t0)
            done = job is not None and job.status == "completed"
            result.count(1, 0 if response.get("status") == "accepted" and done else 1)
        idle = harness.time_calls(daemon.tick, max(jobs, 20) * 5)
    finally:
        daemon.drain()
        obs.reset()
        obs.configure(log_level="error")
    result.timing("daemon.admit_us", tracer.durations("daemon.admit"), 1e6)
    result.timing("daemon.tick_idle_us", idle, 1e6)
    result.timing("daemon.job_walk_ms", walks, 1e3)
    return harness.median(walks)


def probe_codec(result: harness.Result, calls: int) -> None:
    """``encode_frame`` + ``FrameAssembler.feed`` of one no-op request."""
    request = {"kind": "chaos", "params": {"fault": None}, "job_id": "codec-probe"}

    def codec() -> None:
        if FrameAssembler().feed(encode_frame(request))[0][0] != "frame":
            raise RuntimeError("codec probe: frame did not round-trip")

    result.timing("transport.frame_codec_us", harness.time_calls(codec, calls * 5), 1e6)


def probe_noop_span(result: harness.Result) -> None:
    """A disabled ``obs.span``: the tracing-off cost every call pays.
    Call it while telemetry is off."""
    if obs.enabled():
        raise RuntimeError("probe_noop_span needs telemetry disabled")
    per_loop = 2000
    samples = []
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(per_loop):
            with obs.span("bench.noop"):
                pass
        samples.append((time.perf_counter() - t0) / per_loop)
    result.timing("obs.noop_span_ns", samples, 1e9)
