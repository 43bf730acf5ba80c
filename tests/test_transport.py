"""Tests for repro.serve.transport and the network-chaos proxy.

Covers DESIGN.md §14: endpoint parsing, frame assembly with oversize
resync, the one-shot exchange's partial-batch contract, ResilientClient
retry / backoff / retry-after / deadline semantics against scripted
fake servers, the hardened :class:`FrameServer` intake (oversize,
garbage, idle eviction, duplicate dedupe) through the daemon over both
unix and tcp and through the fleet router, and :class:`NetChaosProxy`
determinism.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.guard.netchaos import NetChaosConfig, NetChaosProxy
from repro.serve.daemon import ENDPOINT_FILE, ServeConfig, ServeDaemon
from repro.serve.router import FleetRouter
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    DeadlineExceeded,
    Endpoint,
    FrameAssembler,
    FrameTooLargeError,
    ProtocolError,
    ResilientClient,
    RetryBudgetExceeded,
    TransportError,
    encode_frame,
    exchange,
    frame_too_large_response,
    parse_endpoint,
)

_CHUNK = 65536


@pytest.fixture(autouse=True)
def _enable_obs():
    """Client-side transport counters only record when obs is live
    (daemon tests self-enable; pure-client tests must opt in)."""
    obs.configure(enabled=True)
    yield


# ----------------------------------------------------------------------
# Scripted fake servers: one handler per accepted connection, in order
# ----------------------------------------------------------------------
def _recv_objects(conn: socket.socket, n: int, timeout: float = 5.0):
    """Read ``n`` complete request frames off a blocking socket."""
    assembler = FrameAssembler()
    out = []
    conn.settimeout(timeout)
    while len(out) < n:
        data = conn.recv(_CHUNK)
        if not data:
            raise AssertionError(f"client closed after {len(out)}/{n} frames")
        for kind, payload in assembler.feed(data):
            assert kind == "frame", kind
            out.append(json.loads(payload))
    return out


def _recv_frame(conn: socket.socket, timeout: float = 5.0):
    """One response frame off a raw socket (None on EOF)."""
    assembler = FrameAssembler()
    conn.settimeout(timeout)
    while True:
        data = conn.recv(_CHUNK)
        if not data:
            return None
        events = assembler.feed(data)
        if events:
            kind, payload = events[0]
            assert kind == "frame", kind
            return json.loads(payload)


def answer(n: int, make_response=None):
    """A script that answers ``n`` requests, then closes the connection."""
    make_response = make_response or (
        lambda req: {"status": "accepted", "i": req.get("i")}
    )

    def script(conn):
        for _ in range(n):
            req = _recv_objects(conn, 1)[0]
            conn.sendall(encode_frame(make_response(req)))

    return script


def answer_all(make_response=None, seen=None):
    """A script that answers every request until the client hangs up."""
    make_response = make_response or (
        lambda req: {"status": "accepted", "i": req.get("i")}
    )

    def script(conn):
        assembler = FrameAssembler()
        conn.settimeout(5.0)
        while True:
            try:
                data = conn.recv(_CHUNK)
            except (socket.timeout, OSError):
                return
            if not data:
                return
            for kind, payload in assembler.feed(data):
                req = json.loads(payload)
                if seen is not None:
                    seen.append(req.get("i"))
                try:
                    conn.sendall(encode_frame(make_response(req)))
                except OSError:
                    return

    return script


def torn_answer(conn):
    """Read one request, send half a response frame, hang up."""
    _recv_objects(conn, 1)
    conn.sendall(b'{"status": "acc')


def idle_script(conn):
    """Accept the connection but never answer anything."""
    conn.settimeout(2.0)
    try:
        conn.recv(_CHUNK)
    except (socket.timeout, OSError):
        pass


class ScriptedServer:
    """Threaded unix-socket server running one script per connection.

    Connections beyond the script list reuse the last script, so an
    ``answer_all`` tail serves every reconnect a retrying client makes.
    """

    def __init__(self, tmp_path: Path, scripts):
        self.endpoint = parse_endpoint(tmp_path / "scripted.sock")
        self.scripts = list(scripts)
        self.connections = 0
        self._server = self.endpoint.listen()
        self._server.settimeout(0.2)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        index = 0
        while not self._done.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            if self.scripts:
                script = self.scripts[min(index, len(self.scripts) - 1)]
            else:
                script = idle_script
            index += 1
            try:
                script(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        self._done.set()
        try:
            self._server.close()
        except OSError:
            pass
        self._thread.join(timeout=5)
        self.endpoint.cleanup()


@pytest.fixture()
def scripted(tmp_path):
    servers = []

    def make(*scripts):
        server = ScriptedServer(tmp_path, scripts)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class FakeTime:
    """Injectable clock + sleep so retry pacing asserts deterministically."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, sec):
        self.sleeps.append(sec)
        self.now += sec


def _client(endpoint, ft=None, **overrides):
    kwargs = dict(
        deadline_sec=30.0,
        max_attempts=6,
        backoff_base_sec=0.001,
        backoff_max_sec=0.002,
        connect_timeout_sec=2.0,
        io_timeout_sec=5.0,
        rng=random.Random(0),
    )
    kwargs.update(overrides)
    rng = kwargs.pop("rng")
    if ft is not None:
        kwargs.update(sleep=ft.sleep, clock=ft.clock)
    return ResilientClient(endpoint, rng=rng, **kwargs)


# ----------------------------------------------------------------------
# Endpoint parsing
# ----------------------------------------------------------------------
class TestEndpointParsing:
    def test_bare_string_path_is_unix(self, tmp_path):
        endpoint = parse_endpoint(str(tmp_path / "a.sock"))
        assert endpoint.scheme == "unix"
        assert endpoint.path == tmp_path / "a.sock"

    def test_path_object_is_unix(self, tmp_path):
        endpoint = parse_endpoint(tmp_path / "a.sock")
        assert endpoint.scheme == "unix"
        assert endpoint.describe() == f"unix:{tmp_path / 'a.sock'}"

    def test_unix_scheme(self):
        endpoint = parse_endpoint("unix:/tmp/x.sock")
        assert (endpoint.scheme, endpoint.path) == ("unix", Path("/tmp/x.sock"))

    def test_tcp_scheme(self):
        endpoint = parse_endpoint("tcp:127.0.0.1:8931")
        assert (endpoint.scheme, endpoint.host, endpoint.port) == (
            "tcp", "127.0.0.1", 8931,
        )
        assert endpoint.describe() == "tcp:127.0.0.1:8931"

    def test_endpoint_passthrough(self):
        endpoint = Endpoint(scheme="tcp", host="h", port=1)
        assert parse_endpoint(endpoint) is endpoint

    @pytest.mark.parametrize(
        "spec",
        ["tcp:hostonly", "tcp::99", "tcp:h:notaport", "tcp:h:70000", "unix:"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_endpoint(spec)


# ----------------------------------------------------------------------
# Frame assembly
# ----------------------------------------------------------------------
class TestFrameAssembler:
    def test_torn_frame_across_feeds(self):
        assembler = FrameAssembler()
        assert assembler.feed(b'{"a"') == []
        events = assembler.feed(b': 1}\n{"b"')
        assert events == [("frame", b'{"a": 1}')]
        assert assembler.pending_bytes == 4

    def test_many_frames_in_one_chunk(self):
        assembler = FrameAssembler()
        events = assembler.feed(b'{"i": 0}\n{"i": 1}\n{"i": 2}\n')
        assert [json.loads(p)["i"] for _, p in events] == [0, 1, 2]
        assert assembler.pending_bytes == 0

    def test_oversize_complete_frame_is_flagged_next_frame_fine(self):
        assembler = FrameAssembler(max_bytes=16)
        events = assembler.feed(b"x" * 40 + b'\n{"ok": 1}\n')
        assert events == [("too_large", 40), ("frame", b'{"ok": 1}')]

    def test_streamed_oversize_resyncs_at_next_newline(self):
        assembler = FrameAssembler(max_bytes=16)
        events = assembler.feed(b"y" * 20)
        assert events == [("too_large", 20)]
        # Still inside the oversized frame: flagged once, then discarded.
        assert assembler.feed(b"y" * 50) == []
        events = assembler.feed(b'tail\n{"ok": 2}\n')
        assert events == [("frame", b'{"ok": 2}')]

    def test_frame_too_large_response_shape(self):
        response = frame_too_large_response(123)
        assert response == {
            "status": "rejected",
            "reason": "frame_too_large",
            "max_frame_bytes": 123,
        }
        assert obs.metrics().counter("transport.frames_too_large").value == 1


# ----------------------------------------------------------------------
# exchange: one-shot, fail-fast, partials attached
# ----------------------------------------------------------------------
class TestExchange:
    def test_batch_roundtrip_in_order(self, scripted):
        server = scripted(answer(3))
        responses = exchange(server.endpoint, [{"i": i} for i in range(3)])
        assert [r["i"] for r in responses] == [0, 1, 2]

    def test_mid_batch_close_attaches_partial_responses(self, scripted):
        server = scripted(answer(1))
        with pytest.raises(ProtocolError) as err:
            exchange(server.endpoint, [{"i": 0}, {"i": 1}])
        assert [r["i"] for r in err.value.responses] == [0]
        assert err.value.retryable is True

    def test_torn_response_frame_then_close(self, scripted):
        server = scripted(torn_answer)
        with pytest.raises(ProtocolError) as err:
            exchange(server.endpoint, [{"i": 0}])
        assert err.value.responses == []

    def test_oversized_request_refused_client_side(self, scripted):
        server = scripted(idle_script)
        with pytest.raises(FrameTooLargeError) as err:
            exchange(
                server.endpoint,
                [{"pad": "x" * 200}],
                max_frame_bytes=64,
            )
        assert err.value.retryable is False
        assert err.value.responses == []

    def test_oversized_request_never_dials(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with pytest.raises(FrameTooLargeError):
                exchange(f"tcp:127.0.0.1:{port}", [{"pad": "x" * 200}],
                         max_frame_bytes=64)
            listener.settimeout(0.3)
            with pytest.raises(socket.timeout):
                listener.accept()

    def test_connect_failure_is_classified(self, tmp_path):
        with pytest.raises(ProtocolError) as err:
            exchange(tmp_path / "missing.sock", [{"i": 0}], timeout=0.5)
        assert err.value.retryable is True
        assert isinstance(err.value, ConnectionError)  # legacy except-clauses


# ----------------------------------------------------------------------
# ResilientClient: retries, partial resubmission, pacing, deadlines
# ----------------------------------------------------------------------
class TestResilientClient:
    def test_reconnects_after_mid_batch_close(self, scripted):
        seen = []
        server = scripted(answer(1), answer_all(seen=seen))
        client = _client(server.endpoint)
        responses = client.submit([{"i": 0}, {"i": 1}])
        assert [r["status"] for r in responses] == ["accepted", "accepted"]
        assert [r["i"] for r in responses] == [0, 1]
        assert server.connections == 2
        # Only the unanswered request was resubmitted on reconnect.
        assert seen == [1]
        assert obs.metrics().counter("transport.retries").value >= 1
        assert obs.metrics().counter("transport.reconnects").value >= 1

    def test_torn_response_then_recovery(self, scripted):
        server = scripted(torn_answer, answer(1))
        client = _client(server.endpoint)
        assert client.call({"i": 7})["status"] == "accepted"
        assert server.connections == 2

    def test_retry_after_hint_is_honored(self, scripted):
        def overloaded(req):
            return {
                "status": "rejected",
                "reason": "overloaded",
                "retry_after_sec": 5.0,
            }

        server = scripted(answer(1, overloaded), answer(1))
        ft = FakeTime()
        client = _client(server.endpoint, ft=ft)
        response = client.call({"i": 0})
        assert response["status"] == "accepted"
        # The pause was the server's hint, not the (tiny) backoff.
        assert ft.sleeps[0] == 5.0
        assert (
            obs.metrics().counter("transport.retry_after_honored").value == 1
        )

    def test_retry_after_capped_by_deadline_budget(self, scripted):
        def overloaded(req):
            return {
                "status": "rejected",
                "reason": "overloaded",
                "retry_after_sec": 100.0,
            }

        server = scripted(answer(1, overloaded), answer(1, overloaded))
        ft = FakeTime()
        client = _client(server.endpoint, ft=ft, deadline_sec=8.0)
        with pytest.raises(DeadlineExceeded) as err:
            client.call({"i": 0})
        # Never sleeps past the budget: one capped pause, then classified.
        assert ft.sleeps == [8.0]
        assert err.value.attempts == 1
        assert err.value.retryable is True
        assert err.value.responses == []
        assert (
            obs.metrics().counter("transport.deadline_exhausted").value == 1
        )

    def test_retry_budget_exhausted_against_dead_endpoint(self, tmp_path):
        ft = FakeTime()
        client = _client(
            tmp_path / "nobody-home.sock", ft=ft, max_attempts=3,
        )
        with pytest.raises(RetryBudgetExceeded) as err:
            client.call({"i": 0})
        assert err.value.attempts == 3
        assert err.value.retryable is True
        assert isinstance(err.value.last_error, ProtocolError)
        assert obs.metrics().counter("transport.gave_up").value == 1
        assert len(ft.sleeps) == 3  # one bounded backoff per failure

    def test_oversized_request_raises_immediately_no_retries(self, scripted):
        server = scripted(idle_script)
        client = _client(server.endpoint, max_frame_bytes=64)
        with pytest.raises(FrameTooLargeError) as err:
            client.call({"pad": "x" * 200})
        assert err.value.retryable is False
        assert obs.metrics().counter("transport.retries").value == 0

    def test_attempt_latency_histogram_is_fed(self, scripted):
        server = scripted(answer(1))
        _client(server.endpoint).call({"i": 0})
        assert (
            obs.metrics().log_histogram("transport.attempt_sec").count >= 1
        )


# ----------------------------------------------------------------------
# Daemon intake hardening, unix/tcp parity over the same matrix
# ----------------------------------------------------------------------
def _job(i: int, **params):
    return {
        "kind": "chaos",
        "params": {"fault": None, "i": i, **params},
        "label": f"transport:{i}",
        "class": "transport",
        "timeout_sec": 30.0,
    }


def _run_until(daemon: ServeDaemon, predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        daemon.tick()
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("daemon did not reach the expected state in time")


@contextlib.contextmanager
def _daemons(tmp_path):
    """Build listening daemons on demand; tear every one down on exit."""
    daemons = []

    def make(scheme="unix", **overrides):
        index = len(daemons)
        if scheme == "tcp":
            bind = "tcp:127.0.0.1:0"
        else:
            bind = f"unix:{tmp_path / f'serve-{index}.sock'}"
        kwargs = dict(
            state_dir=tmp_path / f"state-{index}",
            workers=1,
            queue_limit=16,
            fsync=False,
            bind=bind,
        )
        kwargs.update(overrides)
        daemon = ServeDaemon(ServeConfig(**kwargs))
        daemon._start_socket()
        daemons.append(daemon)
        return daemon

    try:
        yield make
    finally:
        for daemon in daemons:
            daemon.supervisor.kill_all()
            daemon._stop_socket()
            try:
                daemon.journal.close()
            except Exception:
                pass
            daemon._lock_file.release()
            daemon._close_wake_pipe()


@pytest.fixture()
def daemon_factory(tmp_path):
    with _daemons(tmp_path) as make:
        yield make


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
@pytest.mark.parametrize("scheme", ["unix", "tcp"])
def test_factory_teardown_closes_every_fd(tmp_path, scheme):
    before = _open_fds()
    with _daemons(tmp_path) as make:
        make(scheme)
        assert _open_fds() > before
    # ``make`` keeps the daemon alive: only its teardown can close its fds.
    assert _open_fds() == before


def _open_fds() -> int:
    gc.collect()  # close what earlier tests left unreferenced first
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("scheme", ["unix", "tcp"])
class TestDaemonIntakeParity:
    """The same hardening matrix must hold on unix and tcp binds."""

    def test_endpoint_file_matches_bound_endpoint(self, daemon_factory, scheme):
        daemon = daemon_factory(scheme)
        published = (
            daemon.config.state_dir / ENDPOINT_FILE
        ).read_text().strip()
        assert published == daemon.bound.describe()
        if scheme == "tcp":
            assert daemon.bound.port != 0  # ephemeral port resolved

    def test_submit_then_duplicate(self, daemon_factory, scheme):
        daemon = daemon_factory(scheme)
        first = exchange(daemon.bound, [_job(0)])[0]
        assert first["status"] == "accepted"
        again = exchange(daemon.bound, [_job(0)])[0]
        assert again["status"] == "duplicate"
        assert again["job_id"] == first["job_id"]

    def test_oversize_frame_rejected_connection_survives(
        self, daemon_factory, scheme
    ):
        daemon = daemon_factory(scheme, max_frame_bytes=1024)
        with daemon.bound.connect(timeout=5.0) as conn:
            conn.sendall(b"z" * 4096 + b"\n")
            response = _recv_frame(conn)
            assert response["status"] == "rejected"
            assert response["reason"] == "frame_too_large"
            assert response["max_frame_bytes"] == 1024
            # Same connection, next frame parses normally (resync).
            conn.sendall(encode_frame({"verb": "health"}))
            assert _recv_frame(conn)["status"] in ("ok", "degraded")
        assert (
            obs.metrics().counter("transport.frames_too_large").value == 1
        )

    def test_garbage_frame_counted_and_answered_invalid(
        self, daemon_factory, scheme
    ):
        daemon = daemon_factory(scheme)
        with daemon.bound.connect(timeout=5.0) as conn:
            conn.sendall(b"this is not json\n")
            response = _recv_frame(conn)
            assert response["status"] == "rejected"
            assert response["reason"] == "invalid"
        assert (
            obs.metrics().counter("transport.malformed_frames").value == 1
        )

    def test_slow_loris_client_is_evicted(self, daemon_factory, scheme):
        daemon = daemon_factory(scheme, intake_idle_sec=0.2)
        with daemon.bound.connect(timeout=5.0) as conn:
            conn.sendall(b'{"kind"')  # half a frame, then silence
            conn.settimeout(5.0)
            assert conn.recv(_CHUNK) == b""  # server hung up on us
        assert obs.metrics().counter("transport.idle_evicted").value == 1


class TestDaemonExactlyOnce:
    def test_duplicate_delivery_not_double_executed(self, daemon_factory):
        """Deliver the same request twice (as a retrying client would):
        one accepted, one ``duplicate``, exactly one execution."""
        daemon = daemon_factory()
        responses = exchange(daemon.bound, [_job(0), _job(0)])
        assert [r["status"] for r in responses] == ["accepted", "duplicate"]
        job_id = responses[0]["job_id"]
        _run_until(
            daemon,
            lambda: daemon.journal.state.counts()["completed"] == 1,
        )
        assert daemon.journal.state.jobs[job_id].completions == 1

    def test_resilient_client_end_to_end(self, daemon_factory):
        daemon = daemon_factory("tcp")
        client = _client(daemon.bound)
        responses = client.submit([_job(i) for i in range(3)])
        assert all(r["status"] == "accepted" for r in responses)
        assert client.query("health")["status"] in ("ok", "degraded")
        _run_until(
            daemon,
            lambda: daemon.journal.state.counts()["completed"] == 3,
        )


# ----------------------------------------------------------------------
# Router intake: the same FrameServer, forwarding to shards
# ----------------------------------------------------------------------
@pytest.fixture()
def router_factory(tmp_path):
    routers = []

    def make(bind=None, **kwargs):
        kwargs.setdefault("owner_of", lambda job_id: None)
        kwargs.setdefault(
            "control", lambda verb: {"status": "ok", "verb": verb}
        )
        router = FleetRouter(bind or tmp_path / "fleet.sock", **kwargs)
        router.start()
        routers.append(router)
        return router

    yield make
    for router in routers:
        router.stop()


class TestRouterIntake:
    def test_oversize_rejected_then_connection_usable(self, router_factory):
        router = router_factory(max_frame_bytes=1024)
        with router.bound.connect(timeout=5.0) as conn:
            conn.sendall(b"w" * 4096 + b"\n" + encode_frame({"verb": "stats"}))
            first, second = _recv_objects(conn, 2)
        assert first["reason"] == "frame_too_large"
        assert second == {"status": "ok", "verb": "stats"}
        assert (
            obs.metrics().counter("transport.frames_too_large").value == 1
        )

    def test_idle_client_is_evicted(self, router_factory):
        router = router_factory(idle_timeout_sec=0.2)
        with router.bound.connect(timeout=5.0) as conn:
            assert conn.recv(_CHUNK) == b""  # server hung up on us
        assert obs.metrics().counter("transport.idle_evicted").value == 1

    def test_tcp_bind_forwards_to_shard(self, router_factory, fake_shard):
        """A tcp-bound router forwarding to a unix shard: the cross-node
        front door over the single-host shard fabric."""
        shard, _ = fake_shard()
        router = router_factory(
            "tcp:127.0.0.1:0",
            owner_of=lambda job_id: ("shard-3", shard.bound),
        )
        response = exchange(router.bound, [
            {"job_id": "jx", "kind": "chaos", "params": {},
             "label": "jx", "class": "chaos"}
        ])[0]
        assert response["status"] == "accepted"
        assert response["shard"] == "shard-3"

    def test_invalid_frames_answer_the_daemon_rejection_shape(
        self, router_factory
    ):
        """Garbage (non-JSON, non-UTF-8) and a request without ``kind``
        are rejected exactly as a shard daemon rejects them: reason
        ``invalid`` + detail, on a connection that stays usable."""
        router = router_factory()
        with router.bound.connect(timeout=5.0) as conn:
            conn.sendall(b"this is not json\n\xff\xfe\n")
            conn.sendall(encode_frame({"params": {}}))
            responses = _recv_objects(conn, 3)
        for response in responses:
            assert response["status"] == "rejected"
            assert response["reason"] == "invalid"
            assert response["detail"]
        assert (
            obs.metrics().counter("transport.malformed_frames").value == 2
        )

    def test_near_cap_request_does_not_blame_the_shard(
        self, router_factory, fake_shard
    ):
        """Normalising adds job_id/label, pushing a near-cap frame over
        the cap on the way to the shard: the answer is
        ``frame_too_large`` and the shard is neither contacted with the
        request nor reported unreachable."""
        shard, seen = fake_shard()
        suspected = []
        router = router_factory(
            owner_of=lambda job_id: ("shard-1", shard.bound),
            on_shard_error=suspected.append,
        )
        request = {"kind": "chaos", "params": {"pad": ""}}
        pad = MAX_FRAME_BYTES - 64 - len(encode_frame(request)) + 1
        request["params"]["pad"] = "p" * pad
        assert len(encode_frame(request)) - 1 == MAX_FRAME_BYTES - 64
        response = exchange(router.bound, [request])[0]
        assert response["status"] == "rejected"
        assert response["reason"] == "frame_too_large"
        assert suspected == []
        assert seen == []


def test_cli_import_loads_neither_asyncio_nor_ssl():
    """Every daemon, shard, router and CLI process imports repro.cli;
    the threaded transport keeps asyncio (and the ssl it drags in) out
    of all of them."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src_root},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# The network-chaos proxy
# ----------------------------------------------------------------------
class TestNetChaosProxy:
    def test_clean_relay_with_no_faults(self, scripted, tmp_path):
        server = scripted(answer_all())
        with NetChaosProxy(
            tmp_path / "front.sock", server.endpoint, NetChaosConfig(seed=1)
        ) as proxy:
            responses = exchange(
                proxy.bound, [{"i": i} for i in range(3)]
            )
        assert [r["i"] for r in responses] == [0, 1, 2]
        stats = proxy.stats()
        assert stats["frames"] == 6  # 3 requests + 3 responses
        assert all(
            stats[k] == 0
            for k in ("dropped", "duplicated", "delayed", "truncated",
                      "severed")
        )

    def test_duplicated_request_hits_daemon_dedupe(
        self, daemon_factory, tmp_path
    ):
        """Every request frame duplicated on the wire: the daemon must
        answer the copy ``duplicate`` and execute exactly once."""
        daemon = daemon_factory("tcp")
        config = NetChaosConfig(seed=2, dup_prob=1.0, direction="request")
        with NetChaosProxy(
            "tcp:127.0.0.1:0", daemon.bound, config
        ) as proxy:
            response = exchange(proxy.bound, [_job(0)])[0]
            assert response["status"] == "accepted"
            _run_until(
                daemon,
                lambda: daemon.journal.state.counts()["completed"] == 1,
            )
        assert proxy.stats()["duplicated"] == 1
        job = daemon.journal.state.jobs[response["job_id"]]
        assert job.completions == 1
        assert obs.metrics().counter("chaos.net.duplicated").value == 1

    def test_truncated_response_is_torn_then_severed(self, scripted, tmp_path):
        server = scripted(answer_all())
        config = NetChaosConfig(
            seed=3, truncate_prob=1.0, direction="response"
        )
        with NetChaosProxy(
            tmp_path / "front.sock", server.endpoint, config
        ) as proxy:
            with pytest.raises(ProtocolError):
                exchange(proxy.bound, [{"i": 0}], timeout=5.0)
        assert proxy.stats()["truncated"] == 1

    def test_resilient_client_survives_lossy_request_path(
        self, scripted, tmp_path
    ):
        server = scripted(answer_all())
        config = NetChaosConfig(seed=5, drop_prob=0.5, direction="request")
        with NetChaosProxy(
            tmp_path / "front.sock", server.endpoint, config
        ) as proxy:
            client = _client(
                proxy.bound,
                io_timeout_sec=0.3,
                deadline_sec=20.0,
                max_attempts=30,
            )
            responses = client.submit([{"i": i} for i in range(4)])
        assert [r["i"] for r in responses] == [0, 1, 2, 3]
        assert proxy.stats()["dropped"] >= 1

    def test_same_seed_replays_identical_fault_sequence(
        self, tmp_path
    ):
        """The campaign contract: a failing seed replays byte-identically."""

        def run_once(label):
            server = ScriptedServer(tmp_path / label, [answer_all()])
            try:
                config = NetChaosConfig(
                    seed=11, drop_prob=0.4, direction="request"
                )
                with NetChaosProxy(
                    tmp_path / label / "front.sock",
                    server.endpoint,
                    config,
                ) as proxy:
                    client = _client(
                        proxy.bound,
                        io_timeout_sec=0.3,
                        deadline_sec=20.0,
                        max_attempts=30,
                    )
                    for i in range(6):
                        assert client.call({"i": i})["i"] == i
                return proxy.stats()
            finally:
                server.close()

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = run_once("a")
        second = run_once("b")
        assert first == second
        assert first["dropped"] >= 1

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            NetChaosConfig(direction="sideways")
