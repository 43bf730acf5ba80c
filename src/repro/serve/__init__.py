"""repro.serve — a crash-tolerant, supervised simulation service.

The long-running counterpart to ``repro batch`` (DESIGN.md §10): a
``repro serve run`` daemon accepts fit/simulate/experiment job requests
as framed JSONL over a unix or TCP socket, journals each
one to a durable fsync'd WAL before acting on it, and executes leases
in supervised worker processes with heartbeats, deadline kills, and
crash backoff.  After a SIGKILL the journal replay requeues every
orphaned lease; completed jobs are never re-run.  SIGTERM/SIGINT drain
gracefully: intake stops, leases settle or are checkpointed, and a
complete run manifest is written before exit 0.

For horizontal scale, ``repro serve fleet`` runs N of those daemons
behind one consistent-hashing router socket (DESIGN.md §13): each shard
keeps its own state dir and every §10 invariant, while the fleet layer
adds routing, shard-death handoff, restart with re-admission, and a
cross-shard status roll-up.  OPERATIONS.md is the operator's manual.

Quickstart::

    # terminal 1 — the service (single daemon ...)
    repro serve run --state /tmp/svc --socket /tmp/svc/serve.sock --workers 2
    # ... or a routed 3-shard fleet)
    repro serve fleet --state /tmp/fleet --shards 3

    # terminal 2 — a client (same protocol either way)
    repro serve submit --socket /tmp/fleet/fleet.sock \
        '{"kind": "simulate", "params": {...}}'
    repro serve status --state /tmp/fleet

Programmatic use mirrors the CLI::

    from repro.serve import ServeConfig, ServeDaemon

    config = ServeConfig(state_dir=state, socket_path=sock, workers=2)
    daemon = ServeDaemon(config)   # replays the journal, requeues orphans
    daemon.run()                   # blocks until signalled, then drains
"""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.client import (
    fetch_result,
    format_status,
    query_daemon,
    read_live_snapshot,
    serve_status,
    submit_via_socket,
)
from repro.serve.daemon import ServeConfig, ServeDaemon, serve_forever
from repro.serve.fleet import (
    FleetConfig,
    FleetManager,
    ShardHandle,
    fleet_forever,
    fleet_status,
    format_fleet_status,
    is_fleet_state,
)
from repro.serve.journal import (
    JobJournal,
    JobRecord,
    JournalState,
    record_crc_ok,
    seal_record,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.requests import (
    BadRequest,
    normalize_request,
    request_to_spec,
    resolve_worker,
)
from repro.serve.router import FleetRouter, HashRing
from repro.serve.supervisor import (
    Lease,
    LeaseEvent,
    Supervisor,
    quarantine_result,
    read_result,
)
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    DeadlineExceeded,
    Endpoint,
    FrameTooLargeError,
    ProtocolError,
    ResilientClient,
    RetryBudgetExceeded,
    RetryPolicy,
    TransportError,
    parse_endpoint,
)

__all__ = [
    "AdmissionQueue",
    "BadRequest",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "DeadlineExceeded",
    "Endpoint",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ResilientClient",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "TransportError",
    "parse_endpoint",
    "FleetConfig",
    "FleetManager",
    "FleetRouter",
    "HashRing",
    "JobJournal",
    "JobRecord",
    "JournalState",
    "Lease",
    "LeaseEvent",
    "ServeConfig",
    "ServeDaemon",
    "ShardHandle",
    "Supervisor",
    "fetch_result",
    "fleet_forever",
    "fleet_status",
    "format_fleet_status",
    "format_status",
    "is_fleet_state",
    "normalize_request",
    "quarantine_result",
    "query_daemon",
    "read_live_snapshot",
    "read_result",
    "record_crc_ok",
    "request_to_spec",
    "resolve_worker",
    "seal_record",
    "serve_forever",
    "serve_status",
    "submit_via_socket",
]
