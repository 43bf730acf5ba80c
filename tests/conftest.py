"""Shared fixtures.

Expensive artefacts (simulated runs, trained models) are session-scoped
and deliberately small: the unit suite must stay fast while still
exercising real end-to-end behaviour.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.pantheon import generate_dataset, generate_run
from repro.serve.transport import FrameServer
from repro.simulation import units
from repro.simulation.topology import (
    ConstantBandwidth,
    PathConfig,
    PoissonCT,
    run_flow,
)


@pytest.fixture(autouse=True)
def _reset_obs():
    """Telemetry state is process-global; keep tests isolated."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="session")
def simple_config() -> PathConfig:
    """A clean 10 Mb/s path with light Poisson cross traffic."""
    return PathConfig(
        bandwidth=ConstantBandwidth(units.mbps_to_bytes_per_sec(10.0)),
        propagation_delay=units.ms_to_sec(25.0),
        buffer_bytes=250_000,
        cross_traffic=(
            PoissonCT(rate_bytes_per_sec=units.mbps_to_bytes_per_sec(2.0)),
        ),
    )


@pytest.fixture(scope="session")
def clean_config() -> PathConfig:
    """A 10 Mb/s path with no cross traffic and no reordering."""
    return PathConfig(
        bandwidth=ConstantBandwidth(units.mbps_to_bytes_per_sec(10.0)),
        propagation_delay=units.ms_to_sec(25.0),
        buffer_bytes=250_000,
    )


@pytest.fixture(scope="session")
def cubic_run(simple_config):
    """One 10 s Cubic run over the simple path."""
    return run_flow(simple_config, "cubic", duration=10.0, seed=3)


@pytest.fixture(scope="session")
def vegas_run(simple_config):
    """One 10 s Vegas run over the simple path."""
    return run_flow(simple_config, "vegas", duration=10.0, seed=3)


@pytest.fixture(scope="session")
def cubic_trace(cubic_run):
    return cubic_run.trace


@pytest.fixture(scope="session")
def cellular_run():
    """One Pantheon-like cellular run (has reordering + variable rate)."""
    return generate_run(seed=11, protocol="cubic", duration=12.0)


@pytest.fixture(scope="session")
def small_dataset():
    """A small Pantheon-like dataset: 3 paths x {cubic, vegas}, 12 s."""
    return generate_dataset(
        n_paths=3,
        protocols=("cubic", "vegas"),
        duration=12.0,
        base_seed=10,
    )


@pytest.fixture(scope="session")
def vegas_traces():
    """Four Vegas traces over reordering-enabled cellular paths."""
    dataset = generate_dataset(
        n_paths=4, protocols=("vegas",), duration=12.0, base_seed=60
    )
    return dataset.traces()


@pytest.fixture()
def fake_shard(tmp_path):
    """``make(reply) -> (server, seen)``: a :class:`FrameServer` standing
    in for a shard daemon.  It records every request in ``seen`` and
    answers ``reply`` annotated with the request's ``job_id``."""
    servers = []

    def make(reply=None):
        seen = []

        def answer(request):
            seen.append(request)
            return {
                **(reply or {"status": "accepted"}),
                "job_id": request.get("job_id"),
            }

        server = FrameServer(tmp_path / f"shard-{len(servers)}.sock", answer)
        server.start()
        servers.append(server)
        return server, seen

    yield make
    for server in servers:
        server.stop()
