"""Inputs made from ``--seed``: the same seed gives the same inputs.

The path *configurations* are constants of the benchmark and are kept
deliberately tame (constant-rate bottleneck, light Poisson cross
traffic on the two smallest paths, mild reordering): how long a
simulation takes depends on what happens in it, and with fading links
or bursty cross traffic the cost of one seed's inputs differed from
another's by 25 %, which would drown any change being measured.  The
seed drives every random realisation on those paths - cross-traffic
arrivals, reordering, protocol dynamics - and the order of the job mix.
The program only ever sees the generated files and requests.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.simulation import units
from repro.simulation.topology import (
    ConstantBandwidth,
    PathConfig,
    PoissonCT,
    run_flow,
)
from repro.sweep import ScenarioGrid, SweepPath
from repro.trace.io import save_trace
from repro.trace.records import PacketRecord, Trace

from loadgen import Job, JobStream

# (rate Mb/s, one-way delay ms, buffer in BDPs, Poisson cross traffic as
# a share of the rate).  Few-Mb/s, tens of ms, bufferbloated: the range
# the paper's India Cellular path implies.
_PATHS: List[Tuple[float, float, float, float]] = [
    (2.0, 30.0, 4.0, 0.1),
    (2.5, 40.0, 3.0, 0.1),
    (3.0, 25.0, 6.0, 0.0),
    (3.5, 50.0, 3.0, 0.0),
]

PROTOCOLS = ("vegas", "ledbat", "cubic", "bbr")


def path_config(index: int) -> PathConfig:
    mbps, delay_ms, bdps, fraction = _PATHS[index % len(_PATHS)]
    rate = units.mbps_to_bytes_per_sec(mbps)
    delay = units.ms_to_sec(delay_ms)
    ct = (PoissonCT(rate_bytes_per_sec=fraction * rate),) if fraction else ()
    return PathConfig(
        bandwidth=ConstantBandwidth(rate),
        propagation_delay=delay,
        buffer_bytes=max(3 * 1500.0, rate * 2 * delay * bdps),
        reorder_prob=0.008,
        reorder_extra_delay=units.ms_to_sec(8.0),
        cross_traffic=ct,
    )


def run_seed(seed: int, index: int, salt: int = 0) -> int:
    """A realisation seed for item ``index`` of benchmark seed ``seed``."""
    return seed * 10_007 + index * 101 + salt


def generate_trace(seed: int, index: int, protocol: str, duration: float) -> Trace:
    """One ground-truth run of ``protocol`` over path ``index``."""
    return run_flow(
        path_config(index), protocol, duration=duration,
        seed=run_seed(seed, index),
    ).trace


def chunks(trace: Trace, packets: int, count: int) -> List[Trace]:
    """The first ``count`` consecutive chunks of exactly ``packets``
    packets, each re-based to start at 0 - equal work whatever the seed."""
    if len(trace) < packets * count:
        raise ValueError(
            f"trace has {len(trace)} packets, need {packets * count}"
        )
    out = []
    for k in range(count):
        records = trace.records[k * packets:(k + 1) * packets]
        t0 = records[0].sent_at
        out.append(
            Trace(
                trace.flow_id,
                [
                    PacketRecord(
                        uid=r.uid, seq=r.seq, size=r.size,
                        sent_at=r.sent_at - t0,
                        delivered_at=r.delivered_at - t0,
                        is_retransmit=r.is_retransmit,
                    )
                    for r in records
                ],
                duration=records[-1].sent_at - t0 + 1e-3,
                protocol=trace.protocol,
            )
        )
    return out


def write_traces(
    directory: Path, seed: int, count: int, duration: float
) -> Tuple[List[Path], float]:
    """``count`` cubic control traces as ``.npz``; returns the paths and
    the generation seconds per trace (``datasets.generate_s_per_trace``)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    t0 = time.perf_counter()
    for index in range(count):
        path = directory / f"path-{index}.npz"
        save_trace(generate_trace(seed, index, "cubic", duration), path)
        paths.append(path)
    return paths, (time.perf_counter() - t0) / count


# ----------------------------------------------------------------------
# Job streams.  Job ids are explicit (<workload>-<seed>-<phase><client>-<n>)
# so repeated content exercises the cache instead of answering duplicate.
# ----------------------------------------------------------------------
NOOP_VALUE = {"fault": None, "ok": True}


def noop_stream(workload: str, seed: int, phase: str) -> JobStream:
    def stream(client: int, n: int) -> Job:
        request = {
            "kind": "chaos",
            "params": {"fault": None},
            "job_id": f"{workload}-{seed}-{phase}{client}-{n}",
        }
        return request, lambda value: value == NOOP_VALUE

    return stream


def sweep_grid(duration: float) -> ScenarioGrid:
    """The one small grid chunk a ``sweep`` job of the mix advances."""
    return ScenarioGrid(
        paths=(
            SweepPath(
                bandwidth_bytes_per_sec=375_000.0,
                propagation_delay=0.03,
                buffer_bytes=64_000,
                label="dsl",
            ),
            SweepPath(
                bandwidth_bytes_per_sec=750_000.0,
                propagation_delay=0.02,
                buffer_bytes=96_000,
                bandwidth_kind="cellular",
                label="lte",
            ),
        ),
        protocols=("cubic", "vegas"),
        seeds=(1, 2, 3, 4),
        duration=duration,
    )


#: 60 % simulate, 30 % fit, 10 % sweep - exactly, in every block of ten,
#: and every trace equally often within a class: the seed shuffles the
#: order, never the shares.  Latencies here are quantised by the daemon's
#: 50 ms tick, so a tail percentile sits between two clusters of jobs;
#: shares that drifted with the seed pushed it from one to the other.
_MIX_BLOCK = ("simulate",) * 6 + ("fit",) * 3 + ("sweep",)


def mix_stream(
    workload: str,
    seed: int,
    phase: str,
    traces: List[Path],
    duration: float,
) -> JobStream:
    grid = sweep_grid(duration)
    grid_params = grid.to_params()
    n_scenarios = len(grid)

    def shuffled(items: Sequence[Any], *key: Any) -> List[Any]:
        out = list(items)
        random.Random("/".join(map(str, (seed, phase) + key))).shuffle(out)
        return out

    def stream(client: int, n: int) -> Job:
        block, slot = divmod(n, len(_MIX_BLOCK))
        kinds = shuffled(_MIX_BLOCK, client, block)
        kind = kinds[slot]
        # This job is the k-th of its kind in the client's stream; the
        # k-th job of a kind takes the k-th trace of that kind's cycle.
        k = block * _MIX_BLOCK.count(kind) + kinds[:slot].count(kind)
        cycle, position = divmod(k, len(traces))
        trace = str(shuffled(traces, client, kind, cycle)[position])
        job_id = f"{workload}-{seed}-{phase}{client}-{n}"
        if kind == "simulate":
            params: Dict[str, Any] = {
                "trace_path": trace,
                "protocols": ["vegas"],
                "duration": duration,
                "seed": 1,
            }
            valid: Callable[[Any], bool] = lambda v: (  # noqa: E731
                v["trace_path"] == trace
                and v["summaries"]["vegas"]["packets_delivered"] > 0
            )
        elif kind == "fit":
            params = {"trace_path": trace}
            valid = lambda v: v["profile"]["bandwidth_bytes_per_sec"] > 0  # noqa: E731
        else:
            params = {"grid": grid_params}
            valid = lambda v: (  # noqa: E731
                v["n_scenarios"] == n_scenarios and v["n_faulted"] == 0
            )
        return {"kind": kind, "params": params, "job_id": job_id}, valid

    return stream


def stable_view(kind: str, value: Dict[str, Any]) -> Any:
    """The part of a result that is a pure function of its inputs
    (drops wall-clock fields and the cache flag)."""
    if kind == "simulate":
        return [value["profile"], value["summaries"]]
    if kind == "fit":
        return value["profile"]
    if kind == "sweep":
        return value["scenarios"]
    return value


def content_key(value: Dict[str, Any]) -> Tuple[str, str]:
    """(kind, input identity) of a fetched ``value``: results with the
    same key were computed from the same content and must agree."""
    if "summaries" in value:
        return "simulate", value["trace_path"]
    if "grid_id" in value:
        return "sweep", value["grid_id"]
    if "profile" in value:
        return "fit", value["profile"]["source_flow_id"]
    return "chaos", ""
