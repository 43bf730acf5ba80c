"""Golden digests of the packet simulator's output.

Every row is the SHA-256 of one trace's ``seq``, ``size``, ``sent_at``,
``delivered_at`` and ``is_retransmit`` columns, so any change to what
the packet engine or a sender does - one event reordered, one RNG draw
moved, one float rounded differently - shows up as a changed digest.
``uid`` is left out: it comes from a process-global counter.

Two kinds of rows:

* ``run_flow/<path>/<protocol>``: every sender in ``repro.protocols``
  over a clean path and over a path with Poisson cross traffic plus
  reordering (heap ties and RNG draws);
* ``emulate/<protocol>``: ``iboxnet.fit(trace).simulate(protocol)`` for
  the four counterfactual protocols, with a Cubic teacher trace from the
  cross-traffic path (the emulator path).

The runs last 12 s, longer than BBR's 10 s RTT window, so window expiry
is exercised too.  Regenerate the table from the current code with::

    PYTHONPATH=src python tests/test_sim_golden.py --write

which also rewrites ``RECORDED_WITH``.  The digests depend on numpy's
PCG64 streams, so a mismatch on another host is first a question of the
versions below.
"""

from __future__ import annotations

import hashlib
import re
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core import iboxnet
from repro.protocols import PROTOCOLS
from repro.simulation import units
from repro.simulation.topology import (
    ConstantBandwidth,
    PathConfig,
    PoissonCT,
    run_flow,
)

RECORDED_WITH = "Python 3.11.7, numpy 2.4.6"

DURATION = 12.0
SEED = 11
EMULATED = ("vegas", "ledbat", "cubic", "bbr")

_RATE = units.mbps_to_bytes_per_sec(3.0)
PATHS = {
    "clean": PathConfig(
        bandwidth=ConstantBandwidth(_RATE),
        propagation_delay=0.03,
        buffer_bytes=_RATE * 0.06 * 3,
    ),
    "ct-reorder": PathConfig(
        bandwidth=ConstantBandwidth(_RATE),
        propagation_delay=0.02,
        buffer_bytes=_RATE * 0.04 * 4,
        reorder_prob=0.02,
        reorder_extra_delay=0.008,
        cross_traffic=(PoissonCT(rate_bytes_per_sec=0.2 * _RATE),),
    ),
}

GOLDEN = {
    "run_flow/clean/bbr": "a7470d087d183290dc8c46f00c99633c0cce38c0fdab58d6b5c7b27f9923b2b0",
    "run_flow/clean/cbr": "e040dfbece83d26ac619ee95e6ef88807e63b3eab45cda9686b4059fdcd74e6c",
    "run_flow/clean/cubic": "59f57a4a48b82982b44f73956698d4efbcd88bf2928d0c83d648dfcf5087fcca",
    "run_flow/clean/ledbat": "5454b85f6dbbf6338deb517bf0697a9aac2738f1e70dcbaad7523e840fd3ec22",
    "run_flow/clean/reno": "d0445bab3155166433cf82e87ff1d527181091f6d5ff9dc05401abedcb426abb",
    "run_flow/clean/rtc": "239c8adaab24e8db145457fc581a38be8e959c83b86b64e46bf945c485ebe50a",
    "run_flow/clean/vegas": "94b18b24ebb5f86aaf6aec9fc456efe74b6d5dc2120fd8ceb1d91ec9a5230ffb",
    "run_flow/ct-reorder/bbr": "5272e6effd84f219993960c812e867cac69a79aa3f82925f659b44a88ad17f95",
    "run_flow/ct-reorder/cbr": "e4c32ff2a6331d1030750f94cad5197aeffc3e0d0601f1e01dad30a204e017e3",
    "run_flow/ct-reorder/cubic": "bc099b4eb4e2e8d79a87da7d896252c34777ac3d7ac60e7800907d4c7719e01e",
    "run_flow/ct-reorder/ledbat": "e26f8c13e09fa8a5196a306dd11c706e0b74b099f29d823a9fd91c144aa3d148",
    "run_flow/ct-reorder/reno": "0bde7d80e4cf978a83b50eefe99d04d351178be11d08f4b47a73c1059c157524",
    "run_flow/ct-reorder/rtc": "bc5c1c23066249a3bcd03bb87c04ae7df99dca8b6c570087f2bd30c2ece06f39",
    "run_flow/ct-reorder/vegas": "d475ac62f474ee9cdbaabf93893a919f0d3c4a9b02f7913c5368a0ed2fd45bad",
    "emulate/vegas": "eef8ae4245bbe1c2bc9b7642d3658f7ee341bd6efe421e0b1be8547a85a4f4a2",
    "emulate/ledbat": "3fa7944fd8bf1b31ec21d83d597411fa87931c5c7a5d00a877414313e4509689",
    "emulate/cubic": "fe0e724c02f324a72a7c5deb8acbd58e6afa38ccf8d37d95c1cfdbb767783c11",
    "emulate/bbr": "23e1005b7d2cce7f4d62365d1dc6bd6c1d73017bf779c51881ecab39d80c9929",
}


def trace_digest(trace) -> str:
    """SHA-256 over the trace's columns, in record order, little-endian."""
    records = trace.records
    h = hashlib.sha256()
    for dtype, column in (
        ("<i8", [r.seq for r in records]),
        ("<i8", [r.size for r in records]),
        ("<f8", [r.sent_at for r in records]),
        ("<f8", [r.delivered_at for r in records]),
        ("u1", [r.is_retransmit for r in records]),
    ):
        h.update(np.asarray(column, dtype=dtype).tobytes())
    return h.hexdigest()


@lru_cache(maxsize=1)
def _teacher_model():
    teacher = run_flow(PATHS["ct-reorder"], "cubic", DURATION, seed=SEED)
    return iboxnet.fit(teacher.trace)


def compute(row: str) -> str:
    kind, _, rest = row.partition("/")
    if kind == "run_flow":
        path, protocol = rest.split("/")
        return trace_digest(
            run_flow(PATHS[path], protocol, DURATION, seed=SEED).trace
        )
    if kind == "emulate":
        return trace_digest(
            _teacher_model().simulate(rest, duration=DURATION, seed=SEED + 1)
        )
    raise ValueError(f"unknown golden row {row!r}")


def rows():
    return [
        f"run_flow/{path}/{protocol}"
        for path in PATHS
        for protocol in sorted(PROTOCOLS)
    ] + [f"emulate/{protocol}" for protocol in EMULATED]


def test_golden_covers_every_row():
    assert sorted(GOLDEN) == sorted(rows()), (
        "golden table is stale; regenerate it with "
        "`PYTHONPATH=src python tests/test_sim_golden.py --write`"
    )


@pytest.mark.parametrize("row", rows())
def test_sim_golden(row):
    assert compute(row) == GOLDEN.get(row), (
        f"{row}: packet-simulator output changed (table recorded with "
        f"{RECORDED_WITH}; this is Python {sys.version.split()[0]}, numpy "
        f"{np.__version__}).  If the change is intended (ROADMAP item "
        "12's loss-recovery rewrite is one), regenerate with "
        "`PYTHONPATH=src python tests/test_sim_golden.py --write` and "
        "explain the digest diff in CHANGES.md."
    )


def _write() -> None:
    path = Path(__file__)
    table = "".join(f'    "{row}": "{compute(row)}",\n' for row in rows())
    text = path.read_text()
    text = re.sub(
        r"(?ms)^GOLDEN = \{\n.*?^\}\n", lambda _: f"GOLDEN = {{\n{table}}}\n",
        text, count=1,
    )
    version = f"Python {sys.version.split()[0]}, numpy {np.__version__}"
    text = re.sub(
        r'(?m)^RECORDED_WITH = ".*"$',
        lambda _: f'RECORDED_WITH = "{version}"', text, count=1,
    )
    path.write_text(text)
    print(f"wrote {len(rows())} digests to {path} ({version})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_golden.py --write")
    _write()
