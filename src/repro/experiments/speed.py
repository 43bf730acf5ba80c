"""§4.2 "Simulation Speed": per-packet inference cost.

Paper: "A 4-layer LSTM in iBoxML, with nearly 2M parameters, requires
2.2 ms per packet inference on a V100 GPU, implying an average data rate
of just 5.5 Mbps, with 1500-byte packets ... So, we are unable to use
iBoxML for emulation at present."

We measure the same quantity for our (smaller, CPU) iBoxML and compare
with iBoxNet's per-packet emulation cost.  The absolute numbers differ
from a V100.  The working-size iBoxML is cheaper per packet than the
iBoxNet emulator; the paper-size model (4 layers, ~2 M parameters) costs
several times more, and that cost bounds the emulatable data rate — the
implied maximum emulation rate in Mb/s is reported for each.

Each cost is timed over several repetitions on ``time.perf_counter`` and
reported as the *median* with the MAD alongside (a mean alone hides
scheduler noise on shared machines).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core import iboxnet
from repro.core.iboxml import IBoxMLConfig, IBoxMLModel
from repro.datasets.pantheon import generate_run
from repro.experiments.common import Scale, format_header
from repro.simulation.packet import DEFAULT_MTU_BYTES


@dataclass
class SpeedResult:
    """Per-packet costs and implied max emulation rates."""

    iboxml_sec_per_packet: float
    iboxnet_sec_per_packet: float
    iboxml_params: int
    # Inference cost of an architecture at the paper's size (4-layer LSTM,
    # ~2 M parameters) — cost depends only on the architecture, so an
    # untrained model measures it faithfully.
    paper_size_sec_per_packet: float = 0.0
    paper_size_params: int = 0
    # Median absolute deviation of the per-packet cost across repetitions.
    iboxml_mad_sec: float = 0.0
    iboxnet_mad_sec: float = 0.0
    paper_size_mad_sec: float = 0.0

    @property
    def iboxml_max_rate_mbps(self) -> float:
        """Max data rate iBoxML could emulate at this per-packet cost."""
        return DEFAULT_MTU_BYTES * 8 / self.iboxml_sec_per_packet / 1e6

    @property
    def iboxnet_max_rate_mbps(self) -> float:
        return DEFAULT_MTU_BYTES * 8 / self.iboxnet_sec_per_packet / 1e6

    @property
    def slowdown(self) -> float:
        """How many times more expensive a packet is under iBoxML."""
        return self.iboxml_sec_per_packet / self.iboxnet_sec_per_packet

    @property
    def paper_size_max_rate_mbps(self) -> float:
        if self.paper_size_sec_per_packet <= 0:
            return float("nan")
        return DEFAULT_MTU_BYTES * 8 / self.paper_size_sec_per_packet / 1e6

    @property
    def paper_size_slowdown(self) -> float:
        if self.paper_size_sec_per_packet <= 0:
            return float("nan")
        return self.paper_size_sec_per_packet / self.iboxnet_sec_per_packet

    def format_report(self) -> str:
        lines = [format_header("§4.2 — simulation speed")]
        lines.append(
            f"iBoxML  ({self.iboxml_params} params): "
            f"{self.iboxml_sec_per_packet * 1000:.3f} ms/packet "
            f"(MAD {self.iboxml_mad_sec * 1000:.3f} ms) "
            f"=> max {self.iboxml_max_rate_mbps:.1f} Mb/s emulation"
        )
        if self.paper_size_params:
            lines.append(
                f"iBoxML  ({self.paper_size_params} params, paper size): "
                f"{self.paper_size_sec_per_packet * 1000:.3f} ms/packet "
                f"(MAD {self.paper_size_mad_sec * 1000:.3f} ms) "
                f"=> max {self.paper_size_max_rate_mbps:.1f} Mb/s emulation"
            )
        lines.append(
            f"iBoxNet (emulation):  "
            f"{self.iboxnet_sec_per_packet * 1000:.3f} ms/packet "
            f"(MAD {self.iboxnet_mad_sec * 1000:.3f} ms) "
            f"=> max {self.iboxnet_max_rate_mbps:.1f} Mb/s emulation"
        )
        lines.append(
            f"iBoxML is {self.slowdown:.1f}x "
            f"(paper-size: {self.paper_size_slowdown:.0f}x) more expensive "
            f"per packet (paper: 2.2 ms/packet on a V100 => 5.5 Mb/s)"
        )
        return "\n".join(lines)


def _timed_per_item(
    fn: Callable[[], int], repeats: int
) -> Tuple[float, float]:
    """Median and MAD of the per-item cost of ``fn`` over ``repeats`` runs.

    ``fn`` returns the number of items (packets, steps) it processed.
    """
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        items = fn()
        costs.append((time.perf_counter() - start) / max(items, 1))
    mid = statistics.median(costs)
    return mid, statistics.median(abs(c - mid) for c in costs)


def run(
    scale: Scale = Scale.quick(), base_seed: int = 30, repeats: int = 3
) -> SpeedResult:
    """Measure per-packet inference/emulation cost for both approaches."""
    train_run = generate_run(base_seed, "cubic", duration=scale.duration)
    test_run = generate_run(base_seed + 1, "cubic", duration=scale.duration)

    config = IBoxMLConfig(
        hidden_dim=32, num_layers=2, epochs=3, train_seq_len=150
    )
    model = IBoxMLModel(config)
    model.fit([train_run.trace])

    iboxml_cost, iboxml_mad = _timed_per_item(
        lambda: len(model.predict_delays(test_run.trace, sample=False)),
        repeats,
    )

    net_model = iboxnet.fit(train_run.trace)
    iboxnet_cost, iboxnet_mad = _timed_per_item(
        lambda: len(
            net_model.simulate(
                "cubic", duration=scale.duration, seed=base_seed + 2
            )
        ),
        repeats,
    )

    # Paper-size architecture: 4 layers, hidden width chosen so the stack
    # lands near the quoted ~2 M parameters.
    paper_model = IBoxMLModel(
        IBoxMLConfig(hidden_dim=256, num_layers=4, epochs=1)
    )
    import numpy as np

    x = np.zeros((1, paper_model.config.input_dim))
    n_steps = 300
    paper_model.model.step(x, None)  # warm-up

    def paper_steps() -> int:
        states = None
        for _ in range(n_steps):
            _, _, states = paper_model.model.step(x, states)
        return n_steps

    paper_cost, paper_mad = _timed_per_item(paper_steps, repeats)

    return SpeedResult(
        iboxml_sec_per_packet=iboxml_cost,
        iboxnet_sec_per_packet=iboxnet_cost,
        iboxml_params=model.num_parameters(),
        paper_size_sec_per_packet=paper_cost,
        paper_size_params=paper_model.num_parameters(),
        iboxml_mad_sec=iboxml_mad,
        iboxnet_mad_sec=iboxnet_mad,
        paper_size_mad_sec=paper_mad,
    )
