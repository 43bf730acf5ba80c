"""BBR's windowed estimators: monotonic deques against a keep-everything
reference.

``BBRSender`` keeps its bandwidth samples as a max-deque and its RTT
samples as a min-deque.  ``KeepAllBBR`` below is the window it replaced
(every sample kept, ``max``/``min`` over all of them); driven through the
same (time, value) stream, both must report the same ``btl_bw`` and
``rt_prop`` after every step.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.bbr import BBRSender
from repro.simulation import units
from repro.simulation.engine import Simulator
from repro.simulation.topology import (
    ConstantBandwidth,
    PathConfig,
    SingleBottleneckPath,
)


class KeepAllBBR(BBRSender):
    """BBR with plain windows: every sample kept until it expires."""

    @property
    def btl_bw(self) -> float:
        if not self._bw_samples:
            return self.packet_size / 0.05
        return max(bw for _, bw in self._bw_samples)

    @property
    def rt_prop(self) -> float:
        if not self._rtt_samples:
            return 0.1
        return min(rtt for _, rtt in self._rtt_samples)

    def _record_bw_sample(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_sample_at
        if elapsed < max(0.01, self.rt_prop / 4):
            return
        delivered = self._delivered_bytes - self._last_delivered
        self._last_delivered = self._delivered_bytes
        self._last_sample_at = now
        if elapsed > 0 and delivered > 0:
            self._bw_samples.append((now, delivered / elapsed))
        while self._bw_samples and self._bw_samples[0][0] < now - self.bw_window:
            self._bw_samples.popleft()

    def _record_rtt_sample(self, rtt: float) -> None:
        now = self.sim.now
        self._rtt_samples.append((now, rtt))
        while (
            self._rtt_samples
            and self._rtt_samples[0][0] < now - self.rtt_window
        ):
            self._rtt_samples.popleft()


def _is_subsequence(kept: deque, full: deque) -> bool:
    it = iter(full)
    return all(sample in it for sample in kept)


# Gaps of 0 repeat a timestamp; 2.5 s outlasts the 2 s bandwidth window
# and 10/12 s the 10 s RTT window (10 s exactly sits on its boundary).
_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.004, 0.01, 0.05, 0.3, 2.5, 10.0, 12.0]),
        st.sampled_from([0, 1, 2, 2, 4]),  # packets delivered since last
        st.sampled_from([None, 0.02, 0.03, 0.05, 0.05, 0.2]),  # None: no RTT
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_windows_match_keep_all_reference(steps):
    sims = Simulator(), Simulator()
    fast = BBRSender(sims[0], "fast", downstream=None)
    slow = KeepAllBBR(sims[1], "slow", downstream=None)
    now = 0.0
    for gap, packets, rtt in steps:
        now += gap
        for sim, sender in zip(sims, (fast, slow)):
            sim.now = now
            sender._delivered_bytes += packets * sender.packet_size
            sender._record_bw_sample()
            if rtt is not None:
                sender._record_rtt_sample(rtt)
        assert fast.btl_bw == slow.btl_bw
        assert fast.rt_prop == slow.rt_prop
        for kept, full in (
            (fast._bw_samples, slow._bw_samples),
            (fast._rtt_samples, slow._rtt_samples),
        ):
            assert bool(kept) == bool(full)
            assert _is_subsequence(kept, full)
            if full:
                assert kept[-1] == full[-1]


def test_rtt_window_stays_small_over_a_long_flow():
    """A 10 s BBR flow on a 10 Mb/s path acks ~7000 packets, all inside
    the 10 s RTT window, so a keep-everything window ends with ~7000
    samples.  The min-deque ended with 130 (and the bandwidth max-deque
    with 4) when this was written; 200 leaves headroom."""
    rate = units.mbps_to_bytes_per_sec(10.0)
    config = PathConfig(
        bandwidth=ConstantBandwidth(rate),
        propagation_delay=0.025,
        buffer_bytes=rate * 0.05 * 4,
    )
    sim = Simulator()
    path = SingleBottleneckPath(sim, config, 10.0, 1)
    sender = path.attach_flow("bbr", "bbr-1")
    sim.schedule_at(0.0, sender.start)
    sim.run(until=10.0)
    assert sender.packets_sent > 7000
    assert len(sender._rtt_samples) <= 200
    assert len(sender._bw_samples) <= 20
