"""BBR-flavoured congestion control (simplified).

A model-based sender in the spirit of BBR v1: it maintains windowed
estimates of the bottleneck bandwidth (max delivery rate over the last
``bw_window`` seconds) and the propagation RTT (min RTT over the last
``rtt_window`` seconds), paces at ``pacing_gain * btl_bw`` while bounding
inflight by ``cwnd_gain * BDP``, and cycles its pacing gain through the
standard ProbeBW pattern [1.25, 0.75, 1, 1, 1, 1, 1, 1].

This is deliberately a simplification — no ProbeRTT state, no full
delivery-rate sampling — but it reproduces BBR's qualitative behaviour
(rate-based, queue-shy, periodic probing), which is all the dataset
generation needs.  Pantheon carried BBR alongside Cubic and Vegas, so the
synthetic dataset does too.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.protocols.base import Sender
from repro.simulation.engine import Event
from repro.simulation.packet import Packet

PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
STARTUP_GAIN = 2.885  # 2/ln(2)
CWND_GAIN = 2.0


class BBRSender(Sender):
    """Bandwidth/RTT-probing, pacing-based sender."""

    name = "bbr"

    def __init__(
        self,
        *args,
        bw_window: float = 2.0,
        rtt_window: float = 10.0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.bw_window = bw_window
        self.rtt_window = rtt_window
        # Monotonic windows of (time, value): a sample is dropped once a
        # newer one is at least as good, since it can never again be the
        # window's max (bw) or min (rtt).  What is kept is time-ordered
        # and ends with the newest sample, so the head is the windowed
        # extreme and expiring from the left works as before.
        self._bw_samples: Deque[Tuple[float, float]] = deque()
        self._rtt_samples: Deque[Tuple[float, float]] = deque()
        self._delivered_bytes = 0
        self._last_delivered = 0
        self._last_sample_at = 0.0
        self._in_startup = True
        self._gain_index = 0
        self._cycle_started = 0.0
        self._pacing_event: Optional[Event] = None
        self._full_bw = 0.0
        self._full_bw_count = 0

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    @property
    def btl_bw(self) -> float:
        """Current bottleneck-bandwidth estimate (bytes/s)."""
        if not self._bw_samples:
            return self.packet_size / 0.05  # arbitrary pre-estimate
        return self._bw_samples[0][1]

    @property
    def rt_prop(self) -> float:
        """Current propagation-RTT estimate (seconds)."""
        if not self._rtt_samples:
            return 0.1
        return self._rtt_samples[0][1]

    def _record_bw_sample(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_sample_at
        if elapsed < max(0.01, self.rt_prop / 4):
            return
        delivered = self._delivered_bytes - self._last_delivered
        self._last_delivered = self._delivered_bytes
        self._last_sample_at = now
        if elapsed > 0 and delivered > 0:
            bw = delivered / elapsed
            while self._bw_samples and self._bw_samples[-1][1] <= bw:
                self._bw_samples.pop()
            self._bw_samples.append((now, bw))
        while self._bw_samples and self._bw_samples[0][0] < now - self.bw_window:
            self._bw_samples.popleft()

    def _record_rtt_sample(self, rtt: float) -> None:
        now = self.sim.now
        while self._rtt_samples and self._rtt_samples[-1][1] >= rtt:
            self._rtt_samples.pop()
        self._rtt_samples.append((now, rtt))
        while (
            self._rtt_samples
            and self._rtt_samples[0][0] < now - self.rtt_window
        ):
            self._rtt_samples.popleft()

    # ------------------------------------------------------------------
    # Pacing-driven transmission
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._active = True
        self._pace()

    def shutdown(self) -> None:
        super().shutdown()
        self.sim.cancel(self._pacing_event)
        self._pacing_event = None

    def _pacing_gain(self) -> float:
        if self._in_startup:
            return STARTUP_GAIN
        return PROBE_BW_GAINS[self._gain_index]

    def _advance_gain_cycle(self) -> None:
        if self._in_startup:
            return
        if self.sim.now - self._cycle_started >= self.rt_prop:
            self._gain_index = (self._gain_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_started = self.sim.now

    def _pace(self) -> None:
        if not self._active:
            return
        self._advance_gain_cycle()
        rate = max(
            self.packet_size / 1.0, self._pacing_gain() * self.btl_bw
        )
        bdp_packets = max(
            4.0, CWND_GAIN * self.btl_bw * self.rt_prop / self.packet_size
        )
        if self.inflight < bdp_packets:
            self._send_new_packet()
        gap = self.packet_size / rate
        self._pacing_event = self.sim.schedule(gap, self._pace)

    def _try_send(self) -> None:
        # Transmission is pacing-driven, not ACK-clocked.
        pass

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet) -> None:
        super().on_ack(ack)
        self._record_bw_sample()
        if self.latest_rtt is not None:
            self._record_rtt_sample(self.latest_rtt)
        self._maybe_exit_startup()

    def on_ack_progress(
        self, newly_acked: int, rtt_sample: Optional[float]
    ) -> None:
        self._delivered_bytes += newly_acked * self.packet_size
        # cwnd is only a safety bound for BBR; keep it at CWND_GAIN * BDP.
        self.cwnd = max(
            4.0, CWND_GAIN * self.btl_bw * self.rt_prop / self.packet_size
        )

    def _maybe_exit_startup(self) -> None:
        if not self._in_startup:
            return
        bw = self.btl_bw
        if bw > self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_count = 0
        else:
            self._full_bw_count += 1
            if self._full_bw_count >= 3:
                self._in_startup = False
                self._cycle_started = self.sim.now

    def on_loss_event(self) -> float:
        # BBR v1 largely ignores individual losses; keep the rate model.
        return max(4.0, self.cwnd * 0.9)

    def on_timeout(self) -> None:
        self.ssthresh = max(4.0, self.cwnd / 2)
        self.cwnd = 4.0
