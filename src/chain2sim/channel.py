"""Lossy low-rate serial channel between one meter and its device.

The link serializes frames at a fixed bit rate, adds a constant processing
delay, and may drop frames according to a loss model.  For a frame handed
over at `t_send` on an idle link the arrival time is

    t_arrive = t_send + frame_bits / rate_bps + proc_delay_s

When frames queue up (several emitted at the same tick) the link stays
busy and transmissions serialize back to back, so arrival times on one
link are strictly increasing and order is preserved.  A dropped frame
still occupies the link for its transmission time: loss models corruption
at the receiver, not a suppressed send.

Two loss models:

    BernoulliLoss       independent loss per frame
    GilbertElliottLoss  two-state burst model; each state has its own loss
                        probability and the state flips with the given
                        transition probabilities after every frame

All randomness comes from a per-link `random.Random` seeded at
construction, so a link replays identically for the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from chain2sim.frames import FrameType, frame_bits


@dataclass(frozen=True)
class BernoulliLoss:
    p_loss: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError(f"p_loss must be in [0, 1], got {self.p_loss}")


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Burst-loss model; the link starts in the good state."""

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


LossModel = BernoulliLoss | GilbertElliottLoss


@dataclass(frozen=True)
class ChannelConfig:
    rate_bps: float = 4800.0
    proc_delay_s: float = 0.05
    loss: LossModel | None = None

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {self.rate_bps}")
        if self.proc_delay_s < 0:
            raise ValueError(f"proc_delay_s must be >= 0, got {self.proc_delay_s}")


@dataclass(frozen=True)
class TransmitVerdict:
    delivered: bool
    t_arrive: float | None
    t_link_free: float = field(compare=False, default=0.0)


class Channel:
    """State of one meter-to-device link."""

    def __init__(self, config: ChannelConfig, seed: int) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._bad_state = False
        self._busy_until = 0.0

    def _draw_loss(self) -> bool:
        loss = self.config.loss
        if loss is None:
            return False
        if isinstance(loss, BernoulliLoss):
            return self._rng.random() < loss.p_loss
        p = loss.loss_bad if self._bad_state else loss.loss_good
        dropped = self._rng.random() < p
        flip_p = loss.p_bad_to_good if self._bad_state else loss.p_good_to_bad
        if self._rng.random() < flip_p:
            self._bad_state = not self._bad_state
        return dropped

    def transmit(self, frame_type: FrameType, t_send: float) -> TransmitVerdict:
        """Put one frame on the link; returns delivery verdict and timing."""
        start = max(float(t_send), self._busy_until)
        finish = start + frame_bits(frame_type) / self.config.rate_bps
        self._busy_until = finish
        if self._draw_loss():
            return TransmitVerdict(False, None, finish)
        return TransmitVerdict(True, finish + self.config.proc_delay_s, finish)

