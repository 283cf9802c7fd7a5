"""Lossy low-rate serial channel between one meter and its device.

The link serializes frames at a fixed bit rate, adds a constant processing
delay, and may drop frames according to a loss model.  For a frame handed
over at `t_send` on an idle link the arrival time is

    t_arrive = t_send + frame_bits / rate_bps + proc_delay_s

When frames queue up (several emitted at the same tick) the link stays
busy and transmissions serialize back to back, so arrival times on one
link are strictly increasing and order is preserved.  A dropped frame has
no arrival time but still occupies the link for its transmission time, so
the next frame queues behind it: loss models corruption at the receiver,
not a suppressed send.

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
from dataclasses import dataclass
from typing import Callable

from chain2sim.frames import FrameType, frame_bits

# Frame type (member or equal value) -> encoded length in bits.
_FRAME_BITS = {t: frame_bits(t) for t in FrameType}


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


def _loss_draw(loss: LossModel | None, rng: random.Random) -> Callable[[], bool] | None:
    """The per-frame loss draw of one link: returns True to drop the frame.
    None for a lossless link, which draws nothing."""
    if loss is None:
        return None
    draw = rng.random
    if isinstance(loss, BernoulliLoss):
        p_loss = loss.p_loss
        return lambda: draw() < p_loss
    bad = False  # the link starts in the good state

    def gilbert_elliott() -> bool:
        nonlocal bad
        dropped = draw() < (loss.loss_bad if bad else loss.loss_good)
        if draw() < (loss.p_bad_to_good if bad else loss.p_good_to_bad):
            bad = not bad
        return dropped

    return gilbert_elliott


class Channel:
    """State of one meter-to-device link."""

    def __init__(self, config: ChannelConfig, seed: int) -> None:
        self.config = config
        self._dropped = _loss_draw(config.loss, random.Random(seed))
        # Frame type (member or equal value) -> serialization time.
        self._tx_s = {t: bits / config.rate_bps for t, bits in _FRAME_BITS.items()}
        self._proc_delay_s = config.proc_delay_s
        self._busy_until = 0.0

    def transmit(self, frame_type: FrameType, t_send: float) -> float | None:
        """Put one frame on the link; returns its arrival time at the
        receiver, or None when the loss model drops it."""
        try:
            tx_s = self._tx_s[frame_type]
        except (KeyError, TypeError):
            raise ValueError(f"unknown frame type {frame_type!r}") from None
        busy = self._busy_until
        finish = (t_send if t_send > busy else busy) + tx_s
        self._busy_until = finish
        dropped = self._dropped
        if dropped is not None and dropped():
            return None
        return finish + self._proc_delay_s
