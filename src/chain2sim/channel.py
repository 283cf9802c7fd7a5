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
construction, so a link replays identically for the same seed.  `transmit`
draws from it one `random()` at a time; `arrivals` draws a block's values in
numpy from one `getrandbits` of the same words, bit for bit what as many
`random()` calls give, and leaves the generator where they would.

`transmit` puts one frame on the link; `arrivals` puts a block of frame rows
(see `frames`) on it and gives what `transmit` gives for each row in turn.
The frames of one send time form a group that serializes back to back, so
`arrivals` adds the serialization times one position of the groups at a
time, in the scalar order.  It needs the link idle again by each group's
send time, as it is whenever a tick's frames serialize within the tick;
otherwise it sends the block through `transmit`.  The loss draws come from
the same generator in the same order: one per frame for Bernoulli loss, two
per frame for Gilbert-Elliott, whose state `arrivals` walks from flip to
flip.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from chain2sim.frames import TIMESTAMP, TYPE, FrameType, frame_bits

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


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next `n` values of `rng.random()`, from one draw of their words.
    `random()` makes a double of the generator's next two 32-bit words a, b
    as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and `getrandbits(64 * n)` takes
    the same 2n words, the first in the lowest bits."""
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


class Channel:
    """State of one meter-to-device link."""

    def __init__(self, config: ChannelConfig, seed: int) -> None:
        self.config = config
        self._loss = config.loss
        self._rng = random.Random(seed)
        self._bad = False  # Gilbert-Elliott: the link starts in the good state
        # Frame type (member or equal value) -> serialization time.
        self._tx_s = {t: bits / config.rate_bps for t, bits in _FRAME_BITS.items()}
        self._proc_delay_s = config.proc_delay_s
        self._busy_until = 0.0

    def _dropped(self) -> bool:
        """The loss draw of the next frame: whether the channel drops it."""
        loss, draw = self._loss, self._rng.random
        if isinstance(loss, BernoulliLoss):
            return draw() < loss.p_loss
        bad = self._bad
        dropped = draw() < (loss.loss_bad if bad else loss.loss_good)
        if draw() < (loss.p_bad_to_good if bad else loss.p_good_to_bad):
            self._bad = not bad
        return dropped

    def _dropped_block(self, n: int) -> np.ndarray:
        """`_dropped` of each of the next `n` frames, from the same draws."""
        loss = self._loss
        if isinstance(loss, BernoulliLoss):
            return _uniforms(self._rng, n) < loss.p_loss
        uniforms = _uniforms(self._rng, 2 * n)
        u_loss, u_flip = uniforms[0::2], uniforms[1::2]
        # The frames whose flip draw turns the state, from good and from bad.
        flips = (
            np.flatnonzero(u_flip < loss.p_good_to_bad),
            np.flatnonzero(u_flip < loss.p_bad_to_good),
        )
        bad = np.zeros(n, dtype=bool)
        i, state = 0, self._bad
        while i < n:
            at = flips[state]
            k = at.searchsorted(i)
            if k == len(at):
                bad[i:] = state
                break
            j = int(at[k]) + 1  # the first frame past the flip
            bad[i:j] = state
            i, state = j, not state
        self._bad = state
        return u_loss < np.where(bad, loss.loss_bad, loss.loss_good)

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
        if self._loss is not None and self._dropped():
            return None
        return finish + self._proc_delay_s

    def arrivals(self, rows: np.ndarray) -> np.ndarray:
        """Put a block of frame rows on the link, in row order, each sent at
        its timestamp; returns the arrival time of each, NaN where the loss
        model drops it.  Equal to `transmit` for each row in turn."""
        n = len(rows)
        if not n:
            return np.zeros(0)
        types, sent = rows[:, TYPE], rows[:, TIMESTAMP]
        if not (1 <= types.min() and types.max() <= len(FrameType)):
            raise ValueError(f"unknown frame type in {sorted(set(types.tolist()))}")
        tx = np.array([0.0, *(self._tx_s[t] for t in FrameType)])[types]
        finish = sent + tx
        # Each row's position within its group of one send time.
        first = np.flatnonzero(np.diff(sent, prepend=-1) != 0)
        position = np.arange(n) - np.repeat(first, np.diff(first, append=n))
        for k in range(1, int(position.max()) + 1):
            at = np.flatnonzero(position == k)
            finish[at] = finish[at - 1] + tx[at]
        busy = np.append(self._busy_until, finish[first[1:] - 1])
        if (busy > sent[first]).any():  # a group starts before the link is idle
            return np.array(
                [
                    math.nan if (t := self.transmit(ft, ts)) is None else t
                    for ft, ts in zip(types.tolist(), sent.tolist())
                ]
            )
        self._busy_until = float(finish[-1])
        arrive = finish + self._proc_delay_s
        if self._loss is not None:
            arrive[self._dropped_block(n)] = math.nan
        return arrive
