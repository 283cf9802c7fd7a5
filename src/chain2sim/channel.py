"""Lossy low-rate serial channel between one meter and its device.

The link serializes frames at a fixed bit rate, adds a constant processing
delay, and may drop frames according to a loss model.  A frame sent at
`t_send` finishes serializing `tx = frame_bits / rate_bps` after the frame
before it finishes, or after `t_send` when the link is idle by then, and
arrives `proc_delay_s` after it finishes:

    finish[i] = max(t_send[i], finish[i - 1]) + tx[i]

So the frames of one tick serialize back to back, and arrival times on one
link rise in send order.  A dropped frame has no arrival time but still
occupies the link, so the next frame queues behind it: loss models
corruption at the receiver, not a suppressed send.

Two loss models:

    BernoulliLoss       independent loss per frame
    GilbertElliottLoss  two-state burst model; each state has its own loss
                        probability and the state flips with the given
                        transition probabilities after every frame

All randomness comes from a per-link `random.Random` seeded at
construction, so a link replays identically for the same seed.

`arrivals` puts a block of frame rows (see `frames`) on the link.  A row
that finds the link idle starts a busy period.  In exact sums that is a
row whose send time, less the serialization summed before it, reaches the
running maximum of the same over the rows before it, seeded with the busy
time, so `arrivals` finds every period in one step.  Each period adds its
serialization times in row order from its start, the recurrence bit for
bit, in the one segmented scan `accumulate_runs` (see `meter`).  A
boundary that rounding put a few ulps off is repaired from the finish
times; a repair only raises them, so the repairs end.  The loss
draws come from the link's generator in row order, one `random()` per
frame for Bernoulli loss and two for Gilbert-Elliott, whose state
`arrivals` walks from flip to flip, drawn in numpy from one `getrandbits`
of the same words: bit for bit what as many `random()` calls give.

`tests/reference.py:ScalarChannel` applies these rules one frame at a
time, and `arrivals` must match it.  `transmit` is `arrivals` of one row.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from chain2sim.frames import ROW_WIDTH, TIMESTAMP, TYPE, FrameType, frame_bits
from chain2sim.meter import accumulate_runs


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
        if not 0 < self.rate_bps < math.inf:  # NaN too
            raise ValueError(f"rate_bps must be finite and positive, got {self.rate_bps}")
        if not 0 <= self.proc_delay_s < math.inf:
            raise ValueError(f"proc_delay_s must be finite and >= 0, got {self.proc_delay_s}")


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
        # Frame type value -> serialization time; no frame type has value 0.
        self._tx_s = np.array([0, *map(frame_bits, FrameType)]) / config.rate_bps
        self._proc_delay_s = config.proc_delay_s
        self._busy_until = 0.0

    def _dropped_block(self, n: int) -> np.ndarray:
        """Whether the loss model drops each of the next `n` frames."""
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

    def transmit(self, frame_type: FrameType, t_send: int) -> float | None:
        """`arrivals` of one frame sent at `t_send`, in whole seconds as a
        frame timestamp: its arrival time at the receiver, or None when the
        loss model drops it."""
        row = np.zeros((1, ROW_WIDTH), dtype=np.int64)
        row[0, TYPE], row[0, TIMESTAMP] = frame_type, t_send
        t_arrive = float(self.arrivals(row)[0])
        return None if math.isnan(t_arrive) else t_arrive

    def arrivals(self, rows: np.ndarray) -> np.ndarray:
        """Put a block of frame rows on the link, in row order, each sent at
        its timestamp; returns the arrival time of each, NaN where the loss
        model drops it."""
        n = len(rows)
        if not n:
            return np.zeros(0)
        types = rows[:, TYPE]
        if not (1 <= types.min() and types.max() <= len(FrameType)):
            raise ValueError(f"unknown frame type in {sorted(set(types.tolist()))}")
        # Row 0 is the frame the link took last, finishing at the busy time.
        sent = np.append(self._busy_until, rows[:, TIMESTAMP])
        finish = _finish(sent, np.append(0.0, self._tx_s[types]))
        self._busy_until = float(finish[-1])
        arrive = finish[1:] + self._proc_delay_s
        if self._loss is not None:
            arrive[self._dropped_block(n)] = math.nan
        return arrive


def _finish(sent: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """The finish time of each row sent at `sent` taking `tx` on the link,
    row 0 finding it idle (see the module docstring)."""
    lead = sent - (np.cumsum(tx) - tx)
    idle = np.append(True, lead[1:] >= np.maximum.accumulate(lead[:-1]))
    while True:
        finish = tx.copy()
        finish[idle] += sent[idle]
        accumulate_runs(np.add, finish, np.append(idle, True))
        repaired = np.append(True, sent[1:] >= finish[:-1])
        if np.array_equal(repaired, idle):
            return finish
        idle = repaired
