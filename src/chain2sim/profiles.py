"""Synthetic household load profiles on a fixed tick grid.

A profile is a numpy array of mean power per tick, in watts.  Generation is
fully driven by the numpy Generator passed in, so a profile is reproducible
from (seed, pn_w, duration, tick, preset) alone.

Shape of a generated day:

    * a piecewise-constant base load (fridge, standby, heating) whose level
      redraws every 15..60 minutes,
    * short appliance pulses added on top, capped safely below Pn,
    * occasional overrun episodes where a heavy appliance pushes the total
      above Pn for one to a few minutes.

Overrun episodes are drawn at most one per half-hour window, last at most
150 s and are separated by at least 300 s, which keeps them well inside the
meter's tolerated overrun window whatever their peak: the cut countdown at
the worst allowed peak (1.9 * Pn) still exceeds the longest episode.  A
generated profile therefore trips no breaker on its own.

The draws are those of numpy's scalar `integers`, `uniform` and `random`
calls on the generator's PCG64 bit generator, in the same order, but they
are read from blocks of its raw words (`_Stream`) and the base-load segments
and appliance pulses are laid out in numpy.  Each draw must equal numpy's own,
and the generator must end where those calls would leave it, so a profile
depends on the seed alone and not on how it was drawn.  The scalar form is
the reference in `tests/reference.py` (`scalar_profile`), and a property
test holds the two equal.  Only PCG64 generators are accepted, the kind
`np.random.default_rng` builds: other bit generators hand out 32-bit draws
and doubles differently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

OVERRUN_WINDOW_S = 1800
OVERRUN_MAX_S = 150
OVERRUN_GAP_S = 300


@dataclass(frozen=True)
class ProfilePreset:
    """Tunable texture of a household class; power levels are fractions of Pn."""

    base_lo: float
    base_hi: float
    segment_lo_s: int
    segment_hi_s: int
    pulses_per_hour: float
    pulse_lo: float
    pulse_hi: float
    pulse_lo_s: int
    pulse_hi_s: int
    overrun_prob: float
    overrun_peak_lo: float = 1.02
    overrun_peak_hi: float = 1.9


# Household classes, small flat to heavy electric home.  The letters are
# labels for campaign configs, nothing more.
PRESETS: dict[str, ProfilePreset] = {
    "A": ProfilePreset(0.02, 0.10, 1800, 3600, 1.0, 0.10, 0.30, 120, 600, 0.10),
    "B": ProfilePreset(0.04, 0.18, 900, 3600, 1.6, 0.12, 0.40, 120, 900, 0.20),
    "C": ProfilePreset(0.06, 0.25, 900, 2700, 2.2, 0.15, 0.45, 180, 1200, 0.25),
    "D": ProfilePreset(0.10, 0.35, 900, 1800, 2.8, 0.20, 0.50, 180, 1200, 0.30),
    "E": ProfilePreset(0.05, 0.30, 900, 1800, 3.5, 0.10, 0.55, 120, 1500, 0.35),
}

# Added pulses are clipped here so base + pulses alone never reach Pn;
# only the dedicated overrun episodes exceed it.
_SOFT_CAP = 0.92

_LOW = 0xFFFFFFFF
_UNIT = 2.0**-53


class _Stream:
    """numpy's scalar draws on a PCG64 generator, replayed from raw words.

    `integers(lo, hi)` is Lemire's bounded draw on a 32-bit half-word: the
    high half an earlier draw left buffered, else the low half of a fresh
    word, whose high half it buffers.  `random()` takes a fresh word `w` and
    returns `(w >> 11) * 2**-53`, and `uniform(lo, hi)` is
    `lo + (hi - lo) * random()`.  `rounds` lays a block of such draws out in
    numpy at once.  Reading words moves the generator past them; `close` puts
    it where numpy's own draws would have left it.
    """

    def __init__(self, bitgen: np.random.PCG64, reserve: int = 0) -> None:
        self.bitgen = bitgen
        self.saved = bitgen.state
        self._restart(reserve)

    def _restart(self, reserve: int = 0) -> None:
        self.half = self.saved["uinteger"] if self.saved["has_uint32"] else None
        self.words = self.bitgen.random_raw(reserve).tolist()
        self.used = 0

    def _word(self) -> int:
        if self.used == len(self.words):
            self.words += self.bitgen.random_raw(len(self.words) + 16).tolist()
        self.used += 1
        return self.words[self.used - 1]

    def _uint32(self) -> int:
        if self.half is not None:
            low, self.half = self.half, None
            return low
        word = self._word()
        self.half = word >> 32
        return word & _LOW

    def _bounded(self, span: int) -> int:
        """A draw in [0, span]; for span 0 numpy draws nothing."""
        if span == 0:
            return 0
        threshold = (2**32 - span - 1) % (span + 1)
        m = self._uint32() * (span + 1)
        while m & _LOW < threshold:
            m = self._uint32() * (span + 1)
        return m >> 32

    def integers(self, lo: int, hi: int) -> int:
        return lo + self._bounded(hi - 1 - lo)

    def random(self) -> float:
        return (self._word() >> 11) * _UNIT

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def rounds(self, count: int, spans: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """`count` rounds, each a draw in [0, span] per span and then one
        `random()`, read from a stream that has read nothing yet; returns the
        bounded draws (count x len(spans)) and the doubles.

        A round's fresh half-words come first and its double's word last.
        If any bounded draw would reject, the rounds replay one by one."""
        drawn = [j for j, span in enumerate(spans) if span]
        k = len(drawn)
        buffered = int(self.half is not None)
        r = np.arange(count + 1)
        # The fresh half-words the first r rounds open, and the words they read.
        opened = (np.maximum(r * k - buffered, 0) + 1) // 2
        ends = opened + r
        words = self.bitgen.random_raw(int(ends[-1]))
        is_half = np.ones(words.size, dtype=bool)
        is_half[ends[1:] - 1] = False
        fresh = words[is_half]
        halves = np.empty(buffered + 2 * fresh.size, dtype=np.uint64)
        halves[buffered::2] = fresh & _LOW
        halves[buffered + 1 :: 2] = fresh >> 32
        if buffered:
            halves[0] = self.half
        draws = np.zeros((count, len(spans)), dtype=np.int64)
        for c, j in enumerate(drawn):
            excl = spans[j] + 1
            m = halves[c : count * k : k] * excl
            if ((m & _LOW) < (2**32 - excl) % excl).any():
                return self._replay(count, spans)
            draws[:, j] = m >> 32
        held = buffered + 2 * opened  # half-words the first r rounds hold

        def mark(rounds: int) -> tuple[int, int | None]:
            i = rounds * k
            return int(ends[rounds]), int(halves[i]) if i < held[rounds] else None

        self.mark = mark
        return draws, (words[~is_half] >> 11) * _UNIT

    def _replay(self, count: int, spans: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """`rounds`, drawn one by one from the saved state."""
        self.bitgen.state = self.saved
        self._restart()
        draws = np.zeros((count, len(spans)), dtype=np.int64)
        unit = np.empty(count)
        marks = [(0, self.half)]
        for r in range(count):
            for j, span in enumerate(spans):
                draws[r, j] = self._bounded(span)
            unit[r] = self.random()
            marks.append((self.used, self.half))
        self.mark = marks.__getitem__
        return draws, unit

    def close(self, rounds: int | None = None) -> None:
        """Leave the generator past the draws read so far or, given `rounds`,
        past that many of the rounds drawn by `rounds`."""
        if rounds is not None:
            self.used, self.half = self.mark(rounds)
        bitgen = self.bitgen
        bitgen.state = self.saved
        bitgen.advance(self.used)
        state = bitgen.state
        state["has_uint32"] = int(self.half is not None)
        state["uinteger"] = self.half or 0
        bitgen.state = state


def household_profile(
    rng: np.random.Generator,
    pn_w: float,
    duration_s: int,
    tick_s: int = 1,
    preset: str = "B",
) -> np.ndarray:
    """Draw one household profile; returns mean power per tick in watts."""
    if not (math.isfinite(pn_w) and pn_w > 0):
        raise ValueError(f"pn_w must be positive and finite, got {pn_w}")
    if tick_s < 1 or duration_s < tick_s or duration_s % tick_s != 0:
        raise ValueError(
            f"duration_s={duration_s} must be a positive multiple of tick_s={tick_s}"
        )
    if tick_s > OVERRUN_WINDOW_S:
        raise ValueError(
            f"tick_s={tick_s} must not exceed the {OVERRUN_WINDOW_S} s overrun window"
        )
    try:
        ps = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}"
        ) from None
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"need a PCG64 generator, got {type(bitgen).__name__}")

    n = duration_s // tick_s

    # Base load, redrawn segment by segment: enough segments for n ticks at
    # the shortest length, of which the loop keeps those that reach n.
    stream = _Stream(bitgen)
    draws, unit = stream.rounds(
        -(-n // max(1, ps.segment_lo_s // tick_s)), (ps.segment_hi_s - ps.segment_lo_s,)
    )
    seg = np.maximum((ps.segment_lo_s + draws[:, 0]) // tick_s, 1)
    ends = np.cumsum(seg)
    kept = int(np.searchsorted(ends, n)) + 1
    stream.close(kept)
    seg = seg[:kept]
    seg[-1] -= ends[kept - 1] - n
    power = np.repeat(pn_w * (ps.base_lo + (ps.base_hi - ps.base_lo) * unit[:kept]), seg)

    # Appliance pulses, added in draw order, then capped.
    count = int(rng.poisson(ps.pulses_per_hour * duration_s / 3600.0))
    stream = _Stream(bitgen)
    draws, unit = stream.rounds(count, (ps.pulse_hi_s - ps.pulse_lo_s, n - 1))
    stream.close(count)
    start = draws[:, 1]
    dur = np.maximum((ps.pulse_lo_s + draws[:, 0]) // tick_s, 1)
    width = np.minimum(start + dur, n) - start  # each pulse's slice, cut at n
    at = np.arange(width.sum()) + np.repeat(start - (np.cumsum(width) - width), width)
    level = pn_w * (ps.pulse_lo + (ps.pulse_hi - ps.pulse_lo) * unit)
    np.add.at(power, at, np.repeat(level, width))
    np.minimum(power, _SOFT_CAP * pn_w, out=power)

    # Overrun episodes: at most one per window, placed so that consecutive
    # episodes keep at least OVERRUN_GAP_S of sub-reference load between them.
    # Whether a window fires moves the next window's draws, so these replay
    # one by one.
    window_ticks = OVERRUN_WINDOW_S // tick_s
    margin_ticks = -((OVERRUN_MAX_S + OVERRUN_GAP_S) // -tick_s)
    dur_lo = max(1, 60 // tick_s)
    dur_hi = max(1, OVERRUN_MAX_S // tick_s)
    windows = range(0, n - window_ticks + 1, window_ticks)
    stream = _Stream(bitgen, 3 * len(windows))  # 3 words a window, save rejections
    for ws in windows:
        if stream.random() >= ps.overrun_prob:
            continue
        start = ws + stream.integers(0, window_ticks - margin_ticks + 1)
        dur = stream.integers(dur_lo, dur_hi + 1)
        power[start : start + dur] = pn_w * stream.uniform(
            ps.overrun_peak_lo, ps.overrun_peak_hi
        )
    stream.close()
    return power


def profile_peak_w(pn_w: float, preset: str = "B") -> float:
    """An upper bound on every sample `household_profile` draws."""
    return max(_SOFT_CAP, PRESETS[preset].overrun_peak_hi) * pn_w


def profile_from_csv(path: str) -> tuple[np.ndarray, int]:
    """Read a `t_s,power_W` file back; returns (power array, tick seconds).

    The time column must be a uniform grid starting at 0.
    """
    times: list[int] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["t_s", "power_W"]:
            raise ValueError(f"{path}: expected header 't_s,power_W', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {len(times)}: need t_s and power_W, got {row}")
            try:
                t_s, power_w = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}: row {len(times)}: {exc}") from None
            times.append(t_s)
            values.append(power_w)
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two samples")
    tick = times[1] - times[0]
    if tick < 1 or times[0] != 0:
        raise ValueError(f"{path}: time grid must start at 0 with positive step")
    for k, t in enumerate(times):
        if t != k * tick:
            raise ValueError(f"{path}: non-uniform time grid at row {k}")
    return np.asarray(values, dtype=np.float64), tick
