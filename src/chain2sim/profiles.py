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
"""

from __future__ import annotations

import csv
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


def household_profile(
    rng: np.random.Generator,
    pn_w: float,
    duration_s: int,
    tick_s: int = 1,
    preset: str = "B",
) -> np.ndarray:
    """Draw one household profile; returns mean power per tick in watts."""
    if pn_w <= 0:
        raise ValueError(f"pn_w must be positive, got {pn_w}")
    if tick_s < 1 or duration_s < tick_s or duration_s % tick_s != 0:
        raise ValueError(
            f"duration_s={duration_s} must be a positive multiple of tick_s={tick_s}"
        )
    try:
        ps = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}"
        ) from None

    n = duration_s // tick_s
    power = np.empty(n, dtype=np.float64)

    # Base load, redrawn segment by segment.
    i = 0
    while i < n:
        seg = max(1, int(rng.integers(ps.segment_lo_s, ps.segment_hi_s + 1)) // tick_s)
        power[i : i + seg] = pn_w * rng.uniform(ps.base_lo, ps.base_hi)
        i += seg

    # Appliance pulses, added then capped.
    expected = ps.pulses_per_hour * duration_s / 3600.0
    for _ in range(int(rng.poisson(expected))):
        dur = max(1, int(rng.integers(ps.pulse_lo_s, ps.pulse_hi_s + 1)) // tick_s)
        start = int(rng.integers(0, n))
        power[start : start + dur] += pn_w * rng.uniform(ps.pulse_lo, ps.pulse_hi)
    np.minimum(power, _SOFT_CAP * pn_w, out=power)

    # Overrun episodes: at most one per window, placed so that consecutive
    # episodes keep at least OVERRUN_GAP_S of sub-reference load between them.
    window_ticks = OVERRUN_WINDOW_S // tick_s
    margin_ticks = -((OVERRUN_MAX_S + OVERRUN_GAP_S) // -tick_s)
    dur_lo = max(1, 60 // tick_s)
    dur_hi = max(1, OVERRUN_MAX_S // tick_s)
    for ws in range(0, n - window_ticks + 1, window_ticks):
        if rng.random() >= ps.overrun_prob:
            continue
        start = ws + int(rng.integers(0, window_ticks - margin_ticks + 1))
        dur = int(rng.integers(dur_lo, dur_hi + 1))
        power[start : start + dur] = pn_w * rng.uniform(
            ps.overrun_peak_lo, ps.overrun_peak_hi
        )
    return power


def profile_peak_w(pn_w: float, preset: str = "B") -> float:
    """An upper bound on every sample `household_profile` draws."""
    return max(_SOFT_CAP, PRESETS[preset].overrun_peak_hi) * pn_w


def profile_to_csv(path: str, power_w: np.ndarray, tick_s: int) -> None:
    """Write a profile as `t_s,power_W` rows, one per tick."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "power_W"])
        for i, p in enumerate(power_w):
            writer.writerow([i * tick_s, f"{p:.3f}"])


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
