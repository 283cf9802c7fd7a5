"""Smart-meter state machine: samples household power, emits compact frames.

The meter is driven by `emit_rows(power, t0)` over a power series, one
sample per tick.  Each tick t covers the half-open interval [t, t + tick_s)
and may emit:

    T2  when the power crosses one or more k*Pn/10 band thresholds,
    T3  on exceeding the contractual power Pn (and on return below it),
        or once when cumulative energy passes a configured threshold,
    T1  when the tick closes a quarter hour (energy of that quarter),
    T4  when the meter itself opens the breaker after a sustained overrun.

Overrun handling: while the power stays above `OVERRUN_FACTOR * pn_w` the
meter counts down to a supply cut.  The allowed time is inversely
proportional to the excess,

    remaining = SWITCHOFF_TAU_S * pn_w / (power - OVERRUN_FACTOR * pn_w)

so a small overrun is tolerated for tens of minutes while a doubled load is
cut within a few minutes.  The deadline only tightens while the overrun
persists (taking the minimum of the armed deadline and the one implied by
the current sample) and is dropped as soon as the power returns below the
reference.

A distributor-issued emergency limit (`arm_emergency_limit`) replaces the
reference: while armed, the countdown uses

    remaining = SWITCHOFF_TAU_S * limit_w / (power - limit_w)

with no tolerance factor on the limit itself.  `switchoff_remaining` is the
law against Pn, which the device's cut warning calls.

All frames share one gapless sequence counter starting at 1, so a receiver
can detect channel losses as sequence gaps regardless of frame type.

`emit_rows` gives the frames as blocks of frame rows (see `frames`), one
block per stretch of ticks where the breaker and the emergency limit stay
as they are, computed in numpy:

    T2  one row per band passed: `np.repeat` over the band changes, the
        first against the band the meter holds;
    T3  the edges of power > pn_w, and the one-shot energy alarm at the
        first tick whose cumulative energy reaches energy_threshold_wh;
    T1  a row per quarter close, from a per-quarter `np.cumsum`.

Within a tick the order is T4, T2, T3 (power, then energy), T1; values
round half to even with `np.rint`, as `round` does; seqs continue the
count.  Each kind's fields are written straight to their rows in the
block, at the positions a stable sort of the kinds' ticks gives them.  A
stretch ends before the tick where the breaker or the limit changes, and
the next one starts with that change:

    the tick that reaches the cut deadline the tick before it left opens
    the breaker, with a T4 interruption start as its first row;
    the tick at or past the end of an emergency limit clears the limit
    first, which also drops the deadline, so a cut cannot fall due there.

An open breaker samples 0 W, so only quarter closes emit; an armed limit is
the overrun reference.  A sample is rejected, with `ValueError` and before
its tick changes any state, unless 0 <= 10 * sample < inf, whatever the
breaker state.

The quarter and total energy advance by `np.cumsum`, which adds in sequence
and so matches a per-tick `+=` bit for bit.  A stretch has one full-length
float buffer: ten times the samples, then the band, then the energy of each
tick, which the quarter sums overwrite in place.  The lifetime total, which
only the energy alarm reads, is kept only while the alarm can still fire,
summed a few thousand ticks at a time in a small buffer of its own, up to
the tick that fires it.  The samples are checked against the bounds of
the whole series, and a series out of them is searched for its first
rejected sample.  The cut deadline is computed on the ticks above
the reference only, in the per-tick operation order: a running minimum over
each run of consecutive ones, the run at the first tick starting from the
armed deadline, by `accumulate_runs`.
`tests/reference.py:ScalarMeter` applies these rules one tick at a time,
and `emit_rows` must match it.

Two scans here serve the channel and the device too.  `changes` gives the
positions where a series differs from the value before it: the band
changes, the edges of power > pn_w, and the device's rising alarms.
`accumulate_runs(ufunc, values, starts)` accumulates a ufunc over each run
of a block in place, in the order a per-position loop applies it: the
deadline minimum here, and the channel's busy periods.  The runs of up to
LONG_RUN values take it a position at a time, all at once, and each longer
run takes one `ufunc.accumulate` of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from chain2sim.frames import (
    DAY_S,
    DIRECTION,
    KEY,
    QUARTER_S,
    ROW_WIDTH,
    SEQ,
    TIMESTAMP,
    TYPE,
    VALUE,
    CompactFrame,
    CrossingDirection,
    EnergyDirection,
    ExceedanceCause,
    FrameType,
    SupplyEventKind,
    frame_from_row,
)

QUARTERS_PER_DAY = DAY_S // QUARTER_S
OVERRUN_FACTOR = 1.1  # tolerated fraction of pn_w before the cut countdown arms
SWITCHOFF_TAU_S = 180.0  # time constant of the cut countdown (s)
LONG_RUN = 16  # values in a run past which `accumulate_runs` takes it in one accumulate
_TOTAL_CHUNK = 4096  # ticks of the lifetime total summed at a time

_T1, _T2, _T3, _T4 = FrameType
_UP, _DOWN = CrossingDirection
_POWER_EXCEEDED, _ENERGY_THRESHOLD_EXCEEDED, _RESTORED = ExceedanceCause
_INTERRUPTION_START = SupplyEventKind.INTERRUPTION_START


def switchoff_remaining(power_w: float, pn_w: float) -> float | None:
    """Seconds until the breaker would open at a steady `power_w`.

    Returns None when the power is at or below the tolerated reference
    `OVERRUN_FACTOR * pn_w` (no countdown).  The remaining time is inversely
    proportional to the excess over that reference.
    """
    reference = OVERRUN_FACTOR * pn_w
    if power_w <= reference:
        return None
    return SWITCHOFF_TAU_S * pn_w / (power_w - reference)


@dataclass(frozen=True)
class MeterConfig:
    """Static parameters of one meter.

    pn_w: contractual power in watts.
    energy_threshold_wh: optional cumulative-energy alarm level; the meter
        sends a single T3 when lifetime energy first reaches it.
    tick_s: sampling period in whole seconds; must divide the 900 s quarter.
    direction: which flow the T1 quarters account (a plain consumer meter
        reports withdrawn energy, a production meter reports fed-in energy).
    """

    pn_w: float
    energy_threshold_wh: float | None = None
    tick_s: int = 1
    direction: EnergyDirection = EnergyDirection.WITHDRAWN

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pn_w) and self.pn_w > 0):
            raise ValueError(f"pn_w must be positive and finite, got {self.pn_w}")
        if self.energy_threshold_wh is not None and not self.energy_threshold_wh > 0:
            raise ValueError(
                f"energy_threshold_wh must be positive, got {self.energy_threshold_wh}"
            )
        if not isinstance(self.tick_s, int) or self.tick_s < 1:
            raise ValueError(f"tick_s must be a positive integer, got {self.tick_s}")
        if QUARTER_S % self.tick_s != 0:
            raise ValueError(
                f"tick_s must divide {QUARTER_S} s, got {self.tick_s}"
            )


class Meter:
    """One metering point.

    Drive it with `emit_rows(power, t0)` over consecutive pieces of a power
    series; inject network-side supply events with `apply_supply_event`;
    apply a distributor emergency power limit with `arm_emergency_limit`.
    Emitted frames are returned to the caller as rows, never sent anywhere
    by the meter itself.
    """

    def __init__(self, pod_id: str, config: MeterConfig) -> None:
        self.pod_id = pod_id
        self.config = config
        self.supply_on = True
        self._seq = 0
        self._next_t: int | None = None
        self._band = 0
        self._over_pn = False
        self._cut_deadline: float | None = None
        self._quarter_acc_ws = 0.0
        self._total_acc_ws = 0.0  # kept only while the energy alarm can fire
        self._energy_alarm_sent = False
        self._interruption_started_at: int | None = None
        self._em_limit_w: float | None = None
        self._em_until: float | None = None

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently emitted frame (0 if none)."""
        return self._seq

    @property
    def interrupted_at(self) -> int | None:
        """When the supply interruption in progress began; None with the
        supply on."""
        return self._interruption_started_at

    # -- emergency limit ---------------------------------------------------

    def arm_emergency_limit(self, limit_w: float, until_s: float) -> None:
        """Lower the cut reference to `limit_w` until scenario time `until_s`.

        While armed, the overrun countdown runs against the limit itself
        (no tolerance factor); an already armed cut deadline is dropped so
        the countdown restarts against the new reference.
        """
        if not limit_w > 0:  # written so that NaN fails too
            raise ValueError(f"limit_w must be positive, got {limit_w}")
        if math.isnan(until_s):
            raise ValueError("until_s must not be NaN")
        self._em_limit_w = float(limit_w)
        self._em_until = float(until_s)
        self._cut_deadline = None

    def clear_emergency_limit(self) -> None:
        if self._em_limit_w is not None:
            self._em_limit_w = None
            self._em_until = None
            self._cut_deadline = None

    # -- supply events -----------------------------------------------------

    def apply_supply_event(self, t: int, kind: SupplyEventKind) -> np.ndarray:
        """Inject a network-side supply event; returns the rows of the frames
        it causes.

        Interruption start/end toggle `supply_on` and are idempotent: a
        start while already off (or an end while on) emits nothing.  The
        end frame carries the outage duration.
        """
        kind = SupplyEventKind(kind)
        duration = 0
        if kind is SupplyEventKind.INTERRUPTION_START:
            if not self.supply_on:
                return np.empty((0, ROW_WIDTH), dtype=np.int64)
            self.supply_on = False
            self._interruption_started_at = t
            self._cut_deadline = None
        elif kind is SupplyEventKind.INTERRUPTION_END:
            if self.supply_on:
                return np.empty((0, ROW_WIDTH), dtype=np.int64)
            started = self._interruption_started_at
            duration = 0 if started is None else max(0, t - started)
            self.supply_on = True
            self._interruption_started_at = None
        self._seq += 1
        return np.array([[_T4, self._seq, t, kind, 0, duration]], dtype=np.int64)

    # -- sampling ----------------------------------------------------------

    def step(self, power_w: float, t: int) -> list[CompactFrame]:
        """`emit_rows` over the one tick [t, t + tick_s) at `power_w`, its
        rows returned as frame records."""
        blocks = list(self.emit_rows(np.array([power_w], dtype=np.float64), t))
        return [frame_from_row(row, self.pod_id) for block in blocks for row in block.tolist()]

    def emit_rows(self, power: np.ndarray, t0: int) -> Iterator[np.ndarray]:
        """Advance over `power[i]` at ticks `t0 + i * tick_s`, yielding the
        frames emitted as blocks of rows (see `frames`), in send order.

        `t0` must be tick-aligned, and follow the last tick taken when there
        is one.  Inject supply events or arm an emergency limit only before
        a call, never between yields: to inject at a later tick, split the
        series there.  A rejected sample raises `ValueError` after the
        blocks of the ticks before it.  A frame value past the int64 range
        raises OverflowError; validation keeps every value inside its wire
        field.
        """
        p = np.asarray(power, dtype=np.float64)
        tick = self.config.tick_s
        while p.size:
            stop, rows = self._rows(p, t0)
            if len(rows):
                yield rows
            p, t0 = p[stop:], t0 + stop * tick

    def _rows(self, p: np.ndarray, t0: int) -> tuple[int, np.ndarray]:
        """The frame rows of the first stretch of a non-empty `p` (see the
        module docstring), and the index of the tick that ends it (len(p)
        if none).  The meter is left in the state that tick starts from.

        The stretch starts with the change its first tick makes: the limit
        expires, or the cut falls due.  A first sample the meter rejects,
        or a first tick that does not follow the last one taken, raises
        before any state changes; a later rejected sample ends the stretch.
        """
        cfg = self.config
        tick = cfg.tick_s
        pn = cfg.pn_w
        with np.errstate(over="ignore", invalid="ignore"):
            # Rejected: negative, NaN, inf, or one whose 10 * p overflows.
            # The series' least and greatest ten-fold samples hold both
            # bounds (NaN fails them), or the first sample out of them ends
            # the stretch.  `band` is the stretch's one float buffer: the
            # band, then the quarter energy.
            band = np.multiply(p, 10.0)
            m = (
                len(p) if band.min() >= 0.0 and band.max() < np.inf
                else int(np.flatnonzero(~((band >= 0.0) & (band < np.inf)))[0])
            )
        if m == 0:
            raise ValueError(
                f"power_w must be non-negative with 10 * power_w finite, got {float(p[0])}"
            )
        next_t = self._next_t
        if next_t is None:
            if t0 % tick != 0:
                raise ValueError(f"t={t0} is not aligned to tick_s={tick}")
        elif t0 != next_t:
            raise ValueError(f"expected step at t={next_t}, got t={t0}")

        if self._em_until is not None and t0 >= self._em_until:
            self.clear_emergency_limit()
        limit = self._em_limit_w
        armed = self._cut_deadline
        cut = np.zeros(0, np.int64)
        if armed is not None and t0 >= armed and self.supply_on:
            self.supply_on = False
            self._interruption_started_at = t0
            self._cut_deadline = armed = None
            cut = np.zeros(1, np.int64)
        if self.supply_on:
            x = p[:m]
        else:
            band[:m] = 0.0
            x = np.broadcast_to(0.0, m)  # zeros, read only, with no buffer

        with np.errstate(over="ignore", invalid="ignore"):
            # The cut countdown, on the ticks above the reference only.  Each
            # arms `t + remaining`, in the per-tick operation order, and a run
            # of them keeps the running minimum, from the armed deadline at
            # tick 0.
            scale, reference = (pn, OVERRUN_FACTOR * pn) if limit is None else (limit, limit)
            over = np.flatnonzero(x > reference)
            deadline = (t0 + over * tick) + SWITCHOFF_TAU_S * scale / (x[over] - reference)
            if over.size and over[0] == 0 and armed is not None:
                deadline[0] = min(deadline[0], armed)
            starts = np.ones(over.size + 1, bool)
            np.not_equal(over[1:], over[:-1] + 1, out=starts[1:-1])
            accumulate_runs(np.minimum, deadline, starts)
            # The breaker opens at the first tick that reaches the deadline
            # left by the tick before it; the limit expires at the first tick
            # at or past its end.  Neither is tick 0, which took its change.
            due = np.flatnonzero(t0 + (over + 1) * tick >= deadline)
            stop = min(m, int(over[due[0]]) + 1) if due.size else m
            if limit is not None:
                stop = bisect_left(range(t0, t0 + stop * tick, tick), self._em_until)
            x = x[:stop]

            # T2: one row per band passed, in crossing order.
            band = band[:stop]
            np.divide(band, pn, out=band)
            np.floor(band, out=band)
            np.minimum(band, 10.0, out=band)
            moved = changes(band, self._band)
            new, old = band[moved], band[moved - 1]
            if moved.size and moved[0] == 0:
                old[0] = self._band
            count = np.abs(new - old).astype(np.int64)
            crossing = np.repeat(moved, count)
            k = np.arange(len(crossing)) - np.repeat(np.cumsum(count) - count, count)
            up, first = np.repeat(new > old, count), np.repeat(old.astype(np.int64), count)
            last_band = int(band[-1])

            # T3: the edges of power > Pn.
            over_pn = x > pn
            edges = changes(over_pn, self._over_pn)

            # Energy, in the spent band: the lifetime total, only while the
            # alarm can still fire, then each quarter summed in place.  The
            # quarter sum is seeded through its first element, which is the
            # first `+=` a per-tick loop makes.
            quarter = np.multiply(x, tick, out=band)
            alarm, alarm_wh, total_ws = np.zeros(0, np.int64), None, self._total_acc_ws
            threshold = cfg.energy_threshold_wh
            if threshold is not None and not self._energy_alarm_sent:
                first_alarm, total_ws = _lifetime_total(quarter, total_ws, threshold)
                if first_alarm < stop:
                    alarm, alarm_wh = np.array([first_alarm]), total_ws / 3600.0
            quarter[0] += self._quarter_acc_ws
            ticks_per_quarter = QUARTER_S // tick
            closes = np.arange(ticks_per_quarter - 1 - (t0 % QUARTER_S) // tick, stop, ticks_per_quarter)
            # The quarter the stretch starts in, the whole ones, and the one
            # it ends in.
            a = int(closes[0]) + 1 if closes.size else stop
            b = a + (stop - a) // ticks_per_quarter * ticks_per_quarter
            for piece in (quarter[:a], quarter[a:b].reshape(-1, ticks_per_quarter), quarter[b:]):
                np.cumsum(piece, axis=-1, out=piece)
            t_close = t0 + (closes + 1) * tick

            # Per kind of frame, in its order within a tick: the ticks, then
            # the type, timestamp, key, direction and value of each row.
            rows = _block(
                (
                    (cut, _T4, t0, _INTERRUPTION_START, 0, 0),
                    (crossing, _T2, t0 + crossing * tick, np.where(up, first + 1 + k, first - k),
                     np.where(up, _UP, _DOWN), x[crossing]),
                    (edges, _T3, t0 + edges * tick,
                     np.where(over_pn[edges], _POWER_EXCEEDED, _RESTORED), 0, x[edges]),
                    (alarm, _T3, t0 + alarm * tick, _ENERGY_THRESHOLD_EXCEEDED, 0, alarm_wh),
                    (closes, _T1, t_close, (t_close // QUARTER_S - 1) % QUARTERS_PER_DAY,
                     cfg.direction, quarter[closes] / 3600.0),
                ),
                self._seq,
            )

        last = stop - 1
        j = int(np.searchsorted(over, last))
        self._seq += len(rows)
        self._next_t = t0 + stop * tick
        self._band = last_band
        self._over_pn = bool(over_pn[last])
        self._cut_deadline = float(deadline[j]) if j < over.size and over[j] == last else None
        self._quarter_acc_ws = 0.0 if closes.size and closes[-1] == last else float(quarter[last])
        self._total_acc_ws = total_ws
        self._energy_alarm_sent |= bool(alarm.size)
        return stop, rows


def changes(values: np.ndarray, before) -> np.ndarray:
    """The indices where a non-empty `values` differs from the value before
    it, `before` coming before the first."""
    moved = np.flatnonzero(values[1:] != values[:-1]) + 1
    return moved if values[0] == before else np.concatenate(([0], moved))


def _lifetime_total(energy: np.ndarray, total_ws: float, threshold_wh: float) -> tuple[int, float]:
    """Add `energy` onto the lifetime total `total_ws` in sequence, as a
    per-tick `+=` does, _TOTAL_CHUNK ticks at a time in one small buffer, up
    to the first tick whose total reaches `threshold_wh`.  Returns that tick
    (len(energy) if none) and the total there (at the last tick if none)."""
    n = len(energy)
    buffer = np.empty(min(n, _TOTAL_CHUNK))
    for a in range(0, n, _TOTAL_CHUNK):
        run = buffer[: min(n - a, _TOTAL_CHUNK)]
        run[:] = energy[a : a + len(run)]
        run[0] += total_ws
        np.cumsum(run, out=run)
        if run[-1] / 3600.0 >= threshold_wh:
            # The total never falls, so the first tick to reach it bisects.
            i = bisect_left(range(len(run)), True, key=lambda i: run[i] / 3600.0 >= threshold_wh)
            return a + i, float(run[i])
        total_ws = float(run[-1])
    return n, total_ws


def accumulate_runs(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray) -> None:
    """Accumulate `ufunc` over each run of `values` in place, in order:
    `values[i] = ufunc(values[i - 1], values[i])` at each value but the
    first of its run.  `starts` marks the first value of each run, and holds
    one more True past the last value (see the module docstring)."""
    first = np.flatnonzero(starts)
    if len(first) == len(starts):
        return  # no run of two values or more
    length = np.diff(first)
    first = first[:-1]
    long = length > LONG_RUN
    at = first[~long] + 1  # the next position of each short run
    while (at := at[~starts[at]]).size:
        values[at] = ufunc(values[at - 1], values[at])
        at += 1
    for a, size in zip(first[long].tolist(), length[long].tolist()):
        ufunc.accumulate(values[a : a + size], out=values[a : a + size])


def _block(kinds, seq: int) -> np.ndarray:
    """The rows of frames given per kind as (ticks, type, timestamp, key,
    direction, value), the kinds in their order within a tick, each kind in
    tick order: merged by tick, each kind's own order kept, and numbered
    from seq + 1.  Each field is an array over the kind's ticks or one value
    for all; values round half to even, as `round` does."""
    ticks = np.concatenate([kind[0] for kind in kinds])
    n = len(ticks)
    # The kinds follow their order within a tick, so a stable sort by tick
    # keeps it, and each kind's own order, on a tie.  Each field is written
    # straight to its row there.
    at = np.empty(n, np.intp)
    at[np.argsort(ticks, kind="stable")] = np.arange(n)
    rows = np.empty((n, ROW_WIDTH), dtype=np.int64)
    columns = [rows[:, column] for column in (TYPE, TIMESTAMP, KEY, DIRECTION)]
    value = np.empty(n)
    a = 0
    for own, *fields in kinds:
        b = a + len(own)
        if a < b:
            to = at[a:b]
            for column, field in zip(columns, fields):
                column[to] = field
            value[to] = fields[-1]
        a = b
    np.rint(value, out=value)
    if not (np.abs(value) < 2.0**63).all():
        raise OverflowError("a frame value past the int64 range of a frame row")
    rows[:, VALUE] = value
    rows[:, SEQ] = np.arange(seq + 1, seq + 1 + n)
    return rows
