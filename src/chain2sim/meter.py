"""Smart-meter state machine: samples household power, emits compact frames.

The meter is driven by `step(power_w, t)` once per tick.  Each call covers
the half-open interval [t, t + tick_s) and may emit:

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

with no tolerance factor on the limit itself.

All frames share one gapless sequence counter starting at 1, so a receiver
can detect channel losses as sequence gaps regardless of frame type.

`step_series(power, t0)` drives the meter over a whole power series and
gives exactly what `step` gives when called for every tick: the same frames,
the same exceptions and the same final state.  It runs `step` only at
breakpoint ticks, where a frame can be emitted or the countdown can change:

    the first tick and the last;
    a band change;
    a sample above the overrun reference, and the tick after one;
    an edge of power > pn_w;
    a tick that closes a quarter;
    the first tick whose cumulative energy reaches energy_threshold_wh;
    the tick where an emergency limit expires;
    a sample `step` rejects (it raises there).

The analysis reads the state it starts from: with the breaker open the meter
samples 0 W, so only quarter closes break, and only a negative sample is
rejected; with a limit armed the reference is the limit.  When a step opens
the breaker or lets the limit expire, the rest of the series is analysed
again from the next tick.  Between breakpoints the quarter and total energy
advance by `np.cumsum`, which adds in sequence and so matches `step`'s `+=`
bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from chain2sim.frames import (
    CompactFrame,
    CrossingDirection,
    EnergyDirection,
    ExceedanceCause,
    FrameType,
    SupplyEventKind,
    T1Payload,
    T2Payload,
    T3Payload,
    T4Payload,
)

QUARTER_S = 900
QUARTERS_PER_DAY = 96
OVERRUN_FACTOR = 1.1  # tolerated fraction of pn_w before the cut countdown arms
SWITCHOFF_TAU_S = 180.0  # time constant of the cut countdown (s)

# Enum members used per tick, bound once: looking a member up on its enum
# class is a slow attribute access on CPython 3.11.
_T1, _T2, _T3, _T4 = FrameType
_UP, _DOWN = CrossingDirection
_POWER_EXCEEDED, _ENERGY_THRESHOLD_EXCEEDED, _RESTORED = ExceedanceCause
_INTERRUPTION_START = SupplyEventKind.INTERRUPTION_START


def switchoff_remaining(
    power_w: float, pn_w: float, *, overrun_factor: float = OVERRUN_FACTOR
) -> float | None:
    """Seconds until the breaker would open at a steady `power_w`.

    Returns None when the power is at or below the tolerated reference
    `overrun_factor * pn_w` (no countdown).  The remaining time is inversely
    proportional to the excess over that reference.
    """
    reference = overrun_factor * pn_w
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
        if self.pn_w <= 0:
            raise ValueError(f"pn_w must be positive, got {self.pn_w}")
        if self.energy_threshold_wh is not None and self.energy_threshold_wh <= 0:
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

    Drive it with `step(power_w, t)` at a fixed cadence; inject network-side
    supply events with `apply_supply_event`; apply a distributor emergency
    power limit with `arm_emergency_limit`.  Emitted frames are returned to
    the caller, never sent anywhere by the meter itself.
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
        self._total_acc_ws = 0.0
        self._energy_alarm_sent = False
        self._interruption_started_at: int | None = None
        self._em_limit_w: float | None = None
        self._em_until: float | None = None

    # -- frame helpers ---------------------------------------------------

    def _emit(self, frame_type: FrameType, t: int, payload) -> CompactFrame:
        self._seq += 1
        return CompactFrame(frame_type, self.pod_id, self._seq, t, payload)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently emitted frame (0 if none)."""
        return self._seq

    @property
    def cut_deadline(self) -> float | None:
        return self._cut_deadline

    @property
    def emergency_limit_w(self) -> float | None:
        return self._em_limit_w

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

    def apply_supply_event(self, t: int, kind: SupplyEventKind) -> list[CompactFrame]:
        """Inject a network-side supply event; returns the frames it causes.

        Interruption start/end toggle `supply_on` and are idempotent: a
        start while already off (or an end while on) emits nothing.  The
        end frame carries the outage duration.
        """
        kind = SupplyEventKind(kind)
        if kind is SupplyEventKind.INTERRUPTION_START:
            if not self.supply_on:
                return []
            self.supply_on = False
            self._interruption_started_at = t
            self._cut_deadline = None
            return [self._emit(FrameType.T4, t, T4Payload(kind))]
        if kind is SupplyEventKind.INTERRUPTION_END:
            if self.supply_on:
                return []
            started = self._interruption_started_at
            duration = 0 if started is None else max(0, t - started)
            self.supply_on = True
            self._interruption_started_at = None
            return [self._emit(FrameType.T4, t, T4Payload(kind, duration))]
        return [self._emit(FrameType.T4, t, T4Payload(kind))]

    # -- main sampling entry point ------------------------------------------

    def step(self, power_w: float, t: int) -> list[CompactFrame]:
        """Advance one tick covering [t, t + tick_s); returns emitted frames.

        `t` must be tick-aligned and strictly consecutive with the previous
        call.  `power_w` is the mean household power over the tick.
        """
        cfg = self.config
        tick = cfg.tick_s
        pn = cfg.pn_w
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        next_t = self._next_t
        if next_t is None:
            if t % tick != 0:
                raise ValueError(f"t={t} is not aligned to tick_s={tick}")
        elif t != next_t:
            raise ValueError(f"expected step at t={next_t}, got t={t}")
        self._next_t = t + tick

        frames: list[CompactFrame] = []

        # Emergency limit expires on its own.
        if self._em_until is not None and t >= self._em_until:
            self.clear_emergency_limit()

        # A cut armed earlier falls due: open the breaker before sampling.
        deadline = self._cut_deadline
        if deadline is not None and t >= deadline and self.supply_on:
            self.supply_on = False
            self._interruption_started_at = t
            self._cut_deadline = None
            frames.append(self._emit(_T4, t, T4Payload(_INTERRUPTION_START)))

        p_eff = power_w if self.supply_on else 0.0

        # Band crossings.  One frame per threshold passed, in crossing order.
        # Band k holds the powers in [k*Pn/10, (k+1)*Pn/10), band 10 all at or
        # above Pn; p_eff >= 0, so int() is the floor.
        new_band = int((10.0 * p_eff) / pn)
        if new_band > 10:
            new_band = 10
        old_band = self._band
        if new_band != old_band:
            power_int = round(p_eff)
            if new_band > old_band:
                crossed, direction = range(old_band + 1, new_band + 1), _UP
            else:
                crossed, direction = range(old_band, new_band, -1), _DOWN
            for k in crossed:
                frames.append(self._emit(_T2, t, T2Payload(k, power_int, direction)))
            self._band = new_band

        # Overrun countdown against the active reference.  The default
        # reference is switchoff_remaining() inlined.
        if self._em_limit_w is not None:
            remaining = switchoff_remaining(p_eff, self._em_limit_w, overrun_factor=1.0)
        else:
            reference = OVERRUN_FACTOR * pn
            if p_eff <= reference:
                remaining = None
            else:
                remaining = SWITCHOFF_TAU_S * pn / (p_eff - reference)
        if remaining is None:
            self._cut_deadline = None
        else:
            candidate = t + remaining
            if self._cut_deadline is None or candidate < self._cut_deadline:
                self._cut_deadline = candidate

        # Contractual-power exceedance is edge triggered on Pn itself.
        if p_eff > pn:
            if not self._over_pn:
                self._over_pn = True
                frames.append(
                    self._emit(_T3, t, T3Payload(_POWER_EXCEEDED, round(p_eff)))
                )
        elif self._over_pn:
            self._over_pn = False
            frames.append(self._emit(_T3, t, T3Payload(_RESTORED, round(p_eff))))

        # Energy accounting.
        ws = p_eff * tick
        self._quarter_acc_ws += ws
        total_ws = self._total_acc_ws + ws
        self._total_acc_ws = total_ws
        threshold = cfg.energy_threshold_wh
        if (
            threshold is not None
            and not self._energy_alarm_sent
            and total_ws / 3600.0 >= threshold
        ):
            self._energy_alarm_sent = True
            frames.append(
                self._emit(
                    _T3,
                    t,
                    T3Payload(_ENERGY_THRESHOLD_EXCEEDED, round(total_ws / 3600.0)),
                )
            )

        t_close = t + tick
        if t_close % QUARTER_S == 0:
            energy_wh = round(self._quarter_acc_ws / 3600.0)
            self._quarter_acc_ws = 0.0
            quarter = (t_close // QUARTER_S - 1) % QUARTERS_PER_DAY
            frames.append(
                self._emit(_T1, t_close, T1Payload(quarter, energy_wh, cfg.direction))
            )
        return frames

    def step_series(
        self, power: np.ndarray, t0: int
    ) -> Iterator[tuple[int, list[CompactFrame]]]:
        """Advance over `power[i]` at ticks `t0 + i * tick_s`.

        Yields `(t, frames)` for each breakpoint tick (see the module
        docstring); every other tick emits nothing.  The result equals calling
        `step(power[i], t0 + i * tick_s)` for every i.  Inject supply events
        or arm an emergency limit only before a call, never between yields:
        to inject at a later tick, split the series there.
        """
        p = np.asarray(power, dtype=np.float64)
        tick = self.config.tick_s
        # Through the class, so a wrapper installed on Meter.step sees every call.
        step = Meter.step
        while p.size:
            state = (self.supply_on, self._em_limit_w)
            start = 0  # the first tick of p not stepped yet
            for i, p_i, quarter_ws, total_ws in self._breakpoints(p, t0):
                t = t0 + i * tick
                if i > start:  # quiet ticks since the last step
                    self._quarter_acc_ws = quarter_ws
                    self._total_acc_ws = total_ws
                    self._next_t = t
                yield t, step(self, p_i, t)
                start = i + 1
                if (self.supply_on, self._em_limit_w) != state:
                    break  # a cut or an expiry: analyse again from the next tick
            p, t0 = p[start:], t0 + start * tick

    def _breakpoints(self, p: np.ndarray, t0: int) -> list[tuple[int, float, float, float]]:
        """Breakpoint ticks of a non-empty `p` from the meter's current state,
        as `(i, p[i], quarter_ws, total_ws)`, where the two accumulators are
        their values just before tick i when tick i - 1 is quiet.

        The analysis holds while the breaker and the emergency limit stay as
        they are: an open breaker samples 0 W, and an armed limit is the
        overrun reference until the tick where it expires.  It ends at the
        first sample `step` rejects.
        """
        cfg = self.config
        tick = cfg.tick_s
        pn = cfg.pn_w
        if self.supply_on:
            bad = np.flatnonzero(~(p >= 0.0) | (p == np.inf))
        else:
            bad = np.flatnonzero(p < 0.0)  # step takes NaN and inf with the breaker open
        m = int(bad[0]) + 1 if bad.size else len(p)
        x = p[:m] if self.supply_on else np.zeros(m)
        limit = self._em_limit_w
        with np.errstate(over="ignore", invalid="ignore"):
            band = np.floor((10.0 * x) / pn)
            np.minimum(band, 10.0, out=band)
            over_pn = x > pn
            over_ref = x > (OVERRUN_FACTOR * pn if limit is None else limit)
            mask = over_ref.copy()
            # The tick after an overrun clears its deadline or opens the breaker.
            mask[1:] |= over_ref[:-1]
            mask[1:] |= band[1:] != band[:-1]
            mask[1:] |= over_pn[1:] != over_pn[:-1]
            mask[0] = mask[m - 1] = True
            if limit is not None:
                expiry = bisect_left(range(t0, t0 + m * tick, tick), self._em_until)
                mask[expiry : expiry + 1] = True  # nothing when it expires later
            del band, over_pn, over_ref
            ticks_per_quarter = QUARTER_S // tick
            offset = (t0 % QUARTER_S) // tick
            mask[ticks_per_quarter - 1 - offset :: ticks_per_quarter] = True

            # Seed both running sums through their first element, which is
            # the first `+=` the scalar step would make.
            ws = x * tick
            first = float(ws[0])
            ws[0] = self._total_acc_ws + first
            total = np.cumsum(ws)
            ws[0] = self._quarter_acc_ws + first
            rows = np.zeros(-(-(offset + m) // ticks_per_quarter) * ticks_per_quarter)
            rows[offset : offset + m] = ws
            del ws
            by_quarter = rows.reshape(-1, ticks_per_quarter)  # a view of rows
            np.cumsum(by_quarter, axis=1, out=by_quarter)
            quarter = rows[offset : offset + m]

            threshold = cfg.energy_threshold_wh
            if threshold is not None and not self._energy_alarm_sent:
                reached = total / 3600.0 >= threshold
                k = int(np.argmax(reached))
                if reached[k]:
                    mask[k] = True

        idx = np.flatnonzero(mask)
        before = idx - 1  # wraps to -1 for tick 0, which is never set
        return list(
            zip(
                idx.tolist(),
                p[idx].tolist(),  # the real samples: step checks them
                quarter[before].tolist(),
                total[before].tolist(),
            )
        )
