"""User-device state machine: the receiving end of the telemetry link.

The device is built for one POD and reads its link as the link is: in
order, each frame once.  It takes a block of frame rows (see `frames`)
through `ingest`, and one frame record, as the meter built it or as
`decode_frame` read it off the wire, through `on_frame`, which ingests the
frame's row.  Each frame updates the consumption picture and raises user
notifications:

    T1  fills the quarter-hour energy series (lost quarters stay as gaps,
        they are never interpolated),
    T2  drives the user-set power alarm and the cut warning from the
        instantaneous power,
    T3  contractual exceedance start/end and the one-shot energy alarm,
    T4  logs supply events (interruption start/end, voltage events).

The channel is FIFO and sends each frame once, so sequence numbers rise
from frame to frame; the device keeps only the high-water mark, and a frame
at or below it is a pipeline bug that raises.  There is no dedup window:
it comes back with any channel that retransmits or reorders frames.

Sequence gaps below the high-water mark are exactly the frames the device
never got: lost on the channel or gated by the pairing window.

`ingest` reads a block in numpy: quarters from the T1 rows, with the
implausible-energy test as a mask; the power alarm and the cut warning as
the rising edges of their tests over the power samples (T2 and the
power-cause T3 rows, in seq order), each flag carried over from the block
before.  It merges the notifications of a block by seq, and within a frame
puts the frame's own notification before the alarm and the warning.  The
per-frame rules that a device taking one frame at a time applies live in
`tests/reference.py:ScalarDevice`, the reference the tests hold `ingest` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from chain2sim.frames import (
    DAY_S,
    DIRECTION,
    KEY,
    QUARTER_S,
    SEQ,
    TIMESTAMP,
    TYPE,
    VALUE,
    CompactFrame,
    EnergyDirection,
    ExceedanceCause,
    FrameType,
    SupplyEventKind,
    frame_rows,
)
from chain2sim.meter import OVERRUN_FACTOR, switchoff_remaining


# -- Tariffs -------------------------------------------------------------------


@dataclass(frozen=True)
class TariffWindow:
    start_s: int  # seconds from midnight, inclusive
    end_s: int  # exclusive
    price_eur_per_kwh: float


class TariffSchedule:
    """Time-of-use prices over the day; windows must partition [0, 24 h)."""

    def __init__(
        self,
        windows: Iterable[TariffWindow],
        feed_in_price_eur_per_kwh: float | None = None,
    ) -> None:
        ws = sorted(windows, key=lambda w: w.start_s)
        if not ws:
            raise ValueError("tariff needs at least one window")
        if ws[0].start_s != 0 or ws[-1].end_s != DAY_S:
            raise ValueError("tariff windows must start at 0 and end at 86400")
        for prev, cur in zip(ws, ws[1:]):
            if prev.end_s != cur.start_s:
                raise ValueError(
                    f"tariff windows must tile the day; gap or overlap at {prev.end_s}/{cur.start_s}"
                )
        for w in ws:
            if w.end_s <= w.start_s:
                raise ValueError(f"empty tariff window at {w.start_s}")
            if w.price_eur_per_kwh < 0:
                raise ValueError(f"negative price in window at {w.start_s}")
        if feed_in_price_eur_per_kwh is not None and feed_in_price_eur_per_kwh < 0:
            raise ValueError("feed-in price must be >= 0")
        self.windows = tuple(ws)
        self.feed_in_price_eur_per_kwh = feed_in_price_eur_per_kwh

    @classmethod
    def flat(
        cls, price_eur_per_kwh: float, feed_in_price_eur_per_kwh: float | None = None
    ) -> "TariffSchedule":
        return cls([TariffWindow(0, DAY_S, price_eur_per_kwh)], feed_in_price_eur_per_kwh)

    def price_at(self, t_s: float) -> float:
        """Withdrawal price at a scenario time (wraps daily)."""
        tod = t_s % DAY_S
        for w in self.windows:
            if w.start_s <= tod < w.end_s:
                return w.price_eur_per_kwh
        raise AssertionError("windows partition the day")  # unreachable

    def slot_prices(self, n_slots: int) -> list[float]:
        """Per-quarter price vector for the scheduler, slot k priced at its start."""
        return [self.price_at(k * QUARTER_S) for k in range(n_slots)]


# -- Device --------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceConfig:
    pn_w: float  # contractual power, for plausibility checks and the cut warning
    alarm_limit_w: float | None = None  # user-set threshold for the power alarm
    tariff: TariffSchedule | None = None


@dataclass(frozen=True)
class Notification:
    t: float
    kind: str
    message: str


@dataclass(slots=True)
class QuarterRecord:
    energy_wh: int
    direction: EnergyDirection


@dataclass(frozen=True)
class SupplyEvent:
    t: int
    kind: SupplyEventKind
    duration_s: int | None


@dataclass(frozen=True)
class CostEstimate:
    cost_eur: float
    income_eur: float
    quarters_expected: int
    quarters_observed: int

    @property
    def coverage(self) -> float:
        if self.quarters_expected == 0:
            return 1.0
        return self.quarters_observed / self.quarters_expected


# Notification kind -> its message, formatted with the values of the frame.
_MESSAGES = {
    "implausible_reading": "discarded quarter energy {} Wh (Pn {:.0f} W)",
    "power_alarm": "power {:.0f} W above set limit {:.0f} W",
    "switchoff_warning": "supply cut in {:.0f} s unless load drops below {:.0f} W",
    "contract_power_exceeded": "drawing {} W over contract",
    "power_restored": "back to {} W",
    "energy_threshold": "cumulative energy reached {} Wh",
    "supply_interrupted": "supply interrupted",
    "supply_restored": "supply restored after {} s",
    "voltage_event": "voltage event on the supply",
}
_T3_KINDS = {
    ExceedanceCause.POWER_EXCEEDED: "contract_power_exceeded",
    ExceedanceCause.RESTORED: "power_restored",
    ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED: "energy_threshold",
}
_T4_KINDS = {
    SupplyEventKind.INTERRUPTION_START: "supply_interrupted",
    SupplyEventKind.INTERRUPTION_END: "supply_restored",
    SupplyEventKind.VOLTAGE_EVENT: "voltage_event",
}
_DIRECTIONS = tuple(EnergyDirection)  # indexed by value


class Device:
    def __init__(self, config: DeviceConfig) -> None:
        self.config = config
        self.quarters: dict[int, QuarterRecord] = {}  # quarter start s -> record
        self.event_log: list[SupplyEvent] = []
        self.notifications: list[Notification] = []
        self.stats: dict[str, int] = {
            "processed": 0,
            "implausible_t1": 0,
        }
        self._high_water = 0
        self._alarm_active = False  # user-limit excursion in progress
        self._cut_warning_active = False

    # -- ingest ------------------------------------------------------------

    def on_frame(self, frame: CompactFrame) -> None:
        """Ingest the next frame of the link: `ingest` of its row.  Its `seq`
        must exceed every earlier one; a repeated or older `seq` raises
        `ValueError`."""
        self.ingest(frame_rows([frame]))

    def ingest(self, rows: np.ndarray) -> None:
        """Ingest the next frames of the link, a block of frame rows (see
        `frames`) in link order: equal to taking them one frame at a time,
        as `tests/reference.py:ScalarDevice` does.  The seqs must rise past
        every earlier one; if one does not, the block raises `ValueError`
        and none of it is taken."""
        if not len(rows):
            return
        seq = rows[:, SEQ]
        fallen = np.flatnonzero(np.diff(seq, prepend=self._high_water) <= 0)
        if fallen.size:
            i = int(fallen[0])
            self._check_seq(self._high_water if i == 0 else int(seq[i - 1]), int(seq[i]))
        self._high_water = int(seq[-1])
        self.stats["processed"] += len(rows)
        cfg = self.config
        types, key = rows[:, TYPE], rows[:, KEY]
        notes = []  # (seq, order within the frame, t, kind, values)

        # A quarter over what the contract can draw is well-formed but
        # physically impossible; it stays out of the series rather than
        # poison cost estimates.
        t1 = rows[types == FrameType.T1]
        implausible = t1[:, VALUE] > 1.5 * cfg.pn_w * (QUARTER_S / 3600.0)
        self.stats["implausible_t1"] += int(implausible.sum())
        for s, t, e in t1[implausible][:, [SEQ, TIMESTAMP, VALUE]].tolist():
            notes.append((s, 0, t, "implausible_reading", (e, cfg.pn_w)))
        for t, d, e in t1[~implausible][:, [TIMESTAMP, DIRECTION, VALUE]].tolist():
            self.quarters[t - QUARTER_S] = QuarterRecord(e, _DIRECTIONS[d])

        for s, t, cause, v in rows[types == FrameType.T3][:, [SEQ, TIMESTAMP, KEY, VALUE]].tolist():
            notes.append((s, 0, t, _T3_KINDS[cause], (v,)))
        for s, t, event, d in rows[types == FrameType.T4][:, [SEQ, TIMESTAMP, KEY, VALUE]].tolist():
            event = SupplyEventKind(event)
            duration = d if event is SupplyEventKind.INTERRUPTION_END else None
            self.event_log.append(SupplyEvent(t, event, duration))
            notes.append((s, 0, t, _T4_KINDS[event], (duration,)))

        # The power samples, T2 and the power-cause T3, in link order: the
        # alarm and the cut warning rise where their test turns true, each
        # carried over from the block before.
        sampled = (types == FrameType.T2) | (
            (types == FrameType.T3) & (key != ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED)
        )
        samples = rows[sampled][:, [SEQ, TIMESTAMP, VALUE]]
        if cfg.alarm_limit_w is not None and len(samples):
            limit = cfg.alarm_limit_w
            above = samples[:, 2] > limit
            for s, t, p in samples[_rises(above, self._alarm_active)].tolist():
                notes.append((s, 1, t, "power_alarm", (float(p), limit)))
            self._alarm_active = bool(above[-1])
        if len(samples):
            pn, reference = cfg.pn_w, OVERRUN_FACTOR * cfg.pn_w
            above = samples[:, 2] > reference  # where switchoff_remaining is not None
            for s, t, p in samples[_rises(above, self._cut_warning_active)].tolist():
                eta = switchoff_remaining(float(p), pn)
                notes.append((s, 2, t, "switchoff_warning", (eta, reference)))
            self._cut_warning_active = bool(above[-1])

        notes.sort(key=lambda note: note[:2])
        self.notifications.extend(
            Notification(t, kind, _MESSAGES[kind].format(*values))
            for _, _, t, kind, values in notes
        )

    @staticmethod
    def _check_seq(last: int, seq: int) -> None:
        if seq <= last:
            raise ValueError(
                f"seq {seq} at or below the last seq {last}: "
                "the link repeated or reordered a frame"
            )

    # -- queries -----------------------------------------------------------

    def estimate_cost(self, start_s: int, end_s: int) -> CostEstimate:
        """Tariff cost (and feed-in income) of the stored quarters in a window.

        Quarters lost on the channel are excluded; the caller reads the
        coverage fraction to judge how complete the estimate is.  The window
        must be aligned to quarter boundaries.
        """
        if self.config.tariff is None:
            raise ValueError("no tariff configured")
        if start_s % QUARTER_S or end_s % QUARTER_S or end_s <= start_s:
            raise ValueError(
                f"window [{start_s}, {end_s}) must be a positive span of whole quarters"
            )
        tariff = self.config.tariff
        cost = 0.0
        income = 0.0
        observed = 0
        for q in range(start_s, end_s, QUARTER_S):
            record = self.quarters.get(q)
            if record is None:
                continue
            observed += 1
            kwh = record.energy_wh / 1000.0
            if record.direction == EnergyDirection.WITHDRAWN:
                cost += kwh * tariff.price_at(q)
            else:
                feed_in = tariff.feed_in_price_eur_per_kwh or 0.0
                income += kwh * feed_in
        expected = (end_s - start_s) // QUARTER_S
        return CostEstimate(cost, income, expected, observed)


def _rises(flags: np.ndarray, before: bool) -> np.ndarray:
    """Where a non-empty `flags` turns true, `before` coming before the first."""
    rises = flags.copy()
    rises[1:] &= ~flags[:-1]
    rises[0] &= not before
    return rises

