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
before.  The state is int columns, one block per `ingest`: (quarter start,
energy, direction) per plausible T1, and (time, kind, value) per note, the
notes of a block sorted by seq and, within a frame, the frame's own note
before the alarm and the warning.  The device reads its state out as
columns only, one reader per kind: `quarter_series`, `events` and `notes`.
A message is formatted only when it is read, from the note's kind and value
and the device's `pn_w`, alarm limit and `switchoff_remaining`.  The
per-frame rules that a device taking one frame at a time applies, with its
state as records, live in `tests/reference.py:ScalarDevice`, the reference
the tests hold `ingest` and `estimate_cost` to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
from chain2sim.meter import OVERRUN_FACTOR, changes, switchoff_remaining


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
            if not 0 <= w.price_eur_per_kwh < math.inf:  # NaN too
                raise ValueError(
                    f"price in window at {w.start_s} must be finite and >= 0, "
                    f"got {w.price_eur_per_kwh}"
                )
        feed_in = feed_in_price_eur_per_kwh
        if feed_in is not None and not 0 <= feed_in < math.inf:
            raise ValueError(f"feed-in price must be finite and >= 0, got {feed_in}")
        self.windows = tuple(ws)
        self.feed_in_price_eur_per_kwh = feed_in

    @classmethod
    def flat(
        cls, price_eur_per_kwh: float, feed_in_price_eur_per_kwh: float | None = None
    ) -> "TariffSchedule":
        return cls([TariffWindow(0, DAY_S, price_eur_per_kwh)], feed_in_price_eur_per_kwh)

    def slot_prices(self, n_slots: int) -> list[float]:
        """The withdrawal price of each of the `n_slots` quarters from t = 0,
        a quarter priced at its start: one day's 96 prices, repeated."""
        starts = [w.start_s for w in self.windows]
        day = [
            self.windows[bisect_right(starts, q) - 1].price_eur_per_kwh
            for q in range(0, DAY_S, QUARTER_S)
        ]
        return [day[k % len(day)] for k in range(n_slots)]


# -- Device --------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceConfig:
    pn_w: float  # contractual power, for plausibility checks and the cut warning
    alarm_limit_w: float | None = None  # user-set threshold for the power alarm
    tariff: TariffSchedule | None = None


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
# A note stores its kind as the index in `_KINDS`.
_KINDS = tuple(_MESSAGES)
_IMPLAUSIBLE, _ALARM, _WARNING, _RESTORED = map(
    _KINDS.index, ("implausible_reading", "power_alarm", "switchoff_warning", "supply_restored")
)
# Cause or event, indexed by value -> the kind of its frame's note.
_T3_CODES = np.array([_KINDS.index(_T3_KINDS[c]) for c in ExceedanceCause])
_T4_CODES = np.array([_KINDS.index(_T4_KINDS[e]) for e in SupplyEventKind])
# The kind of a supply event's note -> the event's name in events.csv.
_EVENTS = {_KINDS.index(kind): event.name.lower() for event, kind in _T4_KINDS.items()}
_IS_EVENT = np.array([kind in _EVENTS for kind in range(len(_KINDS))])  # indexed by kind


class Device:
    def __init__(self, config: DeviceConfig) -> None:
        self.config = config
        self.stats: dict[str, int] = {
            "processed": 0,
            "implausible_t1": 0,
        }
        # Blocks of int columns, in link order: (quarter start s, energy Wh,
        # direction) per plausible T1, and (t, kind, value) per note.
        self._quarter_rows: list[np.ndarray] = []
        self._note_rows: list[np.ndarray] = []
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
        # Each note as (seq, order within the frame, t, kind, value): the
        # frame's own note comes first, then the alarm, then the warning.
        notes = []

        # A quarter over what the contract can draw is well-formed but
        # physically impossible; it stays out of the series rather than
        # poison cost estimates.
        t1 = rows[types == FrameType.T1]
        implausible = t1[:, VALUE] > 1.5 * cfg.pn_w * (QUARTER_S / 3600.0)
        self.stats["implausible_t1"] += int(implausible.sum())
        notes.append(_notes(t1[implausible], 0, _IMPLAUSIBLE))
        quarters = t1[~implausible][:, [TIMESTAMP, VALUE, DIRECTION]]
        quarters[:, 0] -= QUARTER_S
        self._quarter_rows.append(quarters)
        t3 = rows[types == FrameType.T3]
        notes.append(_notes(t3, 0, _T3_CODES[t3[:, KEY]]))
        t4 = rows[types == FrameType.T4]
        notes.append(_notes(t4, 0, _T4_CODES[t4[:, KEY]]))

        # The power samples, T2 and the power-cause T3, in link order: the
        # alarm and the cut warning rise where their test turns true, each
        # carried over from the block before.
        sampled = (types == FrameType.T2) | (
            (types == FrameType.T3) & (key != ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED)
        )
        samples = rows[sampled]
        if cfg.alarm_limit_w is not None and len(samples):
            above = samples[:, VALUE] > cfg.alarm_limit_w
            notes.append(_notes(samples[_rises(above, self._alarm_active)], 1, _ALARM))
            self._alarm_active = bool(above[-1])
        if len(samples):
            # Where switchoff_remaining is not None.
            above = samples[:, VALUE] > OVERRUN_FACTOR * cfg.pn_w
            notes.append(_notes(samples[_rises(above, self._cut_warning_active)], 2, _WARNING))
            self._cut_warning_active = bool(above[-1])

        notes = np.concatenate(notes)
        self._note_rows.append(notes[np.lexsort((notes[:, 1], notes[:, 0])), 2:])

    @staticmethod
    def _check_seq(last: int, seq: int) -> None:
        if seq <= last:
            raise ValueError(
                f"seq {seq} at or below the last seq {last}: "
                "the link repeated or reordered a frame"
            )

    # -- state -------------------------------------------------------------

    def quarter_series(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The `n` quarters from t = 0 on as two columns: the energy in Wh
        and the `EnergyDirection` value, both -1 for a gap.  A quarter
        reported twice holds its last report."""
        joined = _joined(self._quarter_rows)
        k, offset = np.divmod(joined[:, 0], QUARTER_S)
        on_grid = np.flatnonzero((offset == 0) & (0 <= k) & (k < n))
        last = np.full(n, -1)  # the row of each quarter's last report
        np.maximum.at(last, k[on_grid], on_grid)
        series = np.full((n, 2), -1, dtype=np.int64)
        reported = last >= 0
        series[reported] = joined[last[reported], 1:]
        return series[:, 0], series[:, 1]

    def events(self) -> tuple[list[int], list[str], list[int | None]]:
        """The supply events so far, in link order, as three columns: the
        time, the event as events.csv names it, and the duration in s of an
        interruption that ended (None for any other event)."""
        notes = _joined(self._note_rows)
        t, kinds, values = notes[_IS_EVENT[notes[:, 1]]].T.tolist()
        durations = [v if kind == _RESTORED else None for kind, v in zip(kinds, values)]
        return t, [_EVENTS[kind] for kind in kinds], durations

    def notes(self) -> tuple[list[int], list[str], list[str]]:
        """The notifications so far, in link order, as three columns: the
        time, kind and message of each.  The messages are formatted here,
        from each note's kind and value and the device's configuration."""
        t, kinds, values = _joined(self._note_rows).T
        messages = np.empty(len(t), dtype=object)
        for kind in range(len(_KINDS)):
            at = kinds == kind
            if at.any():
                messages[at] = self._messages(kind, values[at].tolist())
        return t.tolist(), [_KINDS[k] for k in kinds.tolist()], messages.tolist()

    def _messages(self, kind: int, values: list[int]) -> list[str]:
        """The messages of the notes of one kind, given their values."""
        message = _MESSAGES[_KINDS[kind]].format
        pn, limit = self.config.pn_w, self.config.alarm_limit_w
        if kind == _IMPLAUSIBLE:
            return [message(v, pn) for v in values]
        if kind == _ALARM:
            return [message(float(p), limit) for p in values]
        if kind == _WARNING:
            reference = OVERRUN_FACTOR * pn
            return [message(switchoff_remaining(float(p), pn), reference) for p in values]
        return list(map(message, values))

    # -- queries -----------------------------------------------------------

    def estimate_cost(self, start_s: int, end_s: int) -> CostEstimate:
        """Tariff cost (and feed-in income) of the stored quarters in a window.

        Quarters lost on the channel are excluded; the caller reads the
        coverage fraction to judge how complete the estimate is.  The window
        must be aligned to quarter boundaries and start at t = 0 or later.
        Cost and income each add their quarters in time order.
        """
        tariff = self.config.tariff
        if tariff is None:
            raise ValueError("no tariff configured")
        if start_s % QUARTER_S or end_s % QUARTER_S or not 0 <= start_s < end_s:
            raise ValueError(
                f"window [{start_s}, {end_s}) must be a positive span of whole quarters "
                "from t = 0 on"
            )
        first, end = start_s // QUARTER_S, end_s // QUARTER_S
        energy, direction = (column[first:] for column in self.quarter_series(end))
        kwh = energy / 1000.0
        withdrawn = direction == EnergyDirection.WITHDRAWN
        fed_in = direction == EnergyDirection.FED_IN
        prices = np.array(tariff.slot_prices(end)[first:])
        feed_in = tariff.feed_in_price_eur_per_kwh or 0.0
        cost = income = 0.0
        for x in (kwh[withdrawn] * prices[withdrawn]).tolist():
            cost += x
        for x in (kwh[fed_in] * feed_in).tolist():
            income += x
        return CostEstimate(cost, income, end - first, int(np.count_nonzero(energy >= 0)))


def _notes(rows: np.ndarray, order: int, kind) -> np.ndarray:
    """The notes that `rows` raise, as (seq, order, t, kind, value) rows."""
    notes = np.empty((len(rows), 5), dtype=np.int64)
    notes[:, 0], notes[:, 1], notes[:, 2] = rows[:, SEQ], order, rows[:, TIMESTAMP]
    notes[:, 3], notes[:, 4] = kind, rows[:, VALUE]
    return notes


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The rows of `blocks` as one block, which then replaces them."""
    if len(blocks) != 1:
        blocks[:] = [np.concatenate(blocks) if blocks else np.zeros((0, 3), dtype=np.int64)]
    return blocks[0]


def _rises(flags: np.ndarray, before: bool) -> np.ndarray:
    """The indices where a non-empty `flags` turns true, `before` coming
    before the first: the rising ones of its `changes`."""
    moved = changes(flags, before)
    return moved[flags[moved]]
