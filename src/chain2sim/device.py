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
before the alarm and the warning.  A message is formatted only when it is
read, from the note's kind and value and the device's `pn_w`, alarm limit
and `switchoff_remaining`.  The run's writer reads `quarter_energy_wh`,
`event_log` and `notes`; `quarters` and `notifications` are read-only
views of the columns as records.  The per-frame rules that a device taking
one frame at a time applies live in `tests/reference.py:ScalarDevice`, the
reference the tests hold `ingest` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


class Notification(NamedTuple):
    t: int
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
# A note stores its kind as the index in `_KINDS`.
_KINDS = tuple(_MESSAGES)
_IMPLAUSIBLE, _ALARM, _WARNING = map(
    _KINDS.index, ("implausible_reading", "power_alarm", "switchoff_warning")
)
# Cause or event, indexed by value -> the kind of its frame's note.
_T3_CODES = np.array([_KINDS.index(_T3_KINDS[c]) for c in ExceedanceCause])
_T4_CODES = np.array([_KINDS.index(_T4_KINDS[e]) for e in SupplyEventKind])
_EVENTS = {_KINDS.index(kind): event for event, kind in _T4_KINDS.items()}
_IS_EVENT = np.array([kind in _EVENTS for kind in range(len(_KINDS))])  # indexed by kind
_DIRECTIONS = tuple(EnergyDirection)  # indexed by value


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

    @property
    def quarters(self) -> dict[int, QuarterRecord]:
        """The quarter series so far, {quarter start s: record}, read-only;
        a quarter reported twice holds its last report.  Lost quarters are
        gaps."""
        return {
            q: QuarterRecord(e, _DIRECTIONS[d])
            for q, e, d in _joined(self._quarter_rows).tolist()
        }

    def quarter_energy_wh(self, n: int) -> np.ndarray:
        """The energy of the `n` quarters from t = 0 on, -1 for a gap."""
        q, energy = _joined(self._quarter_rows)[:, :2].T
        k, offset = np.divmod(q, QUARTER_S)
        on_grid = np.flatnonzero((offset == 0) & (0 <= k) & (k < n))
        last = np.full(n, -1)  # the row of each quarter's last report
        np.maximum.at(last, k[on_grid], on_grid)
        series = np.full(n, -1, dtype=np.int64)
        reported = last >= 0
        series[reported] = energy[last[reported]]
        return series

    @property
    def event_log(self) -> list[SupplyEvent]:
        """The supply events so far, in link order, read-only."""
        notes = _joined(self._note_rows)
        events = []
        for t, kind, v in notes[_IS_EVENT[notes[:, 1]]].tolist():
            event = _EVENTS[kind]
            duration = v if event is SupplyEventKind.INTERRUPTION_END else None
            events.append(SupplyEvent(t, event, duration))
        return events

    @property
    def notifications(self) -> list[Notification]:
        """`notes` as records, read-only."""
        return list(map(Notification, *self.notes()))

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
        quarters = self.quarters
        for q in range(start_s, end_s, QUARTER_S):
            record = quarters.get(q)
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
    """Where a non-empty `flags` turns true, `before` coming before the first."""
    rises = flags.copy()
    rises[1:] &= ~flags[:-1]
    rises[0] &= not before
    return rises

