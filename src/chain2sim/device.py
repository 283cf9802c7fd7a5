"""User-device state machine: the receiving end of the telemetry link.

The device is built for one POD and reads its link as the link is: in
order, each frame once.  Every frame it receives, a record as the meter
built it or as `decode_frame` read it off the wire, goes through
`on_frame`, which updates the consumption picture and raises user
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from chain2sim.frames import (
    CompactFrame,
    EnergyDirection,
    ExceedanceCause,
    FrameType,
    SupplyEventKind,
)
from chain2sim.meter import OVERRUN_FACTOR, QUARTER_S, switchoff_remaining

DAY_S = 86400


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

    def slot_prices(self, n_slots: int, slot_s: int = 900) -> list[float]:
        """Per-slot price vector for the scheduler, slot k priced at its start."""
        return [self.price_at(k * slot_s) for k in range(n_slots)]


# -- Device --------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceConfig:
    pn_w: float | None = None  # contractual power, for plausibility checks
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
    seq: int


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
        """Ingest the next frame of the link.  Its `seq` must exceed every
        earlier one; a repeated or older `seq` raises `ValueError`.  The
        payload must be of the class its frame type names, as the meter and
        `decode_frame` build it: the frame type picks the handler."""
        if frame.seq <= self._high_water:
            raise ValueError(
                f"seq {frame.seq} at or below the last seq {self._high_water}: "
                "the link repeated or reordered a frame"
            )
        self._high_water = frame.seq
        self.stats["processed"] += 1
        _HANDLERS[frame.frame_type](self, frame)

    def _notify(self, t: float, kind: str, message: str) -> None:
        self.notifications.append(Notification(t, kind, message))

    def _on_t1(self, frame: CompactFrame) -> None:
        payload = frame.payload
        pn = self.config.pn_w
        if pn is not None and payload.energy_wh > 1.5 * pn * (QUARTER_S / 3600.0):
            # Well-formed but physically impossible for this contract; keep
            # it out of the series rather than poison cost estimates.
            self.stats["implausible_t1"] += 1
            self._notify(
                frame.timestamp,
                "implausible_reading",
                f"discarded quarter energy {payload.energy_wh} Wh (Pn {pn:.0f} W)",
            )
            return
        quarter_start = frame.timestamp - QUARTER_S
        self.quarters[quarter_start] = QuarterRecord(
            payload.energy_wh, payload.direction, frame.seq
        )

    def _on_t2(self, frame: CompactFrame) -> None:
        self._on_power_sample(frame.timestamp, float(frame.payload.power_w))

    def _on_power_sample(self, t: int, power_w: float) -> None:
        cfg = self.config
        limit = cfg.alarm_limit_w
        if limit is not None:
            if power_w > limit and not self._alarm_active:
                self._alarm_active = True
                self._notify(
                    t, "power_alarm", f"power {power_w:.0f} W above set limit {limit:.0f} W"
                )
            elif power_w <= limit:
                self._alarm_active = False
        if cfg.pn_w is not None:
            eta = switchoff_remaining(power_w, cfg.pn_w)  # the meter's countdown law
            if eta is not None and not self._cut_warning_active:
                self._cut_warning_active = True
                self._notify(
                    t,
                    "switchoff_warning",
                    f"supply cut in {eta:.0f} s unless load drops below "
                    f"{OVERRUN_FACTOR * cfg.pn_w:.0f} W",
                )
            elif eta is None:
                self._cut_warning_active = False

    def _on_t3(self, frame: CompactFrame) -> None:
        payload = frame.payload
        t = frame.timestamp
        cause = payload.cause
        if cause == ExceedanceCause.POWER_EXCEEDED:
            self._notify(
                t, "contract_power_exceeded", f"drawing {payload.value} W over contract"
            )
            self._on_power_sample(t, float(payload.value))
        elif cause == ExceedanceCause.RESTORED:
            self._notify(t, "power_restored", f"back to {payload.value} W")
            self._on_power_sample(t, float(payload.value))
        else:
            self._notify(
                t, "energy_threshold", f"cumulative energy reached {payload.value} Wh"
            )

    def _on_t4(self, frame: CompactFrame) -> None:
        payload = frame.payload
        t = frame.timestamp
        kind = payload.event
        self.event_log.append(SupplyEvent(t, kind, payload.duration_s))
        if kind == SupplyEventKind.INTERRUPTION_START:
            self._notify(t, "supply_interrupted", "supply interrupted")
        elif kind == SupplyEventKind.INTERRUPTION_END:
            self._notify(
                t, "supply_restored", f"supply restored after {payload.duration_s} s"
            )
        else:
            self._notify(t, "voltage_event", "voltage event on the supply")

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


# Frame type -> the method that ingests a processed frame of that type.
_HANDLERS = {
    FrameType.T1: Device._on_t1,
    FrameType.T2: Device._on_t2,
    FrameType.T3: Device._on_t3,
    FrameType.T4: Device._on_t4,
}
