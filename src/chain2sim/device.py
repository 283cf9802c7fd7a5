"""User-device state machine: the receiving end of the telemetry link.

The device pairs with exactly one POD.  Every decoded frame goes through
`on_frame`, which deduplicates by sequence number, updates the consumption
picture, and raises user notifications:

    T1  fills the quarter-hour energy series (lost quarters stay as gaps,
        they are never interpolated),
    T2  updates the latest instantaneous power and drives the user-set
        power alarm and the cut warning,
    T3  contractual exceedance start/end and the one-shot energy alarm,
    T4  supply events feeding the quality report.

Dedup keeps a high-water mark plus a 16-deep out-of-order window: a frame
older than the window is dropped and counted, never processed.  The
channel is FIFO so in simulation only duplicates of replayed inputs ever
hit the window path, but the device must survive arbitrary replays.

Sequence gaps below the high-water mark are exactly the frames the channel
lost (plus any still in flight); `seq_gaps` takes the meter's final
sequence number to close that tail for end-of-run reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from chain2sim.frames import (
    CompactFrame,
    EnergyDirection,
    ExceedanceCause,
    SupplyEventKind,
    T1Payload,
    T2Payload,
    T3Payload,
    T4Payload,
)
from chain2sim.meter import QUARTER_S, MeterConfig, switchoff_remaining

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


class Disposition(Enum):
    """What `on_frame` did with a frame."""

    PROCESSED = "processed"
    DUPLICATE = "duplicate"
    TOO_OLD = "too_old"
    UNPAIRED = "unpaired"


@dataclass(frozen=True)
class DeviceConfig:
    paired_pod: str
    pn_w: float | None = None  # contractual power, for plausibility checks
    alarm_limit_w: float | None = None  # user-set threshold for the power alarm
    overrun_factor: float = 1.1
    switchoff_tau_s: float = 180.0
    staleness_s: float = 60.0
    tariff: TariffSchedule | None = None
    dedup_window: int = 16


@dataclass(frozen=True)
class Notification:
    t: float
    kind: str
    message: str


@dataclass(frozen=True)
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
class CutEta:
    seconds: float
    power_w: float
    stale: bool


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


@dataclass(frozen=True)
class Interruption:
    t_start: int
    t_end: int | None  # None while still open at the window edge
    duration_s: int


@dataclass(frozen=True)
class QualityReport:
    interruptions: tuple[Interruption, ...]
    total_interrupted_s: int
    voltage_events: int
    open_interruption: bool


class Device:
    def __init__(self, config: DeviceConfig) -> None:
        if config.dedup_window < 1:
            raise ValueError("dedup_window must be >= 1")
        self.config = config
        self.quarters: dict[int, QuarterRecord] = {}  # quarter start s -> record
        self.last_power_w: float | None = None
        self.last_power_t: float | None = None
        self.event_log: list[SupplyEvent] = []
        self.notifications: list[Notification] = []
        self.processed_log: list[tuple[float, int]] = []  # (arrival t, seq)
        self.stats: dict[str, int] = {
            "processed": 0,
            "duplicates": 0,
            "too_old": 0,
            "unpaired": 0,
            "implausible_t1": 0,
        }
        self._high_water = 0
        self._recent: set[int] = set()
        self._alarm_active = False  # user-limit excursion in progress
        self._cut_warning_active = False
        self._exceed_active = False

    # -- ingest ------------------------------------------------------------

    def on_frame(self, frame: CompactFrame, t_arrive: float) -> Disposition:
        """Ingest one decoded frame; returns how it was treated."""
        if frame.pod_id != self.config.paired_pod:
            self.stats["unpaired"] += 1
            return Disposition.UNPAIRED
        seq = frame.seq
        window = self.config.dedup_window
        if seq > self._high_water:
            self._high_water = seq
            self._recent.add(seq)
            floor = seq - window
            if len(self._recent) > window:
                self._recent = {s for s in self._recent if s > floor}
        elif seq > self._high_water - window:
            if seq in self._recent:
                self.stats["duplicates"] += 1
                return Disposition.DUPLICATE
            self._recent.add(seq)
        else:
            self.stats["too_old"] += 1
            return Disposition.TOO_OLD

        self.stats["processed"] += 1
        self.processed_log.append((t_arrive, seq))
        payload = frame.payload
        if isinstance(payload, T1Payload):
            self._on_t1(frame, payload)
        elif isinstance(payload, T2Payload):
            self._on_power_sample(frame.timestamp, float(payload.power_w))
        elif isinstance(payload, T3Payload):
            self._on_t3(frame, payload)
        else:
            assert isinstance(payload, T4Payload)
            self._on_t4(frame, payload)
        return Disposition.PROCESSED

    def _notify(self, t: float, kind: str, message: str) -> None:
        self.notifications.append(Notification(t, kind, message))

    def _on_t1(self, frame: CompactFrame, payload: T1Payload) -> None:
        pn = self.config.pn_w
        if pn is not None and payload.energy_wh > 1.5 * pn * (QUARTER_S / 3600.0):
            # CRC-valid but physically impossible for this contract; keep it
            # out of the series rather than poison cost estimates.
            self.stats["implausible_t1"] += 1
            self._notify(
                frame.timestamp,
                "implausible_reading",
                f"discarded quarter energy {payload.energy_wh} Wh (Pn {pn:.0f} W)",
            )
            return
        quarter_start = frame.timestamp - QUARTER_S
        self.quarters[quarter_start] = QuarterRecord(
            payload.energy_wh, EnergyDirection(payload.direction), frame.seq
        )

    def _on_power_sample(self, t: int, power_w: float) -> None:
        self.last_power_w = power_w
        self.last_power_t = float(t)
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
            eta = switchoff_remaining(
                power_w,
                cfg.pn_w,
                overrun_factor=cfg.overrun_factor,
                tau_s=cfg.switchoff_tau_s,
            )
            if eta is not None and not self._cut_warning_active:
                self._cut_warning_active = True
                self._notify(
                    t,
                    "switchoff_warning",
                    f"supply cut in {eta:.0f} s unless load drops below "
                    f"{cfg.overrun_factor * cfg.pn_w:.0f} W",
                )
            elif eta is None:
                self._cut_warning_active = False

    def _on_t3(self, frame: CompactFrame, payload: T3Payload) -> None:
        t = frame.timestamp
        cause = ExceedanceCause(payload.cause)
        if cause is ExceedanceCause.POWER_EXCEEDED:
            self._exceed_active = True
            self._notify(
                t, "contract_power_exceeded", f"drawing {payload.value} W over contract"
            )
            self._on_power_sample(t, float(payload.value))
        elif cause is ExceedanceCause.RESTORED:
            self._exceed_active = False
            self._notify(t, "power_restored", f"back to {payload.value} W")
            self._on_power_sample(t, float(payload.value))
        else:
            self._notify(
                t, "energy_threshold", f"cumulative energy reached {payload.value} Wh"
            )

    def _on_t4(self, frame: CompactFrame, payload: T4Payload) -> None:
        t = frame.timestamp
        kind = SupplyEventKind(payload.event)
        self.event_log.append(SupplyEvent(t, kind, payload.duration_s))
        if kind is SupplyEventKind.INTERRUPTION_START:
            self._notify(t, "supply_interrupted", "supply interrupted")
        elif kind is SupplyEventKind.INTERRUPTION_END:
            self._notify(
                t, "supply_restored", f"supply restored after {payload.duration_s} s"
            )
        else:
            self._notify(t, "voltage_event", "voltage event on the supply")

    # -- queries -----------------------------------------------------------

    @property
    def high_water_seq(self) -> int:
        return self._high_water

    def seq_gaps(self, final_seq: int | None = None) -> int:
        """Count of sequence numbers never processed.

        Up to the high-water mark by default; pass the meter's last sequence
        number to also count losses with no later delivery behind them.
        """
        horizon = self._high_water if final_seq is None else max(final_seq, self._high_water)
        return horizon - self.stats["processed"]

    def reconstructed_energy_wh(
        self, direction: EnergyDirection = EnergyDirection.WITHDRAWN
    ) -> int:
        return sum(
            r.energy_wh for r in self.quarters.values() if r.direction == direction
        )

    def missing_quarters(self, start_s: int, end_s: int) -> list[int]:
        """Quarter start times in [start, end) with no stored record."""
        _check_quarter_window(start_s, end_s)
        return [q for q in range(start_s, end_s, QUARTER_S) if q not in self.quarters]

    def cut_eta(self, t_now: float, meter_cfg: MeterConfig | None = None) -> CutEta | None:
        """Remaining time before the breaker opens, from the latest power.

        Applies the meter's own countdown law to the last received power
        sample; None below the tolerated threshold.  The estimate is flagged
        stale when that sample is older than the configured staleness window.
        """
        if self.last_power_w is None or self.last_power_t is None:
            return None
        if meter_cfg is not None:
            pn, factor, tau = meter_cfg.pn_w, meter_cfg.overrun_factor, meter_cfg.switchoff_tau_s
        else:
            if self.config.pn_w is None:
                return None
            pn = self.config.pn_w
            factor = self.config.overrun_factor
            tau = self.config.switchoff_tau_s
        eta = switchoff_remaining(self.last_power_w, pn, overrun_factor=factor, tau_s=tau)
        if eta is None:
            return None
        stale = (t_now - self.last_power_t) > self.config.staleness_s
        return CutEta(eta, self.last_power_w, stale)

    def estimate_cost(self, start_s: int, end_s: int) -> CostEstimate:
        """Tariff cost (and feed-in income) of the stored quarters in a window.

        Quarters lost on the channel are excluded; the caller reads the
        coverage fraction to judge how complete the estimate is.  The window
        must be aligned to quarter boundaries.
        """
        if self.config.tariff is None:
            raise ValueError("no tariff configured")
        _check_quarter_window(start_s, end_s)
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
            if record.direction is EnergyDirection.WITHDRAWN:
                cost += kwh * tariff.price_at(q)
            else:
                feed_in = tariff.feed_in_price_eur_per_kwh or 0.0
                income += kwh * feed_in
        expected = (end_s - start_s) // QUARTER_S
        return CostEstimate(cost, income, expected, observed)

    def quality_report(self, start_s: int, end_s: int) -> QualityReport:
        """Interruption statistics over [start, end), from the T4 event log.

        An end without a matching start is backfilled from the duration the
        frame carries, clamped to the window; a start without an end stays
        open and counts up to the window edge.
        """
        interruptions: list[Interruption] = []
        voltage = 0
        open_start: int | None = None
        for event in self.event_log:
            if event.t < start_s or event.t >= end_s:
                continue
            if event.kind is SupplyEventKind.VOLTAGE_EVENT:
                voltage += 1
            elif event.kind is SupplyEventKind.INTERRUPTION_START:
                open_start = event.t
            elif event.kind is SupplyEventKind.INTERRUPTION_END:
                if open_start is not None:
                    interruptions.append(
                        Interruption(open_start, event.t, event.t - open_start)
                    )
                    open_start = None
                else:
                    began = event.t - (event.duration_s or 0)
                    began = max(began, start_s)
                    interruptions.append(Interruption(began, event.t, event.t - began))
        if open_start is not None:
            interruptions.append(Interruption(open_start, None, end_s - open_start))
        total = sum(i.duration_s for i in interruptions)
        return QualityReport(
            tuple(interruptions), total, voltage, open_start is not None
        )


def _check_quarter_window(start_s: int, end_s: int) -> None:
    if start_s % QUARTER_S or end_s % QUARTER_S or end_s <= start_s:
        raise ValueError(
            f"window [{start_s}, {end_s}) must be a positive span of whole quarters"
        )
