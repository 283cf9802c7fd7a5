"""Device-side ingest: dedup, plausibility, alarms, reconstruction, reports."""

import pytest

from chain2sim.device import (
    Device,
    DeviceConfig,
    Disposition,
    TariffSchedule,
    TariffWindow,
)
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
from chain2sim.meter import MeterConfig

POD = "IT001E00000001"


def t1(seq, ts, energy_wh, direction=EnergyDirection.WITHDRAWN, pod=POD):
    return CompactFrame(FrameType.T1, pod, seq, ts, T1Payload((ts // 900 - 1) % 96, energy_wh, direction))


def t2(seq, ts, power_w, band=3, pod=POD):
    return CompactFrame(FrameType.T2, pod, seq, ts, T2Payload(band, power_w, CrossingDirection.UP))


def t3(seq, ts, cause, value):
    return CompactFrame(FrameType.T3, POD, seq, ts, T3Payload(cause, value))


def t4(seq, ts, kind, duration=None):
    return CompactFrame(FrameType.T4, POD, seq, ts, T4Payload(kind, duration))


def make_device(**kw) -> Device:
    kw.setdefault("paired_pod", POD)
    return Device(DeviceConfig(**kw))


# -- dedup window ----------------------------------------------------------------


def test_duplicate_and_reordered_frames():
    dev = make_device()
    assert dev.on_frame(t2(20, 0, 500), 1.0) is Disposition.PROCESSED
    assert dev.on_frame(t2(20, 0, 500), 1.1) is Disposition.DUPLICATE
    # Reordered but still inside the 16-frame window: accepted once.
    assert dev.on_frame(t2(5, 0, 500), 1.2) is Disposition.PROCESSED
    assert dev.on_frame(t2(5, 0, 500), 1.3) is Disposition.DUPLICATE
    # Behind the window: refused outright.
    assert dev.on_frame(t2(4, 0, 500), 1.4) is Disposition.TOO_OLD
    assert dev.stats == {
        "processed": 2,
        "duplicates": 2,
        "too_old": 1,
        "unpaired": 0,
        "implausible_t1": 0,
    }


def test_duplicate_does_not_reapply_payload():
    dev = make_device()
    frame = t1(1, 900, 300)
    dev.on_frame(frame, 1.0)
    dev.quarters[0] = dev.quarters[0]  # sanity: record exists
    dev.on_frame(frame, 2.0)
    assert dev.stats["processed"] == 1
    assert len(dev.processed_log) == 1


def test_unpaired_pod_is_rejected():
    dev = make_device()
    verdict = dev.on_frame(t2(1, 0, 500, pod="IT001E99999999"), 1.0)
    assert verdict is Disposition.UNPAIRED
    assert dev.stats["unpaired"] == 1
    assert dev.high_water_seq == 0


def test_seq_gap_accounting():
    dev = make_device()
    for seq in (1, 2, 5):
        dev.on_frame(t2(seq, 0, 500), float(seq))
    assert dev.seq_gaps() == 2  # 3 and 4 never arrived
    assert dev.seq_gaps(final_seq=8) == 5  # plus 6, 7, 8 lost at the tail
    assert dev.seq_gaps(final_seq=3) == 2  # never below the high-water view


# -- load curve reconstruction ------------------------------------------------------


def test_quarters_and_missing_slots():
    dev = make_device()
    dev.on_frame(t1(1, 900, 250), 901.0)
    dev.on_frame(t1(2, 2700, 100), 2701.0)
    assert dev.quarters[0].energy_wh == 250
    assert dev.quarters[1800].energy_wh == 100
    assert dev.missing_quarters(0, 3600) == [900, 2700]
    assert dev.reconstructed_energy_wh() == 350


def test_implausible_quarter_is_quarantined():
    dev = make_device(pn_w=3000.0)  # plausibility cap: 1.5 * 3000 * 0.25 h = 1125 Wh
    assert dev.on_frame(t1(1, 900, 1125), 901.0) is Disposition.PROCESSED
    assert dev.on_frame(t1(2, 1800, 1126), 1801.0) is Disposition.PROCESSED
    assert dev.quarters == {0: dev.quarters[0]}
    assert dev.stats["implausible_t1"] == 1
    assert any(n.kind == "implausible_reading" for n in dev.notifications)
    # The frame still counts as processed; the reading alone is dropped.
    assert dev.stats["processed"] == 2


# -- alarms --------------------------------------------------------------------------


def test_power_alarm_fires_once_per_excursion():
    dev = make_device(alarm_limit_w=2000.0)
    dev.on_frame(t2(1, 10, 2500), 10.1)
    dev.on_frame(t2(2, 20, 2800), 20.1)  # still in the same excursion
    dev.on_frame(t2(3, 30, 1500), 30.1)  # back under the limit
    dev.on_frame(t2(4, 40, 2100), 40.1)  # new excursion
    alarms = [n for n in dev.notifications if n.kind == "power_alarm"]
    assert [n.t for n in alarms] == [10, 40]


def test_switchoff_warning_once_per_excursion():
    dev = make_device(pn_w=3000.0)
    dev.on_frame(t2(1, 10, 4000), 10.1)
    dev.on_frame(t2(2, 20, 4100), 20.1)
    dev.on_frame(t2(3, 30, 3200), 30.1)  # below 1.1 * Pn: excursion over
    dev.on_frame(t2(4, 40, 3400), 40.1)
    warnings = [n for n in dev.notifications if n.kind == "switchoff_warning"]
    assert [n.t for n in warnings] == [10, 40]
    assert "771" in warnings[0].message  # 180 * 3000 / 700


def test_t3_updates_power_state_and_notifies():
    dev = make_device(pn_w=3000.0, alarm_limit_w=2000.0)
    dev.on_frame(t3(1, 100, ExceedanceCause.POWER_EXCEEDED, 3400), 100.1)
    assert dev.last_power_w == 3400.0
    kinds = {n.kind for n in dev.notifications}
    assert "contract_power_exceeded" in kinds
    assert "power_alarm" in kinds  # 3400 W is also over the user limit
    dev.on_frame(t3(2, 200, ExceedanceCause.RESTORED, 1800), 200.1)
    assert dev.last_power_w == 1800.0
    dev.on_frame(t3(3, 300, ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED, 5000), 300.1)
    assert any(n.kind == "energy_threshold" for n in dev.notifications)


# -- cut estimate ----------------------------------------------------------------------


def test_cut_eta_formula_and_staleness():
    dev = make_device(pn_w=3000.0, staleness_s=60.0)
    assert dev.cut_eta(0.0) is None  # no sample yet
    dev.on_frame(t2(1, 100, 4000), 100.1)
    eta = dev.cut_eta(120.0)
    assert eta.seconds == pytest.approx(180.0 * 3000.0 / 700.0)
    assert eta.power_w == 4000.0
    assert not eta.stale
    assert dev.cut_eta(200.0).stale  # sample now 100 s old


def test_cut_eta_none_below_threshold_and_meter_override():
    dev = make_device(pn_w=3000.0)
    dev.on_frame(t2(1, 100, 3200), 100.1)
    assert dev.cut_eta(101.0) is None  # 3200 < 1.1 * 3000
    tighter = MeterConfig(pn_w=2000.0)
    eta = dev.cut_eta(101.0, meter_cfg=tighter)
    assert eta.seconds == pytest.approx(180.0 * 2000.0 / (3200.0 - 2200.0))


# -- cost estimate ---------------------------------------------------------------------


def two_rate_tariff():
    return TariffSchedule(
        [TariffWindow(0, 43200, 0.10), TariffWindow(43200, 86400, 0.30)],
        feed_in_price_eur_per_kwh=0.05,
    )


def test_estimate_cost_skips_missing_quarters():
    dev = make_device(tariff=two_rate_tariff())
    dev.on_frame(t1(1, 900, 1000), 901.0)  # 1 kWh at 0.10
    dev.on_frame(t1(2, 44100, 500), 44101.0)  # 0.5 kWh at 0.30
    estimate = dev.estimate_cost(0, 86400)
    assert estimate.cost_eur == pytest.approx(1.0 * 0.10 + 0.5 * 0.30)
    assert estimate.income_eur == 0.0
    assert estimate.quarters_expected == 96
    assert estimate.quarters_observed == 2
    assert estimate.coverage == pytest.approx(2 / 96)


def test_estimate_cost_feed_in_income():
    dev = make_device(tariff=two_rate_tariff())
    dev.on_frame(t1(1, 900, 2000, direction=EnergyDirection.FED_IN), 901.0)
    estimate = dev.estimate_cost(0, 900 * 4)
    assert estimate.cost_eur == 0.0
    assert estimate.income_eur == pytest.approx(2.0 * 0.05)


def test_estimate_cost_requires_tariff_and_aligned_window():
    dev = make_device()
    with pytest.raises(ValueError, match="tariff"):
        dev.estimate_cost(0, 86400)
    dev2 = make_device(tariff=TariffSchedule.flat(0.2))
    with pytest.raises(ValueError, match="whole quarters"):
        dev2.estimate_cost(0, 1000)
    with pytest.raises(ValueError, match="whole quarters"):
        dev2.estimate_cost(900, 900)


def test_tariff_windows_must_tile_the_day():
    with pytest.raises(ValueError, match="tile"):
        TariffSchedule([TariffWindow(0, 40000, 0.1), TariffWindow(43200, 86400, 0.2)])
    with pytest.raises(ValueError, match="start at 0"):
        TariffSchedule([TariffWindow(900, 86400, 0.1)])
    schedule = two_rate_tariff()
    assert schedule.price_at(0) == 0.10
    assert schedule.price_at(43200) == 0.30
    assert schedule.price_at(86400 + 10) == 0.10  # wraps into day two
    assert schedule.slot_prices(4, 43200)[:2] == [0.10, 0.30]


# -- supply quality ---------------------------------------------------------------------


def test_quality_report_pairs_and_open_interruption():
    dev = make_device()
    dev.on_frame(t4(1, 1000, SupplyEventKind.INTERRUPTION_START), 1000.1)
    dev.on_frame(t4(2, 1600, SupplyEventKind.INTERRUPTION_END, 600), 1600.1)
    dev.on_frame(t4(3, 2000, SupplyEventKind.VOLTAGE_EVENT), 2000.1)
    dev.on_frame(t4(4, 8000, SupplyEventKind.INTERRUPTION_START), 8000.1)
    report = dev.quality_report(0, 9000)
    assert report.voltage_events == 1
    assert report.open_interruption
    assert report.total_interrupted_s == 600 + 1000
    first, second = report.interruptions
    assert (first.t_start, first.t_end, first.duration_s) == (1000, 1600, 600)
    assert (second.t_start, second.t_end) == (8000, None)


def test_quality_report_backfills_lost_start():
    dev = make_device()
    # The start frame was lost; the end carries the outage duration.
    dev.on_frame(t4(1, 5000, SupplyEventKind.INTERRUPTION_END, 1200), 5000.1)
    report = dev.quality_report(0, 9000)
    assert report.interruptions[0].t_start == 3800
    assert report.total_interrupted_s == 1200
    # Clamped when the outage began before the window.
    clamped = dev.quality_report(4500, 9000)
    assert clamped.interruptions[0].t_start == 4500
    assert clamped.total_interrupted_s == 500


def test_quality_report_ignores_events_outside_window():
    dev = make_device()
    dev.on_frame(t4(1, 100, SupplyEventKind.VOLTAGE_EVENT), 100.1)
    dev.on_frame(t4(2, 5000, SupplyEventKind.VOLTAGE_EVENT), 5000.1)
    report = dev.quality_report(1000, 6000)
    assert report.voltage_events == 1


def test_dedup_window_must_be_positive():
    with pytest.raises(ValueError, match="dedup_window"):
        Device(DeviceConfig(paired_pod=POD, dedup_window=0))
