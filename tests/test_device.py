"""Device-side ingest: sequence order, plausibility, alarms, reconstruction, cost."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain2sim import harness
from chain2sim.device import Device, DeviceConfig, TariffSchedule, TariffWindow
from chain2sim.frames import (
    DAY_S,
    QUARTER_S,
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
    frame_rows,
)
from reference import ScalarDevice, write_user_files

POD = "IT001E00000001"


def t1(seq, ts, energy_wh, direction=EnergyDirection.WITHDRAWN):
    return CompactFrame(FrameType.T1, POD, seq, ts, T1Payload((ts // 900 - 1) % 96, energy_wh, direction))


def t2(seq, ts, power_w, band=3):
    return CompactFrame(FrameType.T2, POD, seq, ts, T2Payload(band, power_w, CrossingDirection.UP))


def t3(seq, ts, cause, value):
    return CompactFrame(FrameType.T3, POD, seq, ts, T3Payload(cause, value))


def make_device(pn_w=3000.0, **kw) -> Device:
    return Device(DeviceConfig(pn_w, **kw))


# -- one frame at a time or one block -------------------------------------------------

_PAYLOADS = {
    FrameType.T1: st.builds(
        T1Payload, st.integers(0, 95), st.integers(0, 6000), st.sampled_from(EnergyDirection)
    ),
    FrameType.T2: st.builds(
        T2Payload, st.integers(0, 10), st.integers(0, 9000), st.sampled_from(CrossingDirection)
    ),
    FrameType.T3: st.builds(T3Payload, st.sampled_from(ExceedanceCause), st.integers(0, 9000)),
    FrameType.T4: st.sampled_from(SupplyEventKind).flatmap(
        lambda event: st.builds(
            T4Payload,
            st.just(event),
            st.integers(0, 10**6) if event is SupplyEventKind.INTERRUPTION_END else st.none(),
        )
    ),
}


@st.composite
def _links(draw):
    """A device set-up and the frames of a link with rising seqs and
    times, cut into blocks."""
    config = DeviceConfig(
        pn_w=draw(st.sampled_from([3000.0, 4500.0])),
        alarm_limit_w=draw(st.none() | st.floats(100, 6000)),
    )
    frames, seq, ts = [], 0, 0
    for frame_type in draw(st.lists(st.sampled_from(FrameType), max_size=40)):
        seq += draw(st.integers(1, 3))
        ts += draw(st.sampled_from([0, 60, 900]))
        frames.append(CompactFrame(frame_type, POD, seq, ts, draw(_PAYLOADS[frame_type])))
    cuts = sorted(draw(st.sets(st.integers(0, len(frames)), max_size=5)) | {0, len(frames)})
    return config, [frames[a:b] for a, b in zip(cuts, cuts[1:])]


N_QUARTERS = 48  # past the last quarter a link of `_links` reports


def _state(device):
    """What a `Device` has read, through its column readers."""
    return (
        tuple(column.tolist() for column in device.quarter_series(N_QUARTERS)),
        device.events(),
        device.notes(),
        device.stats,
        device._high_water,
        device._alarm_active,
        device._cut_warning_active,
    )


def _scalar_state(device):
    """What a `ScalarDevice` has read, its records turned into the columns
    that `_state` reads."""
    records = [device.quarters.get(k * QUARTER_S) for k in range(N_QUARTERS)]
    log, notes = device.event_log, device.notifications
    return (
        (
            [-1 if r is None else r.energy_wh for r in records],
            [-1 if r is None else r.direction for r in records],
        ),
        ([e.t for e in log], [e.kind.name.lower() for e in log], [e.duration_s for e in log]),
        ([n.t for n in notes], [n.kind for n in notes], [n.message for n in notes]),
        device.stats,
        device._high_water,
        device._alarm_active,
        device._cut_warning_active,
    )


@settings(max_examples=200, deadline=None)
@given(_links())
def test_ingesting_blocks_equals_taking_one_frame_at_a_time(link):
    config, blocks = link
    one, block = ScalarDevice(config), Device(config)
    for frames in blocks:
        for frame in frames:
            one.on_frame(frame)
        block.ingest(frame_rows(frames))
    assert _state(block) == _scalar_state(one)


def t4(seq, ts, event, duration_s=None):
    return CompactFrame(FrameType.T4, POD, seq, ts, T4Payload(event, duration_s))


@pytest.mark.parametrize(
    "config, frames, line",
    [
        (
            DeviceConfig(3000.0, alarm_limit_w=2000.5),
            [t2(1, 60, 2500)],
            "power 2500 W above set limit 2000 W",
        ),
        (DeviceConfig(3000.0), [t3(1, 60, ExceedanceCause.RESTORED, -5)], "back to -5 W"),
        (
            DeviceConfig(3000.0),
            [t2(1, 60, 4000)],
            "supply cut in 771 s unless load drops below 3300 W",
        ),
        (
            DeviceConfig(3000.0),
            [
                t4(1, 60, SupplyEventKind.INTERRUPTION_START),
                t4(2, 3660, SupplyEventKind.INTERRUPTION_END, 3600),
            ],
            "supply restored after 3600 s",
        ),
        (DeviceConfig(2999.5), [t1(1, 900, 1125)], "discarded quarter energy 1125 Wh (Pn 3000 W)"),
        (
            DeviceConfig(3000.0, alarm_limit_w=2000.0),
            [t3(1, 60, ExceedanceCause.POWER_EXCEEDED, 3400)],
            "drawing 3400 W over contract",
        ),
    ],
    ids=[
        "fractional_limit",
        "negative_t3",
        "switchoff_eta",
        "interruption_end",
        "fractional_pn",
        "three_notes",
    ],
)
def test_written_notes_equal_the_reference_writer(tmp_path, config, frames, line):
    """The run's writer formats each message from the note's columns; the
    files it writes equal what `csv` and `json` write from the records of
    the per-frame device."""
    device, scalar = Device(config), ScalarDevice(config)
    device.ingest(frame_rows(frames))
    for frame in frames:
        scalar.on_frame(frame)
    block, reference = tmp_path / "block", tmp_path / "scalar"
    harness._write_user_files(block, device, 3600)
    write_user_files(reference, scalar, 3600)
    written = sorted(p.name for p in block.iterdir())
    assert sorted(p.name for p in reference.iterdir()) == written
    for name in written:
        assert (block / name).read_bytes() == (reference / name).read_bytes()
    assert f'"message": "{line}"' in (block / "notifications.jsonl").read_text()


def test_a_block_with_a_fallen_seq_is_refused_whole():
    dev = make_device()
    dev.ingest(frame_rows([t2(1, 0, 500)]))
    with pytest.raises(ValueError, match="seq 3 at or below the last seq 4"):
        dev.ingest(frame_rows([t2(4, 60, 600), t2(3, 120, 700)]))
    with pytest.raises(ValueError, match="seq 1 at or below the last seq 1"):
        dev.ingest(frame_rows([t2(1, 60, 600)]))
    assert dev.stats["processed"] == 1


# -- sequence order ----------------------------------------------------------------


def test_repeated_seq_raises():
    dev = make_device()
    dev.on_frame(t1(1, 900, 300))
    with pytest.raises(ValueError, match="seq 1 at or below the last seq 1"):
        dev.on_frame(t1(1, 900, 300))
    assert dev.stats["processed"] == 1  # the payload was not applied twice


def test_older_seq_raises():
    dev = make_device()
    dev.on_frame(t2(20, 0, 500))
    with pytest.raises(ValueError, match="seq 5 at or below the last seq 20"):
        dev.on_frame(t2(5, 0, 500))
    assert dev.stats == {"processed": 1, "implausible_t1": 0}


def test_seq_gap_accounting():
    dev = make_device()
    for seq in (1, 2, 5):
        dev.on_frame(t2(seq, 0, 500))
    # 3 and 4 never arrived: frames lost upstream, not an error.
    assert dev.stats == {"processed": 3, "implausible_t1": 0}


# -- load curve reconstruction ------------------------------------------------------


def test_quarters_and_missing_slots():
    dev = make_device()
    dev.on_frame(t1(1, 900, 250))
    dev.on_frame(t1(2, 2700, 100, direction=EnergyDirection.FED_IN))
    energy, direction = dev.quarter_series(4)
    assert energy.tolist() == [250, -1, 100, -1]  # 900 and 2700 are gaps
    assert direction.tolist() == [EnergyDirection.WITHDRAWN, -1, EnergyDirection.FED_IN, -1]


def test_implausible_quarter_is_quarantined():
    dev = make_device(pn_w=3000.0)  # plausibility cap: 1.5 * 3000 * 0.25 h = 1125 Wh
    dev.on_frame(t1(1, 900, 1125))
    dev.on_frame(t1(2, 1800, 1126))
    assert dev.quarter_series(2)[0].tolist() == [1125, -1]
    assert dev.stats["implausible_t1"] == 1
    assert "implausible_reading" in dev.notes()[1]
    # The frame still counts as processed; the reading alone is dropped.
    assert dev.stats["processed"] == 2


# -- alarms --------------------------------------------------------------------------


def test_power_alarm_fires_once_per_excursion():
    dev = make_device(alarm_limit_w=2000.0)
    dev.on_frame(t2(1, 10, 2500))
    dev.on_frame(t2(2, 20, 2800))  # still in the same excursion
    dev.on_frame(t2(3, 30, 1500))  # back under the limit
    dev.on_frame(t2(4, 40, 2100))  # new excursion
    times, kinds, _ = dev.notes()
    assert [t for t, kind in zip(times, kinds) if kind == "power_alarm"] == [10, 40]


def test_switchoff_warning_once_per_excursion():
    dev = make_device(pn_w=3000.0)
    dev.on_frame(t2(1, 10, 4000))
    dev.on_frame(t2(2, 20, 4100))
    dev.on_frame(t2(3, 30, 3200))  # below 1.1 * Pn: excursion over
    dev.on_frame(t2(4, 40, 3400))
    warnings = [(t, m) for t, kind, m in zip(*dev.notes()) if kind == "switchoff_warning"]
    assert [t for t, _ in warnings] == [10, 40]
    assert "771" in warnings[0][1]  # 180 * 3000 / 700


def test_t3_updates_power_state_and_notifies():
    dev = make_device(pn_w=3000.0, alarm_limit_w=2000.0)
    dev.on_frame(t3(1, 100, ExceedanceCause.POWER_EXCEEDED, 3400))
    # 3400 W is also over the user limit and over 1.1 * Pn.
    assert list(zip(*dev.notes()[1:])) == [
        ("contract_power_exceeded", "drawing 3400 W over contract"),
        ("power_alarm", "power 3400 W above set limit 2000 W"),
        ("switchoff_warning", "supply cut in 5400 s unless load drops below 3300 W"),
    ]
    dev.on_frame(t3(2, 200, ExceedanceCause.RESTORED, 1800))
    # 1800 W clears the power alarm, so the next excursion raises it again.
    dev.on_frame(t2(3, 250, 2500))
    assert list(zip(*dev.notes()[1:]))[3:] == [
        ("power_restored", "back to 1800 W"),
        ("power_alarm", "power 2500 W above set limit 2000 W"),
    ]
    dev.on_frame(t3(4, 300, ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED, 5000))
    assert dev.notes()[1][-1] == "energy_threshold"


# -- cost estimate ---------------------------------------------------------------------


def two_rate_tariff():
    return TariffSchedule(
        [TariffWindow(0, 43200, 0.10), TariffWindow(43200, 86400, 0.30)],
        feed_in_price_eur_per_kwh=0.05,
    )


def test_estimate_cost_skips_missing_quarters():
    dev = make_device(tariff=two_rate_tariff())
    dev.on_frame(t1(1, 900, 1000))  # 1 kWh at 0.10
    dev.on_frame(t1(2, 44100, 500))  # 0.5 kWh at 0.30
    estimate = dev.estimate_cost(0, 86400)
    assert estimate.cost_eur == pytest.approx(1.0 * 0.10 + 0.5 * 0.30)
    assert estimate.income_eur == 0.0
    assert estimate.quarters_expected == 96
    assert estimate.quarters_observed == 2
    assert estimate.coverage == pytest.approx(2 / 96)


def test_estimate_cost_feed_in_income():
    dev = make_device(pn_w=9000.0, tariff=two_rate_tariff())  # admits up to 3375 Wh a quarter
    dev.on_frame(t1(1, 900, 2000, direction=EnergyDirection.FED_IN))
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


def test_estimate_cost_refuses_a_window_before_t0():
    """The quarter series starts at t = 0, as the meter's first quarter does."""
    dev = make_device(tariff=TariffSchedule.flat(0.2))
    with pytest.raises(ValueError, match="from t = 0 on"):
        dev.estimate_cost(-900, 900)


@st.composite
def _tariffs(draw):
    """Windows cut on a quarter's start, or a second or half a quarter off
    it, and a feed-in price or none."""
    offset = st.sampled_from([-1, 0, 1, 450])
    cut = st.builds(lambda k, off: k * QUARTER_S + off, st.integers(1, 95), offset)
    cuts = sorted(draw(st.sets(cut, max_size=6)) | {0, DAY_S})
    price = st.floats(0.0, 1.0)
    windows = [TariffWindow(a, b, draw(price)) for a, b in zip(cuts, cuts[1:])]
    return TariffSchedule(windows, draw(st.none() | price))


@st.composite
def _reported_quarters(draw):
    """T1 frames over several days, a quarter now and then reported twice
    or closed off the quarter grid."""
    frames, seq, ts = [], 0, 0
    for _ in range(draw(st.integers(0, 200))):
        seq += 1
        ts += draw(st.sampled_from([0, 900, 900, 900, 900, 900, 2700, 43200]))
        off_grid = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 0, 60]))
        payload = T1Payload(0, draw(st.integers(0, 1300)), draw(st.sampled_from(EnergyDirection)))
        frames.append(CompactFrame(FrameType.T1, POD, seq, ts + off_grid, payload))
    return frames


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3000.0, 4500.0]),
    _tariffs(),
    _reported_quarters(),
    st.integers(0, 96),
    st.integers(1, 4 * 96),
)
def test_estimate_cost_equals_the_walk_over_the_records(pn_w, tariff, frames, first, n):
    config = DeviceConfig(pn_w, tariff=tariff)
    device, scalar = Device(config), ScalarDevice(config)
    device.ingest(frame_rows(frames))
    for frame in frames:
        scalar.on_frame(frame)
    window = first * QUARTER_S, (first + n) * QUARTER_S
    assert device.estimate_cost(*window) == scalar.estimate_cost(*window)


@pytest.mark.parametrize(
    "price, feed_in",
    [(math.nan, None), (math.inf, None), (-0.1, None), (0.1, math.nan), (0.1, math.inf)],
)
def test_tariff_refuses_a_price_out_of_range(price, feed_in):
    with pytest.raises(ValueError, match="price.* must be finite and >= 0"):
        TariffSchedule([TariffWindow(0, 43200, 0.1), TariffWindow(43200, DAY_S, price)], feed_in)


def test_tariff_windows_must_tile_the_day():
    with pytest.raises(ValueError, match="tile"):
        TariffSchedule([TariffWindow(0, 40000, 0.1), TariffWindow(43200, 86400, 0.2)])
    with pytest.raises(ValueError, match="start at 0"):
        TariffSchedule([TariffWindow(900, 86400, 0.1)])
    prices = two_rate_tariff().slot_prices(2 * 96 + 1)
    assert prices[:96] == [0.10] * 48 + [0.30] * 48
    assert prices[96:] == prices[:96] + [0.10]  # wraps into day two and three
