"""Meter behaviour: quarters, band crossings, exceedances, the cut countdown."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    decode_frame,
    describe_frame,
    encode_frame,
)
from chain2sim.meter import (
    QUARTER_S,
    QUARTERS_PER_DAY,
    Meter,
    MeterConfig,
    switchoff_remaining,
)

POD = "IT001E00000001"


def make_meter(pn_w=3000.0, tick_s=1, **kw) -> Meter:
    return Meter(POD, MeterConfig(pn_w=pn_w, tick_s=tick_s, **kw))


def drive(meter, powers, t0=0):
    """Step the meter over `powers` and return all emitted frames."""
    tick = meter.config.tick_s
    out = []
    for i, p in enumerate(powers):
        out.extend(meter.step(p, t0 + i * tick))
    return out


# -- band index ----------------------------------------------------------------


def band_from_zero(power_w, pn_w):
    """The band a fresh meter (band 0) reports after one step at `power_w`:
    the band of the last T2 frame, 0 when it emits none."""
    t2 = [f for f in make_meter(pn_w=pn_w).step(power_w, 0) if f.frame_type is FrameType.T2]
    assert [f.payload.band_index for f in t2] == list(range(1, len(t2) + 1))
    return len(t2)


def test_band_index_thresholds():
    pn = 3000.0
    assert band_from_zero(0.0, pn) == 0
    assert band_from_zero(299.9, pn) == 0
    assert band_from_zero(300.0, pn) == 1
    assert band_from_zero(1500.0, pn) == 5
    assert band_from_zero(2999.9, pn) == 9
    assert band_from_zero(3000.0, pn) == 10
    assert band_from_zero(50000.0, pn) == 10


@given(
    st.floats(0, 1e6, allow_nan=False),
    st.floats(0, 1e6, allow_nan=False),
    st.floats(100, 1e5),
)
def test_band_index_monotone(p1, p2, pn):
    lo, hi = sorted((p1, p2))
    assert band_from_zero(lo, pn) <= band_from_zero(hi, pn)
    assert 0 <= band_from_zero(lo, pn) <= 10


# -- switch-off law --------------------------------------------------------------


def test_switchoff_none_at_or_below_tolerance():
    assert switchoff_remaining(3300.0, 3000.0) is None
    assert switchoff_remaining(3000.0, 3000.0) is None
    assert switchoff_remaining(0.0, 3000.0) is None


@pytest.mark.parametrize(
    "p_w,pn_w,expected_s",
    [
        # t = 180 * Pn / (P - 1.1 * Pn)
        (4000.0, 3000.0, 180.0 * 3000.0 / 700.0),
        (6600.0, 3000.0, 180.0 * 3000.0 / 3300.0),
        (3310.0, 3000.0, 180.0 * 3000.0 / 10.0),
        (9000.0, 4500.0, 180.0 * 4500.0 / (9000.0 - 4950.0)),
    ],
)
def test_switchoff_formula(p_w, pn_w, expected_s):
    t = switchoff_remaining(p_w, pn_w)
    assert t == pytest.approx(expected_s, rel=1e-12)


@given(st.floats(1, 5000), st.floats(500, 20000))
def test_switchoff_halves_when_margin_doubles(delta, pn):
    t1 = switchoff_remaining(1.1 * pn + delta, pn)
    t2 = switchoff_remaining(1.1 * pn + 2 * delta, pn)
    assert t1 / t2 == pytest.approx(2.0, rel=1e-9)


def test_switchoff_emergency_reference():
    # Against an armed limit the countdown runs with no tolerance factor.
    t = switchoff_remaining(3000.0, 2000.0, overrun_factor=1.0)
    assert t == pytest.approx(180.0 * 2000.0 / 1000.0)
    assert switchoff_remaining(2000.0, 2000.0, overrun_factor=1.0) is None


# -- load curve (T1) -------------------------------------------------------------


def test_one_day_constant_load():
    meter = make_meter(pn_w=3000.0, tick_s=60)
    frames = drive(meter, [1000.0] * (86400 // 60))
    t1 = [f for f in frames if f.frame_type is FrameType.T1]
    assert len(t1) == QUARTERS_PER_DAY
    assert [f.payload.quarter_index for f in t1] == list(range(96))
    assert [f.timestamp for f in t1] == [900 * (k + 1) for k in range(96)]
    assert all(f.payload.energy_wh == 250 for f in t1)
    assert all(f.payload.direction is EnergyDirection.WITHDRAWN for f in t1)


def test_quarter_index_wraps_on_second_day():
    meter = make_meter(tick_s=900)
    frames = drive(meter, [100.0] * (2 * 86400 // 900))
    t1 = [f for f in frames if f.frame_type is FrameType.T1]
    assert len(t1) == 2 * QUARTERS_PER_DAY
    assert t1[95].payload.quarter_index == 95
    assert t1[96].payload.quarter_index == 0
    assert t1[96].timestamp == 86400 + 900


def test_t1_energy_matches_profile_integral():
    rng = np.random.default_rng(7)
    tick = 300
    powers = rng.integers(0, 2500, size=4 * 3600 // tick).astype(float)
    meter = make_meter(pn_w=3000.0, tick_s=tick)
    frames = drive(meter, powers)
    t1 = [f for f in frames if f.frame_type is FrameType.T1]

    per_quarter = powers.reshape(-1, QUARTER_S // tick).sum(axis=1) * tick / 3600.0
    assert len(t1) == len(per_quarter)
    for frame, wh in zip(t1, per_quarter):
        assert abs(frame.payload.energy_wh - wh) <= 0.5 + 1e-9


# -- band crossings (T2) ----------------------------------------------------------


def _crossing_oracle(powers, pn_w):
    """Independent brute-force count of band-threshold crossings."""
    bands = np.clip(np.floor(10.0 * np.asarray(powers) / pn_w), 0, 10).astype(int)
    prev = np.concatenate(([0], bands[:-1]))
    return int(np.abs(bands - prev).sum())


def test_t2_count_matches_bruteforce_random_walk():
    rng = np.random.default_rng(21)
    pn = 3000.0
    powers = np.abs(np.cumsum(rng.normal(0, 120, size=6 * 3600))) % 3600.0
    meter = make_meter(pn_w=pn, energy_threshold_wh=None)
    frames = drive(meter, powers)
    t2 = [f for f in frames if f.frame_type is FrameType.T2]
    assert len(t2) == _crossing_oracle(powers, pn)
    assert all(1 <= f.payload.band_index <= 10 for f in t2)


def test_t2_multiband_jump_emits_one_frame_per_edge():
    meter = make_meter(pn_w=3000.0)
    up = meter.step(2850.0, 0)  # band 9
    assert [f.payload.band_index for f in up] == list(range(1, 10))
    assert all(f.payload.direction is CrossingDirection.UP for f in up)
    assert all(f.payload.power_w == 2850 for f in up)

    down = meter.step(100.0, 1)  # band 0
    assert [f.payload.band_index for f in down] == list(range(9, 0, -1))
    assert all(f.payload.direction is CrossingDirection.DOWN for f in down)


def test_t2_power_is_rounded_sample():
    meter = make_meter(pn_w=3000.0)
    (frame,) = meter.step(310.6, 0)
    assert frame.payload.power_w == 311


# -- exceedance (T3) --------------------------------------------------------------


def test_t3_power_exceedance_is_edge_triggered():
    meter = make_meter(pn_w=3000.0)
    frames = drive(meter, [2000.0, 3200.0, 3250.0, 2900.0, 3200.0])
    t3 = [f for f in frames if f.frame_type is FrameType.T3]
    assert [(f.payload.cause, f.payload.value) for f in t3] == [
        (ExceedanceCause.POWER_EXCEEDED, 3200),
        (ExceedanceCause.RESTORED, 2900),
        (ExceedanceCause.POWER_EXCEEDED, 3200),
    ]


def test_t3_energy_threshold_fires_once():
    meter = make_meter(pn_w=3000.0, tick_s=900, energy_threshold_wh=500.0)
    frames = drive(meter, [1000.0] * 8)  # 250 Wh per quarter
    alarms = [
        f
        for f in frames
        if f.frame_type is FrameType.T3
        and f.payload.cause is ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED
    ]
    assert len(alarms) == 1
    assert alarms[0].timestamp == 900  # crosses 500 Wh during the second quarter
    assert alarms[0].payload.value == 500


# -- the cut countdown -------------------------------------------------------------


def test_overrun_leads_to_cut_at_formula_time():
    meter = make_meter(pn_w=3000.0)
    expected = 180.0 * 3000.0 / (4000.0 - 3300.0)
    frames = drive(meter, [4000.0] * 800)
    t4 = [f for f in frames if f.frame_type is FrameType.T4]
    assert len(t4) == 1
    assert t4[0].payload.event is SupplyEventKind.INTERRUPTION_START
    assert t4[0].timestamp == math.ceil(expected)
    assert not meter.supply_on
    assert meter.cut_deadline is None


def test_power_after_cut_reads_zero():
    meter = make_meter(pn_w=3000.0, tick_s=900)
    drive(meter, [40000.0] * 4)  # tripped on the second tick at the latest
    assert not meter.supply_on
    frames = meter.step(40000.0, 4 * 900)
    t1 = [f for f in frames if f.frame_type is FrameType.T1]
    assert t1 and t1[0].payload.energy_wh == 0


def test_recovery_before_deadline_clears_countdown():
    meter = make_meter(pn_w=3000.0)
    drive(meter, [4000.0] * 10)
    assert meter.cut_deadline is not None
    meter.step(3300.0, 10)
    assert meter.cut_deadline is None
    frames = drive(meter, [3300.0] * 1000, t0=11)
    assert not any(f.frame_type is FrameType.T4 for f in frames)
    assert meter.supply_on


def test_deadline_keeps_earliest_candidate():
    meter = make_meter(pn_w=3000.0)
    meter.step(3400.0, 0)
    slow = meter.cut_deadline
    meter.step(6000.0, 1)
    fast = meter.cut_deadline
    assert fast < slow
    meter.step(3400.0, 2)
    # Easing off without clearing the overrun must not push the cut back out.
    assert meter.cut_deadline == fast


def test_cut_emits_band_and_restore_frames_in_order():
    meter = make_meter(pn_w=3000.0)
    drive(meter, [6600.0] * 164)  # deadline = 180 * 3000 / 3300 = 163.6 s
    frames = meter.step(6600.0, 164)
    kinds = [f.frame_type for f in frames]
    assert kinds[0] is FrameType.T4
    assert kinds[1:-1] == [FrameType.T2] * 10
    assert kinds[-1] is FrameType.T3
    assert frames[-1].payload.cause is ExceedanceCause.RESTORED
    directions = {f.payload.direction for f in frames[1:-1]}
    assert directions == {CrossingDirection.DOWN}


# -- supply events -----------------------------------------------------------------


def test_supply_events_are_idempotent_and_carry_duration():
    meter = make_meter()
    start = meter.apply_supply_event(100, SupplyEventKind.INTERRUPTION_START)
    assert len(start) == 1 and start[0].payload.duration_s is None
    assert meter.apply_supply_event(150, SupplyEventKind.INTERRUPTION_START) == []
    end = meter.apply_supply_event(400, SupplyEventKind.INTERRUPTION_END)
    assert len(end) == 1 and end[0].payload.duration_s == 300
    assert meter.apply_supply_event(500, SupplyEventKind.INTERRUPTION_END) == []
    assert meter.supply_on


def test_voltage_event_does_not_touch_supply():
    meter = make_meter()
    frames = meter.apply_supply_event(10, SupplyEventKind.VOLTAGE_EVENT)
    assert frames[0].payload.event is SupplyEventKind.VOLTAGE_EVENT
    assert meter.supply_on


# -- emergency limit ----------------------------------------------------------------


def test_emergency_limit_tightens_reference():
    meter = make_meter(pn_w=3000.0)
    meter.arm_emergency_limit(2000.0, until_s=10_000)
    meter.step(3000.0, 0)  # legal against Pn, over the armed limit
    assert meter.cut_deadline == pytest.approx(180.0 * 2000.0 / 1000.0)
    frames = drive(meter, [3000.0] * 360, t0=1)
    t4 = [f for f in frames if f.frame_type is FrameType.T4]
    assert len(t4) == 1 and t4[0].timestamp == 360


def test_emergency_limit_expires():
    meter = make_meter(pn_w=3000.0)
    meter.arm_emergency_limit(2000.0, until_s=5)
    drive(meter, [3000.0] * 5)
    assert meter.cut_deadline is not None
    meter.step(3000.0, 5)  # expired: 3000 W is fine against 1.1 * 3000
    assert meter.emergency_limit_w is None
    assert meter.cut_deadline is None


def test_arming_drops_existing_deadline():
    meter = make_meter(pn_w=3000.0)
    drive(meter, [4000.0] * 5)
    assert meter.cut_deadline is not None
    meter.arm_emergency_limit(5000.0, until_s=1000)
    assert meter.cut_deadline is None
    meter.step(4000.0, 5)  # under the armed limit: no countdown at all
    assert meter.cut_deadline is None


@pytest.mark.parametrize("limit_w, until_s", [(math.nan, 1000), (2000.0, math.nan)])
def test_arming_rejects_nan(limit_w, until_s):
    meter = make_meter(pn_w=3000.0)
    with pytest.raises(ValueError, match="limit_w|until_s"):
        meter.arm_emergency_limit(limit_w, until_s=until_s)
    assert meter.emergency_limit_w is None
    drive(meter, [9000.0] * 6000)  # 9 kW on 3 kW: the unarmed meter cuts
    assert not meter.supply_on


# -- bookkeeping --------------------------------------------------------------------


def test_sequence_numbers_are_gapless_across_types():
    meter = make_meter(pn_w=3000.0, tick_s=300, energy_threshold_wh=100.0)
    frames = drive(meter, [0.0, 3500.0, 2000.0, 0.0, 6000.0, 6000.0] * 4)
    frames.extend(meter.apply_supply_event(7200, SupplyEventKind.VOLTAGE_EVENT))
    assert [f.seq for f in frames] == list(range(1, len(frames) + 1))
    assert meter.last_seq == len(frames)


def test_step_rejects_time_travel():
    meter = make_meter()
    meter.step(100.0, 0)
    with pytest.raises(ValueError, match="expected step at t=1"):
        meter.step(100.0, 5)
    with pytest.raises(ValueError, match="non-negative"):
        meter.step(-1.0, 1)


def test_first_step_must_be_tick_aligned():
    meter = make_meter(tick_s=60)
    with pytest.raises(ValueError, match="aligned"):
        meter.step(100.0, 30)
    meter.step(100.0, 60)  # any aligned origin is fine


@pytest.mark.parametrize(
    "kw",
    [
        {"pn_w": 0.0},
        {"pn_w": 3000.0, "tick_s": 7},
        {"pn_w": 3000.0, "energy_threshold_wh": 0.0},
        {"pn_w": 3000.0, "tick_s": 0},
        {"pn_w": 3000.0, "tick_s": 1.5},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        MeterConfig(**kw)


# -- step_series against the per-tick loop -------------------------------------------

TICK_DIVISORS = [d for d in range(1, 61) if QUARTER_S % d == 0]


@st.composite
def series_cases(draw):
    """A meter set-up and a piecewise-constant series to drive it with."""
    tick = draw(st.sampled_from(TICK_DIVISORS))
    per_quarter = QUARTER_S // tick
    pn = draw(st.sampled_from([3000.0, 4500.0, 6000.0]))
    threshold = draw(st.none() | st.floats(0.5, 3000.0))
    # Ticks stepped one by one before the series, so it may start mid-quarter
    # with non-zero accumulators.
    warm_level = draw(st.floats(0.0, 1.5 * pn))
    warmup = [warm_level] * draw(st.integers(0, 2 * per_quarter))
    t0 = draw(st.integers(0, 3 * per_quarter)) * tick
    first_tick = t0 // tick + len(warmup)
    levels = st.one_of(
        st.floats(0.0, 3.0 * pn),
        # Exact thresholds: a band edge, Pn itself, the overrun reference.
        st.integers(0, 10).map(lambda k: k * pn / 10),
        st.sampled_from([1.1 * pn, -0.0]),
    )
    segments = draw(
        st.lists(st.tuples(levels, st.integers(1, 300 // tick + 2)), min_size=1, max_size=12)
    )
    powers = [level for level, length in segments for _ in range(length)]
    if draw(st.booleans()):
        # An overrun that either opens the breaker or is dropped, possibly
        # to a level still above Pn; often starting right at a quarter
        # boundary, where the quarter accumulator restarts.
        level = draw(st.floats(1.3 * pn, 4.0 * pn))
        cut_ticks = math.ceil(180.0 * pn / (level - 1.1 * pn) / tick) + 2
        hold = draw(st.integers(cut_ticks, cut_ticks + 5) | st.integers(1, cut_ticks))
        after = draw(st.sampled_from([1.1 * pn, 1.05 * pn, 0.5 * pn]))
        at = draw(st.integers(0, len(powers)))
        if draw(st.booleans()):
            at = max(0, at - (first_tick + at) % per_quarter)
        powers[at:at] = [level] * hold + [after] * draw(st.integers(0, per_quarter))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(powers) - 1))
        powers[at] = draw(st.sampled_from([math.nan, -1.0, -5e-324, math.inf]))
    emergency = draw(st.none() | st.tuples(st.floats(0.3 * pn, pn), st.integers(0, 400)))
    return tick, pn, threshold, powers, warmup, t0, emergency


def _drive_meter(case, use_series, injections=None, emitted=None):
    """Drive a meter over the case's series; return the described frames, the
    error raised, if any, and the final state.  `injections` maps a series
    tick index to `(kind, limit)`: before that tick, the supply event `kind`
    and then an emergency `(limit_w, ticks)` armed for that many ticks, each
    optional.  The series is split there, and each piece stepped in one
    `step_series` call or tick by tick.  A list passed as `emitted` receives
    every frame of the series and of the supply events."""
    tick, pn, threshold, powers, warmup, t0, emergency = case
    injections = injections or {}
    meter = make_meter(pn_w=pn, tick_s=tick, energy_threshold_wh=threshold)
    for i, p in enumerate(warmup):
        meter.step(p, t0 + i * tick)
    start = t0 + len(warmup) * tick
    if emergency is not None:
        meter.arm_emergency_limit(emergency[0], until_s=start + emergency[1] * tick)
    described = []
    emitted = [] if emitted is None else emitted

    def take(frames):
        emitted.extend(frames)
        described.extend(describe_frame(f) for f in frames)

    error = None
    cuts = sorted({0, len(powers), *injections})
    try:
        for a, b in zip(cuts, cuts[1:]):
            t_a = start + a * tick
            kind, limit = injections.get(a, (None, None))
            if kind is not None:
                take(meter.apply_supply_event(t_a, kind))
            if limit is not None:
                meter.arm_emergency_limit(limit[0], until_s=t_a + limit[1] * tick)
            if use_series:
                for t, frames in meter.step_series(np.array(powers[a:b]), t_a):
                    take(frames)
                    assert all(f.timestamp in (t, t + tick) for f in frames)
            else:
                for i, p in enumerate(powers[a:b]):
                    take(meter.step(p, t_a + i * tick))
    except (ValueError, OverflowError) as exc:
        error = (type(exc), str(exc))
    state = (
        meter.last_seq,
        meter._quarter_acc_ws,
        meter._total_acc_ws,
        meter._band,
        meter._next_t,
        meter.cut_deadline,
        meter.supply_on,
        meter._over_pn,
        meter._energy_alarm_sent,
        meter.emergency_limit_w,
    )
    return described, error, state


@settings(max_examples=300, deadline=None)
@given(series_cases())
# An overrun from the first tick of a quarter to the end of the series: the
# accumulator must restart at the quarter close just before it.
@example((50, 3000.0, None, [0.0] * 10 + [3301.0] * 8, [], 50, None))
# A negative sample so small that its band computes as -0.0, equal to band 0.
@example((60, 3000.0, None, [0.0, 0.0, -5e-324, 0.0], [], 0, None))
# A warm-up overrun opens the breaker at t=120; with it open, the tiniest
# negative sample is still rejected, while NaN and inf are taken.
@example((60, 3000.0, None, [0.0, -5e-324, 0.0], [9000.0] * 3, 0, None))
@example((60, 3000.0, None, [0.0, math.nan, math.inf, 0.0], [9000.0] * 3, 0, None))
# A warm-up that ends mid-overrun arms the deadline t=450; the series, from
# t=180, must cut there at t=480, not at the t=660 its own samples imply.
@example((60, 3000.0, None, [4500.0] * 10, [4500.0] * 3, 0, None))
# An overrun under a limit that expires at t=300, before its t=420 cut: the
# countdown restarts against 1.1 Pn, a float just above 3300 W, so its
# deadline lies just past t=2100 and the cut falls at t=2160.
@example((60, 3000.0, None, [3600.0] * 40, [], 0, (2500.0, 5)))
# A finite sample whose band overflows is rejected, even with no band change.
@example((60, 3000.0, None, [4000.0, 1e308, 0.0], [], 0, None))
def test_step_series_matches_the_per_tick_loop(case):
    assert _drive_meter(case, use_series=True) == _drive_meter(case, use_series=False)


@st.composite
def split_cases(draw):
    """A series case and the injections that split it (see `_drive_meter`)."""
    case = draw(series_cases())
    pn, n = case[1], len(case[3])
    injection = st.tuples(
        st.none() | st.sampled_from(SupplyEventKind),
        st.none() | st.tuples(st.floats(0.3 * pn, pn), st.integers(0, 50)),
    )
    return case, draw(st.dictionaries(st.integers(0, n - 1), injection, max_size=5))


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_step_series_split_at_injections_matches_the_per_tick_loop(split_case):
    case, injections = split_case
    assert _drive_meter(case, True, injections) == _drive_meter(case, False, injections)


# The exact type of each field of a frame record as the wire decodes it.
RECORD_FIELDS = {
    CompactFrame: {"frame_type": FrameType, "pod_id": str, "seq": int, "timestamp": int},
    T1Payload: {"quarter_index": int, "energy_wh": int, "direction": EnergyDirection},
    T2Payload: {"band_index": int, "power_w": int, "direction": CrossingDirection},
    T3Payload: {"cause": ExceedanceCause, "value": int},
    T4Payload: {"event": SupplyEventKind, "duration_s": (int, type(None))},
}


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_emitted_frames_are_their_own_wire_image(split_case):
    """The run hands the meter's records to the device without encoding
    them, so each must be exactly what decoding its wire image gives: equal
    to it, with plain ints and enum members in the same fields."""
    case, injections = split_case
    emitted = []
    _drive_meter(case, True, injections, emitted)
    for frame in emitted:
        assert decode_frame(encode_frame(frame)) == frame
        for record in (frame, frame.payload):
            for name, kinds in RECORD_FIELDS[type(record)].items():
                value = getattr(record, name)
                assert type(value) in (kinds if isinstance(kinds, tuple) else (kinds,)), (
                    f"{describe_frame(frame)}: {name} is {type(value).__name__}"
                )


def test_step_series_keeps_breakpoints_after_a_cut_and_under_a_limit(monkeypatch):
    """An open breaker or an armed limit does not make `step_series` step
    every tick: one quiet day at 60 s is 1440 ticks."""
    day = np.full(1440, 500.0)
    cut = make_meter(tick_s=60)
    drive(cut, [9000.0] * 3)  # the third tick opens the breaker
    assert not cut.supply_on
    limited = make_meter(tick_s=60)
    limited.arm_emergency_limit(1000.0, until_s=600.0)  # expires at tick 10

    calls = []
    step = Meter.step
    monkeypatch.setattr(Meter, "step", lambda self, p, t: calls.append(t) or step(self, p, t))
    list(cut.step_series(day, 180))
    assert len(calls) <= 98  # the first and last ticks and 96 quarter closes
    calls.clear()
    list(limited.step_series(day, 0))
    assert limited.emergency_limit_w is None
    assert len(calls) <= 110


def test_step_series_steps_an_overrun_only_where_a_frame_can_go_out(monkeypatch):
    """Ten minutes at 1.2 Pn, ten at 0.5 Pn, all day at 60 s: each overrun
    ends 20 minutes before its 30-minute deadline, so `step_series` steps only
    at the edges, the quarter closes and the first and last ticks."""
    meter = make_meter(tick_s=60)
    day = np.tile(np.repeat([3600.0, 1500.0], 10), 72)

    calls = []
    step = Meter.step
    monkeypatch.setattr(Meter, "step", lambda self, p, t: calls.append(t // 60) or step(self, p, t))
    list(meter.step_series(day, 0))
    assert meter.supply_on
    edges, closes = range(10, 1440, 10), range(14, 1440, 15)
    assert calls == sorted({0, *edges, *closes, 1439})
