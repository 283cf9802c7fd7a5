"""The acceptance gate, one test per criterion.

Tolerances are pinned here and nowhere else: codec and cadence checks are
exact; the switch-off ratio allows 1e-9 relative; energy conservation
allows 1 Wh per quarter (the wire carries whole watt-hours); the campaign
rates band is [0.985, 0.995] per frame type with every daily rate at or
above 0.98.  Wall-clock bounds: criterion 1 under 5 s, criterion 6 under
60 s.
"""

import itertools
import random
import string
import time
from dataclasses import replace

import numpy as np
import pytest

from chain2sim.automation import Appliance, Battery, DrCommand, Site, SiteLoad, dr_site_step, load_shift_schedule, peak_shave_step
from chain2sim.frames import (
    CompactFrame,
    CrossingDirection,
    EnergyDirection,
    ExceedanceCause,
    FrameDecodeError,
    FrameType,
    SupplyEventKind,
    T1Payload,
    T2Payload,
    T3Payload,
    T4Payload,
    decode_frame,
    encode_frame,
    frame_from_row,
)
from chain2sim import harness
from chain2sim.harness import default_campaign, run
from chain2sim.meter import Meter, MeterConfig, switchoff_remaining
from chain2sim.profiles import PRESETS, household_profile
from chain2sim.seeds import derive
from chain2sim.taxonomy import Enabler, Maturity, classify, validate_dataset

POD = "IT001E00000001"
ALNUM = string.ascii_letters + string.digits


def _random_frame(rng: random.Random) -> CompactFrame:
    frame_type = rng.choice(list(FrameType))
    pod = "".join(rng.choices(ALNUM, k=14))
    seq = rng.randrange(0, 2**32)
    ts = rng.randrange(0, 2**32)
    if frame_type is FrameType.T1:
        payload = T1Payload(
            rng.randrange(96), rng.randrange(2**16), rng.choice(list(EnergyDirection))
        )
    elif frame_type is FrameType.T2:
        payload = T2Payload(
            rng.randrange(11), rng.randrange(2**32), rng.choice(list(CrossingDirection))
        )
    elif frame_type is FrameType.T3:
        payload = T3Payload(rng.choice(list(ExceedanceCause)), rng.randrange(2**32))
    else:
        kind = rng.choice(list(SupplyEventKind))
        duration = (
            rng.randrange(2**32) if kind is SupplyEventKind.INTERRUPTION_END else None
        )
        payload = T4Payload(kind, duration)
    return CompactFrame(frame_type, pod, seq, ts, payload)


def test_criterion_01_codec_soundness():
    started = time.perf_counter()
    rng = random.Random(20_240_101)
    frames = [_random_frame(rng) for _ in range(10_000)]
    encoded = []
    for frame in frames:
        raw = encode_frame(frame)
        assert decode_frame(raw) == frame
        encoded.append(raw)
    for raw in encoded:
        corrupted = bytearray(raw)
        pos = rng.randrange(len(corrupted))
        corrupted[pos] ^= rng.randrange(1, 256)
        with pytest.raises(FrameDecodeError):
            decode_frame(bytes(corrupted))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"codec check took {elapsed:.2f} s"


def _frames(meter, power, t0=0):
    """The frames the meter emits over a power series from t0."""
    blocks = meter.emit_rows(np.asarray(power, dtype=np.float64), t0)
    return [frame_from_row(row, meter.pod_id) for block in blocks for row in block.tolist()]


def test_criterion_02_t1_cadence():
    # A full day at 1 s ticks over a synthetic household day.
    power = household_profile(np.random.default_rng(11), 3000.0, 86400, tick_s=1)
    meter = Meter(POD, MeterConfig(pn_w=3000.0, tick_s=1))
    t1_frames = [f for f in _frames(meter, power) if f.frame_type is FrameType.T1]
    assert len(t1_frames) == 96
    assert [f.timestamp for f in t1_frames] == [900 * (k + 1) for k in range(96)]

    # And a coarser-tick day with a different load shape.
    meter2 = Meter(POD, MeterConfig(pn_w=4500.0, tick_s=60))
    count = sum(
        1
        for f in _frames(meter2, [800.0 + (t % 3600) / 10.0 for t in range(0, 86400, 60)])
        if f.frame_type is FrameType.T1
    )
    assert count == 96


def _crossing_oracle(powers: np.ndarray, pn_w: float) -> int:
    bands = np.clip(np.floor(10.0 * powers / pn_w), 0, 10).astype(np.int64)
    prev = np.concatenate(([0], bands[:-1]))
    return int(np.abs(bands - prev).sum())


def test_criterion_03_t2_oracle_equivalence():
    pn_choices = [3000.0, 4500.0, 6000.0]
    presets = sorted(PRESETS)
    for i in range(100):
        pn = pn_choices[i % 3]
        rng = np.random.default_rng(derive(1234, "t2-oracle", str(i)))
        power = household_profile(rng, pn, 86400, tick_s=1, preset=presets[i % 5])
        meter = Meter(POD, MeterConfig(pn_w=pn, tick_s=1))
        emitted = 0
        for frame in _frames(meter, power):
            if frame.frame_type is FrameType.T2:
                emitted += 1
        assert emitted == _crossing_oracle(power, pn), f"profile {i} (Pn={pn})"


def test_criterion_04_energy_conservation():
    pn_choices = [3000.0, 4500.0, 6000.0]
    presets = sorted(PRESETS)
    tick = 60
    for i in range(30):
        pn = pn_choices[i % 3]
        rng = np.random.default_rng(derive(99, "energy", str(i)))
        power = household_profile(rng, pn, 86400, tick_s=tick, preset=presets[i % 5])
        meter = Meter(POD, MeterConfig(pn_w=pn, tick_s=tick))
        energies = []
        for frame in _frames(meter, power):
            if frame.frame_type is FrameType.T1:
                energies.append(frame.payload.energy_wh)
        integral = power.reshape(96, -1).sum(axis=1) * tick / 3600.0
        assert len(energies) == 96
        for quarter, (reported, exact) in enumerate(zip(energies, integral)):
            assert abs(reported - exact) <= 1.0, f"profile {i} quarter {quarter}"
        assert abs(sum(energies) - integral.sum()) <= 48.0  # 96 roundings of half a Wh


def test_criterion_05_switchoff_inverse_proportionality():
    for pn in (3000.0, 4500.0, 6000.0):
        for delta in (10.0, 100.0, 1000.0):
            t_single = switchoff_remaining(1.1 * pn + delta, pn)
            t_double = switchoff_remaining(1.1 * pn + 2.0 * delta, pn)
            ratio = t_single / t_double
            assert abs(ratio - 2.0) <= 2.0 * 1e-9, (pn, delta, ratio)


def test_criterion_06_campaign_success_rates():
    started = time.perf_counter()
    config = default_campaign(n_users=100, days=7, p_loss=0.01, tick_s=60, seed=42)
    report = run(config, parallel=True)
    elapsed = time.perf_counter() - started

    for ftype, stats in sorted(report.per_type.items()):
        if stats.sent == 0:
            continue
        assert 0.985 <= stats.success_rate <= 0.995, (
            f"{ftype}: {stats.received}/{stats.sent} = {stats.success_rate:.6f}"
        )
    assert sorted(report.per_day) == list(range(7))
    for day, stats_map in report.per_day.items():
        rate = stats_map["all"].success_rate
        assert rate >= 0.98, f"day {day}: {rate:.6f}"
    assert elapsed < 60.0, f"campaign took {elapsed:.1f} s"


def test_criterion_07_determinism(tmp_path):
    config = default_campaign(n_users=10, days=1, p_loss=0.02, tick_s=300, seed=7)
    run(config, out_dir=str(tmp_path / "a"), parallel=True)
    run(config, out_dir=str(tmp_path / "b"), parallel=True)
    run(config, out_dir=str(tmp_path / "c"), parallel=False)
    first = (tmp_path / "a" / "report.csv").read_bytes()
    assert first == (tmp_path / "b" / "report.csv").read_bytes()
    assert first == (tmp_path / "c" / "report.csv").read_bytes()


def test_criterion_08_peak_shaving_exact():
    battery = Battery(
        capacity_wh=2000.0,
        p_charge_max_w=2000.0,
        p_discharge_max_w=2000.0,
        efficiency=1.0,
        soc_wh=2000.0,
    )
    limit = 1000.0
    # Quarter-hour ticks: 700 W, then a one-hour 2 kW pulse, then 1 kW flat.
    loads = [700.0, 700.0, 2000.0, 2000.0, 2000.0, 2000.0, 1000.0, 1000.0]
    for p_load in loads:
        result = peak_shave_step(p_load, limit, battery, dt_s=900.0)
        assert result.p_grid_w <= limit
        assert result.deficit_w == 0.0
    # Four quarters of 1 kW discharge drained exactly half the store.
    assert battery.soc_wh == 1000.0


def test_criterion_09_load_shifting_optimality():
    rng = random.Random(4242)
    n_slots = 96
    slot_s = 900
    verified = 0
    for _ in range(25):
        apps = []
        for i in range(rng.randrange(1, 4)):
            dur = rng.randrange(1, 5)
            window_slots = rng.randrange(dur, 26)
            first = rng.randrange(0, n_slots - window_slots + 1)
            apps.append(
                Appliance(
                    id=f"app{i}",
                    profile_w=tuple(
                        float(rng.choice([400, 900, 1600, 2200])) for _ in range(dur)
                    ),
                    earliest_start_s=first * slot_s,
                    deadline_s=(first + window_slots) * slot_s,
                )
            )
        prices = [rng.choice([0.08, 0.15, 0.22, 0.35]) for _ in range(n_slots)]
        limit = rng.choice([None, 3500.0])

        result = load_shift_schedule(apps, prices, limit)

        # Independent exhaustive enumeration over the same start sets.
        apps_sorted = sorted(apps, key=lambda a: a.id)
        start_sets = []
        for app in apps_sorted:
            dur = len(app.profile_w)
            first = -(-app.earliest_start_s // slot_s)
            last = min(app.deadline_s // slot_s, n_slots) - dur
            start_sets.append(range(first, last + 1))
        best_cost = None
        for combo in itertools.product(*start_sets):
            if limit is not None:
                load = [0.0] * n_slots
                ok = True
                for app, s in zip(apps_sorted, combo):
                    for k, p in enumerate(app.profile_w):
                        load[s + k] += p
                        if load[s + k] > limit:
                            ok = False
                if not ok:
                    continue
            cost = 0.0
            for app, s in zip(apps_sorted, combo):
                cost += sum(
                    p * slot_s / 3600.0 / 1000.0 * prices[s + k]
                    for k, p in enumerate(app.profile_w)
                )
            if best_cost is None or cost < best_cost:
                best_cost = cost
        if best_cost is None:
            assert not result.feasible
            continue
        assert result.feasible and result.optimal
        assert result.total_cost_eur == best_cost
        verified += 1
    assert verified >= 20


def test_criterion_10_dr_steady_state():
    rng = random.Random(99)
    for scenario in range(50):
        base = rng.uniform(50.0, 400.0)
        loads = []
        fixed = base
        for i in range(rng.randrange(1, 7)):
            controllable = rng.random() < 0.8
            power = rng.uniform(200.0, 3000.0)
            if not controllable:
                fixed += power
            loads.append(
                SiteLoad(
                    f"l{i}",
                    power,
                    interruptible=rng.random() < 0.5,
                    controllable=controllable,
                )
            )
        battery = None
        if rng.random() < 0.3:
            battery = Battery(3000.0, 2000.0, 2000.0, soc_wh=3000.0)
        # Feasible by construction: the limit admits everything uncontrollable.
        limit = fixed + rng.uniform(10.0, 500.0)
        site = Site(f"s{scenario}", loads, battery=battery, base_load_w=base)
        cmd = DrCommand(limit, t_start=300.0, t_end=1500.0)
        for tick_index, t in enumerate(range(0, 1800, 60)):
            result = dr_site_step(site, cmd, float(t), 60.0)
            if result.in_window and t >= 300 + 60:  # one settle tick of slack
                assert result.p_grid_w <= limit + 1e-9, (
                    f"scenario {scenario} at t={t}: {result.p_grid_w} > {limit}"
                )


def test_criterion_11_taxonomy_dataset():
    assert validate_dataset() == []
    assert classify("A.2").maturity == frozenset({Maturity.LOW})
    assert classify("A.9b").smart_home_enabler is Enabler.YES
    assert classify("A.3").maturity == frozenset({Maturity.MEDIUM, Maturity.HIGH})


def test_criterion_12_portal_gating(device_arrivals):
    config = default_campaign(n_users=20, days=1, p_loss=0.01, tick_s=60, seed=13)
    users = tuple(
        replace(spec, revoke_at_s=43_200.0) if i % 4 == 0 else spec
        for i, spec in enumerate(config.users)
    )
    config = replace(config, users=users, activation_delay_h=(1.0, 4.0))
    report = run(config, parallel=True)

    assert report.gated_total > 0  # the gate actually did something
    # The spy saw every processed frame; none arrived outside its pairing.
    assert sum(map(len, device_arrivals.values())) == report.totals.received
    windows = harness._pairing_windows(config)
    outside = 0
    for pod, arrivals in device_arrivals.items():
        active_at, revoked_at = windows[pod]
        outside += sum(not active_at <= t_arrive < revoked_at for t_arrive in arrivals)
    assert outside == 0
