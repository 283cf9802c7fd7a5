"""Storage dispatch, appliance scheduling, demand response, flexibility settlement."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chain2sim.automation import (
    Appliance,
    Battery,
    DrCommand,
    DrIssuer,
    MevuCluster,
    Site,
    SiteLoad,
    dr_site_step,
    load_dr_commands,
    load_shift_schedule,
    mevu_settle,
    peak_shave_step,
    settlement_to_csv,
)

# -- battery -------------------------------------------------------------------


def test_battery_respects_power_caps_and_capacity():
    bat = Battery(capacity_wh=100.0, p_charge_max_w=500.0, p_discharge_max_w=300.0)
    assert bat.charge(10_000.0, 360.0) == 500.0  # capped at p_charge_max
    assert bat.soc_wh == 50.0
    assert bat.charge(10_000.0, 3600.0) == 50.0  # capped by remaining capacity
    assert bat.soc_wh == 100.0
    assert bat.discharge(10_000.0, 600.0) == 300.0  # capped at p_discharge_max
    assert bat.soc_wh == 50.0
    assert bat.discharge(10_000.0, 3600.0) == 50.0  # capped by stored energy
    assert bat.soc_wh == 0.0
    assert bat.discharge(100.0, 60.0) == 0.0


def test_battery_round_trip_efficiency():
    bat = Battery(1000.0, 1000.0, 1000.0, efficiency=0.81)
    taken = bat.charge(100.0, 3600.0)
    assert taken == 100.0
    assert bat.soc_wh == pytest.approx(90.0)  # sqrt(0.81) on the way in
    given_back = bat.discharge(1000.0, 3600.0)
    assert given_back == pytest.approx(81.0)  # and again on the way out
    assert bat.soc_wh == pytest.approx(0.0)


@given(
    st.lists(
        st.tuples(
            st.booleans(), st.floats(0, 5000), st.floats(1, 3600)
        ),
        max_size=40,
    )
)
def test_battery_soc_stays_bounded(ops):
    bat = Battery(500.0, 2000.0, 2000.0, efficiency=0.9, soc_wh=250.0)
    for is_charge, p, dt in ops:
        moved = bat.charge(p, dt) if is_charge else bat.discharge(p, dt)
        assert moved >= 0.0
        assert 0.0 <= bat.soc_wh <= 500.0


@pytest.mark.parametrize(
    "kw",
    [
        {"capacity_wh": 0.0, "p_charge_max_w": 1.0, "p_discharge_max_w": 1.0},
        {"capacity_wh": 10.0, "p_charge_max_w": -1.0, "p_discharge_max_w": 1.0},
        {"capacity_wh": 10.0, "p_charge_max_w": 1.0, "p_discharge_max_w": 1.0, "efficiency": 0.0},
        {"capacity_wh": 10.0, "p_charge_max_w": 1.0, "p_discharge_max_w": 1.0, "soc_wh": 11.0},
    ],
)
def test_battery_validation(kw):
    with pytest.raises(ValueError):
        Battery(**kw)


# -- peak shaving ----------------------------------------------------------------


def test_peak_shave_covers_excess_from_storage():
    bat = Battery(2000.0, 2000.0, 2000.0, soc_wh=2000.0)
    result = peak_shave_step(2000.0, 1000.0, bat, 900.0)
    assert result.p_grid_w == 1000.0
    assert result.p_discharge_w == 1000.0
    assert result.deficit_w == 0.0
    assert bat.soc_wh == 1750.0  # 1000 W for a quarter hour


def test_peak_shave_reports_deficit_when_storage_runs_out():
    bat = Battery(100.0, 2000.0, 2000.0, soc_wh=25.0)
    result = peak_shave_step(3000.0, 1000.0, bat, 900.0)
    assert result.p_discharge_w == pytest.approx(100.0)  # 25 Wh over 0.25 h
    assert result.p_grid_w == pytest.approx(2900.0)
    assert result.deficit_w == pytest.approx(1900.0)


def test_peak_shave_recharges_in_headroom():
    bat = Battery(1000.0, 600.0, 2000.0, soc_wh=0.0)
    result = peak_shave_step(300.0, 1000.0, bat, 900.0)
    assert result.p_charge_w == 600.0  # cap, not the full 700 W headroom
    assert result.p_grid_w == 900.0
    full = Battery(1000.0, 600.0, 2000.0, soc_wh=1000.0)
    idle = peak_shave_step(300.0, 1000.0, full, 900.0)
    assert idle.p_charge_w == 0.0 and idle.p_grid_w == 300.0


def test_peak_shave_limit_must_be_positive():
    with pytest.raises(ValueError, match="limit_w"):
        peak_shave_step(100.0, 0.0, Battery(10.0, 1.0, 1.0), 1.0)


# -- appliance scheduling -----------------------------------------------------------


def _oracle_schedule(apps, prices, limit_w, slot_s=900):
    """Brute-force reference: full product enumeration, same tie-break."""
    apps = sorted(apps, key=lambda a: a.id)
    n = len(prices)
    per_app = []
    for app in apps:
        dur = len(app.profile_w)
        first = -(-app.earliest_start_s // slot_s)
        last = min(app.deadline_s // slot_s, n) - dur
        per_app.append(list(range(first, last + 1)))
    best = None
    for combo in itertools.product(*per_app):
        load = [0.0] * n
        ok = True
        for app, s in zip(apps, combo):
            for k, p in enumerate(app.profile_w):
                load[s + k] += p
                if limit_w is not None and load[s + k] > limit_w:
                    ok = False
        if not ok:
            continue
        cost = 0.0
        for app, s in zip(apps, combo):
            cost += sum(
                p * slot_s / 3600.0 / 1000.0 * prices[s + k]
                for k, p in enumerate(app.profile_w)
            )
        if best is None or (cost, combo) < best:
            best = (cost, combo)
    return best


def _random_instance(rng):
    n_slots = rng.randrange(8, 16)
    slot_s = 900
    apps = []
    for i in range(rng.randrange(1, 4)):
        dur = rng.randrange(1, 4)
        latest = n_slots - dur
        first = rng.randrange(0, latest + 1)
        apps.append(
            Appliance(
                id=f"app{i}",
                profile_w=tuple(rng.choice([500.0, 1000.0, 2000.0]) for _ in range(dur)),
                earliest_start_s=first * slot_s,
                deadline_s=rng.randrange(first + dur, n_slots + 1) * slot_s,
            )
        )
    prices = [rng.choice([0.1, 0.2, 0.2, 0.4]) for _ in range(n_slots)]
    limit = rng.choice([None, 2500.0, 4000.0])
    return apps, prices, limit


def test_schedule_matches_bruteforce_on_random_instances():
    rng = random.Random(1234)
    checked = 0
    for _ in range(60):
        apps, prices, limit = _random_instance(rng)
        expected = _oracle_schedule(apps, prices, limit)
        result = load_shift_schedule(apps, prices, limit)
        if expected is None:
            assert not result.feasible
            continue
        cost, combo = expected
        assert result.feasible and result.optimal
        assert result.total_cost_eur == pytest.approx(cost)
        ordered = [result.starts[a.id] for a in sorted(apps, key=lambda a: a.id)]
        assert tuple(ordered) == combo
        checked += 1
    assert checked >= 30


def test_schedule_prefers_cheap_slots():
    app = Appliance("wash", (2000.0, 2000.0), 0, 8 * 900)
    prices = [0.4, 0.4, 0.1, 0.1, 0.4, 0.4, 0.4, 0.4]
    result = load_shift_schedule([app], prices)
    assert result.starts == {"wash": 2}
    assert result.total_cost_eur == pytest.approx(2 * 2000.0 * 0.25 / 1000.0 * 0.1)


def test_schedule_ties_break_toward_earliest_start():
    app = Appliance("a", (1000.0,), 0, 4 * 900)
    result = load_shift_schedule([app], [0.2, 0.2, 0.2, 0.2])
    assert result.starts == {"a": 0}


def test_grid_limit_staggers_runs():
    apps = [
        Appliance("a", (2000.0, 2000.0), 0, 4 * 900),
        Appliance("b", (2000.0, 2000.0), 0, 4 * 900),
    ]
    result = load_shift_schedule(apps, [0.1, 0.1, 0.1, 0.1], grid_limit_w=3000.0)
    assert result.feasible
    sa, sb = result.starts["a"], result.starts["b"]
    assert abs(sa - sb) >= 2  # runs may never overlap under a 3 kW limit


def test_infeasible_limit_reports_least_excess():
    apps = [
        Appliance("a", (2000.0, 2000.0, 2000.0), 0, 3 * 900),
        Appliance("b", (2000.0,), 0, 3 * 900),
    ]
    result = load_shift_schedule(apps, [0.1, 0.1, 0.1], grid_limit_w=3000.0)
    assert not result.feasible
    assert result.offending_slots  # at least one overloaded slot identified
    assert len(result.offending_slots) == 1  # best case overlaps a single slot


def test_appliance_with_no_window_raises():
    app = Appliance("x", (100.0, 100.0, 100.0), 0, 2 * 900)
    with pytest.raises(ValueError, match="no feasible start"):
        load_shift_schedule([app], [0.1] * 4)


def test_large_instances_fall_back_to_greedy():
    apps = [Appliance(f"a{i}", (100.0,), 0, 96 * 900) for i in range(3)]
    result = load_shift_schedule(apps, [0.1] * 96, exhaustive_cap=10)
    assert result.method == "greedy"
    assert not result.optimal
    assert result.feasible


def test_appliance_validation():
    with pytest.raises(ValueError, match="profile"):
        Appliance("a", (), 0, 900)
    with pytest.raises(ValueError, match="earliest_start_s"):
        Appliance("a", (1.0,), 900, 900)
    assert Appliance("a", (1000.0, 500.0), 0, 1800).energy_wh(900) == 375.0


# -- demand response -----------------------------------------------------------------


def make_site(battery=None):
    return Site(
        "site1",
        loads=[
            SiteLoad("heater", 2000.0, interruptible=False),
            SiteLoad("boiler", 1500.0, interruptible=True),
            SiteLoad("fridge", 150.0, controllable=False),
            SiteLoad("ev", 3000.0, interruptible=True),
        ],
        battery=battery,
        base_load_w=350.0,
    )


def test_dr_curtails_interruptible_biggest_first():
    site = make_site()
    cmd = DrCommand(3000.0, t_start=100.0, t_end=1000.0)
    result = dr_site_step(site, cmd, 100.0, 60.0)
    # 7000 W total; dropping ev (3000) then boiler (1500) reaches 2500 <= 3000.
    assert result.curtailed_ids == ("boiler", "ev")
    assert result.p_grid_w == 2500.0
    assert result.in_window


def test_dr_falls_back_to_non_interruptible_loads():
    site = make_site()
    cmd = DrCommand(800.0, 0.0, 900.0)
    result = dr_site_step(site, cmd, 0.0, 60.0)
    # Everything controllable goes; fridge and base load stay: 500 W.
    assert result.curtailed_ids == ("heater", "boiler", "ev")
    assert result.p_grid_w == 500.0


def test_dr_curtailed_loads_stay_off_then_restore():
    site = make_site()
    cmd = DrCommand(3000.0, 0.0, 120.0)
    dr_site_step(site, cmd, 0.0, 60.0)
    # Load drops mid-window: already curtailed loads do not come back.
    site.loads[0].power_w = 100.0
    mid = dr_site_step(site, cmd, 60.0, 60.0)
    assert mid.curtailed_ids == ("boiler", "ev")
    after = dr_site_step(site, cmd, 120.0, 60.0)
    assert after.curtailed_ids == ()
    assert not after.in_window
    assert not any(l.curtailed for l in site.loads)


def test_dr_battery_covers_residual_excess():
    bat = Battery(5000.0, 3000.0, 3000.0, soc_wh=5000.0)
    site = Site("s", loads=[SiteLoad("hob", 1000.0, controllable=False)], battery=bat, base_load_w=500.0)
    cmd = DrCommand(1000.0, 0.0, 900.0)
    result = dr_site_step(site, cmd, 0.0, 900.0)
    assert result.battery_discharge_w == 500.0
    assert result.p_grid_w == 1000.0


class _ArmSpy:
    def __init__(self):
        self.calls = []

    def arm_emergency_limit(self, limit_w, until_s):
        self.calls.append((limit_w, until_s))


def test_dr_emergency_arms_meter_once_per_window():
    site = Site("s", loads=[SiteLoad("x", 100.0)])
    meter = _ArmSpy()
    cmd = DrCommand(2000.0, 0.0, 300.0, issuer=DrIssuer.EMERGENCY)
    for t in (0.0, 60.0, 120.0):
        dr_site_step(site, cmd, t, 60.0, meter=meter)
    assert meter.calls == [(2000.0, 300.0)]
    dr_site_step(site, cmd, 400.0, 60.0, meter=meter)  # window over
    cmd2 = DrCommand(2000.0, 500.0, 800.0, issuer=DrIssuer.EMERGENCY)
    dr_site_step(site, cmd2, 500.0, 60.0, meter=meter)
    assert len(meter.calls) == 2


def test_dr_aggregator_never_touches_meter():
    site = Site("s", loads=[SiteLoad("x", 100.0)])
    meter = _ArmSpy()
    cmd = DrCommand(2000.0, 0.0, 300.0, issuer=DrIssuer.AGGREGATOR)
    dr_site_step(site, cmd, 0.0, 60.0, meter=meter)
    assert meter.calls == []


def test_load_dr_commands_csv(tmp_path):
    path = tmp_path / "cmds.csv"
    path.write_text(
        "t_start,t_end,p_limit_W,issuer\n"
        "3600,7200,2500,aggregator\n"
        "80000,81000,1000,emergency\n"
    )
    commands = load_dr_commands(path)
    assert len(commands) == 2
    assert commands[0].p_limit_w == 2500.0
    assert commands[1].issuer is DrIssuer.EMERGENCY

    bad = tmp_path / "bad.csv"
    bad.write_text("t_start,t_end,p_limit_W,issuer\n0,10,100,nobody\n")
    with pytest.raises(ValueError, match="unknown issuer"):
        load_dr_commands(bad)
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_dr_commands(headerless)


def test_dr_command_validation():
    with pytest.raises(ValueError, match="p_limit_w"):
        DrCommand(0.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="t_start"):
        DrCommand(100.0, 10.0, 10.0)


# -- flexibility settlement -------------------------------------------------------------


def test_mevu_settlement_hand_computed():
    cluster = MevuCluster(
        cluster_id="c1",
        members=("m1", "m2"),
        baseline_w={"m1": [1000.0, 1000.0], "m2": [500.0, 500.0]},
        capacity_offer_w=800.0,
        energy_price_eur_per_wh=0.0002,
        capacity_price_eur_per_w_h=0.0001,
    )
    actual = {"m1": [400.0, 1200.0], "m2": [500.0, 100.0], "stranger": [0.0, 0.0]}
    settlement = mevu_settle(cluster, actual, window=(0.0, 1800.0), tick_s=900.0)
    # m1: max(600,0) + max(-200,0) = 600 W for one quarter = 150 Wh
    # m2: 0 + 400 W for one quarter = 100 Wh
    assert settlement.per_member_flex_wh == {
        "m1": pytest.approx(150.0),
        "m2": pytest.approx(100.0),
    }
    assert settlement.delivered_flex_wh == pytest.approx(250.0)
    assert settlement.energy_eur == pytest.approx(0.0002 * 250.0)
    assert settlement.capacity_eur == pytest.approx(0.0001 * 800.0 * 0.5)
    assert settlement.total_eur == pytest.approx(0.05 + 0.04)


def test_mevu_matches_pure_python_oracle():
    rng = random.Random(77)
    ticks = 96
    members = tuple(f"m{i}" for i in range(4))
    baseline = {m: [rng.uniform(0, 3000) for _ in range(ticks)] for m in members}
    actual = {m: [rng.uniform(0, 3000) for _ in range(ticks)] for m in members}
    cluster = MevuCluster("c", members, baseline, 1000.0, 1e-4, 1e-5)
    settlement = mevu_settle(cluster, actual, (0.0, ticks * 900.0), 900.0)
    for m in members:
        expected = sum(
            max(b - a, 0.0) * 900.0 / 3600.0
            for b, a in zip(baseline[m], actual[m])
        )
        assert settlement.per_member_flex_wh[m] == pytest.approx(expected, rel=1e-12)


def test_mevu_validation():
    cluster = MevuCluster("c", ("m1",), {"m1": [100.0]}, 0.0, 1e-4, 1e-5)
    with pytest.raises(ValueError, match="missing for member|actual series missing"):
        mevu_settle(cluster, {}, (0.0, 900.0), 900.0)
    with pytest.raises(ValueError, match="multiple of tick_s"):
        mevu_settle(cluster, {"m1": [100.0]}, (0.0, 1000.0), 900.0)
    with pytest.raises(ValueError, match="ticks"):
        mevu_settle(cluster, {"m1": [100.0, 200.0]}, (0.0, 900.0), 900.0)
    with pytest.raises(ValueError, match="baseline missing"):
        MevuCluster("c", ("m1", "m2"), {"m1": [1.0]}, 0.0, 1e-4, 1e-5)
    with pytest.raises(ValueError, match="duplicate"):
        MevuCluster("c", ("m1", "m1"), {"m1": [1.0]}, 0.0, 1e-4, 1e-5)


def test_settlement_csv_layout(tmp_path):
    cluster = MevuCluster(
        "c1", ("m1",), {"m1": [1000.0]}, 500.0, 0.0002, 0.0001
    )
    settlement = mevu_settle(cluster, {"m1": [250.0]}, (0.0, 900.0), 900.0)
    path = tmp_path / "settlement.csv"
    settlement_to_csv(path, cluster, settlement)
    lines = path.read_text().splitlines()
    assert lines[0] == "scope,id,delivered_flex_Wh,energy_eur,capacity_eur,total_eur"
    assert lines[1].startswith("member,m1,187.5")
    assert lines[2].startswith("cluster,c1,187.5")
    # 187.5 Wh * 0.0002 EUR/Wh + 500 W * 0.25 h * 0.0001 EUR/(W h)
    assert lines[2].endswith(f"{187.5 * 0.0002 + 500 * 0.25 * 0.0001:.6f}")
