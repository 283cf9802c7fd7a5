"""Storage dispatch, appliance scheduling, demand response, flexibility settlement."""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chain2sim import automation
from chain2sim.automation import (
    EXHAUSTIVE_CAP,
    Appliance,
    Battery,
    DrCommand,
    DrIssuer,
    MevuCluster,
    Site,
    ScheduleResult,
    SiteLoad,
    _limited_schedule,
    _start_cost,
    dr_site_step,
    feasible_starts,
    load_shift_schedule,
    mevu_settle,
    peak_shave_step,
    settlement_to_csv,
)
from reference import least_excess_walk

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


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"capacity_wh": math.nan, "p_charge_max_w": 1.0, "p_discharge_max_w": 1.0}, "capacity_wh"),
        ({"capacity_wh": 1000.0, "p_charge_max_w": math.nan, "p_discharge_max_w": 500.0}, "power caps"),
        ({"capacity_wh": 1000.0, "p_charge_max_w": 500.0, "p_discharge_max_w": math.nan}, "power caps"),
    ],
)
def test_battery_refuses_nan(kw, message):
    """A NaN cap would let `charge` take all it is offered: min(2000, nan)
    is 2000."""
    with pytest.raises(ValueError, match=message):
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
    """Brute-force reference over every start combination: the least
    (excess Wh over the limit, cost, starts in id order), loads and excess
    exact fractions, costs summed in the scheduler's order, and the slots
    over the limit under it."""
    apps = sorted(apps, key=lambda a: a.id)
    n = len(prices)
    limit_w = math.inf if limit_w is None else Fraction(limit_w)
    kwh_per_slot = slot_s / 3600.0 / 1000.0
    per_app = []
    for app in apps:
        dur = len(app.profile_w)
        first = -(-app.earliest_start_s // slot_s)
        last = min(app.deadline_s // slot_s, n) - dur
        per_app.append(list(range(first, last + 1)))
    best = None
    for combo in itertools.product(*per_app):
        load = [Fraction(0)] * n
        cost = 0.0
        for app, s in zip(apps, combo):
            for k, p in enumerate(app.profile_w):
                load[s + k] += Fraction(p)
            cost += sum(p * kwh_per_slot * prices[s + k] for k, p in enumerate(app.profile_w))
        excess = sum(max(0, w - limit_w) for w in load) * Fraction(slot_s, 3600)
        if best is None or (excess, cost, combo) < best[0]:
            best = (excess, cost, combo), tuple(i for i, w in enumerate(load) if w > limit_w)
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
        (excess, cost, combo), _ = _oracle_schedule(apps, prices, limit)
        result = load_shift_schedule(apps, prices, limit)
        if excess:
            assert not result.feasible
            continue
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
    # Every start of b overlaps a by 250 Wh at the same cost: the earliest.
    assert result.starts == {"a": 0, "b": 0}
    assert result.offending_slots == (0,)


def test_limited_schedule_is_the_least_excess_then_cheapest():
    """Under a grid limit the schedule is the brute-force minimum of (excess
    energy, cost, starts in id order): the cheapest schedule within the
    limit when there is one, else the least excess with the slots still over
    it; on random instances with inexact powers, most of them infeasible."""
    rng = random.Random(2027)
    outcomes = Counter()
    while outcomes[False] < 150:
        n_slots = rng.randrange(3, 9)
        apps = []
        for i in range(rng.randrange(1, 4)):
            dur = rng.randrange(1, min(3, n_slots) + 1)
            first = rng.randrange(0, n_slots - dur + 1)
            end = rng.randrange(first + dur, n_slots + 1)
            profile = tuple(round(rng.uniform(100.0, 2500.0), 3) for _ in range(dur))
            apps.append(Appliance(f"app{i}", profile, first * 900, end * 900))
        prices = [rng.choice([0.1, 0.13, 0.2, 0.27]) for _ in range(n_slots)]
        limit = round(rng.uniform(500.0, 3000.0), 3)
        (excess, cost, starts), over = _oracle_schedule(apps, prices, limit)
        result = load_shift_schedule(apps, prices, grid_limit_w=limit)
        assert tuple(result.starts[f"app{i}"] for i in range(len(apps))) == starts
        assert result.total_cost_eur == cost
        assert result.offending_slots == over
        assert (result.feasible, result.optimal) == (excess == 0.0, excess == 0.0)
        assert result.method == "exhaustive"
        outcomes[result.feasible] += 1
    assert outcomes[True] > 0


@st.composite
def _limited_instances(draw):
    """Appliances, prices and a grid limit, the appliances in id order with
    their feasible starts and the cost of each: powers whole watts, binary
    fractions or any float, limits down to below zero or a float sum of the
    powers, so that the walk meets loads that fit the limit exactly and
    loads that miss it by less than a rounding."""
    n_slots = draw(st.integers(1, 10))
    power = draw(
        st.sampled_from(
            [
                st.integers(0, 3000).map(float),
                st.integers(0, 12000).map(lambda q: q / 4),
                st.floats(0, 3000),
            ]
        )
    )
    apps = []
    for i in range(draw(st.integers(1, 3))):
        dur = draw(st.integers(1, min(3, n_slots)))
        first = draw(st.integers(0, n_slots - dur))
        end = draw(st.integers(first + dur, n_slots))
        profile = tuple(draw(st.lists(power, min_size=dur, max_size=dur)))
        apps.append(Appliance(f"app{i}", profile, first * 900, end * 900))
    price = st.sampled_from([0.1, 0.13, 0.2]) | st.floats(-1, 1)
    prices = draw(st.lists(price, min_size=n_slots, max_size=n_slots))
    # A float sum of drawn powers: a limit that some slot's exact load may
    # meet, or pass by less than the rounding of that sum.
    powers = st.sampled_from([p for app in apps for p in app.profile_w])
    exact_fit = st.lists(powers, min_size=1, max_size=3)
    limit = draw(
        st.integers(-500, 4000).map(float) | st.floats(-500, 4000) | exact_fit.map(sum)
    )
    return _walk_instance(apps, prices, limit)


def _walk_instance(apps, prices, limit):
    """The arguments `_limited_schedule` takes: the appliances in id order
    with their feasible starts and the cost of each, the limit and n_slots."""
    n_slots = len(prices)
    starts = [feasible_starts(app, n_slots) for app in apps]
    costs = [{s: _start_cost(app, s, prices) for s in ss} for app, ss in zip(apps, starts)]
    return apps, starts, costs, limit, n_slots


# Slot 2 could hold a0 + a1 + a2's second slot, 2000.0 + 700.7 + 450.3,
# which sums to 3151.0 in floats in this order but is 5.7e-14 W over it
# exactly, so a2 must start at slot 2, past it.
EXACT_FIT = (
    [
        Appliance("a0", (2000.0,), 0, 3600),
        Appliance("a1", (700.7,), 0, 3600),
        Appliance("a2", (120.1, 450.3), 0, 3600),
    ],
    [0.3, 0.2, 0.1, 0.2],
    3151.0,
)

# The same with binary fractions: 2000.0 + 700.5 + 450.25 is 3150.75
# exactly, a load at the limit, which is within it.
DYADIC_FIT = (
    [
        Appliance("a0", (2000.0,), 0, 3600),
        Appliance("a1", (700.5,), 0, 3600),
        Appliance("a2", (120.25, 450.25), 0, 3600),
    ],
    [0.3, 0.2, 0.1, 0.2],
    3150.75,
)


@settings(max_examples=300, deadline=None)
@given(_limited_instances())
@example(_walk_instance(*EXACT_FIT))
@example(_walk_instance(*DYADIC_FIT))
# Once a schedule within the limit is known, a0 at slot 0 still meets the
# limit exactly, and wins the tie on cost by its starts.
@example(
    _walk_instance(
        [Appliance("a0", (1.0,), 0, 1800), Appliance("a1", (0.0,), 0, 900), Appliance("a2", (1.0,), 0, 1800)],
        [0.1, 0.0],
        1.0,
    )
)
def test_pruned_limited_walk_equals_the_full_walk(instance):
    """The limited walk, with or without a schedule within the limit, skips
    only prefixes that cannot win, so it finds what walking every start
    combination finds, to the last bit."""
    assert _limited_schedule(*instance) == least_excess_walk(*instance)


def test_an_exact_fit_under_the_limit_is_found():
    result = load_shift_schedule(*DYADIC_FIT)
    assert result == ScheduleResult(
        {"a0": 2, "a1": 2, "a2": 1},
        0.08478125,
        feasible=True,
        optimal=True,
        method="exhaustive",
    )


def test_a_fit_of_the_float_sum_alone_is_over_the_limit():
    result = load_shift_schedule(*EXACT_FIT)
    assert result == ScheduleResult(
        {"a0": 2, "a1": 2, "a2": 2},
        0.093035,
        feasible=True,
        optimal=True,
        method="exhaustive",
    )


def test_a_limited_schedule_does_not_depend_on_the_ids():
    """Runs of 671.1, 1406.2 and 987.9 W sum to 3065.2 W in some float
    orders, but exactly they are 2.3e-13 W over it: under every naming,
    so in every id order, the smallest run takes the dearer slot."""
    powers = (671.1, 1406.2, 987.9)
    for names in itertools.permutations("abc"):
        apps = [Appliance(n, (p,), 0, 2 * 900) for n, p in zip(names, powers)]
        result = load_shift_schedule(apps, [0.1, 0.3], grid_limit_w=3065.2)
        assert result.starts == {n: int(p == 671.1) for n, p in zip(names, powers)}
        assert result.total_cost_eur == pytest.approx(0.110185, rel=1e-12)
        assert result.feasible and result.optimal


@pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n_slots", [4, 96])
def test_a_nan_grid_limit_is_refused(n_slots, limit):
    """Under the exhaustive cap and over it (95**4 start combinations), a
    NaN limit would pass every load as within it, and an infinite one has
    no exact value to judge loads on; no limit is None."""
    apps = [Appliance(f"a{i}", (2000.0, 2000.0), 0, n_slots * 900) for i in range(4)]
    with pytest.raises(ValueError, match="grid_limit_w"):
        load_shift_schedule(apps, [0.1] * n_slots, grid_limit_w=limit)


@pytest.mark.parametrize(
    "power, limit, expected",
    [
        (2000.0, 1000.0, ({"a0": 45, "a1": 46, "a2": 47}, 0.10499999999999997, (45, 46, 47))),
        (2000.1, 1000.3, ({"a0": 45, "a1": 47, "a2": 46}, 0.10500524999999995, (45, 46, 47))),
        (2000.1, 0.0, ({"a0": 47, "a1": 47, "a2": 47}, 0.09750487499999996, (47,))),
        (2000.1, -5.0, ({"a0": 47, "a1": 47, "a2": 47}, 0.09750487499999996, tuple(range(48)))),
    ],
    ids=["2000.0-under-1000.0", "2000.1-under-1000.3", "2000.1-under-0.0", "2000.1-under--5.0"],
)
def test_infeasible_limit_walk_skips_what_cannot_win(monkeypatch, power, limit, expected):
    """Three one-slot runs over the limit, each free over 48 slots priced
    from dear to cheap: the walk over all 110,592 combinations puts them in
    the cheapest slots, and the pruned walk finds the same from under a
    thousand placements, whether or not the powers are binary fractions."""
    apps = [Appliance(f"a{i}", (power,), 0, 48 * 900) for i in range(3)]
    prices = [0.3 - 0.005 * k for k in range(48)]
    placements = Counter()
    excess_sum = automation._excess_sum

    def counted(*args):
        placements["all"] += 1
        return excess_sum(*args)

    monkeypatch.setattr(automation, "_excess_sum", counted)
    result = load_shift_schedule(apps, prices, grid_limit_w=limit)
    starts, cost, offending = expected
    assert result == ScheduleResult(
        starts, cost, feasible=False, optimal=False, method="exhaustive", offending_slots=offending
    )
    assert placements["all"] < 1000


def test_appliance_with_no_window_raises():
    app = Appliance("x", (100.0, 100.0, 100.0), 0, 2 * 900)
    with pytest.raises(ValueError, match="no feasible start"):
        load_shift_schedule([app], [0.1] * 4)


def test_large_instances_fall_back_to_greedy():
    # 96**4 = 84.9M start combinations, over the exhaustive search's cap.
    apps = [Appliance(f"a{i}", (100.0,), 0, 96 * 900) for i in range(4)]
    assert 96**4 > EXHAUSTIVE_CAP
    result = load_shift_schedule(apps, [0.1] * 96, grid_limit_w=250.0)
    assert result.method == "greedy"
    assert not result.optimal
    assert result.feasible


@settings(max_examples=100, deadline=None)
@given(
    n_slots=st.integers(1, 8),
    runs=st.lists(
        st.tuples(
            st.lists(st.sampled_from([0.0, 500.0, 1000.0, 2000.0]), min_size=1, max_size=3),
            st.integers(0, 7),
            st.integers(1, 8),
        ),
        min_size=1,
        max_size=3,
    ),
    prices=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.15]), min_size=8, max_size=8),
)
def test_an_unlimited_schedule_takes_each_cheapest_start(n_slots, runs, prices):
    """With no grid limit each appliance takes its first cheapest start, and
    that schedule is the brute-force minimum, labeled optimal."""
    prices = prices[:n_slots]
    apps = []
    for i, (profile, first, length) in enumerate(runs):
        start = min(first, n_slots - len(profile))
        assume(start >= 0)
        deadline = min(start + max(length, len(profile)), n_slots) * 900
        apps.append(Appliance(f"app{i}", tuple(profile), start * 900, deadline))
    result = load_shift_schedule(apps, prices)
    assert result.feasible and result.optimal
    kwh_per_slot = 900 / 3600.0 / 1000.0
    costs = []  # per appliance in id order, {start: cost} in start order
    for app in apps:
        profile = list(enumerate(app.profile_w))
        costs.append(
            {s: sum(p * kwh_per_slot * prices[s + k] for k, p in profile) for s in feasible_starts(app, n_slots)}
        )
    assert [result.starts[app.id] for app in apps] == [min(c, key=c.get) for c in costs]
    combos = itertools.product(*(c.values() for c in costs))
    assert result.total_cost_eur == min(sum(combo) for combo in combos)


def test_appliance_validation():
    with pytest.raises(ValueError, match="profile"):
        Appliance("a", (), 0, 900)
    with pytest.raises(ValueError, match="earliest_start_s"):
        Appliance("a", (1.0,), 900, 900)


@pytest.mark.parametrize("power", [math.nan, math.inf, -1.0])
def test_appliance_refuses_a_power_out_of_range(power):
    with pytest.raises(ValueError, match="finite and >= 0"):
        Appliance("a", (100.0, power), 0, 2 * 900)


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


def test_dr_curtailing_every_load_leaves_no_negative_power():
    """Taking each curtailed load off the running total can leave a rounding
    residue below zero, which the meter would reject part-way through a run."""
    site = Site("s", loads=[SiteLoad("b", 3656.3094872094466), SiteLoad("a", 440.0)])
    result = dr_site_step(site, DrCommand(300.0, 0.0, 1800.5), 0.0, 300.0)
    assert result.curtailed_ids == ("b", "a")
    assert result.p_grid_w == 0.0


def test_dr_site_step_adds_the_loads_in_order():
    """`harness._site_power` adds the same loads in order from 0.0 in numpy;
    builtin `sum`, compensated from Python 3.12 on, gives
    3336.8999999999996 here."""
    site = Site("s", loads=[SiteLoad(f"l{i}", p) for i, p in enumerate((2636.6, 292.4, 407.9))])
    result = dr_site_step(site, None, 0.0, 60.0)
    assert result.p_grid_w == ((0.0 + 2636.6) + 292.4) + 407.9


def test_dr_battery_covers_residual_excess():
    bat = Battery(5000.0, 3000.0, 3000.0, soc_wh=5000.0)
    site = Site("s", loads=[SiteLoad("hob", 1000.0, controllable=False)], battery=bat, base_load_w=500.0)
    cmd = DrCommand(1000.0, 0.0, 900.0)
    result = dr_site_step(site, cmd, 0.0, 900.0)
    assert result.battery_discharge_w == 500.0
    assert result.p_grid_w == 1000.0


def test_dr_command_validation():
    with pytest.raises(ValueError, match="p_limit_w"):
        DrCommand(0.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="t_start"):
        DrCommand(100.0, 10.0, 10.0)
    with pytest.raises(ValueError, match="p_limit_w"):
        DrCommand(math.nan, 0.0, 10.0)
    with pytest.raises(ValueError, match="t_start"):
        DrCommand(100.0, 0.0, math.nan)
    with pytest.raises(ValueError, match="p_limit_w must be positive and finite"):
        DrCommand(math.inf, 0.0, 10.0)
    with pytest.raises(ValueError, match="t_end must be finite"):
        DrCommand(100.0, 0.0, t_end=math.inf)
    with pytest.raises(ValueError, match="t_start must be finite"):
        DrCommand(100.0, -math.inf, 10.0)


# -- flexibility settlement -------------------------------------------------------------


def test_mevu_settlement_hand_computed():
    cluster = MevuCluster(
        cluster_id="c1",
        members=("m1", "m2"),
        capacity_offer_w=800.0,
        energy_price_eur_per_wh=0.0002,
        capacity_price_eur_per_w_h=0.0001,
        window=(0.0, 1800.0),
    )
    baseline = {"m1": [1000.0, 1000.0], "m2": [500.0, 500.0]}
    actual = {"m1": [400.0, 1200.0], "m2": [500.0, 100.0], "stranger": [0.0, 0.0]}
    settlement = mevu_settle(cluster, baseline, actual, tick_s=900.0)
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
    cluster = MevuCluster("c", members, 1000.0, 1e-4, 1e-5, (0.0, ticks * 900.0))
    settlement = mevu_settle(cluster, baseline, actual, 900.0)
    for m in members:
        expected = sum(
            max(b - a, 0.0) * 900.0 / 3600.0
            for b, a in zip(baseline[m], actual[m])
        )
        assert settlement.per_member_flex_wh[m] == pytest.approx(expected, rel=1e-12)


def test_mevu_validation():
    cluster = MevuCluster("c", ("m1",), 0.0, 1e-4, 1e-5, (0.0, 900.0))
    one = {"m1": [100.0]}
    with pytest.raises(ValueError, match="series missing for member 'm1'"):
        mevu_settle(cluster, one, {}, 900.0)
    with pytest.raises(ValueError, match="series missing for member 'm1'"):
        mevu_settle(cluster, {}, one, 900.0)
    with pytest.raises(ValueError, match="multiple of tick_s"):
        mevu_settle(replace(cluster, window=(0.0, 1000.0)), one, one, 900.0)
    with pytest.raises(ValueError, match="ticks"):
        mevu_settle(cluster, one, {"m1": [100.0, 200.0]}, 900.0)


@pytest.mark.parametrize("offer", [math.nan, math.inf, -1.0])
def test_mevu_cluster_refuses_a_capacity_offer_out_of_range(offer):
    with pytest.raises(ValueError, match="capacity_offer_w must be finite and >= 0"):
        MevuCluster("c", ("m1",), offer, 1e-4, 1e-5, (0.0, 900.0))


@pytest.mark.parametrize(
    "members, window, message",
    [
        ((), (0.0, 900.0), "members must not be empty"),
        (("m1", "m1"), (0.0, 900.0), "members must differ"),
        (("m1",), (900.0, 900.0), "window must start before it ends"),
        (("m1",), (900.0, 0.0), "window must start before it ends"),
        (("m1",), (0.0, math.nan), "window must start before it ends"),
    ],
)
def test_mevu_cluster_refuses_members_or_a_window_it_cannot_settle(members, window, message):
    with pytest.raises(ValueError, match=message):
        MevuCluster("c", members, 0.0, 1e-4, 1e-5, window)


@pytest.mark.parametrize("price", [math.nan, math.inf])
def test_mevu_cluster_refuses_a_price_that_is_not_finite(price):
    with pytest.raises(ValueError, match="energy_price_eur_per_wh must be finite"):
        MevuCluster("c", ("m1",), 0.0, price, 1e-5, (0.0, 900.0))
    with pytest.raises(ValueError, match="capacity_price_eur_per_w_h must be finite"):
        MevuCluster("c", ("m1",), 0.0, 1e-4, price, (0.0, 900.0))


def test_settlement_csv_layout(tmp_path):
    cluster = MevuCluster("c1", ("m1",), 500.0, 0.0002, 0.0001, (0.0, 900.0))
    settlement = mevu_settle(cluster, {"m1": [1000.0]}, {"m1": [250.0]}, 900.0)
    path = tmp_path / "settlement.csv"
    settlement_to_csv(path, cluster, settlement)
    lines = path.read_text().splitlines()
    assert lines[0] == "scope,id,delivered_flex_Wh,energy_eur,capacity_eur,total_eur"
    assert lines[1].startswith("member,m1,187.5")
    assert lines[2].startswith("cluster,c1,187.5")
    # 187.5 Wh * 0.0002 EUR/Wh + 500 W * 0.25 h * 0.0001 EUR/(W h)
    assert lines[2].endswith(f"{187.5 * 0.0002 + 500 * 0.25 * 0.0001:.6f}")
