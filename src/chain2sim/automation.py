"""Automation policies layered on the metering data.

Four independent pieces, composable per scenario:

    Battery + peak_shave_step   storage dispatch that caps grid draw
    load_shift_schedule         appliance start-time optimization
    DrCommand + dr_site_step    externally commanded power limitation
    MevuCluster + mevu_settle   a flexibility offer, settled on given series

Everything here is a pure per-tick policy over explicit state; nothing
touches a meter, frames or channels.  The harness feeds policy outputs
into the meter as household power, and arms the meter's emergency limit
itself at the first tick of an emergency window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from chain2sim.frames import QUARTER_S


def _sum_in_order(values: Iterable[float]) -> float:
    """0.0 plus each value in turn.  From Python 3.12 on, builtin `sum` of
    floats is compensated; where another implementation adds the same
    values in order, this keeps their bits equal on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


# -- Storage -------------------------------------------------------------------


class Battery:
    """Storage with power caps, hard SoC bounds and symmetric efficiency split.

    `efficiency` is the round-trip fraction; charge and discharge each apply
    sqrt(efficiency), so energy balance per step is

        d_soc = p_charge * eta * dt - p_discharge / eta * dt

    with eta = sqrt(efficiency).  Power values are at the household bus:
    `charge` returns the power actually drawn from the bus, `discharge` the
    power actually delivered to it, both possibly reduced by the caps or by
    the state of charge.
    """

    def __init__(
        self,
        capacity_wh: float,
        p_charge_max_w: float,
        p_discharge_max_w: float,
        efficiency: float = 1.0,
        soc_wh: float = 0.0,
    ) -> None:
        if not capacity_wh > 0:  # written so that NaN fails too
            raise ValueError(f"capacity_wh must be positive, got {capacity_wh}")
        if not (p_charge_max_w >= 0 and p_discharge_max_w >= 0):
            raise ValueError("power caps must be non-negative")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        if not 0.0 <= soc_wh <= capacity_wh:
            raise ValueError(
                f"soc_wh must be within [0, {capacity_wh}], got {soc_wh}"
            )
        self.capacity_wh = float(capacity_wh)
        self.p_charge_max_w = float(p_charge_max_w)
        self.p_discharge_max_w = float(p_discharge_max_w)
        self.efficiency = float(efficiency)
        self.soc_wh = float(soc_wh)
        self._eta = math.sqrt(efficiency)

    def charge(self, p_w: float, dt_s: float) -> float:
        """Draw up to `p_w` from the bus for `dt_s`; returns the power taken."""
        if dt_s <= 0:
            return 0.0
        dt_h = dt_s / 3600.0
        p = min(p_w, self.p_charge_max_w, (self.capacity_wh - self.soc_wh) / (self._eta * dt_h))
        if p <= 0.0:
            return 0.0
        self.soc_wh = min(self.capacity_wh, self.soc_wh + p * self._eta * dt_h)
        return p

    def discharge(self, p_w: float, dt_s: float) -> float:
        """Deliver up to `p_w` to the bus for `dt_s`; returns the power given."""
        if dt_s <= 0:
            return 0.0
        dt_h = dt_s / 3600.0
        p = min(p_w, self.p_discharge_max_w, self.soc_wh * self._eta / dt_h)
        if p <= 0.0:
            return 0.0
        self.soc_wh = max(0.0, self.soc_wh - p / self._eta * dt_h)
        return p


@dataclass(slots=True)
class PeakShaveResult:
    p_grid_w: float
    p_charge_w: float
    p_discharge_w: float
    deficit_w: float  # grid power above the limit that storage could not cover


def peak_shave_step(
    p_load_w: float, limit_w: float, battery: Battery, dt_s: float
) -> PeakShaveResult:
    """One tick of storage dispatch against a grid-power limit.

    Above the limit the battery discharges the shortfall (bounded by its
    caps and state of charge); below it the battery charges opportunistically
    from the remaining headroom.  Infeasibility is not an error: when the
    battery cannot cover the excess, the result reports `deficit_w > 0` and
    the grid power simply exceeds the limit.
    """
    if not limit_w > 0:  # NaN too
        raise ValueError(f"limit_w must be positive, got {limit_w}")
    if p_load_w > limit_w:
        given = battery.discharge(p_load_w - limit_w, dt_s)
        p_grid = p_load_w - given
        return PeakShaveResult(p_grid, 0.0, given, max(0.0, p_grid - limit_w))
    taken = battery.charge(limit_w - p_load_w, dt_s)
    return PeakShaveResult(p_load_w + taken, taken, 0.0, 0.0)


# -- Appliance scheduling -------------------------------------------------------


@dataclass(frozen=True)
class Appliance:
    """A shiftable appliance run.

    `profile_w` is the power drawn in each quarter-hour slot once started; the
    run is contiguous and non-preemptive.  `earliest_start_s` and `deadline_s`
    bound the run in scenario seconds: it may not start before the former
    and must have finished by the latter.
    """

    id: str
    profile_w: tuple[float, ...]
    earliest_start_s: int
    deadline_s: int
    interruptible: bool = False
    controllable: bool = True

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("appliance id must be non-empty")
        if not self.profile_w or not all(0 <= p < math.inf for p in self.profile_w):  # NaN too
            raise ValueError(f"{self.id}: profile must be non-empty, powers finite and >= 0")
        if self.earliest_start_s < 0 or self.deadline_s <= self.earliest_start_s:
            raise ValueError(
                f"{self.id}: need 0 <= earliest_start_s < deadline_s, got "
                f"[{self.earliest_start_s}, {self.deadline_s}]"
            )


@dataclass(frozen=True)
class ScheduleResult:
    starts: dict[str, int]  # appliance id -> start slot index
    total_cost_eur: float
    feasible: bool
    optimal: bool
    method: str  # "exhaustive" or "greedy"
    offending_slots: tuple[int, ...] = ()


# Most start combinations `load_shift_schedule` searches exhaustively.
EXHAUSTIVE_CAP = 2_000_000


def feasible_starts(app: Appliance, n_slots: int) -> list[int]:
    """The start slots at which `app`'s run fits inside both its own window
    and the `n_slots` of the horizon; ValueError when there is none."""
    dur = len(app.profile_w)
    first = -(-app.earliest_start_s // QUARTER_S)  # ceil division
    last = min(app.deadline_s // QUARTER_S, n_slots) - dur
    if first > last:
        raise ValueError(
            f"{app.id}: no feasible start in [{app.earliest_start_s}, "
            f"{app.deadline_s}] for a {dur}-slot run"
        )
    return list(range(first, last + 1))


def _start_cost(app: Appliance, start: int, prices: Sequence[float]) -> float:
    kwh_per_slot = QUARTER_S / 3600.0 / 1000.0
    return sum(
        p * kwh_per_slot * prices[start + k] for k, p in enumerate(app.profile_w)
    )


def load_shift_schedule(
    appliances: Sequence[Appliance],
    prices_eur_per_kwh: Sequence[float],
    grid_limit_w: float | None = None,
) -> ScheduleResult:
    """Choose one start slot per appliance, a slot being the quarter hour
    (`QUARTER_S`) the meter reports energy over, minimizing total energy cost.

    Without a `grid_limit_w` the appliances do not interact, so one
    per-appliance pass, each taking its cheapest start, is the optimum.
    Ties on cost are broken toward the earliest start, appliance ids
    considered in sorted order.

    With a `grid_limit_w`, the summed appliance power should stay at or below
    the limit in every slot.  Loads are judged exactly: the sum of the given
    powers in a slot, whatever their order, against the limit as given.
    When the combination count fits under `EXHAUSTIVE_CAP`, which covers any
    desk-scale instance, one exact walk returns the least (excess energy
    over the limit, cost, starts): the cheapest schedule within the limit
    when there is one, labeled `feasible` and `optimal`, else the least
    excess with the slots where it still violates the limit.  Larger
    instances fall back to the per-appliance pass, which keeps clear of the
    limit where it can, and the result is labeled `optimal=False`.

    Raises:
        ValueError: `grid_limit_w` is NaN or infinite (None means no
            limit), or an appliance admits no feasible start at all (its
            own window is too tight for its run length), independent of the
            limit.
    """
    if grid_limit_w is not None and not math.isfinite(grid_limit_w):
        raise ValueError(f"grid_limit_w must be finite or None, got {grid_limit_w}")
    n_slots = len(prices_eur_per_kwh)
    if n_slots == 0:
        raise ValueError("prices_eur_per_kwh must be non-empty")
    apps = sorted(appliances, key=lambda a: a.id)
    if len({a.id for a in apps}) != len(apps):
        raise ValueError("appliance ids must be unique")

    starts_per_app: list[list[int]] = []
    costs_per_app: list[dict[int, float]] = []
    for app in apps:
        starts = feasible_starts(app, n_slots)
        starts_per_app.append(starts)
        costs_per_app.append({s: _start_cost(app, s, prices_eur_per_kwh) for s in starts})

    combos = 1
    for starts in starts_per_app:
        combos *= len(starts)
    if grid_limit_w is None or combos > EXHAUSTIVE_CAP:
        return _greedy_schedule(apps, starts_per_app, costs_per_app, grid_limit_w, n_slots)
    return _limited_schedule(apps, starts_per_app, costs_per_app, grid_limit_w, n_slots)


def _whole_units(limit_w: float, apps: Sequence[Appliance]) -> tuple[int, list[tuple[int, ...]]]:
    """`limit_w` and each appliance's powers as integers over one unit,
    1 / the largest denominator of them as floats (a power of two), so that
    loads sum and compare exactly."""
    powers = [p for app in apps for p in app.profile_w]
    per_unit = max(float(v).as_integer_ratio()[1] for v in (limit_w, *powers))

    def whole(v: float) -> int:
        n, d = float(v).as_integer_ratio()
        return n * (per_unit // d)

    return whole(limit_w), [tuple(map(whole, app.profile_w)) for app in apps]


def _excess_sum(load: Mapping[int, int], limit: int, n_slots: int) -> int:
    """The summed load over the limit, in units x slots, of a load by slot
    over `n_slots`: a slot with no load adds its excess, max(0, -limit), too."""
    over = sum(l - limit for l in load.values() if l > limit)
    return over + (n_slots - len(load)) * max(0, -limit)


def _limited_schedule(apps, starts_per_app, costs_per_app, limit_w, n_slots):
    # The least (excess, cost, starts) over every start combination: the
    # cheapest schedule within the limit when there is one, else the least
    # excess, so the caller can see exactly where and by how much it fails.
    # Loads and excess are exact integers (`_whole_units`).  The walk tries
    # each appliance's starts cheapest first, and skips a prefix when no
    # completion can beat the best key so far; once a leaf within the limit
    # is found, that skips every prefix with excess of its own.  The bounds:
    #   excess  the prefix's own excess sum only grows as loads are added,
    #           and each appliance still to place adds at least its own
    #           excess over max(limit, 0), as powers are >= 0;
    #   cost    the prefix's cost, summed on with each later appliance's
    #           cheapest start, a bound in floats too, as float addition
    #           is monotone;
    # and a tie on both goes to the least starts, so a prefix past the best
    # one's loses it.
    limit, profiles = _whole_units(limit_w, apps)
    n = len(apps)
    floor = max(limit, 0)
    rest = [0] * (n + 1)  # the excess sum that apps i.. add at least
    for i in range(n - 1, -1, -1):
        rest[i] = rest[i + 1] + sum(max(0, p - floor) for p in profiles[i])
    tries = [
        sorted(starts, key=lambda s: (costs[s], s))
        for starts, costs in zip(starts_per_app, costs_per_app)
    ]
    cheapest = [costs[starts[0]] for starts, costs in zip(tries, costs_per_app)]
    best: tuple[int, float, tuple[int, ...]] | None = None
    best_load: dict[int, int] = {}

    def walk(i: int, picked: list[int], cost: float, load: dict[int, int]) -> None:
        nonlocal best, best_load
        total = _excess_sum(load, limit, n_slots)
        if i == n:
            key = (total, cost, tuple(picked))
            if best is None or key < best:
                best, best_load = key, load
            return
        if best is not None:
            cost_bound = cost
            for c in cheapest[i:]:
                cost_bound += c
            bound = (total + rest[i], cost_bound, tuple(picked))
            if bound > (best[0], best[1], best[2][:i]):
                return
        for s in tries[i]:
            placed = load.copy()
            over = False
            for k, p in enumerate(profiles[i]):
                placed[s + k] = l = placed.get(s + k, 0) + p
                over = over or l > limit
            if over and best is not None and best[0] == 0:
                continue  # past a schedule within the limit, this cannot win
            picked.append(s)
            walk(i + 1, picked, cost + costs_per_app[i][s], placed)
            picked.pop()

    walk(0, [], 0.0, {})
    assert best is not None
    excess, cost, starts = best
    return ScheduleResult(
        {app.id: s for app, s in zip(apps, starts)},
        cost,
        feasible=excess == 0,
        optimal=excess == 0,
        method="exhaustive",
        offending_slots=tuple(i for i in range(n_slots) if best_load.get(i, 0) > limit),
    )


def _greedy_schedule(apps, starts_per_app, costs_per_app, limit_w, n_slots):
    # Each appliance in id order takes the start with the least excess over
    # the limit, then the least cost, then the earliest: with no limit, each
    # one's cheapest start, which is the optimum.  Under a limit, loads are
    # exact integers (`_whole_units`); with none, the runs add no load, so
    # every slot stays within the limit of 0.
    limit, profiles = (0, [()] * len(apps)) if limit_w is None else _whole_units(limit_w, apps)
    load = [0] * n_slots
    picked = []
    for profile, starts, costs in zip(profiles, starts_per_app, costs_per_app):

        def key(s: int) -> tuple[int, float]:
            return sum(max(0, load[s + k] + p - limit) for k, p in enumerate(profile)), costs[s]

        # min keeps the first of a tie, the earliest start
        picked.append(min(starts, key=costs.__getitem__ if limit_w is None else key))
        for k, p in enumerate(profile):
            load[picked[-1] + k] += p
    return ScheduleResult(
        {app.id: s for app, s in zip(apps, picked)},
        _sum_in_order(costs[s] for costs, s in zip(costs_per_app, picked)),
        feasible=max(load) <= limit,
        optimal=limit_w is None,
        method="greedy",
        offending_slots=tuple(i for i, l in enumerate(load) if l > limit),
    )


# -- Demand response -------------------------------------------------------------


class DrIssuer(Enum):
    AGGREGATOR = "aggregator"
    EMERGENCY = "emergency"


@dataclass(frozen=True)
class DrCommand:
    p_limit_w: float
    t_start: float
    t_end: float
    issuer: DrIssuer = DrIssuer.AGGREGATOR

    def __post_init__(self) -> None:
        if not 0 < self.p_limit_w < math.inf:  # written so that NaN fails too
            raise ValueError(f"p_limit_w must be positive and finite, got {self.p_limit_w}")
        if not self.t_start < self.t_end:
            raise ValueError(
                f"need t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class SiteLoad:
    id: str
    power_w: float
    interruptible: bool = False
    controllable: bool = True
    curtailed: bool = False


@dataclass
class Site:
    """Mutable demand-response state of one household."""

    site_id: str
    loads: list[SiteLoad]
    battery: Battery | None = None
    base_load_w: float = 0.0
    command: DrCommand | None = None  # the window the curtailed loads are off for


@dataclass(slots=True)
class DrStepResult:
    p_grid_w: float
    curtailed_ids: tuple[str, ...]
    battery_discharge_w: float
    in_window: bool


def dr_site_step(
    site: Site,
    cmd: DrCommand | None,
    t: float,
    dt_s: float,
) -> DrStepResult:
    """One tick of demand response for one site.

    Inside the command window, controllable loads are curtailed until the
    site total drops to the limit, interruptible loads first, then by
    descending power, then by id; any residual excess goes to the battery.
    Curtailed loads stay off until a call outside the window or with another
    command, so a window that starts where the last one ends curtails afresh.
    The issuer does not change the load policy; an emergency window's limit
    on the meter is the caller's to arm.
    """
    in_window = cmd is not None and cmd.t_start <= t < cmd.t_end
    if not in_window or cmd is not site.command:
        for load in site.loads:
            load.curtailed = False
        site.command = cmd if in_window else None
    total = site.base_load_w + _sum_in_order(l.power_w for l in site.loads if not l.curtailed)
    if not in_window:
        return DrStepResult(total, (), 0.0, False)

    assert cmd is not None
    candidates = sorted(
        (l for l in site.loads if l.controllable and not l.curtailed),
        key=lambda l: (not l.interruptible, -l.power_w, l.id),
    )
    for load in candidates:
        if total <= cmd.p_limit_w:
            break
        load.curtailed = True
        total -= load.power_w

    discharge = 0.0
    if total > cmd.p_limit_w and site.battery is not None:
        discharge = site.battery.discharge(total - cmd.p_limit_w, dt_s)
    curtailed = tuple(l.id for l in site.loads if l.curtailed)
    # Loads and base load are never negative: a total below zero is the
    # rounding left by the subtractions above.
    return DrStepResult(max(total - discharge, 0.0), curtailed, discharge, True)


# -- Aggregated flexibility -------------------------------------------------------


@dataclass(frozen=True)
class MevuCluster:
    """A flexibility offer: sites that lower their draw below a baseline over
    one settlement `window`, in scenario seconds, against a capacity offer.

    Prices are deliberately in base units so the settlement formula is
    literal: energy price in EUR per Wh, capacity price in EUR per W per
    hour of window.
    """

    cluster_id: str
    members: tuple[str, ...]
    capacity_offer_w: float
    energy_price_eur_per_wh: float
    capacity_price_eur_per_w_h: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("members must not be empty")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"members must differ, got {list(self.members)}")
        if not 0 <= self.capacity_offer_w < math.inf:  # NaN too
            raise ValueError(f"capacity_offer_w must be finite and >= 0, got {self.capacity_offer_w}")
        if not self.window[0] < self.window[1]:  # NaN too
            raise ValueError(f"window must start before it ends, got {self.window}")
        for name in ("energy_price_eur_per_wh", "capacity_price_eur_per_w_h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Settlement:
    delivered_flex_wh: float
    per_member_flex_wh: dict[str, float]
    capacity_eur: float
    energy_eur: float

    @property
    def total_eur(self) -> float:
        return self.capacity_eur + self.energy_eur


def mevu_settle(
    cluster: MevuCluster,
    baseline_w: Mapping[str, Sequence[float]],
    actual_w: Mapping[str, Sequence[float]],
    tick_s: float,
) -> Settlement:
    """Settle the cluster's window: flexibility delivered below baseline,
    plus capacity.  `baseline_w` and `actual_w` hold each member's power at
    each tick of the window.

    delivered_flex_Wh = sum over members and ticks of
    max(baseline - actual, 0) * tick / 3600.  Remuneration is
    capacity_price * capacity_offer * window_hours plus
    energy_price * delivered_flex.  Only member sites contribute, whatever
    else the series carry.
    """
    t_start, t_end = cluster.window
    span = t_end - t_start
    expected_len = int(round(span / tick_s))
    if abs(expected_len * tick_s - span) > 1e-9:
        raise ValueError(f"window span {span} s is not a multiple of tick_s={tick_s}")
    per_member: dict[str, float] = {}
    for member in cluster.members:
        if member not in baseline_w or member not in actual_w:
            raise ValueError(f"series missing for member {member!r}")
        base = np.asarray(baseline_w[member], dtype=np.float64)
        act = np.asarray(actual_w[member], dtype=np.float64)
        if len(base) != expected_len or len(act) != expected_len:
            raise ValueError(
                f"{member}: series must have {expected_len} ticks, got "
                f"baseline {len(base)}, actual {len(act)}"
            )
        per_member[member] = float(
            np.maximum(base - act, 0.0).sum() * tick_s / 3600.0
        )
    delivered = _sum_in_order(per_member.values())
    window_h = span / 3600.0
    return Settlement(
        delivered_flex_wh=delivered,
        per_member_flex_wh=per_member,
        capacity_eur=cluster.capacity_price_eur_per_w_h
        * cluster.capacity_offer_w
        * window_h,
        energy_eur=cluster.energy_price_eur_per_wh * delivered,
    )


def settlement_to_csv(path: str, cluster: MevuCluster, settlement: Settlement) -> None:
    """Write one settlement as CSV: one row per member, one cluster total row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scope", "id", "delivered_flex_Wh", "energy_eur", "capacity_eur", "total_eur"]
        )
        for member in cluster.members:
            flex = settlement.per_member_flex_wh[member]
            writer.writerow(
                [
                    "member",
                    member,
                    f"{flex:.6f}",
                    f"{flex * cluster.energy_price_eur_per_wh:.6f}",
                    "",
                    "",
                ]
            )
        writer.writerow(
            [
                "cluster",
                cluster.cluster_id,
                f"{settlement.delivered_flex_wh:.6f}",
                f"{settlement.energy_eur:.6f}",
                f"{settlement.capacity_eur:.6f}",
                f"{settlement.total_eur:.6f}",
            ]
        )
