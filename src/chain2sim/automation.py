"""Automation policies layered on the metering data.

Four independent pieces, composable per scenario:

    Battery + peak_shave_step   storage dispatch that caps grid draw
    load_shift_schedule         appliance start-time optimization
    DrCommand + dr_site_step    externally commanded power limitation
    MevuCluster + mevu_settle   aggregated flexibility settlement

Everything here is a pure per-tick policy over explicit state; nothing
touches frames or channels directly.  The harness feeds policy outputs
into the meter as household power.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

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
        if capacity_wh <= 0:
            raise ValueError(f"capacity_wh must be positive, got {capacity_wh}")
        if p_charge_max_w < 0 or p_discharge_max_w < 0:
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


@dataclass(frozen=True)
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
    if limit_w <= 0:
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

    `profile_w` is the power drawn in each slot once started; the run is
    contiguous and non-preemptive.  `earliest_start_s` and `deadline_s`
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
        if not self.profile_w or any(p < 0 for p in self.profile_w):
            raise ValueError(f"{self.id}: profile must be non-empty, powers >= 0")
        if self.earliest_start_s < 0 or self.deadline_s <= self.earliest_start_s:
            raise ValueError(
                f"{self.id}: need 0 <= earliest_start_s < deadline_s, got "
                f"[{self.earliest_start_s}, {self.deadline_s}]"
            )

    def energy_wh(self, slot_s: int) -> float:
        return sum(self.profile_w) * slot_s / 3600.0


@dataclass(frozen=True)
class ScheduleResult:
    starts: dict[str, int]  # appliance id -> start slot index
    total_cost_eur: float
    feasible: bool
    optimal: bool
    method: str  # "exhaustive" or "greedy"
    offending_slots: tuple[int, ...] = ()


def _feasible_starts(app: Appliance, n_slots: int, slot_s: int) -> list[int]:
    dur = len(app.profile_w)
    first = -(-app.earliest_start_s // slot_s)  # ceil division
    last = min(app.deadline_s // slot_s, n_slots) - dur
    return list(range(first, last + 1))


def _start_cost(
    app: Appliance, start: int, prices: Sequence[float], slot_s: int
) -> float:
    kwh_per_slot = slot_s / 3600.0 / 1000.0
    return sum(
        p * kwh_per_slot * prices[start + k] for k, p in enumerate(app.profile_w)
    )


def load_shift_schedule(
    appliances: Sequence[Appliance],
    prices_eur_per_kwh: Sequence[float],
    grid_limit_w: float | None = None,
    *,
    slot_s: int = 900,
    exhaustive_cap: int = 2_000_000,
) -> ScheduleResult:
    """Choose one start slot per appliance minimizing total energy cost.

    Exhaustive search (branch and bound) when the combination count fits
    under `exhaustive_cap`, which covers any desk-scale instance; larger
    instances fall back to a per-appliance greedy pass and the result is
    labeled `optimal=False`.  Ties on cost are broken toward the earliest
    start, appliance ids considered in sorted order.

    With a `grid_limit_w`, the summed appliance power must stay at or below
    the limit in every slot.  If no combination satisfies it, the result has
    `feasible=False` and carries the combination with the least total excess
    energy together with the slots where it still violates the limit.

    Raises:
        ValueError: an appliance admits no feasible start at all (its own
            window is too tight for its run length), independent of the limit.
    """
    n_slots = len(prices_eur_per_kwh)
    if n_slots == 0:
        raise ValueError("prices_eur_per_kwh must be non-empty")
    apps = sorted(appliances, key=lambda a: a.id)
    if len({a.id for a in apps}) != len(apps):
        raise ValueError("appliance ids must be unique")

    starts_per_app: list[list[int]] = []
    costs_per_app: list[dict[int, float]] = []
    for app in apps:
        starts = _feasible_starts(app, n_slots, slot_s)
        if not starts:
            raise ValueError(
                f"{app.id}: no feasible start in [{app.earliest_start_s}, "
                f"{app.deadline_s}] for a {len(app.profile_w)}-slot run"
            )
        starts_per_app.append(starts)
        costs_per_app.append({s: _start_cost(app, s, prices_eur_per_kwh, slot_s) for s in starts})

    combos = 1
    for starts in starts_per_app:
        combos *= len(starts)
    if combos > exhaustive_cap:
        return _greedy_schedule(
            apps, starts_per_app, costs_per_app, grid_limit_w, n_slots, slot_s
        )

    # Lower bound for pruning: cheapest remaining placement per appliance.
    min_rest = [0.0] * (len(apps) + 1)
    for i in range(len(apps) - 1, -1, -1):
        min_rest[i] = min_rest[i + 1] + min(costs_per_app[i].values())

    best_cost = math.inf
    best_starts: list[int] | None = None
    load = [0.0] * n_slots
    chosen = [0] * len(apps)

    def dfs(i: int, cost_so_far: float) -> None:
        nonlocal best_cost, best_starts
        # Strict >= keeps the first-found optimum, i.e. the earliest-start
        # assignment in id order among equal-cost schedules.
        if cost_so_far + min_rest[i] >= best_cost:
            return
        if i == len(apps):
            best_cost = cost_so_far
            best_starts = chosen.copy()
            return
        profile = apps[i].profile_w
        for s in starts_per_app[i]:
            if grid_limit_w is not None:
                ok = True
                for k, p in enumerate(profile):
                    if load[s + k] + p > grid_limit_w:
                        ok = False
                        break
                if not ok:
                    continue
            for k, p in enumerate(profile):
                load[s + k] += p
            chosen[i] = s
            dfs(i + 1, cost_so_far + costs_per_app[i][s])
            for k, p in enumerate(profile):
                load[s + k] -= p

    dfs(0, 0.0)
    if best_starts is not None:
        return ScheduleResult(
            {app.id: s for app, s in zip(apps, best_starts)},
            best_cost,
            feasible=True,
            optimal=True,
            method="exhaustive",
        )
    return _least_excess_schedule(
        apps, starts_per_app, costs_per_app, grid_limit_w, n_slots, slot_s
    )


def _placement_excess(
    apps: Sequence[Appliance],
    starts: Sequence[int],
    limit_w: float,
    n_slots: int,
    slot_s: int,
) -> tuple[float, list[int]]:
    load = [0.0] * n_slots
    for app, s in zip(apps, starts):
        for k, p in enumerate(app.profile_w):
            load[s + k] += p
    excess_wh = sum(max(0.0, l - limit_w) for l in load) * slot_s / 3600.0
    slots = [i for i, l in enumerate(load) if l > limit_w]
    return excess_wh, slots


def _least_excess_schedule(apps, starts_per_app, costs_per_app, limit_w, n_slots, slot_s):
    # No combination satisfies the limit: report the least-bad one so the
    # caller can see exactly where and by how much it fails.
    best: tuple[float, float, tuple[int, ...]] | None = None
    best_slots: list[int] = []

    def walk(i: int, picked: list[int]) -> None:
        nonlocal best, best_slots
        if i == len(apps):
            excess, slots = _placement_excess(apps, picked, limit_w, n_slots, slot_s)
            cost = sum(costs_per_app[j][s] for j, s in enumerate(picked))
            key = (excess, cost, tuple(picked))
            if best is None or key < best:
                best = key
                best_slots = slots
            return
        for s in starts_per_app[i]:
            picked.append(s)
            walk(i + 1, picked)
            picked.pop()

    walk(0, [])
    assert best is not None
    excess, cost, starts = best
    return ScheduleResult(
        {app.id: s for app, s in zip(apps, starts)},
        cost,
        feasible=False,
        optimal=False,
        method="exhaustive",
        offending_slots=tuple(best_slots),
    )


def _greedy_schedule(apps, starts_per_app, costs_per_app, limit_w, n_slots, slot_s):
    load = [0.0] * n_slots
    placed: dict[str, int] = {}
    total = 0.0
    offending: set[int] = set()
    feasible = True
    for app, starts, costs in zip(apps, starts_per_app, costs_per_app):
        best_start = None
        best_key = None
        for s in starts:
            peaks = 0.0
            if limit_w is not None:
                for k, p in enumerate(app.profile_w):
                    peaks += max(0.0, load[s + k] + p - limit_w)
            key = (peaks, costs[s], s)
            if best_key is None or key < best_key:
                best_key = key
                best_start = s
        assert best_start is not None and best_key is not None
        placed[app.id] = best_start
        total += costs[best_start]
        for k, p in enumerate(app.profile_w):
            load[best_start + k] += p
            if limit_w is not None and load[best_start + k] > limit_w:
                offending.add(best_start + k)
                feasible = False
    return ScheduleResult(
        placed,
        total,
        feasible=feasible,
        optimal=False,
        method="greedy",
        offending_slots=tuple(sorted(offending)),
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
        if self.p_limit_w <= 0:
            raise ValueError(f"p_limit_w must be positive, got {self.p_limit_w}")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"need t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )


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
    armed_emergency: tuple[float, float, float] | None = field(default=None, repr=False)


@dataclass(frozen=True)
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
    meter=None,
) -> DrStepResult:
    """One tick of demand response for one site.

    Inside the command window, controllable loads are curtailed until the
    site total drops to the limit, interruptible loads first, then by
    descending power, then by id; any residual excess goes to the battery.
    Curtailed loads stay off for the rest of the window and are restored on
    the first tick after it.  An emergency command additionally arms the
    meter's switch-off countdown against the commanded limit (once per
    window) when a meter is passed in.
    """
    in_window = cmd is not None and cmd.t_start <= t < cmd.t_end
    if not in_window:
        for load in site.loads:
            load.curtailed = False
        site.armed_emergency = None
        total = site.base_load_w + sum(l.power_w for l in site.loads)
        return DrStepResult(total, (), 0.0, False)

    assert cmd is not None
    if cmd.issuer is DrIssuer.EMERGENCY and meter is not None:
        window_key = (cmd.t_start, cmd.t_end, cmd.p_limit_w)
        if site.armed_emergency != window_key:
            meter.arm_emergency_limit(cmd.p_limit_w, cmd.t_end)
            site.armed_emergency = window_key

    total = site.base_load_w + sum(l.power_w for l in site.loads if not l.curtailed)
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
    return DrStepResult(total - discharge, curtailed, discharge, True)


def load_dr_commands(path: str) -> list[DrCommand]:
    """Read a `t_start,t_end,p_limit_W,issuer` command feed."""
    commands: list[DrCommand] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"t_start", "t_end", "p_limit_W", "issuer"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: header must contain {sorted(required)}, got {reader.fieldnames}"
            )
        for i, row in enumerate(reader):
            try:
                issuer = DrIssuer(row["issuer"].strip())
            except ValueError:
                raise ValueError(
                    f"{path}: row {i}: unknown issuer {row['issuer']!r}"
                ) from None
            commands.append(
                DrCommand(
                    float(row["p_limit_W"]),
                    float(row["t_start"]),
                    float(row["t_end"]),
                    issuer,
                )
            )
    return commands


# -- Aggregated flexibility -------------------------------------------------------


@dataclass(frozen=True)
class MevuCluster:
    """Aggregation of sites offering flexibility against a declared baseline.

    Prices are deliberately in base units so the settlement formula is
    literal: energy price in EUR per Wh, capacity price in EUR per W per
    hour of window.
    """

    cluster_id: str
    members: tuple[str, ...]
    baseline_w: Mapping[str, Sequence[float]]
    capacity_offer_w: float
    energy_price_eur_per_wh: float
    capacity_price_eur_per_w_h: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member ids")
        missing = [m for m in self.members if m not in self.baseline_w]
        if missing:
            raise ValueError(f"baseline missing for members: {missing}")
        if self.capacity_offer_w < 0:
            raise ValueError("capacity_offer_w must be >= 0")


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
    actual_w: Mapping[str, Sequence[float]],
    window: tuple[float, float],
    tick_s: float,
) -> Settlement:
    """Settle one window: flexibility delivered below baseline, plus capacity.

    delivered_flex_Wh = sum over members and ticks of
    max(baseline - actual, 0) * tick / 3600.  Remuneration is
    capacity_price * capacity_offer * window_hours plus
    energy_price * delivered_flex.  Only member sites contribute, whatever
    else `actual_w` carries.
    """
    t_start, t_end = window
    if t_end <= t_start:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    span = t_end - t_start
    expected_len = int(round(span / tick_s))
    if abs(expected_len * tick_s - span) > 1e-9:
        raise ValueError(f"window span {span} s is not a multiple of tick_s={tick_s}")
    per_member: dict[str, float] = {}
    for member in cluster.members:
        if member not in actual_w:
            raise ValueError(f"actual series missing for member {member!r}")
        base = np.asarray(cluster.baseline_w[member], dtype=np.float64)
        act = np.asarray(actual_w[member], dtype=np.float64)
        if len(base) != expected_len or len(act) != expected_len:
            raise ValueError(
                f"{member}: series must have {expected_len} ticks, got "
                f"baseline {len(base)}, actual {len(act)}"
            )
        per_member[member] = float(
            np.maximum(base - act, 0.0).sum() * tick_s / 3600.0
        )
    delivered = sum(per_member.values())
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
