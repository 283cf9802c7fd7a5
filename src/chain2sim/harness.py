"""Scenario runner: wires meters, channels, devices and automation together.

A scenario is a fleet of independent user pipelines advanced over a common
tick grid:

    profile -> (DR curtailment) -> (peak shaving) -> meter.step
            -> encode -> channel -> decode -> portal gate -> device

Users never interact (demand-response commands are broadcast but applied
per site), so the runner simulates each link start to finish on its own;
with per-user seeds derived from (master seed, pod) the result is
identical whether users run sequentially or on a thread pool, and whatever
the order of the user list.

Statistics follow one frame end to end.  Every frame a meter emits is
counted as sent under its frame type and the day of the observation it
reports; it is counted as received only if the channel delivered it, the
portal admitted it and the device processed it.  At the end of a run the
books must balance per link:

    sent = delivered + lost
    delivered = processed + gated + duplicates + too_old + unpaired

and the device-side sequence gaps (against the meter's final sequence
number) must equal lost + gated exactly.  A reconciliation failure is a
bug, not a statistic, and raises.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterable

import numpy as np
import yaml

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
from chain2sim.channel import BernoulliLoss, Channel, ChannelConfig, GilbertElliottLoss
from chain2sim.device import Device, DeviceConfig, Disposition, TariffSchedule, TariffWindow
from chain2sim.frames import (
    CompactFrame,
    EnergyDirection,
    FrameType,
    SupplyEventKind,
    decode_frame,
    encode_frame,
)
from chain2sim.meter import QUARTER_S, Meter, MeterConfig
from chain2sim.portal import MeterGeneration, PodRecord, Portal
from chain2sim.profiles import PRESETS, household_profile, profile_from_csv
from chain2sim.seeds import derive

DAY_S = 86400

FRAME_TYPE_NAMES = tuple(t.name for t in FrameType)


class ConfigError(Exception):
    """Raised on invalid scenario configuration; message lists field paths."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("invalid config:\n  " + "\n  ".join(errors))
        self.errors = errors


# -- Configuration model ---------------------------------------------------------


@dataclass(frozen=True)
class BatterySpec:
    capacity_wh: float
    p_charge_max_w: float
    p_discharge_max_w: float
    efficiency: float = 1.0
    soc_wh: float = 0.0

    def build(self) -> Battery:
        return Battery(
            self.capacity_wh,
            self.p_charge_max_w,
            self.p_discharge_max_w,
            self.efficiency,
            self.soc_wh,
        )


@dataclass(frozen=True)
class UserSpec:
    pod_id: str
    pn_w: float
    building_class: str = "B"
    profile_csv: str | None = None
    energy_threshold_wh: float | None = None
    alarm_limit_w: float | None = None
    tariff: TariffSchedule | None = None
    battery: BatterySpec | None = None
    peak_shave_limit_w: float | None = None
    appliances: tuple[Appliance, ...] = ()
    supply_events: tuple[tuple[int, SupplyEventKind], ...] = ()
    revoke_at_s: float | None = None
    direction: EnergyDirection = EnergyDirection.WITHDRAWN


@dataclass(frozen=True)
class MevuSpec:
    members: tuple[str, ...]
    capacity_offer_w: float
    energy_price_eur_per_wh: float
    capacity_price_eur_per_w_h: float
    window: tuple[float, float]


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: int
    tick_s: int
    seed: int
    users: tuple[UserSpec, ...]
    channel: ChannelConfig = ChannelConfig()
    pairing_mode: str = "pre_active"  # or "portal" (delayed activation)
    activation_delay_h: tuple[float, float] = (1.0, 4.0)
    dr_commands: tuple[DrCommand, ...] = ()
    mevu: MevuSpec | None = None


# -- Config parsing / validation ---------------------------------------------------


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a YAML scenario file."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping"])
    return validate_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _parse_tariff(raw: Any, path: str, errors: list[str]) -> TariffSchedule | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    feed_in = raw.get("feed_in")
    try:
        if "flat" in raw:
            return TariffSchedule.flat(float(raw["flat"]), feed_in)
        windows = [
            TariffWindow(int(w[0]), int(w[1]), float(w[2]))
            for w in raw.get("windows", [])
        ]
        return TariffSchedule(windows, feed_in)
    except (ValueError, TypeError, IndexError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_channel(raw: Any, errors: list[str]) -> ChannelConfig:
    if raw is None:
        return ChannelConfig()
    if not isinstance(raw, dict):
        errors.append("channel: expected a mapping")
        return ChannelConfig()
    loss_raw = raw.get("loss")
    loss = None
    if loss_raw:
        model = loss_raw.get("model", "bernoulli")
        try:
            if model == "bernoulli":
                loss = BernoulliLoss(float(loss_raw["p_loss"]))
            elif model == "gilbert_elliott":
                loss = GilbertElliottLoss(
                    float(loss_raw["p_good_to_bad"]),
                    float(loss_raw["p_bad_to_good"]),
                    float(loss_raw.get("loss_good", 0.0)),
                    float(loss_raw.get("loss_bad", 0.5)),
                )
            else:
                errors.append(f"channel.loss.model: unknown model {model!r}")
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(f"channel.loss: {exc}")
    try:
        return ChannelConfig(
            rate_bps=float(raw.get("rate_bps", 4800.0)),
            proc_delay_s=float(raw.get("proc_delay_s", 0.05)),
            loss=loss,
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"channel: {exc}")
        return ChannelConfig()


def _parse_user(
    raw: Any, path: str, tick_s: int, duration_s: int, errors: list[str]
) -> UserSpec | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    sub_errors: list[str] = []

    def need(key: str, caster, default=None, required=False):
        if key not in raw or raw[key] is None:
            if required:
                sub_errors.append(f"{path}.{key}: required")
            return default
        try:
            return caster(raw[key])
        except (ValueError, TypeError) as exc:
            sub_errors.append(f"{path}.{key}: {exc}")
            return default

    pod = need("pod_id", str, required=True)
    if pod is not None and not (len(pod) == 14 and pod.isascii() and pod.isalnum()):
        sub_errors.append(
            f"{path}.pod_id: must be 14 ASCII alphanumeric characters, got {pod!r}"
        )
    pn = need("pn_w", float, required=True)
    if pn is not None and pn <= 0:
        sub_errors.append(f"{path}.pn_w: must be > 0, got {pn}")
    building = need("building_class", str, default="B")
    if building not in PRESETS:
        sub_errors.append(
            f"{path}.building_class: unknown class {building!r}, expected one of {sorted(PRESETS)}"
        )
    battery = None
    if raw.get("battery") is not None:
        try:
            battery = BatterySpec(**{k: float(v) for k, v in raw["battery"].items()})
            battery.build()  # validate eagerly
        except (TypeError, ValueError) as exc:
            sub_errors.append(f"{path}.battery: {exc}")
    appliances: list[Appliance] = []
    for j, a in enumerate(raw.get("appliances") or []):
        try:
            appliances.append(
                Appliance(
                    id=str(a["id"]),
                    profile_w=tuple(float(p) for p in a["profile_w"]),
                    earliest_start_s=int(a.get("earliest_start_s", 0)),
                    deadline_s=int(a.get("deadline_s", duration_s)),
                    interruptible=bool(a.get("interruptible", False)),
                    controllable=bool(a.get("controllable", True)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            sub_errors.append(f"{path}.appliances[{j}]: {exc}")
    events: list[tuple[int, SupplyEventKind]] = []
    for j, pair in enumerate(raw.get("supply_events") or []):
        try:
            t_ev = int(pair[0])
            kind = SupplyEventKind[str(pair[1]).upper()]
        except (KeyError, ValueError, TypeError, IndexError):
            sub_errors.append(f"{path}.supply_events[{j}]: expected [t, kind]")
            continue
        if t_ev % tick_s != 0 or not 0 <= t_ev < duration_s:
            sub_errors.append(
                f"{path}.supply_events[{j}]: t={t_ev} must be tick-aligned inside the run"
            )
        else:
            events.append((t_ev, kind))
    direction_raw = need("direction", str, default="withdrawn")
    try:
        direction = EnergyDirection[direction_raw.upper()]
    except KeyError:
        sub_errors.append(f"{path}.direction: unknown direction {direction_raw!r}")
        direction = EnergyDirection.WITHDRAWN
    spec = None
    if not sub_errors and pod is not None and pn is not None:
        spec = UserSpec(
            pod_id=pod,
            pn_w=pn,
            building_class=building,
            profile_csv=need("profile_csv", str),
            energy_threshold_wh=need("energy_threshold_wh", float),
            alarm_limit_w=need("alarm_limit_w", float),
            tariff=_parse_tariff(raw.get("tariff"), f"{path}.tariff", sub_errors),
            battery=battery,
            peak_shave_limit_w=need("peak_shave_limit_w", float),
            appliances=tuple(appliances),
            supply_events=tuple(sorted(events)),
            revoke_at_s=need("revoke_at_s", float),
            direction=direction,
        )
    errors.extend(sub_errors)
    return spec


def validate_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    """Turn a parsed YAML mapping into a ScenarioConfig.

    Raises:
        ConfigError: listing every problem found, one per field path.
    """
    errors: list[str] = []
    tick_s = raw.get("tick_s", 60)
    if not isinstance(tick_s, int) or tick_s < 1 or QUARTER_S % tick_s:
        errors.append(f"tick_s: must be a positive integer divisor of 900, got {tick_s}")
        tick_s = 60
    if "duration_s" in raw:
        duration_s = raw["duration_s"]
    elif "days" in raw:
        duration_s = raw["days"] * DAY_S if isinstance(raw["days"], int) else -1
    else:
        errors.append("duration_s: required (or give days)")
        duration_s = DAY_S
    if not isinstance(duration_s, int) or duration_s <= 0 or duration_s % tick_s:
        errors.append(
            f"duration_s: must be a positive multiple of tick_s, got {duration_s}"
        )
        duration_s = DAY_S
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
        seed = 0

    channel = _parse_channel(raw.get("channel"), errors)

    pairing_raw = raw.get("pairing") or {}
    mode = pairing_raw.get("mode", "pre_active")
    if mode not in ("pre_active", "portal"):
        errors.append(f"pairing.mode: must be pre_active or portal, got {mode!r}")
        mode = "pre_active"
    delay_raw = pairing_raw.get("activation_delay_h", [1.0, 4.0])
    try:
        delay = (float(delay_raw[0]), float(delay_raw[1]))
        if delay[0] < 0 or delay[1] < delay[0]:
            raise ValueError(f"bad window {delay}")
    except (ValueError, TypeError, IndexError) as exc:
        errors.append(f"pairing.activation_delay_h: {exc}")
        delay = (1.0, 4.0)

    users: list[UserSpec] = []
    fleet = raw.get("fleet")
    if fleet is not None:
        count = fleet.get("count", 0)
        if not isinstance(count, int) or count < 1:
            errors.append(f"fleet.count: must be a positive integer, got {count!r}")
            count = 0
        pn_choices = fleet.get("pn_choices_w", [3000.0, 4500.0, 6000.0])
        classes = fleet.get("building_classes", list(PRESETS))
        bad_classes = [c for c in classes if c not in PRESETS]
        if bad_classes:
            errors.append(f"fleet.building_classes: unknown classes {bad_classes}")
            classes = ["B"]
        threshold_fraction = float(fleet.get("energy_threshold_fraction", 0.0))
        alarm_fraction = float(fleet.get("alarm_limit_fraction", 0.0))
        users.extend(
            _fleet_users(count, pn_choices, classes, threshold_fraction, alarm_fraction)
        )
    for i, raw_user in enumerate(raw.get("users") or []):
        spec = _parse_user(raw_user, f"users[{i}]", tick_s, duration_s, errors)
        if spec is not None:
            users.append(spec)
    if not users and not errors:
        errors.append("users: need at least one user (or a fleet section)")
    seen_pods: set[str] = set()
    for idx, spec in enumerate(users):
        if spec.pod_id in seen_pods:
            errors.append(f"users: duplicate pod_id {spec.pod_id}")
        seen_pods.add(spec.pod_id)
        if spec.profile_csv is not None:
            csv_path = spec.profile_csv
            if not os.path.isabs(csv_path):
                csv_path = os.path.join(base_dir, csv_path)
                users[idx] = replace(spec, profile_csv=csv_path)
            try:
                power, csv_tick = profile_from_csv(csv_path)
                power_len = len(power)
                if csv_tick != tick_s:
                    errors.append(
                        f"users[{idx}].profile_csv: tick {csv_tick} s != scenario tick {tick_s} s"
                    )
                elif power_len * tick_s < duration_s:
                    errors.append(
                        f"users[{idx}].profile_csv: covers {power_len * tick_s} s, "
                        f"need {duration_s} s"
                    )
            except (OSError, ValueError) as exc:
                errors.append(f"users[{idx}].profile_csv: {exc}")

    dr_commands: list[DrCommand] = []
    if raw.get("dr_feed"):
        feed_path = raw["dr_feed"]
        if not os.path.isabs(feed_path):
            feed_path = os.path.join(base_dir, feed_path)
        try:
            dr_commands.extend(load_dr_commands(feed_path))
        except (OSError, ValueError) as exc:
            errors.append(f"dr_feed: {exc}")
    for i, c in enumerate(raw.get("dr_commands") or []):
        try:
            dr_commands.append(
                DrCommand(
                    float(c["p_limit_w"]),
                    float(c["t_start"]),
                    float(c["t_end"]),
                    DrIssuer(c.get("issuer", "aggregator")),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(f"dr_commands[{i}]: {exc}")

    mevu = None
    if raw.get("mevu") is not None:
        m = raw["mevu"]
        try:
            members = tuple(m.get("members") or sorted(seen_pods))
            window_raw = m.get("window", [0, duration_s])
            mevu = MevuSpec(
                members=members,
                capacity_offer_w=float(m.get("capacity_offer_w", 0.0)),
                energy_price_eur_per_wh=float(m.get("energy_price_eur_per_wh", 0.0)),
                capacity_price_eur_per_w_h=float(
                    m.get("capacity_price_eur_per_w_h", 0.0)
                ),
                window=(float(window_raw[0]), float(window_raw[1])),
            )
            unknown = [p for p in members if p not in seen_pods]
            if unknown:
                errors.append(f"mevu.members: unknown pods {unknown}")
            w0, w1 = mevu.window
            if not (0 <= w0 < w1 <= duration_s) or w0 % tick_s or w1 % tick_s:
                errors.append(
                    f"mevu.window: must be tick-aligned inside [0, {duration_s}], got {mevu.window}"
                )
        except (ValueError, TypeError, IndexError) as exc:
            errors.append(f"mevu: {exc}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        duration_s=duration_s,
        tick_s=tick_s,
        seed=seed,
        users=tuple(users),
        channel=channel,
        pairing_mode=mode,
        activation_delay_h=delay,
        dr_commands=tuple(dr_commands),
        mevu=mevu,
    )


def _fleet_users(
    count: int,
    pn_choices: Iterable[float],
    classes: Iterable[str],
    threshold_fraction: float,
    alarm_fraction: float,
) -> list[UserSpec]:
    pn_list = [float(p) for p in pn_choices]
    class_list = list(classes)
    users = []
    for i in range(count):
        pn = pn_list[i % len(pn_list)]
        threshold = None
        if threshold_fraction > 0 and (i % max(1, round(1 / threshold_fraction))) == 0:
            threshold = pn * 3.0  # crosses within the first day for most homes
        alarm = None
        if alarm_fraction > 0 and (i % max(1, round(1 / alarm_fraction))) == 1:
            alarm = 0.8 * pn
        users.append(
            UserSpec(
                pod_id=f"IT001E{i:08d}",
                pn_w=pn,
                building_class=class_list[i % len(class_list)],
                energy_threshold_wh=threshold,
                alarm_limit_w=alarm,
            )
        )
    return users


def default_campaign(
    n_users: int,
    days: int,
    p_loss: float,
    tick_s: int = 60,
    seed: int = 42,
) -> ScenarioConfig:
    """The stock multi-user campaign: mixed contract sizes and building
    classes, a share of users with energy alarms, plain consumption only."""
    loss = BernoulliLoss(p_loss) if p_loss > 0 else None
    return ScenarioConfig(
        duration_s=days * DAY_S,
        tick_s=tick_s,
        seed=seed,
        users=tuple(
            _fleet_users(
                n_users,
                [3000.0, 4500.0, 6000.0],
                list(PRESETS),
                threshold_fraction=0.5,
                alarm_fraction=0.34,
            )
        ),
        channel=ChannelConfig(loss=loss),
    )


# -- Statistics -----------------------------------------------------------------


@dataclass
class TypeStats:
    sent: int = 0
    received: int = 0

    @property
    def success_rate(self) -> float | None:
        if self.sent == 0:
            return None
        return self.received / self.sent


@dataclass
class UserResult:
    pod_id: str
    final_seq: int
    sent: Counter  # (type name, day) -> count
    received: Counter  # (type name, day) -> count
    lost: Counter  # type name -> count
    gated: int
    device_stats: dict[str, int]
    seq_gaps: int
    files: dict[str, str]  # file name under users/<pod>/ -> text
    processed_log: list[tuple[float, int]]
    profile_w: np.ndarray | None  # settlement baseline, MEVU members only
    actual_w: np.ndarray | None  # metered grid series, MEVU members only


@dataclass
class CampaignReport:
    config_summary: str
    per_type: dict[str, TypeStats]
    per_day: dict[int, dict[str, TypeStats]]
    per_user: dict[str, dict[str, TypeStats]]
    totals: TypeStats
    lost_total: int
    gated_total: int

    def to_csv_text(self) -> str:
        """Render the machine-readable report; stable byte-for-byte."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scope", "key", "frame_type", "sent", "received", "success_rate"])

        def emit(scope: str, key: str, ftype: str, stats: TypeStats) -> None:
            if stats.sent == 0:
                return
            writer.writerow(
                [scope, key, ftype, stats.sent, stats.received, f"{stats.success_rate:.6f}"]
            )

        for ftype in FRAME_TYPE_NAMES:
            emit("aggregate", "", ftype, self.per_type.get(ftype, TypeStats()))
        emit("aggregate", "", "all", self.totals)
        for day in sorted(self.per_day):
            for ftype in FRAME_TYPE_NAMES:
                emit("daily", str(day), ftype, self.per_day[day].get(ftype, TypeStats()))
            emit("daily", str(day), "all", _sum_stats(self.per_day[day].values()))
        for pod in sorted(self.per_user):
            for ftype in FRAME_TYPE_NAMES:
                emit("user", pod, ftype, self.per_user[pod].get(ftype, TypeStats()))
            emit("user", pod, "all", _sum_stats(self.per_user[pod].values()))
        return buf.getvalue()

    def to_table_text(self) -> str:
        """Human-readable summary: per-type totals and the daily breakdown."""
        lines = [self.config_summary, ""]
        lines.append(f"{'Frame type':<12}{'Sent':>10}{'Received':>10}  Success rate")
        for ftype in FRAME_TYPE_NAMES:
            stats = self.per_type.get(ftype)
            if not stats or stats.sent == 0:
                continue
            lines.append(
                f"{ftype:<12}{stats.sent:>10}{stats.received:>10}  {stats.success_rate * 100:10.4f} %"
            )
        lines.append(
            f"{'all':<12}{self.totals.sent:>10}{self.totals.received:>10}  "
            f"{(self.totals.success_rate or 0) * 100:10.4f} %"
        )
        lines.append("")
        lines.append("Daily success rate (all frame types):")
        for day, stats in summarize_daily(self):
            lines.append(
                f"  day {day:<4}{stats.sent:>10}{stats.received:>10}  "
                f"{(stats.success_rate or 0) * 100:10.4f} %"
            )
        lines.append("")
        lines.append(
            f"Frames lost on the channel: {self.lost_total}; withheld by pairing gate: {self.gated_total}"
        )
        worst = None
        for pod, stats_map in sorted(self.per_user.items()):
            rate = _sum_stats(stats_map.values()).success_rate
            if rate is not None and (worst is None or rate < worst[1]):
                worst = (pod, rate)
        if worst is not None:
            lines.append(f"Worst user: {worst[0]} at {worst[1] * 100:.4f} %")
        return "\n".join(lines) + "\n"


def _sum_stats(stats: Iterable[TypeStats]) -> TypeStats:
    total = TypeStats()
    for s in stats:
        total.sent += s.sent
        total.received += s.received
    return total


def summarize_daily(report: CampaignReport) -> list[tuple[int, TypeStats]]:
    """Per-day totals across frame types, day order."""
    return [
        (day, _sum_stats(report.per_day[day].values())) for day in sorted(report.per_day)
    ]


# -- Per-user pipeline -------------------------------------------------------------


def _observation_day(frame: CompactFrame) -> int:
    # T1 reports the quarter that ENDS at its timestamp; attribute it to the
    # day containing that quarter, not the day the boundary tick falls in.
    if frame.frame_type is FrameType.T1:
        return (frame.timestamp - 1) // DAY_S
    return frame.timestamp // DAY_S


def _build_profile(spec: UserSpec, config: ScenarioConfig) -> np.ndarray:
    if spec.profile_csv is not None:
        power, tick = profile_from_csv(spec.profile_csv)
        if tick != config.tick_s:
            raise ConfigError(
                [f"{spec.pod_id}: profile tick {tick} s != scenario tick {config.tick_s} s"]
            )
        n = config.duration_s // config.tick_s
        if len(power) < n:
            raise ConfigError(
                [f"{spec.pod_id}: profile covers {len(power)} ticks, need {n}"]
            )
        return power[:n]
    rng = np.random.default_rng(derive(config.seed, "profile", spec.pod_id))
    return household_profile(
        rng, spec.pn_w, config.duration_s, config.tick_s, spec.building_class
    )


def _schedule_appliances(
    spec: UserSpec, config: ScenarioConfig
) -> list[tuple[Appliance, int]]:
    """Pick start slots for the user's appliances (cheapest under the tariff,
    earliest on a flat one); returns (appliance, start slot) pairs."""
    if not spec.appliances:
        return []
    n_slots = config.duration_s // QUARTER_S
    if spec.tariff is not None:
        prices = spec.tariff.slot_prices(n_slots)
    else:
        prices = [0.0] * n_slots
    result = load_shift_schedule(spec.appliances, prices, slot_s=QUARTER_S)
    return [(app, result.starts[app.id]) for app in spec.appliances]


def _appliance_power(scheduled, slot: int) -> list[tuple[Appliance, float]]:
    powers = []
    for app, start in scheduled:
        k = slot - start
        powers.append((app, app.profile_w[k] if 0 <= k < len(app.profile_w) else 0.0))
    return powers


def _run_user(
    spec: UserSpec,
    config: ScenarioConfig,
    portal: Portal,
    device_id: str,
    keep_actual: bool,
) -> UserResult:
    tick = config.tick_s
    n = config.duration_s // tick
    profile = _build_profile(spec, config)
    baseline = profile if keep_actual else None
    power = profile.tolist()
    del profile  # only MEVU members keep the array, as their settlement baseline

    meter = Meter(
        spec.pod_id,
        MeterConfig(
            pn_w=spec.pn_w,
            energy_threshold_wh=spec.energy_threshold_wh,
            tick_s=tick,
            direction=spec.direction,
        ),
    )
    link = Channel(config.channel, derive(config.seed, "channel", spec.pod_id))
    device = Device(
        DeviceConfig(
            paired_pod=spec.pod_id,
            pn_w=spec.pn_w,
            alarm_limit_w=spec.alarm_limit_w,
            tariff=spec.tariff,
        )
    )

    battery = spec.battery.build() if spec.battery else None
    scheduled = _schedule_appliances(spec, config)
    site = None
    if config.dr_commands:
        site = Site(
            site_id=spec.pod_id,
            loads=[SiteLoad(app.id, 0.0, app.interruptible, app.controllable) for app, _ in scheduled],
            battery=battery,
        )
    events = deque(spec.supply_events)
    dr_commands = config.dr_commands

    sent: Counter = Counter()
    received: Counter = Counter()
    lost: Counter = Counter()
    gated = 0
    pending: deque = deque()  # (t_arrive, raw bytes, type name, day)
    actual = np.empty(n, dtype=np.float64) if keep_actual else None

    def send(frame: CompactFrame) -> None:
        raw = encode_frame(frame)
        name = FrameType(frame.frame_type).name
        day = _observation_day(frame)
        sent[(name, day)] += 1
        verdict = link.transmit(frame.frame_type, frame.timestamp)
        if verdict.delivered:
            pending.append((verdict.t_arrive, raw, name, day))
        else:
            lost[name] += 1

    def drain(t_limit: float) -> None:
        nonlocal gated
        while pending and pending[0][0] <= t_limit:
            t_arrive, raw, name, day = pending.popleft()
            frame = decode_frame(raw)
            if not portal.admits(spec.pod_id, device_id, t_arrive):
                gated += 1
                continue
            if device.on_frame(frame, t_arrive) is Disposition.PROCESSED:
                received[(name, day)] += 1

    for i in range(n):
        t = i * tick
        while events and events[0][0] == t:
            _, kind = events.popleft()
            for frame in meter.apply_supply_event(t, kind):
                send(frame)

        p_house = power[i]
        if scheduled:
            slot = t // QUARTER_S
            app_powers = _appliance_power(scheduled, slot)
            if site is not None:
                for load, (_, p) in zip(site.loads, app_powers):
                    load.power_w = p
            else:
                p_house += sum(p for _, p in app_powers)

        dr_active = False
        if site is not None:
            cmd = next(
                (c for c in dr_commands if c.t_start <= t < c.t_end), None
            )
            site.base_load_w = p_house
            result = dr_site_step(site, cmd, t, tick, meter)
            p_house = result.p_grid_w
            # While a command window is open the battery belongs to the DR
            # policy; opportunistic recharging must not breach the limit.
            dr_active = result.in_window

        if battery is not None and spec.peak_shave_limit_w is not None and not dr_active:
            p_house = peak_shave_step(
                p_house, spec.peak_shave_limit_w, battery, tick
            ).p_grid_w

        for frame in meter.step(p_house, t):
            send(frame)
        if actual is not None:
            # What the grid actually supplied: zero for any tick with the
            # breaker open, the policy output otherwise.
            actual[i] = p_house if meter.supply_on else 0.0
        drain(t + tick)
    drain(float("inf"))

    # Per-link reconciliation; a failure here is a pipeline bug.
    n_sent = sum(sent.values())
    n_lost = sum(lost.values())
    n_delivered = n_sent - n_lost
    stats = device.stats
    if n_sent != meter.last_seq:
        raise RuntimeError(f"{spec.pod_id}: sent {n_sent} != meter seq {meter.last_seq}")
    if n_delivered != (
        stats["processed"] + gated + stats["duplicates"] + stats["too_old"] + stats["unpaired"]
    ):
        raise RuntimeError(f"{spec.pod_id}: delivered frames do not reconcile")
    gaps = device.seq_gaps(final_seq=meter.last_seq)
    if gaps != n_lost + gated:
        raise RuntimeError(
            f"{spec.pod_id}: seq gaps {gaps} != lost {n_lost} + gated {gated}"
        )

    return UserResult(
        pod_id=spec.pod_id,
        final_seq=meter.last_seq,
        sent=sent,
        received=received,
        lost=lost,
        gated=gated,
        device_stats=dict(stats),
        seq_gaps=gaps,
        files=_user_files(device, config.duration_s),
        processed_log=device.processed_log,
        profile_w=baseline,
        actual_w=actual,
    )


def _user_files(device: Device, duration_s: int) -> dict[str, str]:
    """The per-user output files: the quarter series always, the supply
    events and notifications only when there are any."""
    files = {}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quarter_start_s", "energy_Wh", "flag"])
    for q in range(0, duration_s - duration_s % QUARTER_S, QUARTER_S):
        record = device.quarters.get(q)
        if record is None:
            writer.writerow([q, "", "missing"])
        else:
            writer.writerow([q, record.energy_wh, "ok"])
    files["quarters.csv"] = buf.getvalue()
    if device.event_log:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t_s", "event", "duration_s"])
        for event in device.event_log:
            duration = "" if event.duration_s is None else event.duration_s
            writer.writerow([event.t, event.kind.name.lower(), duration])
        files["events.csv"] = buf.getvalue()
    if device.notifications:
        files["notifications.jsonl"] = "".join(
            json.dumps({"t": n.t, "kind": n.kind, "message": n.message}, sort_keys=True)
            + "\n"
            for n in device.notifications
        )
    return files


# -- Campaign runner --------------------------------------------------------------


@dataclass
class RunDetails:
    """Raw per-user results plus the pairing windows the gate enforced."""

    user_results: list[UserResult]
    pairing_windows: dict[str, tuple[float, float | None]]  # pod -> (active_at, revoked_at)


def _build_portal(config: ScenarioConfig) -> tuple[Portal, dict[str, str]]:
    registry = {
        spec.pod_id: PodRecord(spec.pod_id, MeterGeneration.SECOND, True)
        for spec in config.users
    }
    portal = Portal(
        registry,
        rng=random.Random(derive(config.seed, "portal")),
        activation_delay_h=config.activation_delay_h,
    )
    device_ids = {spec.pod_id: f"dev-{spec.pod_id}" for spec in config.users}
    # Pair in pod order so activation delays are independent of config order.
    for spec in sorted(config.users, key=lambda s: s.pod_id):
        pairing = portal.pair(spec.pod_id, device_ids[spec.pod_id], 0.0)
        if config.pairing_mode == "pre_active":
            pairing.active_at = 0.0
        if spec.revoke_at_s is not None:
            portal.revoke(spec.pod_id, device_ids[spec.pod_id], spec.revoke_at_s)
    portal.activate_due(0.0)
    return portal, device_ids


def run(
    config: ScenarioConfig,
    out_dir: str | None = None,
    parallel: bool = True,
    with_details: bool = False,
) -> CampaignReport | tuple[CampaignReport, RunDetails]:
    """Run a scenario and reduce the per-user results into a report.

    With `out_dir`, writes `report.csv`, `report.txt`, per-user series under
    `users/<pod>/`, and `settlement.csv` when a flexibility cluster is
    configured.  `parallel=False` forces the plain sequential loop; both
    modes produce byte-identical outputs.  `with_details=True` additionally
    returns the raw per-user results for cross-checks.
    """
    portal, device_ids = _build_portal(config)
    keep_actual = config.mevu is not None
    mevu_members = set(config.mevu.members) if config.mevu else set()

    def job(spec: UserSpec) -> UserResult:
        return _run_user(
            spec,
            config,
            portal,
            device_ids[spec.pod_id],
            keep_actual and spec.pod_id in mevu_members,
        )

    if parallel and len(config.users) > 1:
        with ThreadPoolExecutor(max_workers=min(8, len(config.users))) as pool:
            results = list(pool.map(job, config.users))
    else:
        results = [job(spec) for spec in config.users]
    results.sort(key=lambda r: r.pod_id)

    per_type: dict[str, TypeStats] = {}
    per_day: dict[int, dict[str, TypeStats]] = {}
    per_user: dict[str, dict[str, TypeStats]] = {}
    lost_total = 0
    gated_total = 0
    for result in results:
        user_map = per_user.setdefault(result.pod_id, {})
        for (name, day), count in sorted(result.sent.items()):
            per_type.setdefault(name, TypeStats()).sent += count
            per_day.setdefault(day, {}).setdefault(name, TypeStats()).sent += count
            user_map.setdefault(name, TypeStats()).sent += count
        for (name, day), count in sorted(result.received.items()):
            per_type.setdefault(name, TypeStats()).received += count
            per_day.setdefault(day, {}).setdefault(name, TypeStats()).received += count
            user_map.setdefault(name, TypeStats()).received += count
        lost_total += sum(result.lost.values())
        gated_total += result.gated
    totals = _sum_stats(per_type.values())

    loss = config.channel.loss
    loss_text = "lossless"
    if isinstance(loss, BernoulliLoss):
        loss_text = f"p_loss={loss.p_loss}"
    elif isinstance(loss, GilbertElliottLoss):
        loss_text = "burst loss"
    report = CampaignReport(
        config_summary=(
            f"Scenario: {len(config.users)} users, {config.duration_s} s at "
            f"tick {config.tick_s} s, seed {config.seed}, {loss_text}"
        ),
        per_type=per_type,
        per_day=per_day,
        per_user=per_user,
        totals=totals,
        lost_total=lost_total,
        gated_total=gated_total,
    )

    if out_dir is not None:
        _write_outputs(out_dir, config, report, results)
    if with_details:
        windows = {}
        for spec in config.users:
            pairing = portal.pairing(spec.pod_id, device_ids[spec.pod_id])
            assert pairing is not None
            windows[spec.pod_id] = (pairing.active_at, pairing.revoked_at)
        return report, RunDetails(results, windows)
    return report


def _write_outputs(
    out_dir: str,
    config: ScenarioConfig,
    report: CampaignReport,
    results: list[UserResult],
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        fh.write(report.to_csv_text())
    with open(os.path.join(out_dir, "report.txt"), "w", newline="") as fh:
        fh.write(report.to_table_text())
    for result in results:
        user_dir = os.path.join(out_dir, "users", result.pod_id)
        os.makedirs(user_dir, exist_ok=True)
        for name, text in result.files.items():
            with open(os.path.join(user_dir, name), "w", newline="") as fh:
                fh.write(text)
    if config.mevu is not None:
        _write_settlement(out_dir, config, results)


def _write_settlement(
    out_dir: str, config: ScenarioConfig, results: list[UserResult]
) -> None:
    assert config.mevu is not None
    spec = config.mevu
    tick = config.tick_s
    i0 = int(spec.window[0]) // tick
    i1 = int(spec.window[1]) // tick
    baselines: dict[str, np.ndarray] = {}
    actuals: dict[str, np.ndarray] = {}
    by_pod = {r.pod_id: r for r in results}
    for pod in spec.members:
        result = by_pod[pod]
        assert result.profile_w is not None and result.actual_w is not None
        baselines[pod] = result.profile_w[i0:i1]
        actuals[pod] = result.actual_w[i0:i1]
    cluster = MevuCluster(
        cluster_id="cluster-0",
        members=spec.members,
        baseline_w=baselines,
        capacity_offer_w=spec.capacity_offer_w,
        energy_price_eur_per_wh=spec.energy_price_eur_per_wh,
        capacity_price_eur_per_w_h=spec.capacity_price_eur_per_w_h,
    )
    settlement = mevu_settle(cluster, actuals, spec.window, tick)
    settlement_to_csv(os.path.join(out_dir, "settlement.csv"), cluster, settlement)
