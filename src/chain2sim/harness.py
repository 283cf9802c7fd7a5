"""Scenario runner: wires meters, channels, devices and automation together.

A scenario is a fleet of independent user pipelines advanced over a common
tick grid:

    profile -> (DR curtailment) -> (peak shaving) -> meter.step
            -> channel -> pairing gate -> device

Users never interact (demand-response commands are broadcast but applied
per site), so the runner simulates each link start to finish on its own,
one user after another on the calling thread.  Per-user seeds derive from
(master seed, pod), so the result does not depend on the order of the user
list.

The meter never feeds back into power: demand response reaches it only by
arming an emergency limit, and supply events are injected.  So each user's
grid power series is built up front, and `Meter.step_series` steps only the
ticks where a frame can be emitted, over pieces split at those injections.
Each frame goes through the channel to the device as soon as it is sent.
The device sees the same frames in the same order as a receiver that waits
for each arrival: the link is FIFO (arrival times rise in send order) and
nothing reads the device during a run.  The gate is the user's pairing
window from the portal, fixed before any user runs.

Frames travel as records: the device gets the meter's own `CompactFrame`.
The channel drops whole frames and never damages a bit, so a wire image
would decode back to an equal record; nothing changes a frame, and the
device copies out only values.  `validate_config` checks up front that every
frame fits its wire fields, and the codec in `frames` stays the tested wire
format.

Statistics follow one frame end to end, on one ledger per link: a Counter
keyed (frame type, day, disposition) that counts every frame the meter
sends exactly once, under its final disposition.  The day is that of the
observation the frame reports.  The disposition is `LinkOutcome.LOST` when
the channel drops the frame, `LinkOutcome.GATED` when it arrives outside
the pairing window, and otherwise `LinkOutcome.PROCESSED`: the link is in
order and sends each frame once, so `Device.on_frame` takes every frame the
gate passes, with no dedup window (one comes back with any channel that
retransmits or reorders).  A frame counts as received when it is processed.
At the end of a run each link's books must balance:

    frames on the ledger = the meter's final sequence number
    processed on the ledger = the device's own processed count
    the device's sequence gaps = lost + gated

A failure is a bug, not a statistic, and raises `ReconciliationError`,
which carries the link's ledger.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import sys
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Any, Iterable, Sequence

import numpy as np

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
from chain2sim.device import Device, DeviceConfig, TariffSchedule, TariffWindow
from chain2sim import frames
from chain2sim.frames import CompactFrame, EnergyDirection, FrameType, SupplyEventKind

# The run carries frames as records and calls no codec.  These two names stay
# bound here because the benchmark's span tracer (perfbench/tracer.py) wraps
# `chain2sim.harness:encode_frame` and `:decode_frame` by name.
from chain2sim.frames import decode_frame, encode_frame  # noqa: F401
from chain2sim.meter import QUARTER_S, Meter, MeterConfig
from chain2sim.portal import MeterGeneration, PodRecord, Portal
from chain2sim.profiles import PRESETS, household_profile, profile_from_csv, profile_peak_w
from chain2sim.seeds import derive

DAY_S = 86400

FRAME_TYPE_NAMES = tuple(t.name for t in FrameType)  # in report order

_T1 = FrameType.T1


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
    # The samples of `profile_csv` over the run, read-only: validate_config
    # reads and checks the file once and keeps them here for the run.
    profile_w: np.ndarray | None = field(default=None, compare=False, repr=False)


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
    import yaml  # only scenario files need it; the import costs about 20 ms

    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    # OSError: an unreadable file; ValueError: say, an int too long to parse.
    except (OSError, yaml.YAMLError, ValueError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
    return validate_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


_REQUIRED = object()
_FLAGS = {True: True, False: False}
_LOSS_MODELS = {"bernoulli": BernoulliLoss, "gilbert_elliott": GilbertElliottLoss}


def _show(value: Any) -> str:
    """repr(value); an int with more digits than Python prints (see
    sys.get_int_max_str_digits) is shown by its digit count."""
    with contextlib.suppress(ValueError):
        return repr(value)
    if type(value) is int:
        import decimal  # here, not at the top: rarely needed, and 0.3 MB resident
        return f"an integer of {decimal.Decimal(value).adjusted() + 1} digits"
    return f"a {type(value).__name__} holding an integer too long to print"


def _reader(read_value: Any) -> Any:
    """Make `read_value(self, value, path, ...)` a reader of `value` at
    `path`, or of `raw[key]` at `path.key` when given a mapping and a key.
    A missing or null value gives `default`, or a `required` error."""

    @functools.wraps(read_value)
    def read(self, raw, path, key=None, default=_REQUIRED, **kwargs):
        if key is not None:
            raw, path = raw.get(key), f"{path}.{key}" if path else key
        if raw is None:
            return self.fail(path, "required") if default is _REQUIRED else default
        return read_value(self, raw, path, **kwargs)

    return read


class _Reader:
    """Reads every scenario value, each checked once.

    A reader checks a value's type (a bool is never a number), that a number
    is finite, and the range given to it.  A failed read records
    `<path>: <reason>` in `errors` and returns None.  A range rule that a
    domain constructor enforces belongs to it alone: `build` calls it.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, reason: object) -> None:
        self.errors.append(f"{path}: {reason}")

    @_reader
    def number(self, value, path, *, integer=False, gt=None, ge=None, le=None):
        """A finite float, or with `integer` an int; a numeric string such as
        "3000" parses, and an integral float counts as an integer."""
        x = math.nan
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            with contextlib.suppress(ValueError, OverflowError):
                x = float(value)
        if integer and type(value) is int:
            x = value  # exact, however large
        elif not math.isfinite(x) or (integer and not x.is_integer()):
            kind = "an integer" if integer else "a finite number"
            return self.fail(path, f"expected {kind}, got {_show(value)}")
        elif integer:
            x = int(x)
        if not ((gt is None or x > gt) and (ge is None or x >= ge) and (le is None or x <= le)):
            bounds = ((">", gt), (">=", ge), ("<=", le))
            rule = " and ".join(f"{op} {b}" for op, b in bounds if b is not None)
            return self.fail(path, f"must be {rule}, got {_show(value)}")
        return x

    @_reader
    def string(self, value, path):
        """Text; an unquoted YAML number stands for its digits."""
        with contextlib.suppress(ValueError):  # an int too long to print
            if not isinstance(value, bool) and isinstance(value, (str, int, float)):
                return str(value)
        return self.fail(path, f"expected a string, got {_show(value)}")

    @_reader
    def choice(self, value, path, options):
        """The option keyed by the value, case-insensitively: a value of the
        mapping `options`, or one of a list of names or enum members."""
        if not isinstance(options, dict):
            options = {getattr(o, "name", o).lower(): o for o in options}
        name = value.lower() if isinstance(value, str) else value
        if type(name) in (str, bool) and name in options:
            return options[name]
        return self.fail(path, f"expected one of {sorted(map(str, options))}, got {_show(value)}")

    @_reader
    def mapping(self, value, path):
        if not isinstance(value, dict):
            return self.fail(path, f"expected a mapping, got {_show(value)}")
        return value

    @_reader
    def items(self, value, path, size=None):
        """A list, of exactly `size` items when given."""
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            kind = "a list" if size is None else f"a list of {size}"
            return self.fail(path, f"expected {kind}, got {_show(value)}")
        return value

    @_reader
    def numbers(self, value, path, size=None, **bounds):
        """A list of numbers as a tuple; an item's error names the list."""
        if self.items(value, path, size=size) is None:
            return None
        out = tuple(self.number(x, path, **bounds) for x in value)
        return None if None in out else out

    def floats(self, raw: dict, path: str, cls: Any) -> dict[str, float] | None:
        """Each float field of dataclass `cls`, read under its own name with
        the field's default."""
        out = {}
        for f in fields(cls):
            if f.type in (float, "float"):
                default = _REQUIRED if f.default is MISSING else f.default
                out[f.name] = self.number(raw, path, f.name, default)
        return None if None in out.values() else out

    def build(self, path: str, make: Any, *args: Any, **kwargs: Any) -> Any:
        """`make(*args, **kwargs)`, a constructor that owns the range rules of
        the values passed.  Its ValueError is recorded at `path.<name>` when
        the message starts with a keyword's name, else at `path`."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            return self.fail(f"{path}.{name}", rest) if name in kwargs else self.fail(path, exc)


def _parse_tariff(read: _Reader, raw: dict, path: str) -> TariffSchedule | None:
    tariff = read.mapping(raw, path, "tariff", None)
    if tariff is None:
        return None
    path = f"{path}.tariff"
    feed_in = read.number(tariff, path, "feed_in", None)
    if tariff.get("flat") is not None:
        price = read.number(tariff, path, "flat")
        return None if price is None else read.build(path, TariffSchedule.flat, price, feed_in)
    mark = len(read.errors)
    windows = []
    for k, w in enumerate(read.items(tariff, path, "windows", ()) or ()):
        w_path = f"{path}.windows[{k}]"
        if read.items(w, w_path, size=3) is not None:
            start, end = (read.number(v, w_path, integer=True) for v in w[:2])
            windows.append(TariffWindow(start, end, read.number(w[2], w_path)))
    if len(read.errors) > mark:
        return None
    return read.build(path, TariffSchedule, windows, feed_in)


def _parse_channel(read: _Reader, raw: dict) -> ChannelConfig | None:
    channel = read.mapping(raw, "", "channel", {}) or {}
    loss = None
    loss_raw = read.mapping(channel, "channel", "loss", None)
    if loss_raw:  # an empty mapping, like none at all, means a lossless link
        model = read.choice(loss_raw, "channel.loss", "model", BernoulliLoss, options=_LOSS_MODELS)
        params = model and read.floats(loss_raw, "channel.loss", model)
        if params is not None:
            loss = read.build("channel.loss", model, **params)
    params = read.floats(channel, "channel", ChannelConfig)
    return None if params is None else read.build("channel", ChannelConfig, loss=loss, **params)


def _parse_user(
    read: _Reader, raw: Any, path: str, base_dir: str, tick_s: int, duration_s: int
) -> UserSpec | None:
    user = read.mapping(raw, path)
    if user is None:
        return None
    mark = len(read.errors)
    pod = read.string(user, path, "pod_id")
    if pod is not None and not frames.is_pod_id(pod):
        read.fail(f"{path}.pod_id", f"must be 14 ASCII alphanumeric characters, got {pod!r}")
    pn = read.number(user, path, "pn_w")
    threshold = read.number(user, path, "energy_threshold_wh", None)
    if pn is not None:  # the meter owns the pn_w and energy_threshold_wh rules
        read.build(path, MeterConfig, pn_w=pn, energy_threshold_wh=threshold, tick_s=tick_s)
    battery = read.mapping(user, path, "battery", None)
    params = None if battery is None else read.floats(battery, f"{path}.battery", BatterySpec)
    if params is not None and read.build(f"{path}.battery", Battery, **params):
        battery = BatterySpec(**params)
    appliances = []
    for j, a in enumerate(read.items(user, path, "appliances", ()) or ()):
        a_path = f"{path}.appliances[{j}]"
        if read.mapping(a, a_path) is None:
            continue
        app = dict(
            id=read.string(a, a_path, "id"),
            profile_w=read.numbers(a, a_path, "profile_w"),
            earliest_start_s=read.number(a, a_path, "earliest_start_s", 0, integer=True),
            deadline_s=read.number(a, a_path, "deadline_s", duration_s, integer=True),
            interruptible=read.choice(a, a_path, "interruptible", False, options=_FLAGS),
            controllable=read.choice(a, a_path, "controllable", True, options=_FLAGS),
        )
        if None not in app.values():
            appliances.append(read.build(a_path, Appliance, **app))
    events: list[tuple[int, SupplyEventKind]] = []
    for j, pair in enumerate(read.items(user, path, "supply_events", ()) or ()):
        e_path = f"{path}.supply_events[{j}]"
        if read.items(pair, e_path, size=2) is None:
            continue
        t_ev = read.number(pair[0], e_path, integer=True)
        kind = read.choice(pair[1], e_path, options=SupplyEventKind)
        if t_ev is not None and (t_ev % tick_s != 0 or not 0 <= t_ev < duration_s):
            read.fail(e_path, f"t={t_ev} must be tick-aligned inside the run")
        events.append((t_ev, kind))
    spec = dict(
        pod_id=pod,
        pn_w=pn,
        building_class=read.choice(user, path, "building_class", "B", options=tuple(PRESETS)),
        profile_csv=read.string(user, path, "profile_csv", None),
        energy_threshold_wh=threshold,
        alarm_limit_w=read.number(user, path, "alarm_limit_w", None, gt=0),
        tariff=_parse_tariff(read, user, path),
        battery=battery,
        peak_shave_limit_w=read.number(user, path, "peak_shave_limit_w", None, gt=0),
        revoke_at_s=read.number(user, path, "revoke_at_s", None),
        direction=read.choice(
            user, path, "direction", EnergyDirection.WITHDRAWN, options=EnergyDirection
        ),
    )
    if len(read.errors) > mark:
        return None
    spec = UserSpec(appliances=tuple(appliances), supply_events=tuple(sorted(events)), **spec)
    if spec.profile_csv is None:
        peak_w, peak_path = profile_peak_w(pn, spec.building_class), f"{path}.pn_w"
    else:
        spec, peak_w = _check_profile_csv(read, spec, path, base_dir, tick_s, duration_s)
        peak_path = f"{path}.profile_csv"
    if peak_w is not None:
        _check_wire_limits(read, spec, peak_w, tick_s, peak_path, f"{path}.energy_threshold_wh")
    return spec


def _check_profile_csv(
    read: _Reader, spec: UserSpec, path: str, base_dir: str, tick_s: int, duration_s: int
) -> tuple[UserSpec, float | None]:
    """Resolve a user's profile CSV against `base_dir` and check that it
    matches the scenario tick, covers the run, and holds no sample the
    meter would reject within the run (rows past the run are never read).
    Returns the spec, with the samples over the run when the CSV passes,
    and then also their peak."""
    csv_path = os.path.join(base_dir, spec.profile_csv)  # an absolute path stays as it is
    spec, path = replace(spec, profile_csv=csv_path), f"{path}.profile_csv"
    mark = len(read.errors)
    try:
        power, csv_tick = profile_from_csv(csv_path)
    except (OSError, ValueError) as exc:
        read.fail(path, exc)
        return spec, None
    if csv_tick != tick_s:
        read.fail(path, f"tick {csv_tick} s != scenario tick {tick_s} s")
        return spec, None
    if len(power) * tick_s < duration_s:
        read.fail(path, f"covers {len(power) * tick_s} s, need {duration_s} s")
    used = power[: duration_s // tick_s]
    bad = np.flatnonzero(~(used >= 0.0) | (used == np.inf))
    if bad.size:
        row = int(bad[0])
        sample = f"row {row} (t_s={row * csv_tick})"
        read.fail(path, f"{sample}: power_W must be finite and >= 0, got {power[row]}")
    if len(read.errors) > mark:
        return spec, None
    used.flags.writeable = False  # every run of the config shares it
    return replace(spec, profile_w=used), float(used.max())


def _check_wire_limits(
    read: _Reader, spec: UserSpec, profile_peak_w: float, tick_s: int, path: str, threshold_path: str
) -> None:
    """Reject a user whose frames could overflow a wire field, from a bound
    on its grid power: the profile peak plus each appliance's peak, or the
    peak-shaving limit if higher, since the battery charges only up to it.
    Demand response only lowers the load.  The T1 quarter energy (u16 Wh)
    is the tightest field; under it the u32 powers of T2 and T3 fit too.
    The bound is conservative: it does not credit a meter cutting the load."""
    peak_w = profile_peak_w + sum(max(app.profile_w) for app in spec.appliances)
    if spec.battery is not None and spec.peak_shave_limit_w is not None:
        peak_w = max(peak_w, spec.peak_shave_limit_w)
    quarter_wh = peak_w * QUARTER_S / 3600
    energy_max = frames.field_max(FrameType.T1, "energy_wh")
    if quarter_wh > energy_max:
        reason = f"{quarter_wh:.0f} Wh a quarter, over the {energy_max} Wh a T1 frame carries"
        read.fail(path, f"grid power may reach {peak_w:.0f} W: {reason}")
    if spec.energy_threshold_wh is not None:
        alarm_wh = spec.energy_threshold_wh + peak_w * tick_s / 3600
        value_max = frames.field_max(FrameType.T3, "value")
        if alarm_wh > value_max:
            reason = f"over the {value_max} Wh a T3 frame carries"
            read.fail(threshold_path, f"the energy alarm may report {alarm_wh:.0f} Wh, {reason}")


def validate_config(raw: Any, base_dir: str = ".") -> ScenarioConfig:
    """Turn a parsed YAML document into a ScenarioConfig.

    Raises:
        ConfigError: for any other input, listing every problem at its path.
    """
    read = _Reader()
    raw = read.mapping(raw, "top level")
    if raw is None:
        raise ConfigError(read.errors)
    tick_s = read.number(raw, "", "tick_s", 60, integer=True, ge=1)
    if tick_s and QUARTER_S % tick_s:
        read.fail("tick_s", f"must divide {QUARTER_S}, got {tick_s}")
    tick_s = 60 if not tick_s or QUARTER_S % tick_s else tick_s  # go on checking with 60 s
    # `days: N` stands for `duration_s: N * 86400` and is reported as it.
    days = read.number(raw.get("days"), "duration_s", default=None, integer=True)
    duration_s = read.number(
        raw.get("duration_s", days and days * DAY_S),
        "duration_s",
        default=_REQUIRED if raw.get("days") is None else None,
        integer=True,
        ge=1,
        le=frames.TIMESTAMP_MAX,  # frame headers stamp run times in seconds
    )
    if duration_s and duration_s % tick_s:
        read.fail("duration_s", f"must be a multiple of tick_s, got {duration_s}")
    duration_s = DAY_S if not duration_s or duration_s % tick_s else duration_s
    seed = read.number(raw, "", "seed", 0, integer=True)
    # seeds.derive hashes the seed's digits; Pythons before 3.10.7 print any int.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if seed is not None and limit and abs(seed) >= 10**limit:
        read.fail("seed", f"must have at most {limit} digits, got {_show(seed)}")
    channel = _parse_channel(read, raw)

    pairing = read.mapping(raw, "", "pairing", {}) or {}
    mode = read.choice(pairing, "pairing", "mode", "pre_active", options=("pre_active", "portal"))
    delay = read.numbers(pairing, "pairing", "activation_delay_h", (1.0, 4.0), size=2)
    if delay is not None:  # the portal owns the activation window rule
        read.build("pairing.activation_delay_h", Portal, {}, activation_delay_h=delay)

    users: list[UserSpec] = []
    fleet = read.mapping(raw, "", "fleet", None)
    if fleet is not None:
        # Fleet pod ids carry the user's index in 8 digits.
        count = read.number(fleet, "fleet", "count", integer=True, ge=1, le=10**8)
        pn_choices = read.numbers(fleet, "fleet", "pn_choices_w", (3000.0, 4500.0, 6000.0), gt=0)
        classes = read.items(fleet, "fleet", "building_classes", tuple(PRESETS))
        path, names = "fleet.building_classes", PRESETS.keys()
        classes = classes and [read.choice(c, path, options=names) for c in classes]
        for key, value in (("pn_choices_w", pn_choices), ("building_classes", classes)):
            if value is not None and not value:
                read.fail(f"fleet.{key}", "must not be empty")
        fractions = [
            read.number(fleet, "fleet", key, 0.0, ge=0, le=1)
            for key in ("energy_threshold_fraction", "alarm_limit_fraction")
        ]
        if count and pn_choices and classes and None not in (*classes, *fractions):
            fleet_users = _fleet_users(count, pn_choices, classes, *fractions)
            # Fleet users differ only in these; check each kind once.
            kinds = {
                (profile_peak_w(u.pn_w, u.building_class), u.energy_threshold_wh): u
                for u in fleet_users
            }
            path = "fleet.pn_choices_w"
            for (peak_w, _), u in kinds.items():
                _check_wire_limits(read, u, peak_w, tick_s, path, path)
            users.extend(fleet_users)
    for i, raw_user in enumerate(read.items(raw, "", "users", ()) or ()):
        spec = _parse_user(read, raw_user, f"users[{i}]", base_dir, tick_s, duration_s)
        if spec is not None:
            users.append(spec)
    if not users and not read.errors:
        read.fail("users", "need at least one user (or a fleet section)")
    seen_pods = Counter(spec.pod_id for spec in users)
    for pod in (pod for pod, n in seen_pods.items() if n > 1):
        read.fail("users", f"duplicate pod_id {pod}")

    dr: list[tuple[str, DrCommand | None]] = []  # (path, command)
    feed_path = read.string(raw, "", "dr_feed", None)
    if feed_path:
        try:
            feed = load_dr_commands(os.path.join(base_dir, feed_path))
            dr.extend((f"dr_feed[{i}]", command) for i, command in enumerate(feed))
        except (OSError, ValueError) as exc:
            read.fail("dr_feed", exc)
    for i, c in enumerate(read.items(raw, "", "dr_commands", ()) or ()):
        path = f"dr_commands[{i}]"
        if read.mapping(c, path) is None:
            continue
        limits = read.floats(c, path, DrCommand)
        issuer = read.choice(c, path, "issuer", DrIssuer.AGGREGATOR, options=DrIssuer)
        if limits is not None and issuer is not None:
            dr.append((path, read.build(path, DrCommand, issuer=issuer, **limits)))
    # A site obeys one command at a time, so windows may not overlap (in start
    # order, any overlap shows between neighbours).
    ordered = sorted((e for e in dr if e[1] is not None), key=lambda e: e[1].t_start)
    for (a_path, a), (b_path, b) in zip(ordered, ordered[1:]):
        if b.t_start < a.t_end:
            window = f"[{b.t_start}, {b.t_end}) overlaps {a_path} [{a.t_start}, {a.t_end})"
            read.fail(b_path, f"window {window}")

    mevu = None
    m = read.mapping(raw, "", "mevu", None)
    if m is not None:
        members = read.items(m, "mevu", "members", ()) or ()
        members = tuple(read.string(p, "mevu.members") for p in members) or tuple(sorted(seen_pods))
        prices = {
            key: read.number(m, "mevu", key, 0.0)
            for key in ("capacity_offer_w", "energy_price_eur_per_wh", "capacity_price_eur_per_w_h")
        }
        window = read.numbers(m, "mevu", "window", (0, duration_s), size=2, integer=True)
        if unknown := [p for p in members if p not in seen_pods]:
            read.fail("mevu.members", f"unknown pods {unknown}")
        if window is not None and (
            not 0 <= window[0] < window[1] <= duration_s or window[0] % tick_s or window[1] % tick_s
        ):
            read.fail("mevu.window", f"must be tick-aligned inside [0, {duration_s}], got {window}")
        if None not in prices.values():  # the cluster owns the member and capacity rules
            read.build("mevu", MevuCluster, "cluster-0", members, dict.fromkeys(members), **prices)
        mevu = MevuSpec(members=members, window=window, **prices)

    if read.errors:
        raise ConfigError(read.errors)
    return ScenarioConfig(
        duration_s=duration_s,
        tick_s=tick_s,
        seed=seed,
        users=tuple(users),
        channel=channel,
        pairing_mode=mode,
        activation_delay_h=delay,
        dr_commands=tuple(command for _, command in dr),
        mevu=mevu,
    )


def _fleet_users(
    count: int,
    pn_choices: Sequence[float],
    classes: Sequence[str],
    threshold_fraction: float,
    alarm_fraction: float,
) -> list[UserSpec]:
    users = []
    for i in range(count):
        pn = pn_choices[i % len(pn_choices)]
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
                building_class=classes[i % len(classes)],
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
    classes, a share of users with energy alarms, plain consumption only.
    Checked like a scenario file, so a bad argument raises ConfigError."""
    fractions = {"energy_threshold_fraction": 0.5, "alarm_limit_fraction": 0.34}
    raw = {"fleet": {"count": n_users, **fractions}, "days": days, "tick_s": tick_s, "seed": seed}
    if p_loss != 0:
        raw["channel"] = {"loss": {"model": "bernoulli", "p_loss": p_loss}}
    return validate_config(raw)


# -- Statistics -----------------------------------------------------------------


class LinkOutcome(str, Enum):
    """A frame's final disposition on its link.  The link is in order and
    exactly once, so a frame delivered inside the pairing window is always
    processed.  A `str` mix-in, so that a member hashes in C: every ledger
    increment keys on one.  Outputs use `.value`, never the member's own
    format, which differs across Python versions."""

    PROCESSED = "processed"  # taken by `Device.on_frame`
    LOST = "lost"  # dropped by the channel
    GATED = "gated"  # delivered outside the pairing window


_PROCESSED, _LOST, _GATED = LinkOutcome


class ReconciliationError(RuntimeError):
    """A link's books do not balance: a bug in the pipeline, not a statistic.
    Carries the pod and its ledger, (frame type, day, disposition) -> frames."""

    def __init__(self, pod_id: str, ledger: Counter, problems: list[str]) -> None:
        super().__init__(f"{pod_id}: " + "; ".join(problems))
        self.pod_id = pod_id
        self.ledger = ledger


def _reconcile(pod_id: str, ledger: Counter, meter: Meter, device: Device) -> int:
    """Check one link's books (see the module docstring); returns the
    device's sequence gaps."""
    counts: Counter = Counter()  # disposition -> frames
    for (_, _, disposition), n in ledger.items():
        counts[disposition] += n
    problems = []
    sent = sum(counts.values())
    if sent != meter.last_seq:
        problems.append(f"sent {sent} != meter seq {meter.last_seq}")
    on_device = device.stats["processed"]
    if counts[_PROCESSED] != on_device:
        problems.append(f"processed {counts[_PROCESSED]} != device {on_device}")
    gaps = device.seq_gaps(final_seq=meter.last_seq)
    if gaps != counts[_LOST] + counts[_GATED]:
        problems.append(f"seq gaps {gaps} != lost {counts[_LOST]} + gated {counts[_GATED]}")
    if problems:
        raise ReconciliationError(pod_id, ledger, problems)
    return gaps


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
    ledger: Counter  # (frame type, day, disposition) -> frames
    seq_gaps: int
    processed_log: list[tuple[float, int]] | None  # (arrival t, seq), with_details only
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


def _build_profile(spec: UserSpec, config: ScenarioConfig) -> np.ndarray:
    if spec.profile_csv is not None:
        return spec.profile_w
    rng = np.random.default_rng(derive(config.seed, "profile", spec.pod_id))
    return household_profile(rng, spec.pn_w, config.duration_s, config.tick_s, spec.building_class)


def _schedule_appliances(spec: UserSpec, config: ScenarioConfig) -> list[tuple[Appliance, int]]:
    """Pick start slots for the user's appliances (cheapest under the tariff,
    earliest on a flat one); returns (appliance, start slot) pairs."""
    if not spec.appliances:
        return []
    n_slots = config.duration_s // QUARTER_S
    prices = [0.0] * n_slots if spec.tariff is None else spec.tariff.slot_prices(n_slots)
    result = load_shift_schedule(spec.appliances, prices, slot_s=QUARTER_S)
    return [(app, result.starts[app.id]) for app in spec.appliances]


def _appliance_power(scheduled, slot: int) -> list[float]:
    """The power of each scheduled appliance in quarter-hour `slot`."""
    return [
        app.profile_w[slot - start] if 0 <= slot - start < len(app.profile_w) else 0.0
        for app, start in scheduled
    ]


def _load_power(profile: np.ndarray, scheduled, tick: int) -> np.ndarray:
    """Household plus appliance power per tick: the appliance sum of each
    slot, in appliance order, added to every tick of the slot."""
    if not scheduled:
        return profile
    per_slot = QUARTER_S // tick
    n_slots = -(-len(profile) // per_slot)
    slot_w = np.array([sum(_appliance_power(scheduled, s)) for s in range(n_slots)], dtype=float)
    return profile + np.repeat(slot_w, per_slot)[: len(profile)]


class _ArmRecorder(dict):
    """Stands in for the meter in `dr_site_step`: records each emergency
    limit armed at tick index `i` as {i: (limit_w, until_s)}."""

    i = 0

    def arm_emergency_limit(self, limit_w: float, until_s: float) -> None:
        self[self.i] = (limit_w, until_s)


def _grid_power(
    spec: UserSpec, config: ScenarioConfig, profile: np.ndarray, scheduled
) -> tuple[np.ndarray, _ArmRecorder]:
    """The power the grid supplies at each tick, and the emergency limits
    demand response arms.  Outside a DR window the grid takes household plus
    appliance power, peak-shaved for a user with a limit and a battery;
    inside one, what `dr_site_step` leaves (the battery then belongs to the
    DR policy: recharging could breach the limit).  The battery state flows
    through both in tick order.  Nothing here reads the meter back."""
    tick = config.tick_s
    power = _load_power(profile, scheduled, tick)
    battery = spec.battery.build() if spec.battery else None
    loads = [SiteLoad(app.id, 0.0, app.interruptible, app.controllable) for app, _ in scheduled]
    site = Site(spec.pod_id, loads, battery)  # demand-response state, shared battery
    shave_w = spec.peak_shave_limit_w if battery is not None else None
    ticks = range(0, len(power) * tick, tick)
    window: dict[int, DrCommand] = {}  # tick index -> the command open at it
    for cmd in config.dr_commands:
        for i in range(bisect_left(ticks, cmd.t_start), bisect_left(ticks, cmd.t_end)):
            window.setdefault(i, cmd)
    arms = _ArmRecorder()
    if not window and shave_w is None:
        return power, arms
    if power is profile:  # the profile stays the settlement baseline
        power = profile.copy()
    # Without shaving, only window ticks and the tick after a window change.
    after = {i + 1 for i in window if i + 1 < len(power)}
    for i in range(len(power)) if shave_w is not None else sorted({*window, *after}):
        t = i * tick
        cmd = window.get(i)
        if cmd is not None:
            for load, p in zip(site.loads, _appliance_power(scheduled, t // QUARTER_S)):
                load.power_w = p
            site.base_load_w = float(profile[i])
            arms.i = i
            power[i] = dr_site_step(site, cmd, t, tick, arms).p_grid_w
            continue
        if i - 1 in window:  # restores the loads the window curtailed
            dr_site_step(site, None, t, tick)
        if shave_w is not None:
            power[i] = peak_shave_step(float(power[i]), shave_w, battery, tick).p_grid_w
    return power, arms


def _run_user(
    spec: UserSpec,
    config: ScenarioConfig,
    window: tuple[float, float],
    keep_actual: bool,
    keep_log: bool,
    user_dir: str | None,
) -> UserResult:
    """Simulate one user's link start to finish, gating frames on the pairing
    `window`; with `user_dir`, write the user's output files there."""
    tick = config.tick_s
    n = config.duration_s // tick
    profile = _build_profile(spec, config)
    baseline = profile if keep_actual else None  # the MEVU settlement baseline

    meter_config = MeterConfig(
        spec.pn_w, energy_threshold_wh=spec.energy_threshold_wh, tick_s=tick, direction=spec.direction
    )
    meter = Meter(spec.pod_id, meter_config)
    link = Channel(config.channel, derive(config.seed, "channel", spec.pod_id))
    device = Device(DeviceConfig(spec.pn_w, spec.alarm_limit_w, tariff=spec.tariff))

    scheduled = _schedule_appliances(spec, config)
    power, arms = _grid_power(spec, config, profile, scheduled)
    del profile
    events = deque(spec.supply_events)

    ledger: Counter = Counter()
    active_at, revoked_at = window
    # What the grid supplied: zero at a tick with the breaker open, the grid
    # power otherwise.
    actual = power.copy() if keep_actual else None
    processed_log: list[tuple[float, int]] | None = [] if keep_log else None

    transmit = link.transmit
    on_frame = device.on_frame

    def send(frame: CompactFrame) -> None:
        frame_type = frame.frame_type
        ts = frame.timestamp
        # T1 reports the quarter that ENDS at its timestamp; attribute it to
        # the day containing that quarter, not the day the boundary tick
        # falls in.
        day = (ts - 1) // DAY_S if frame_type is _T1 else ts // DAY_S
        t_arrive = transmit(frame_type, ts)
        if t_arrive is None:
            disposition = _LOST
        elif not active_at <= t_arrive < revoked_at:
            disposition = _GATED
        else:
            on_frame(frame)
            disposition = _PROCESSED
            if processed_log is not None:
                processed_log.append((t_arrive, frame.seq))
        ledger[frame_type, day, disposition] += 1

    # Split the series wherever something reaches into the meter: at a supply
    # event and at an emergency limit armed.  The meter itself finds the tick
    # where a limit expires.
    cuts = sorted({0, n, *arms, *(t // tick for t, _ in events if 0 <= t < config.duration_s)})
    for a, b in zip(cuts, cuts[1:]):
        t = a * tick
        while events and events[0][0] == t:
            for frame in meter.apply_supply_event(t, events.popleft()[1]):
                send(frame)
        if a in arms:
            meter.arm_emergency_limit(*arms[a])
        opened = b  # only a supply event closes the breaker, so it stays open to b
        for t, frames in meter.step_series(power[a:b], t):
            for frame in frames:
                send(frame)
            if opened == b and not meter.supply_on:
                opened = t // tick
        if actual is not None:
            actual[opened:b] = 0.0

    gaps = _reconcile(spec.pod_id, ledger, meter, device)
    if user_dir is not None:
        _write_user_files(user_dir, device, config.duration_s)
    return UserResult(
        pod_id=spec.pod_id,
        ledger=ledger,
        seq_gaps=gaps,
        processed_log=processed_log,
        profile_w=baseline,
        actual_w=actual,
    )


def _write_user_files(user_dir: str, device: Device, duration_s: int) -> None:
    """Write the per-user output files: the quarter series always, the
    supply events and notifications only when there are any."""
    os.makedirs(user_dir, exist_ok=True)
    with open(os.path.join(user_dir, "quarters.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quarter_start_s", "energy_Wh", "flag"])
        for q in range(0, duration_s - duration_s % QUARTER_S, QUARTER_S):
            record = device.quarters.get(q)
            if record is None:
                writer.writerow([q, "", "missing"])
            else:
                writer.writerow([q, record.energy_wh, "ok"])
    if device.event_log:
        with open(os.path.join(user_dir, "events.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t_s", "event", "duration_s"])
            for event in device.event_log:
                duration = "" if event.duration_s is None else event.duration_s
                writer.writerow([event.t, event.kind.name.lower(), duration])
    if device.notifications:
        with open(os.path.join(user_dir, "notifications.jsonl"), "w", newline="") as fh:
            for n in device.notifications:
                fh.write(
                    json.dumps({"t": n.t, "kind": n.kind, "message": n.message}, sort_keys=True)
                    + "\n"
                )


# -- Campaign runner --------------------------------------------------------------


@dataclass
class RunDetails:
    """Raw per-user results plus the pairing windows the gate enforced."""

    user_results: list[UserResult]
    pairing_windows: dict[str, tuple[float, float | None]]  # pod -> (active_at, revoked_at)


def _pairing_windows(config: ScenarioConfig) -> dict[str, tuple[float, float]]:
    """Each pod's `Portal.window`, fixed before any user runs."""
    registry = {s.pod_id: PodRecord(s.pod_id, MeterGeneration.SECOND, True) for s in config.users}
    rng = random.Random(derive(config.seed, "portal"))
    delay_h = (0.0, 0.0) if config.pairing_mode == "pre_active" else config.activation_delay_h
    portal = Portal(registry, rng=rng, activation_delay_h=delay_h)
    device_ids = {spec.pod_id: f"dev-{spec.pod_id}" for spec in config.users}
    # Pair in pod order so activation delays are independent of config order.
    for spec in sorted(config.users, key=lambda s: s.pod_id):
        portal.pair(spec.pod_id, device_ids[spec.pod_id], 0.0)
        if spec.revoke_at_s is not None:
            portal.revoke(spec.pod_id, device_ids[spec.pod_id], spec.revoke_at_s)
    return {pod: portal.window(pod, device) for pod, device in device_ids.items()}


def run(
    config: ScenarioConfig,
    out_dir: str | None = None,
    parallel: bool = True,
    with_details: bool = False,
) -> CampaignReport | tuple[CampaignReport, RunDetails]:
    """Run a scenario and reduce the per-user results into a report.

    Users run one after another, in pod order, on the calling thread.  With
    `out_dir`, writes per-user series under `users/<pod>/` as each user
    finishes, then `report.csv`, `report.txt`, and `settlement.csv` when a
    flexibility cluster is configured.  A run that raises part-way leaves
    the `users/<pod>/` series of the users that finished before it and no
    report.  `parallel` is accepted for compatibility and has no effect.
    `with_details=True` additionally returns the raw per-user results,
    including each user's processed-frame log, for cross-checks.
    """
    windows = _pairing_windows(config)
    mevu_members = set(config.mevu.members) if config.mevu else set()
    results = [
        _run_user(
            spec,
            config,
            windows[spec.pod_id],
            spec.pod_id in mevu_members,
            with_details,
            None if out_dir is None else os.path.join(out_dir, "users", spec.pod_id),
        )
        for spec in sorted(config.users, key=lambda s: s.pod_id)
    ]

    per_type: dict[str, TypeStats] = {}
    per_day: dict[int, dict[str, TypeStats]] = {}
    per_user: dict[str, dict[str, TypeStats]] = {}
    by_disposition: Counter = Counter()
    for result in results:
        user_map = per_user.setdefault(result.pod_id, {})
        for (frame_type, day, disposition), count in result.ledger.items():
            name = frame_type.name
            received = count if disposition is _PROCESSED else 0
            for stats in (
                per_type.setdefault(name, TypeStats()),
                per_day.setdefault(day, {}).setdefault(name, TypeStats()),
                user_map.setdefault(name, TypeStats()),
            ):
                stats.sent += count
                stats.received += received
            by_disposition[disposition] += count
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
        lost_total=by_disposition[_LOST],
        gated_total=by_disposition[_GATED],
    )

    if out_dir is not None:
        _write_outputs(out_dir, config, report, results)
    if with_details:
        pairings = {pod: (lo, None if hi == math.inf else hi) for pod, (lo, hi) in windows.items()}
        return report, RunDetails(results, pairings)
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
    by_pod = {r.pod_id: r for r in results}  # members keep both series
    baselines = {pod: by_pod[pod].profile_w[i0:i1] for pod in spec.members}
    actuals = {pod: by_pod[pod].actual_w[i0:i1] for pod in spec.members}
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
