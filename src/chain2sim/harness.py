"""Scenario runner: wires meters, channels, devices and automation together.

A scenario is a fleet of independent user pipelines advanced over a common
tick grid:

    profile -> (DR curtailment) -> (peak shaving) -> meter
            -> channel -> pairing gate -> device

Users never interact (demand-response commands are broadcast but applied
per site), so the runner simulates each link start to finish on its own,
one user after another on the calling thread.  Per-user seeds derive from
(master seed, pod), so the result does not depend on the order of the user
list.

The meter never feeds back into power: demand response reaches it only by
arming an emergency limit, and supply events are injected.  So each user's
grid power series is built up front, and `Meter.emit_rows` runs it over
pieces split at those injections.

Frames travel as rows of integers (see `frames`), one block per link, each
stage taking the whole block in one numpy pass: the meter emits the rows
(a supply event's where it is injected),
`Channel.arrivals` gives each one's arrival time, the gate is a mask on
those times, and `Device.ingest` takes the rows the gate passes.  The
device sees the same frames in the same order as a receiver that waits for
each arrival: the link is FIFO (arrival times rise in send order) and
nothing reads the device during a run.  The gate is the user's pairing
window from the portal, fixed before any user runs: each pod activates
after a delay the portal draws from `ScenarioConfig.activation_delay_h`,
(0, 0) when the scenario pairs its pods pre-active.  The channel drops
whole frames and never damages a bit, so a wire image would decode back to
the same values; `validate_config` checks up front that every frame fits
its wire fields, and the codec in `frames` stays the tested wire format.
The scalar path (the per-tick meter `tests/reference.py:ScalarMeter`,
`encode_frame` and `decode_frame`, and the per-frame link and device
`tests/reference.py:ScalarChannel` and `ScalarDevice`) is the reference
the tests hold this run to, tick by tick and frame by frame.

Statistics follow one frame end to end, on one ledger per link: an int
array of frames per (day, frame type, disposition), which counts every
frame the meter sends exactly once, under its final disposition.  Every
link of a run has the same shape, a row for each day the run starts.  The
day is that of the observation the frame reports.  The disposition, the
index on the last axis, is `LinkOutcome.LOST` when the channel drops the
frame, `LinkOutcome.GATED` when it arrives outside the pairing window, and
otherwise `LinkOutcome.PROCESSED`: the link is in order and sends each
frame once, so `Device.ingest` takes every frame the gate passes, with no
dedup window (one comes back with any channel that retransmits or
reorders).  A frame counts as received when it is processed.
At the end of a run each link's books must balance:

    frames on the ledger = the meter's final sequence number
    processed on the ledger = the device's own processed count

The device's sequence gaps then equal lost + gated on their own: the
meter's sequence has no gaps and the device never sees a seq past it.

A failure is a bug, not a statistic, and raises `ReconciliationError`,
which carries the link's ledger.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import random
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import IntEnum
from json.encoder import encode_basestring_ascii
from typing import Any, Container, Sequence

import numpy as np

from chain2sim.automation import (
    Appliance,
    Battery,
    DrCommand,
    DrIssuer,
    DrStepResult,
    MevuCluster,
    Site,
    SiteLoad,
    dr_site_step,
    feasible_starts,
    load_shift_schedule,
    mevu_settle,
    peak_shave_step,
    settlement_to_csv,
)
from chain2sim.channel import BernoulliLoss, Channel, ChannelConfig, GilbertElliottLoss
from chain2sim.device import Device, DeviceConfig, TariffSchedule, TariffWindow
from chain2sim import frames
from chain2sim.frames import DAY_S, QUARTER_S, EnergyDirection, FrameType, SupplyEventKind

# The run carries frames as rows and calls no codec.  These two names stay
# bound here because the benchmark's span tracer (perfbench/tracer.py) wraps
# `chain2sim.harness:encode_frame` and `:decode_frame` by name.
from chain2sim.frames import decode_frame, encode_frame  # noqa: F401
from chain2sim.meter import Meter, MeterConfig
from chain2sim.portal import MeterGeneration, PodRecord, Portal
from chain2sim.profiles import PRESETS, household_profile, profile_from_csv, profile_peak_w
from chain2sim.seeds import derive

FRAME_TYPE_NAMES = tuple(t.name for t in FrameType)  # in report order

MAX_USER_TICKS = 366 * DAY_S  # a leap year at 1 s ticks: a float per tick in each user array

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
    energy_threshold_wh: float | None = None
    alarm_limit_w: float | None = None
    tariff: TariffSchedule | None = None
    battery: BatterySpec | None = None
    peak_shave_limit_w: float | None = None
    appliances: tuple[Appliance, ...] = ()
    supply_events: tuple[tuple[int, SupplyEventKind], ...] = ()
    revoke_at_s: float | None = None
    direction: EnergyDirection = EnergyDirection.WITHDRAWN
    # The user's own power samples, one a tick from t = 0, for a profile not
    # generated: validate_config reads a `profile_csv` file into them, over
    # the run and read-only.  The run takes its first duration_s // tick_s.
    profile_w: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: int
    tick_s: int
    seed: int
    users: tuple[UserSpec, ...]
    channel: ChannelConfig = ChannelConfig()
    activation_delay_h: tuple[float, float] = (0.0, 0.0)  # hours; (0, 0) pairs pre-active
    dr_commands: tuple[DrCommand, ...] = ()
    mevu: MevuCluster | None = None


# -- Config parsing / validation ---------------------------------------------------


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a YAML scenario file."""
    import yaml  # only scenario files need it; the import costs about 20 ms

    try:
        with open(path) as fh:
            # libyaml's loader where pyyaml has it: the same documents, faster.
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
        """The option keyed by the value, case-insensitively and with the
        blanks around it ignored: a value of the mapping `options`, or one of
        a list of names or enum members."""
        if not isinstance(options, dict):
            options = {getattr(o, "name", o).lower(): o for o in options}
        name = value.strip().lower() if isinstance(value, str) else value
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
        appliance = None if None in app.values() else read.build(a_path, Appliance, **app)
        if appliance is None:
            continue
        if any(other.id == appliance.id for other in appliances):
            read.fail(f"{a_path}.id", f"duplicate appliance id {appliance.id!r}")
        # The scheduler's own rule, over the quarter-hour slots of the run.
        elif read.build(a_path, feasible_starts, appliance, duration_s // QUARTER_S):
            appliances.append(appliance)
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
    csv_name = read.string(user, path, "profile_csv", None)
    spec = dict(
        pod_id=pod,
        pn_w=pn,
        building_class=read.choice(user, path, "building_class", "B", options=tuple(PRESETS)),
        energy_threshold_wh=threshold,
        alarm_limit_w=read.number(user, path, "alarm_limit_w", None, gt=0),
        tariff=_parse_tariff(read, user, path),
        battery=battery,
        peak_shave_limit_w=read.number(user, path, "peak_shave_limit_w", None, gt=0),
        revoke_at_s=read.number(user, path, "revoke_at_s", None, ge=0),  # paired at 0
        direction=read.choice(
            user, path, "direction", EnergyDirection.WITHDRAWN, options=EnergyDirection
        ),
    )
    if spec["peak_shave_limit_w"] is not None and user.get("battery") is None:
        read.fail(f"{path}.peak_shave_limit_w", "needs a battery to shave with")
    if len(read.errors) > mark:
        return None
    spec = UserSpec(appliances=tuple(appliances), supply_events=tuple(events), **spec)
    if csv_name is None:
        peak_w, peak_path = profile_peak_w(pn, spec.building_class), f"{path}.pn_w"
    else:
        peak_path = f"{path}.profile_csv"
        csv_path = os.path.join(base_dir, csv_name)  # an absolute path stays as it is
        spec, peak_w = _check_profile_csv(read, spec, csv_path, peak_path, tick_s, duration_s)
    if peak_w is not None:
        _check_wire_limits(read, spec, peak_w, tick_s, peak_path, f"{path}.energy_threshold_wh")
    return spec


def _check_profile_csv(
    read: _Reader, spec: UserSpec, csv_path: str, path: str, tick_s: int, duration_s: int
) -> tuple[UserSpec, float | None]:
    """Read a user's profile CSV, reported at `path`, and check that it
    matches the scenario tick, covers the run, and holds no sample the
    meter would reject within the run (rows past the run are never read).
    Returns the spec, with the samples over the run as its `profile_w` when
    the CSV passes, and then also their peak."""
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
    if raw.get("days") is not None and raw.get("duration_s") is not None:
        read.fail("duration_s", "give duration_s or days, not both")
    duration_s = read.number(
        raw.get("duration_s", days and days * DAY_S),
        "duration_s",
        default=_REQUIRED if raw.get("days") is None else None,
        integer=True,
        ge=1,
        # Frame headers stamp run times in seconds, and a user's run holds
        # at most MAX_USER_TICKS ticks.
        le=min(frames.TIMESTAMP_MAX, MAX_USER_TICKS * tick_s),
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
    if mode == "pre_active":  # checked all the same, but every pod pairs at once
        delay = (0.0, 0.0)

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

    # The feed's rows first, in file order, each read as a `dr_commands` entry.
    feed_name = read.string(raw, "", "dr_feed", None)
    entries = [] if not feed_name else _dr_feed_rows(read, os.path.join(base_dir, feed_name))
    entries += [
        (f"dr_commands[{i}]", c) for i, c in enumerate(read.items(raw, "", "dr_commands", ()) or ())
    ]
    dr: list[tuple[str, DrCommand | None]] = []  # (path, command)
    for path, c in entries:
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
        listed = read.items(m, "mevu", "members", None)
        if listed is not None and not listed:
            read.fail("mevu.members", "must not be empty")
        members = [read.string(p, "mevu.members") for p in listed or ()]
        # A member that failed to read is already reported; skip it.  With
        # none left (or none listed), the members are every user.
        members = tuple(p for p in members if p is not None) or tuple(sorted(seen_pods))
        prices = {
            key: read.number(m, "mevu", key, 0.0)
            for key in ("capacity_offer_w", "energy_price_eur_per_wh", "capacity_price_eur_per_w_h")
        }
        window = read.numbers(m, "mevu", "window", (0, duration_s), size=2, integer=True)
        # An unread window is already reported: check the rest over the whole run.
        window = window or (0, duration_s)
        read.errors += _mevu_errors(members, window, seen_pods, duration_s, tick_s)
        if None not in prices.values():  # the cluster's own rules
            mevu = read.build(
                "mevu", MevuCluster, "cluster-0", members=members, window=window, **prices
            )

    if read.errors:
        raise ConfigError(read.errors)
    return ScenarioConfig(
        duration_s=duration_s,
        tick_s=tick_s,
        seed=seed,
        users=tuple(users),
        channel=channel,
        activation_delay_h=delay,
        dr_commands=tuple(command for _, command in dr),
        mevu=mevu,
    )


def _dr_feed_rows(read: _Reader, path: str) -> list[tuple[str, dict[str, str]]]:
    """The rows of a `t_start,t_end,p_limit_W,issuer` feed as (path,
    `dr_commands` entry) pairs; a short row reads as empty fields."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            columns = ("t_start", "t_end", "p_limit_W", "issuer")
            if not set(columns).issubset(reader.fieldnames or ()):
                reason = f"header must contain {sorted(columns)}, got {reader.fieldnames}"
                read.fail("dr_feed", f"{path}: {reason}")
                return []
            rows = list(reader)
    # ValueError: say, bytes that are not text; csv.Error: say, a field too long.
    except (OSError, ValueError, csv.Error) as exc:
        read.fail("dr_feed", exc)
        return []
    return [(f"dr_feed[{i}]", {k.lower(): row[k] for k in columns}) for i, row in enumerate(rows)]


def _mevu_errors(
    members: Sequence[str], window: Sequence[float], pods: Container[str], duration_s: int, tick_s: int
) -> list[str]:
    """Why a cluster of `members` over `window` cannot settle on a run of
    the users `pods`: a member that is not a user, or a
    window off the tick grid or outside the run.  An empty window is the
    cluster's own rule."""
    errors = []
    if unknown := [p for p in members if p not in pods]:
        errors.append(f"mevu.members: unknown pods {unknown}")
    t0, t1 = window
    if not (0 <= t0 and t1 <= duration_s) or t0 % tick_s or t1 % tick_s:
        errors.append(f"mevu.window: must be tick-aligned inside [0, {duration_s}], got {window}")
    return errors


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


class LinkOutcome(IntEnum):
    """A frame's final disposition on its link, and its index on the last
    axis of a ledger.  The link is in order and exactly once, so a frame
    delivered inside the pairing window is always processed."""

    PROCESSED = 0  # taken by the device
    LOST = 1  # dropped by the channel
    GATED = 2  # delivered outside the pairing window


class ReconciliationError(RuntimeError):
    """A link's books do not balance: a bug in the pipeline, not a statistic.
    Carries the pod and its ledger, frames per (day, frame type, disposition)."""

    def __init__(self, pod_id: str, ledger: np.ndarray, problems: list[str]) -> None:
        super().__init__(f"{pod_id}: " + "; ".join(problems))
        self.pod_id = pod_id
        self.ledger = ledger


def _reconcile(pod_id: str, ledger: np.ndarray, meter: Meter, device: Device) -> None:
    """Check one link's books (see the module docstring)."""
    problems = []
    sent = int(ledger.sum())
    if sent != meter.last_seq:
        problems.append(f"sent {sent} != meter seq {meter.last_seq}")
    processed = int(ledger[..., LinkOutcome.PROCESSED].sum())
    on_device = device.stats["processed"]
    if processed != on_device:
        problems.append(f"processed {processed} != device {on_device}")
    if problems:
        raise ReconciliationError(pod_id, ledger, problems)


def _ledger_shape(duration_s: int) -> tuple[int, int, int]:
    """(days, frame types, dispositions): a row for each day the run starts."""
    return -(-duration_s // DAY_S), len(FrameType), len(LinkOutcome)


def _ledger(rows: np.ndarray, outcome: np.ndarray, duration_s: int) -> np.ndarray:
    """A link's ledger, frames per (day, frame type, disposition), from its
    frame rows and each one's `LinkOutcome`.  A T1 counts on the day of the
    quarter it closes, which ends at its timestamp; any other frame on the
    day of its timestamp."""
    shape = _ledger_shape(duration_s)
    types = rows[:, frames.TYPE]
    day = (rows[:, frames.TIMESTAMP] - (types == _T1)) // DAY_S
    key = (day * shape[1] + types - 1) * shape[2] + outcome
    return np.bincount(key, minlength=math.prod(shape)).reshape(shape)


@dataclass
class TypeStats:
    sent: int = 0
    received: int = 0

    @property
    def success_rate(self) -> float | None:
        if self.sent == 0:
            return None
        return self.received / self.sent


def _stats(counts: np.ndarray) -> dict[str, TypeStats]:
    """The map of a block of frames per (frame type, disposition): each frame
    type that sent any, by name, and "all"."""
    sent, received = counts.sum(1).tolist(), counts[:, LinkOutcome.PROCESSED].tolist()
    stats = {name: TypeStats(s, r) for name, s, r in zip(FRAME_TYPE_NAMES, sent, received) if s}
    stats["all"] = TypeStats(sum(sent), sum(received))
    return stats


@dataclass
class UserResult:
    """What the report and the settlement need of one finished user."""

    pod_id: str
    ledger: np.ndarray  # frames per (day, frame type, disposition)
    profile_w: np.ndarray | None  # settlement baseline, MEVU members only
    actual_w: np.ndarray | None  # metered grid series, MEVU members only


@dataclass
class CampaignReport:
    """Frame counts per scope, each map keyed by frame type name and "all"."""

    config_summary: str
    per_type: dict[str, TypeStats]
    per_day: dict[int, dict[str, TypeStats]]
    per_user: dict[str, dict[str, TypeStats]]
    lost_total: int
    gated_total: int

    @property
    def totals(self) -> TypeStats:
        return self.per_type["all"]

    def to_csv_text(self) -> str:
        """Render the machine-readable report; stable byte-for-byte."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scope", "key", "frame_type", "sent", "received", "success_rate"])
        scopes = [
            ("aggregate", "", self.per_type),
            *(("daily", str(day), self.per_day[day]) for day in sorted(self.per_day)),
            *(("user", pod, self.per_user[pod]) for pod in sorted(self.per_user)),
        ]
        for scope, key, stats_map in scopes:
            for ftype in (*FRAME_TYPE_NAMES, "all"):
                stats = stats_map.get(ftype)
                if stats is not None and stats.sent:
                    rate = f"{stats.success_rate:.6f}"
                    writer.writerow([scope, key, ftype, stats.sent, stats.received, rate])
        return buf.getvalue()

    def to_table_text(self) -> str:
        """Human-readable summary: per-type totals and the daily breakdown."""

        def row(label: str, stats: TypeStats) -> str:
            rate = (stats.success_rate or 0) * 100
            return f"{label}{stats.sent:>10}{stats.received:>10}  {rate:10.4f} %"

        lines = [self.config_summary, ""]
        lines.append(f"{'Frame type':<12}{'Sent':>10}{'Received':>10}  Success rate")
        for ftype in (*FRAME_TYPE_NAMES, "all"):
            stats = self.per_type.get(ftype, TypeStats())
            if stats.sent or ftype == "all":
                lines.append(row(f"{ftype:<12}", stats))
        lines += ["", "Daily success rate (all frame types):"]
        lines += [row(f"  day {day:<4}", self.per_day[day]["all"]) for day in sorted(self.per_day)]
        lines.append("")
        lines.append(
            f"Frames lost on the channel: {self.lost_total}; withheld by pairing gate: {self.gated_total}"
        )
        rated = [(pod, stats["all"].success_rate) for pod, stats in sorted(self.per_user.items())]
        worst = min((r for r in rated if r[1] is not None), key=lambda r: r[1], default=None)
        if worst is not None:
            lines.append(f"Worst user: {worst[0]} at {worst[1] * 100:.4f} %")
        return "\n".join(lines) + "\n"


# -- Per-user pipeline -------------------------------------------------------------


def _build_profile(spec: UserSpec, config: ScenarioConfig) -> np.ndarray:
    """The household power at each tick of the run: the user's own samples
    over the run, or a profile drawn from the user's seed."""
    if spec.profile_w is not None:
        # The sum makes a -0.0 sample +0.0, as `dr_site_step` sums a site, so
        # a user the run does not step meters what the per-tick loop meters.
        return spec.profile_w[: config.duration_s // config.tick_s] + 0.0
    rng = np.random.default_rng(derive(config.seed, "profile", spec.pod_id))
    return household_profile(rng, spec.pn_w, config.duration_s, config.tick_s, spec.building_class)


def _schedule_appliances(spec: UserSpec, config: ScenarioConfig) -> list[tuple[Appliance, int]]:
    """Pick start slots for the user's appliances (cheapest under the tariff,
    earliest on a flat one); returns (appliance, start slot) pairs."""
    if not spec.appliances:
        return []
    n_slots = config.duration_s // QUARTER_S
    prices = [0.0] * n_slots if spec.tariff is None else spec.tariff.slot_prices(n_slots)
    result = load_shift_schedule(spec.appliances, prices)
    return [(app, result.starts[app.id]) for app in spec.appliances]


def _appliance_table(scheduled, n_slots: int) -> np.ndarray:
    """Each scheduled appliance's power in each quarter-hour slot, as a
    (slots x appliances) array: row `s` holds slot `s`, in appliance order.
    The scheduler fits every run inside the slots."""
    table = np.zeros((n_slots, len(scheduled)))
    for j, (app, start) in enumerate(scheduled):
        table[start : start + len(app.profile_w), j] = app.profile_w
    return table


def _site_power(
    profile: np.ndarray, table: np.ndarray, per_slot: int, loads, start: int, end: int
) -> np.ndarray:
    """Household plus uncurtailed appliance power at ticks start..end-1,
    summed as `dr_site_step` sums a site: in each slot's row of `table`, the
    columns of the loads not curtailed, in order from 0.0, then the sum added
    to every tick of the slot.  A new array, so a -0.0 sample becomes +0.0."""
    lo = start // per_slot
    slot_w = np.zeros(-(-end // per_slot) - lo)
    for load, column in zip(loads, table[lo : lo + len(slot_w)].T):
        if not load.curtailed:
            slot_w = slot_w + column
    slot_ticks = np.repeat(slot_w, per_slot)[start - lo * per_slot : end - lo * per_slot]
    return profile[start:end] + slot_ticks


def _dr_runs(
    commands: Sequence[DrCommand], n: int, tick: int
) -> tuple[dict[int, tuple[int, DrCommand]], dict[int, tuple[float, float]]]:
    """The runs of the `n` ticks that one command holds, as {first tick:
    (end tick, command)}, the command listed first holding an overlap; and
    the emergency limits to arm, as {tick index: (limit_w, until_s)}: each
    run an emergency command holds arms its limit at its first tick."""
    ticks = range(0, n * tick, tick)
    holder = np.full(n, -1)  # the index of the command open at each tick
    for k in reversed(range(len(commands))):
        holder[bisect_left(ticks, commands[k].t_start) : bisect_left(ticks, commands[k].t_end)] = k
    bounds = [0, *(np.flatnonzero(np.diff(holder)) + 1).tolist(), n]
    runs = {a: (b, commands[holder[a]]) for a, b in zip(bounds, bounds[1:]) if holder[a] >= 0}
    arms = {a: (c.p_limit_w, c.t_end) for a, (_, c) in runs.items() if c.issuer is DrIssuer.EMERGENCY}
    return runs, arms


def _grid_power(
    spec: UserSpec, config: ScenarioConfig, profile: np.ndarray, scheduled
) -> tuple[np.ndarray, dict[int, tuple[float, float]]]:
    """The power the grid supplies at each tick of the run, and the
    emergency limits to arm, as {tick index: (limit_w, until_s)}, from
    `_dr_runs`.  Outside a DR window the grid takes household plus
    appliance power, peak-shaved for a user with a limit and a battery;
    inside one, what `dr_site_step` leaves (the battery then belongs to the
    DR policy: recharging could breach the limit).  The battery state flows
    through both in tick order.  Nothing here reads the meter back.

    Only the ticks where a policy can act are stepped.  Each DR run steps
    its first tick, which restores what an earlier run curtailed.  After
    it, a tick whose household plus uncurtailed load is at or under the
    limit curtails nothing and discharges nothing: it takes that total,
    `_site_power` of the uncurtailed loads, and only the ticks over the
    limit are stepped; the totals are summed again only when
    a step curtails another load.  Once every controllable load is curtailed,
    a site without a battery has nothing left to act with, and the rest of
    the window takes the totals too.  Between windows, `_shave_walk` steps
    the battery in one walk, as `peak_shave_step` would tick by tick, with
    the state of charge in locals; it hands that back to the battery before
    each window.  A battery exactly full with the load at or under the limit
    neither charges nor discharges (`Battery.charge` gives 0 W), so from
    such a tick the walk jumps to the next window or load over the limit,
    and the ticks it passes keep their load.  `peak_shave_step` itself only
    checks the limit, up front."""
    tick = config.tick_s
    n = config.duration_s // tick
    per_slot = QUARTER_S // tick
    table = _appliance_table(scheduled, -(-n // per_slot))
    battery = spec.battery.build() if spec.battery else None
    loads = [SiteLoad(app.id, 0.0, app.interruptible, app.controllable) for app, _ in scheduled]
    site = Site(spec.pod_id, loads, battery)  # demand-response state, shared battery
    shave_w = spec.peak_shave_limit_w if battery is not None else None
    runs, arms = _dr_runs(config.dr_commands, n, tick) if config.dr_commands else ({}, {})
    if not (scheduled or runs) and shave_w is None:
        return profile, arms  # nothing to add or step: the profile itself, no copy
    power = _site_power(profile, table, per_slot, loads, 0, n)  # the profile stays the baseline

    def dr_tick(i: int, cmd: DrCommand) -> DrStepResult:
        t = i * tick
        for load, p in zip(site.loads, table[t // QUARTER_S].tolist()):
            load.power_w = p
        site.base_load_w = float(profile[i])
        result = dr_site_step(site, cmd, t, tick)
        power[i] = result.p_grid_w
        return result

    def dr_run(first: int, end: int, cmd: DrCommand) -> None:
        step = dr_tick(first, cmd)
        i = first + 1
        while i < end:
            total = _site_power(profile, table, per_slot, site.loads, i, end)
            power[i:end] = np.where(total < 0.0, 0.0, total)  # max(total, 0.0), as the step
            if battery is None and not any(
                load.controllable and not load.curtailed for load in site.loads
            ):
                return  # over the limit too, a step has nothing to curtail or discharge
            ticks_over = (i + np.flatnonzero(~(total <= cmd.p_limit_w))).tolist()  # NaN steps too
            curtailed, i = step.curtailed_ids, end
            for k in ticks_over:
                step = dr_tick(k, cmd)
                if step.curtailed_ids != curtailed:  # the totals past k change
                    i = k + 1
                    break

    if shave_w is not None:
        if not shave_w > 0:  # raises: an idle run might never reach its check
            peak_shave_step(0.0, shave_w, battery, tick)
        # The ticks over the limit, then tick n, past the run, which ends every jump.
        over = np.append(np.flatnonzero(power > shave_w), n)
    i = 0
    for first, (end, cmd) in runs.items():
        if shave_w is not None:
            _shave_walk(power, over, i, first, shave_w, battery, tick)
        dr_run(first, end, cmd)
        i = end
    if shave_w is not None:
        _shave_walk(power, over, i, n, shave_w, battery, tick)
    return power, arms


def _shave_walk(
    power: np.ndarray, over: np.ndarray, a: int, b: int, limit_w: float, battery: Battery, tick: int
) -> list[int]:
    """Peak-shave `power[a:b]` in place as `peak_shave_step` does tick by
    tick, the battery's state of charge kept in locals and the float
    operations of `Battery.charge` and `discharge` made in their order;
    returns the ticks stepped.  From a tick at or under the limit with the
    battery exactly full, which charges 0 W, the walk jumps to the next tick
    in `over`, the sorted ticks over the limit, each tick passed keeping
    its load.  The stepped ticks are written back once, at the end."""
    cap, eta, dt_h = battery.capacity_wh, battery._eta, tick / 3600.0
    charge_max, discharge_max = battery.p_charge_max_w, battery.p_discharge_max_w
    soc = battery.soc_wh
    load = memoryview(power)  # reads a Python float, unlike indexing the array
    stepped, grid = [], []
    i = a
    while i < b:
        p = load[i]
        # min(x, y, z) keeps x unless y < x, then the lesser of that and z;
        # max(0.0, x) is x if x > 0.0, and min(cap, x) is x if x < cap.
        if p > limit_w:
            given = p - limit_w
            if discharge_max < given:
                given = discharge_max
            if (held := soc * eta / dt_h) < given:
                given = held
            if given <= 0.0:
                given = 0.0
            else:
                soc -= given / eta * dt_h
                if not soc > 0.0:
                    soc = 0.0
            p -= given
        elif soc == cap:
            i = min(int(over[over.searchsorted(i)]), b)
            continue
        else:
            taken = limit_w - p
            if charge_max < taken:
                taken = charge_max
            if (room := (cap - soc) / (eta * dt_h)) < taken:
                taken = room
            if taken <= 0.0:
                taken = 0.0
            else:
                soc += taken * eta * dt_h
                if not soc < cap:
                    soc = cap
            p += taken
        stepped.append(i)
        grid.append(p)
        i += 1
    battery.soc_wh = soc
    power[stepped] = grid
    return stepped


def _run_user(
    spec: UserSpec,
    config: ScenarioConfig,
    window: tuple[float, float],
    keep_actual: bool,
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
    # The supply events by tick index, in listed order; one off the tick grid
    # or outside the run never falls on a tick.
    events: dict[int, list[SupplyEventKind]] = {}
    for t, kind in spec.supply_events:
        i, off = divmod(t, tick)
        if off == 0 and 0 <= i < n:
            events.setdefault(int(i), []).append(kind)

    # What the grid supplied: zero at a tick with the breaker open, the grid
    # power otherwise.
    actual = power.copy() if keep_actual else None

    # Split the series wherever something reaches into the meter: at a supply
    # event and at an emergency limit armed.  The meter itself finds the tick
    # where a limit expires.
    blocks = []
    cuts = sorted({0, n, *arms, *events})
    for a, b in zip(cuts, cuts[1:]):
        t = a * tick
        for kind in events.get(a, ()):
            blocks.append(meter.apply_supply_event(t, kind))
        if a in arms:
            meter.arm_emergency_limit(*arms[a])
        blocks.extend(meter.emit_rows(power[a:b], t))
        if actual is not None and not meter.supply_on:
            # Only a supply event closes the breaker, so it stays open to b.
            actual[max(a, meter.interrupted_at // tick) : b] = 0.0

    rows = blocks[0] if len(blocks) == 1 else np.concatenate([frames.frame_rows([]), *blocks])
    t_arrive = link.arrivals(rows)
    active_at, revoked_at = window
    processed = (active_at <= t_arrive) & (t_arrive < revoked_at)  # NaN, a lost frame, fails
    device.ingest(rows[processed])
    unprocessed = np.where(np.isnan(t_arrive), LinkOutcome.LOST, LinkOutcome.GATED)
    ledger = _ledger(rows, np.where(processed, LinkOutcome.PROCESSED, unprocessed), config.duration_s)

    _reconcile(spec.pod_id, ledger, meter, device)
    if user_dir is not None:
        _write_user_files(user_dir, device, config.duration_s)
    return UserResult(spec.pod_id, ledger, baseline, actual)


def _write_user_files(user_dir: str, device: Device, duration_s: int) -> None:
    """Write the per-user output files: the quarter series always, the
    supply events and notifications only when there are any.  Each line is
    what `csv.writer` writes for its row, and a notification line what
    `json` writes for {"kind", "message", "t"} with sorted keys."""
    os.makedirs(user_dir, exist_ok=True)
    energy = device.quarter_series(duration_s // QUARTER_S)[0].tolist()
    lines = ["quarter_start_s,energy_Wh,flag\n"]
    lines += [
        f"{k * QUARTER_S},{e},ok\n" if e >= 0 else f"{k * QUARTER_S},,missing\n"
        for k, e in enumerate(energy)
    ]
    _write_lines(os.path.join(user_dir, "quarters.csv"), lines)
    times, events, durations = device.events()
    if times:
        lines = ["t_s,event,duration_s\n"]
        lines += [
            f"{t},{event},{'' if duration is None else duration}\n"
            for t, event, duration in zip(times, events, durations)
        ]
        _write_lines(os.path.join(user_dir, "events.csv"), lines)
    times, kinds, messages = device.notes()
    if times:
        text = encode_basestring_ascii  # a JSON string, as `json` writes it
        lines = [
            f'{{"kind": {text(kind)}, "message": {text(message)}, "t": {t}}}\n'
            for t, kind, message in zip(times, kinds, messages)
        ]
        _write_lines(os.path.join(user_dir, "notifications.jsonl"), lines)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


# -- Campaign runner --------------------------------------------------------------


def _pairing_windows(config: ScenarioConfig) -> dict[str, tuple[float, float]]:
    """Each pod's `Portal.window`, fixed before any user runs."""
    registry = {s.pod_id: PodRecord(s.pod_id, MeterGeneration.SECOND, True) for s in config.users}
    rng = random.Random(derive(config.seed, "portal"))
    portal = Portal(registry, rng=rng, activation_delay_h=config.activation_delay_h)
    device_ids = {spec.pod_id: f"dev-{spec.pod_id}" for spec in config.users}
    # Pair in pod order so activation delays are independent of config order.
    for spec in sorted(config.users, key=lambda s: s.pod_id):
        portal.pair(spec.pod_id, device_ids[spec.pod_id], 0.0)
        if spec.revoke_at_s is not None:
            portal.revoke(spec.pod_id, device_ids[spec.pod_id], spec.revoke_at_s)
    return {pod: portal.window(pod, device) for pod, device in device_ids.items()}


def run(
    config: ScenarioConfig, out_dir: str | None = None, parallel: bool = True
) -> CampaignReport:
    """Run a scenario and reduce the per-user ledgers into its report.

    Users run one after another, in pod order, on the calling thread.  With
    `out_dir`, writes per-user series under `users/<pod>/` as each user
    finishes, then `report.csv`, `report.txt`, and `settlement.csv` when a
    flexibility cluster is configured.  A run that raises part-way leaves
    the `users/<pod>/` series of the users that finished before it and no
    report.  `parallel` is accepted for compatibility and has no effect.

    Raises:
        ValueError: before any user runs, for an `out_dir` that already
            holds `report.csv` or `users/` (an earlier run's files, which
            this run would not all replace), or for a user whose
            `profile_w` does not cover the run, or for a `mevu` cluster
            with a member that is not a user or a window off the tick grid
            or outside the run (a `UserSpec` or `MevuCluster` built without
            `validate_config`).
    """
    if out_dir is not None:
        kept = [n for n in ("report.csv", "users") if os.path.lexists(os.path.join(out_dir, n))]
        if kept:
            raise ValueError(f"{out_dir} already holds {' and '.join(kept)} of an earlier run")
    for spec in config.users:
        if spec.profile_w is not None and len(spec.profile_w) < config.duration_s // config.tick_s:
            covers = len(spec.profile_w) * config.tick_s
            raise ValueError(f"{spec.pod_id}: profile_w covers {covers} s, need {config.duration_s} s")
    if config.mevu is not None:
        members, window = config.mevu.members, config.mevu.window
        pods = {spec.pod_id for spec in config.users}
        if errors := _mevu_errors(members, window, pods, config.duration_s, config.tick_s):
            raise ValueError("; ".join(errors))
    windows = _pairing_windows(config)
    mevu_members = set(config.mevu.members) if config.mevu else set()
    results = [
        _run_user(
            spec,
            config,
            windows[spec.pod_id],
            spec.pod_id in mevu_members,
            None if out_dir is None else os.path.join(out_dir, "users", spec.pod_id),
        )
        for spec in sorted(config.users, key=lambda s: s.pod_id)
    ]

    # The one place frames are summed: the run's ledger, whose blocks give
    # each scope's map; a day without frames has none.
    total = sum((r.ledger for r in results), np.zeros(_ledger_shape(config.duration_s), int))

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
        per_type=_stats(total.sum(0)),
        per_day={day: _stats(total[day]) for day in np.flatnonzero(total.sum((1, 2))).tolist()},
        per_user={r.pod_id: _stats(r.ledger.sum(0)) for r in results},
        lost_total=int(total[..., LinkOutcome.LOST].sum()),
        gated_total=int(total[..., LinkOutcome.GATED].sum()),
    )

    if out_dir is not None:
        _write_outputs(out_dir, config, report, results)
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
    cluster = config.mevu
    assert cluster is not None
    i0, i1 = (int(t) // config.tick_s for t in cluster.window)
    by_pod = {r.pod_id: r for r in results}  # members keep both series
    baselines = {pod: by_pod[pod].profile_w[i0:i1] for pod in cluster.members}
    actuals = {pod: by_pod[pod].actual_w[i0:i1] for pod in cluster.members}
    settlement = mevu_settle(cluster, baselines, actuals, config.tick_s)
    settlement_to_csv(os.path.join(out_dir, "settlement.csv"), cluster, settlement)
