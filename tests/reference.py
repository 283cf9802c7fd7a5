"""The slow model of a run, end to end: the oracle the fast paths must match.

`run_reference(config, out_dir)` runs a scenario as a loop over every tick
and every frame would:

    grid power   demand response, the emergency arm and peak shaving applied
                 tick by tick (`per_tick_loop`), supply events injected at
                 their tick;
    meter        `ScalarMeter.step` at every tick;
    wire         every frame through `encode_frame`, then `decode_frame`;
    channel      `ScalarChannel.transmit`, one frame at a time;
    gate         the pairing window tested on each arrival;
    device       `ScalarDevice`, one frame at a time;
    user files   `write_user_files`, row by row through `csv.writer` and
                 `json`, from the device's records.

Only the per-user pipeline differs from `harness.run`: the reference runs
`harness.run` with its per-user step swapped for the loop above, so the
pairing windows, the report's fold of the ledgers and the run-wide output
writers are the harness's own.  The output tree must then equal the one
`harness.run` writes, byte for byte.

`ScalarMeter` is the meter's rules tick by tick, and `Meter.emit_rows`
must match it on any series; `ScalarChannel` and `ScalarDevice` are the
link's and the device's rules frame by frame, and `Channel.arrivals` and
`Device.ingest` must match them on any block of rows, `Device.estimate_cost`
the walk over `ScalarDevice`'s quarter records;
`scalar_profile` and `per_tick_loop` are the same kind of reference for
the profile generator and the grid power built up front, and
`least_excess_walk` for the scheduler's pruned walk under a grid limit.
`profile_to_csv` writes the profile CSV format that `profile_from_csv`
reads, for scenarios that bring their own profile.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from chain2sim import harness
from chain2sim.automation import (
    DrIssuer,
    ScheduleResult,
    Site,
    SiteLoad,
    dr_site_step,
    peak_shave_step,
)
from chain2sim.channel import BernoulliLoss, Channel
from chain2sim.device import _MESSAGES, _T3_KINDS, _T4_KINDS, CostEstimate, Device, DeviceConfig
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
    decode_frame,
    encode_frame,
    frame_from_row,
)
from chain2sim.meter import (
    OVERRUN_FACTOR,
    QUARTERS_PER_DAY,
    SWITCHOFF_TAU_S,
    Meter,
    MeterConfig,
    switchoff_remaining,
)
from chain2sim.profiles import (
    _SOFT_CAP,
    OVERRUN_GAP_S,
    OVERRUN_MAX_S,
    OVERRUN_WINDOW_S,
    PRESETS,
)
from chain2sim.seeds import derive


def profile_to_csv(path, power_w, tick_s):
    """Write a profile as `t_s,power_W` rows, one per tick."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "power_W"])
        for i, p in enumerate(power_w):
            writer.writerow([i * tick_s, f"{p:.3f}"])


def scalar_profile(rng, pn_w, duration_s, tick_s=1, preset="B"):
    """`household_profile` as numpy's scalar draws make it, one `integers`,
    `uniform` or `random` call at a time (arguments already valid)."""
    ps = PRESETS[preset]
    n = duration_s // tick_s
    power = np.empty(n, dtype=np.float64)

    # Base load, redrawn segment by segment.
    i = 0
    while i < n:
        seg = max(1, int(rng.integers(ps.segment_lo_s, ps.segment_hi_s + 1)) // tick_s)
        power[i : i + seg] = pn_w * rng.uniform(ps.base_lo, ps.base_hi)
        i += seg

    # Appliance pulses, added then capped.
    expected = ps.pulses_per_hour * duration_s / 3600.0
    for _ in range(int(rng.poisson(expected))):
        dur = max(1, int(rng.integers(ps.pulse_lo_s, ps.pulse_hi_s + 1)) // tick_s)
        start = int(rng.integers(0, n))
        power[start : start + dur] += pn_w * rng.uniform(ps.pulse_lo, ps.pulse_hi)
    np.minimum(power, _SOFT_CAP * pn_w, out=power)

    # Overrun episodes: at most one per window, placed so that consecutive
    # episodes keep at least OVERRUN_GAP_S of sub-reference load between them.
    window_ticks = OVERRUN_WINDOW_S // tick_s
    margin_ticks = -((OVERRUN_MAX_S + OVERRUN_GAP_S) // -tick_s)
    dur_lo = max(1, 60 // tick_s)
    dur_hi = max(1, OVERRUN_MAX_S // tick_s)
    for ws in range(0, n - window_ticks + 1, window_ticks):
        if rng.random() >= ps.overrun_prob:
            continue
        start = ws + int(rng.integers(0, window_ticks - margin_ticks + 1))
        dur = int(rng.integers(dur_lo, dur_hi + 1))
        power[start : start + dur] = pn_w * rng.uniform(
            ps.overrun_peak_lo, ps.overrun_peak_hi
        )
    return power


def per_tick_loop(spec, config, send=None):
    """A user's grid power, emergency arms and metered series as a loop over
    every tick finds them: supply events, then the emergency arm on the first
    tick an emergency command is open, then `dr_site_step` (with no command
    outside a window), then peak shaving outside windows, then
    `ScalarMeter.step`.
    Every frame the meter emits goes to `send`, when given.  Returns the
    grid power, the arms as {tick index: (limit_w, until_s)} and what the
    grid supplied (zero while the breaker is open)."""
    tick = config.tick_s
    profile = harness._build_profile(spec, config)
    scheduled = harness._schedule_appliances(spec, config)
    battery = spec.battery.build() if spec.battery else None
    loads = [SiteLoad(a.id, 0.0, a.interruptible, a.controllable) for a, _ in scheduled]
    site = Site(spec.pod_id, loads, battery)
    threshold = spec.energy_threshold_wh
    meter = ScalarMeter(spec.pod_id, MeterConfig(spec.pn_w, threshold, tick, spec.direction))
    send = send or (lambda frame: None)
    arms = {}
    grid, actual = [], []
    last_cmd = None
    for i, p_house in enumerate(profile.tolist()):
        t = i * tick
        for _, kind in (e for e in spec.supply_events if e[0] == t):
            for row in meter.apply_supply_event(t, kind).tolist():
                send(frame_from_row(row, spec.pod_id))
        slot = t // 900
        for load, (app, start) in zip(site.loads, scheduled):
            k = slot - start
            load.power_w = app.profile_w[k] if 0 <= k < len(app.profile_w) else 0.0
        site.base_load_w = p_house
        cmd = next((c for c in config.dr_commands if c.t_start <= t < c.t_end), None)
        if cmd is not None and cmd.issuer is DrIssuer.EMERGENCY and cmd is not last_cmd:
            arms[i] = (cmd.p_limit_w, cmd.t_end)
            meter.arm_emergency_limit(cmd.p_limit_w, cmd.t_end)
        last_cmd = cmd
        result = dr_site_step(site, cmd, t, tick)
        p = result.p_grid_w
        if battery is not None and spec.peak_shave_limit_w is not None and not result.in_window:
            p = peak_shave_step(p, spec.peak_shave_limit_w, battery, tick).p_grid_w
        for frame in meter.step(p, t):
            send(frame)
        grid.append(p)
        actual.append(p if meter.supply_on else 0.0)
    return np.array(grid), arms, np.array(actual)


class ScalarMeter(Meter):
    """`Meter` taking one tick at a time, its frames as records: the per-tick
    rules that `Meter.emit_rows` applies to a stretch of ticks in numpy.
    Supply events and the emergency limit are `Meter`'s own."""

    def _emit(self, frame_type, t, payload):
        self._seq += 1
        return CompactFrame(frame_type, self.pod_id, self._seq, t, payload)

    def step(self, power_w, t):
        """Advance one tick covering [t, t + tick_s); returns emitted frames.

        `t` must be tick-aligned and strictly consecutive with the previous
        call.  `power_w` is the mean household power over the tick.
        """
        cfg = self.config
        tick = cfg.tick_s
        pn = cfg.pn_w
        if not 0.0 <= 10.0 * power_w < math.inf:
            raise ValueError(
                f"power_w must be non-negative with 10 * power_w finite, got {power_w}"
            )
        next_t = self._next_t
        if next_t is None:
            if t % tick != 0:
                raise ValueError(f"t={t} is not aligned to tick_s={tick}")
        elif t != next_t:
            raise ValueError(f"expected step at t={next_t}, got t={t}")
        self._next_t = t + tick

        frames = []

        # Emergency limit expires on its own.
        if self._em_until is not None and t >= self._em_until:
            self.clear_emergency_limit()

        # A cut armed earlier falls due: open the breaker before sampling.
        deadline = self._cut_deadline
        if deadline is not None and t >= deadline and self.supply_on:
            self.supply_on = False
            self._interruption_started_at = t
            self._cut_deadline = None
            frames.append(
                self._emit(FrameType.T4, t, T4Payload(SupplyEventKind.INTERRUPTION_START))
            )

        p_eff = power_w if self.supply_on else 0.0

        # Band crossings.  One frame per threshold passed, in crossing order.
        # Band k holds the powers in [k*Pn/10, (k+1)*Pn/10), band 10 all at or
        # above Pn; p_eff >= 0, so int() is the floor.
        new_band = int((10.0 * p_eff) / pn)
        if new_band > 10:
            new_band = 10
        old_band = self._band
        if new_band != old_band:
            power_int = round(p_eff)
            if new_band > old_band:
                crossed, direction = range(old_band + 1, new_band + 1), CrossingDirection.UP
            else:
                crossed, direction = range(old_band, new_band, -1), CrossingDirection.DOWN
            for k in crossed:
                frames.append(self._emit(FrameType.T2, t, T2Payload(k, power_int, direction)))
            self._band = new_band

        # Overrun countdown against the active reference: 1.1 Pn, or the
        # emergency limit itself.
        limit = self._em_limit_w
        if limit is None:
            remaining = switchoff_remaining(p_eff, pn)
        else:
            remaining = None if p_eff <= limit else SWITCHOFF_TAU_S * limit / (p_eff - limit)
        if remaining is None:
            self._cut_deadline = None
        else:
            candidate = t + remaining
            if self._cut_deadline is None or candidate < self._cut_deadline:
                self._cut_deadline = candidate

        # Contractual-power exceedance is edge triggered on Pn itself.
        if p_eff > pn:
            if not self._over_pn:
                self._over_pn = True
                frames.append(
                    self._emit(
                        FrameType.T3, t, T3Payload(ExceedanceCause.POWER_EXCEEDED, round(p_eff))
                    )
                )
        elif self._over_pn:
            self._over_pn = False
            frames.append(
                self._emit(FrameType.T3, t, T3Payload(ExceedanceCause.RESTORED, round(p_eff)))
            )

        # Energy accounting.
        ws = p_eff * tick
        self._quarter_acc_ws += ws
        total_ws = self._total_acc_ws + ws
        self._total_acc_ws = total_ws
        threshold = cfg.energy_threshold_wh
        if (
            threshold is not None
            and not self._energy_alarm_sent
            and total_ws / 3600.0 >= threshold
        ):
            self._energy_alarm_sent = True
            frames.append(
                self._emit(
                    FrameType.T3,
                    t,
                    T3Payload(ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED, round(total_ws / 3600.0)),
                )
            )

        t_close = t + tick
        if t_close % QUARTER_S == 0:
            energy_wh = round(self._quarter_acc_ws / 3600.0)
            self._quarter_acc_ws = 0.0
            quarter = (t_close // QUARTER_S - 1) % QUARTERS_PER_DAY
            frames.append(
                self._emit(FrameType.T1, t_close, T1Payload(quarter, energy_wh, cfg.direction))
            )
        return frames


class ScalarChannel(Channel):
    """`Channel` taking one frame at a time, with one `random()` per loss
    draw: the per-frame rules that `Channel.arrivals` applies to a block of
    rows in numpy."""

    def _dropped(self):
        """The loss draw of the next frame: whether the channel drops it."""
        loss, draw = self._loss, self._rng.random
        if isinstance(loss, BernoulliLoss):
            return draw() < loss.p_loss
        bad = self._bad
        dropped = draw() < (loss.loss_bad if bad else loss.loss_good)
        if draw() < (loss.p_bad_to_good if bad else loss.p_good_to_bad):
            self._bad = not bad
        return dropped

    def transmit(self, frame_type, t_send):
        """Put one frame on the link at `t_send`; returns its arrival time at
        the receiver, or None when the loss model drops it."""
        tx_s = float(self._tx_s[FrameType(frame_type)])
        busy = self._busy_until
        finish = (t_send if t_send > busy else busy) + tx_s
        self._busy_until = finish
        if self._loss is not None and self._dropped():
            return None
        return finish + self._proc_delay_s


class Notification(NamedTuple):
    t: int
    kind: str
    message: str


@dataclass(slots=True)
class QuarterRecord:
    energy_wh: int
    direction: EnergyDirection


@dataclass(frozen=True)
class SupplyEvent:
    t: int
    kind: SupplyEventKind
    duration_s: int | None


class ScalarDevice:
    """`Device` taking one frame record at a time, each frame type by its
    own handler, with its state as records: the per-frame rules that
    `Device.ingest` applies to a block of rows in numpy, and the walk over
    the quarter records that `Device.estimate_cost` must match."""

    def __init__(self, config):
        self.config = config
        self.quarters = {}  # quarter start s -> QuarterRecord
        self.event_log = []
        self.notifications = []
        self.stats = {"processed": 0, "implausible_t1": 0}
        self._high_water = 0
        self._alarm_active = False
        self._cut_warning_active = False

    def on_frame(self, frame):
        Device._check_seq(self._high_water, frame.seq)
        self._high_water = frame.seq
        self.stats["processed"] += 1
        _HANDLERS[frame.frame_type](self, frame)

    def _notify(self, t, kind, *values):
        self.notifications.append(Notification(t, kind, _MESSAGES[kind].format(*values)))

    def _on_t1(self, frame):
        payload = frame.payload
        pn = self.config.pn_w
        if payload.energy_wh > 1.5 * pn * (QUARTER_S / 3600.0):
            self.stats["implausible_t1"] += 1
            self._notify(frame.timestamp, "implausible_reading", payload.energy_wh, pn)
            return
        self.quarters[frame.timestamp - QUARTER_S] = QuarterRecord(
            payload.energy_wh, payload.direction
        )

    def _on_t2(self, frame):
        self._on_power_sample(frame.timestamp, float(frame.payload.power_w))

    def _on_power_sample(self, t, power_w):
        cfg = self.config
        limit = cfg.alarm_limit_w
        if limit is not None:
            if power_w > limit and not self._alarm_active:
                self._alarm_active = True
                self._notify(t, "power_alarm", power_w, limit)
            elif power_w <= limit:
                self._alarm_active = False
        eta = switchoff_remaining(power_w, cfg.pn_w)  # the meter's countdown law
        if eta is not None and not self._cut_warning_active:
            self._cut_warning_active = True
            self._notify(t, "switchoff_warning", eta, OVERRUN_FACTOR * cfg.pn_w)
        elif eta is None:
            self._cut_warning_active = False

    def _on_t3(self, frame):
        payload = frame.payload
        self._notify(frame.timestamp, _T3_KINDS[payload.cause], payload.value)
        if payload.cause != ExceedanceCause.ENERGY_THRESHOLD_EXCEEDED:
            self._on_power_sample(frame.timestamp, float(payload.value))

    def _on_t4(self, frame):
        payload = frame.payload
        self.event_log.append(SupplyEvent(frame.timestamp, payload.event, payload.duration_s))
        self._notify(frame.timestamp, _T4_KINDS[payload.event], payload.duration_s)

    def estimate_cost(self, start_s, end_s):
        """`Device.estimate_cost`, quarter by quarter over the records, each
        quarter priced by the tariff window its start falls in."""
        tariff = self.config.tariff
        cost = 0.0
        income = 0.0
        observed = 0
        for q in range(start_s, end_s, QUARTER_S):
            record = self.quarters.get(q)
            if record is None:
                continue
            observed += 1
            kwh = record.energy_wh / 1000.0
            if record.direction == EnergyDirection.WITHDRAWN:
                tod = q % DAY_S
                window = next(w for w in tariff.windows if w.start_s <= tod < w.end_s)
                cost += kwh * window.price_eur_per_kwh
            else:
                feed_in = tariff.feed_in_price_eur_per_kwh or 0.0
                income += kwh * feed_in
        expected = (end_s - start_s) // QUARTER_S
        return CostEstimate(cost, income, expected, observed)


# Frame type -> the handler of a processed frame of that type.
_HANDLERS = {
    FrameType.T1: ScalarDevice._on_t1,
    FrameType.T2: ScalarDevice._on_t2,
    FrameType.T3: ScalarDevice._on_t3,
    FrameType.T4: ScalarDevice._on_t4,
}


def write_user_files(user_dir, device, duration_s):
    """`harness._write_user_files` through `csv.writer` and `json`, row by
    row from the records of a `ScalarDevice`."""
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
        encoder = json.JSONEncoder(sort_keys=True)
        with open(os.path.join(user_dir, "notifications.jsonl"), "w", newline="") as fh:
            for n in device.notifications:
                fh.write(encoder.encode({"t": n.t, "kind": n.kind, "message": n.message}) + "\n")


def _reference_user(spec, config, window, keep_actual, user_dir):
    """`harness._run_user`, one tick and one frame at a time."""
    link = ScalarChannel(config.channel, derive(config.seed, "channel", spec.pod_id))
    device = ScalarDevice(DeviceConfig(spec.pn_w, spec.alarm_limit_w, tariff=spec.tariff))
    active_at, revoked_at = window
    days = -(-config.duration_s // DAY_S)
    ledger = np.zeros((days, len(FrameType), len(harness.LinkOutcome)), dtype=np.int64)

    def send(frame):
        received = decode_frame(encode_frame(frame))
        assert received == frame, f"{frame} does not survive its wire image"
        ts = received.timestamp
        # A T1 counts on the day of the quarter it closes, which ends at ts.
        day = (ts - 1 if received.frame_type is FrameType.T1 else ts) // DAY_S
        t_arrive = link.transmit(received.frame_type, ts)
        if t_arrive is None:
            outcome = harness.LinkOutcome.LOST
        elif not active_at <= t_arrive < revoked_at:
            outcome = harness.LinkOutcome.GATED
        else:
            device.on_frame(received)
            outcome = harness.LinkOutcome.PROCESSED
        ledger[day, received.frame_type - 1, outcome] += 1

    _, _, actual = per_tick_loop(spec, config, send)
    if user_dir is not None:
        write_user_files(user_dir, device, config.duration_s)
    baseline = harness._build_profile(spec, config) if keep_actual else None
    return harness.UserResult(spec.pod_id, ledger, baseline, actual if keep_actual else None)


@contextlib.contextmanager
def _reference_users():
    real = harness._run_user
    harness._run_user = _reference_user
    try:
        yield
    finally:
        harness._run_user = real


def run_reference(config, out_dir=None):
    """`harness.run(config, out_dir)`, each user run by the slow model."""
    with _reference_users():
        return harness.run(config, out_dir=out_dir)


def least_excess_walk(apps, starts_per_app, costs_per_app, limit_w, n_slots):
    """`automation._limited_schedule` as a walk over every start
    combination: the least (excess, cost, starts), loads and excess exact
    fractions of the given powers, costs summed in the scheduler's order,
    and the slots over the limit under it; feasible and optimal when its
    excess is 0."""
    limit = Fraction(limit_w)
    profiles = [[Fraction(p) for p in app.profile_w] for app in apps]
    best = None
    for picked in itertools.product(*starts_per_app):
        load = [Fraction(0)] * n_slots
        for profile, s in zip(profiles, picked):
            for k, p in enumerate(profile):
                load[s + k] += p
        excess = sum(max(0, l - limit) for l in load)
        cost = _in_order([costs_per_app[j][s] for j, s in enumerate(picked)])
        key = (excess, cost, tuple(picked))
        if best is None or key < best[0]:
            best = key, tuple(i for i, l in enumerate(load) if l > limit_w)
    (excess, cost, starts), slots = best
    return ScheduleResult(
        {app.id: s for app, s in zip(apps, starts)},
        cost,
        feasible=excess == 0.0,
        optimal=excess == 0.0,
        method="exhaustive",
        offending_slots=slots,
    )


def _in_order(values):
    """0.0 plus each value in turn, as the scheduler adds (from Python 3.12
    on, builtin `sum` of floats is compensated and can differ in the last
    bit)."""
    return functools.reduce(operator.add, values, 0.0)
