"""Workload generator: every input of a benchmark run derives from its seed.

Three workloads stress different layers of the pipeline (see BENCHMARK.json
for the one-line reasons):

* ``campaign``: the stock mixed fleet, 20 users x 7 days at 60 s ticks with
  1 % Bernoulli loss.  About 0.42 frames per user-tick, so the per-frame path
  (codec, channel, portal gate, device) does most of the work.
* ``fine_tick``: the same fleet for 1 day at 1 s ticks.  About 0.004 frames
  per user-tick, so ``Meter.step`` and the per-tick loop dominate and the
  codec barely runs; a codec change should leave it unchanged.
* ``full_feature``: a generated YAML scenario of 12 users x 7 days that turns
  on every feature (portal pairing with revocations, burst loss, time-of-use
  tariffs, batteries, scheduled appliances, a DR feed plus an emergency
  window, supply events, a CSV profile and a MEVU settlement window).

The shape of each workload is fixed; the seed only moves times, prices and
magnitudes inside narrow ranges, so runs on different seeds do comparable
work.  ``scale`` shrinks users and days for smoke tests.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("campaign", "fine_tick", "full_feature")

# Digests for this seed are recorded, but it was never used while the
# benchmark was tuned; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

DAY_S = 86400
HOUR_S = 3600

# (users, days, tick_s) at scale 1.
_CAMPAIGN_SHAPES = {
    "campaign": (20, 7, 60),
    "fine_tick": (20, 1, 1),
}
_FULL_FEATURE_SHAPE = (12, 7)
_P_LOSS = 0.01


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def generate(workload: str, seed: int, work_dir: str, scale: float = 1.0) -> str:
    """Write the inputs of one run under `work_dir`; returns the spec path.

    The spec is a JSON file that tells the worker how to build the scenario:
    either the arguments of ``harness.default_campaign`` or the path of a
    scenario file for ``harness.load_config``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    os.makedirs(work_dir, exist_ok=True)
    if workload in _CAMPAIGN_SHAPES:
        users, days, tick_s = _CAMPAIGN_SHAPES[workload]
        spec = {
            "kind": "campaign",
            "args": {
                "n_users": _scaled(users, scale, 2),
                "days": _scaled(days, scale, 1),
                "p_loss": _P_LOSS,
                "tick_s": tick_s,
                "seed": seed,
            },
        }
    else:
        users, days = _FULL_FEATURE_SHAPE
        spec = {
            "kind": "yaml",
            "path": _write_full_feature(
                seed, work_dir, _scaled(users, scale, 4), _scaled(days, scale, 2)
            ),
        }
    spec["workload"] = workload
    spec["seed"] = seed
    spec_path = os.path.join(work_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return spec_path


def _write_full_feature(seed: int, work_dir: str, n_users: int, days: int) -> str:
    rng = random.Random(f"full_feature/{seed}")
    tick = 60
    duration = days * DAY_S
    pods = [f"IT001F{i:08d}" for i in range(n_users)]
    # The CSV user is a MEVU member, so its file is also read for the
    # settlement baseline.
    csv_user = 3 * ((n_users - 1) // 3)
    revoked = {1, n_users - 2}  # never the CSV user or a MEVU member
    mevu_members = [pods[i] for i in range(n_users) if i % 3 == 0 and i not in revoked]

    # The emergency window arms every meter's cut countdown; the DSO restores
    # supply ten minutes after it closes, so a cut never darkens a user for
    # the rest of the run.
    em_day = rng.randrange(days)
    em_start = em_day * DAY_S + rng.choice([10, 11, 12, 13]) * HOUR_S
    em_end = em_start + 1800
    restore_at = em_end + 600

    users = []
    for i, pod in enumerate(pods):
        pn = rng.choice([3000.0, 4500.0, 6000.0])
        peak_start = rng.choice([7, 8]) * HOUR_S
        peak_end = rng.choice([19, 20, 21]) * HOUR_S
        user: dict = {
            "pod_id": pod,
            "pn_w": pn,
            "building_class": "ABCDE"[i % 5],
            "tariff": {
                "windows": [
                    [0, peak_start, round(rng.uniform(0.09, 0.12), 4)],
                    [peak_start, peak_end, round(rng.uniform(0.25, 0.32), 4)],
                    [peak_end, DAY_S, round(rng.uniform(0.09, 0.12), 4)],
                ],
                "feed_in": 0.05,
            },
            "appliances": _appliances(rng, pn, days, heavy=i % 2 == 1),
            "supply_events": _supply_events(rng, days, i, restore_at),
        }
        if i % 2 == 0:
            capacity = rng.choice([4000.0, 6000.0, 8000.0])
            user["battery"] = {
                "capacity_wh": capacity,
                "p_charge_max_w": 2000.0,
                "p_discharge_max_w": 2500.0,
                "efficiency": 0.9,
                "soc_wh": capacity / 2,
            }
            user["peak_shave_limit_w"] = round(pn * rng.uniform(0.55, 0.65))
        if i % 4 == 0:
            user["energy_threshold_wh"] = pn * 3.0
        if i % 3 == 1:
            user["alarm_limit_w"] = 0.8 * pn
        if i in revoked:
            user["revoke_at_s"] = rng.randrange(duration // 3, 2 * duration // 3, tick)
        if i == csv_user:
            user["profile_csv"] = "profile.csv"
            _write_profile_csv(rng, os.path.join(work_dir, "profile.csv"), pn, duration, tick)
        users.append(user)

    with open(os.path.join(work_dir, "dr_feed.csv"), "w", newline="") as fh:
        fh.write("t_start,t_end,p_limit_W,issuer\n")
        for d in range(days):
            start = d * DAY_S + rng.choice([17, 18, 19]) * HOUR_S
            end = start + rng.choice([1800, 3600, 5400])
            fh.write(f"{start},{end},{rng.choice([2000, 2500, 3000])},aggregator\n")

    mevu_day = rng.randrange(days)
    mevu_start = mevu_day * DAY_S + rng.choice([16, 17, 18]) * HOUR_S
    scenario = {
        "days": days,
        "tick_s": tick,
        "seed": seed,
        "channel": {
            "rate_bps": 4800.0,
            "proc_delay_s": 0.05,
            "loss": {
                "model": "gilbert_elliott",
                "p_good_to_bad": round(rng.uniform(0.01, 0.02), 4),
                "p_bad_to_good": round(rng.uniform(0.2, 0.3), 4),
                "loss_good": 0.002,
                "loss_bad": round(rng.uniform(0.3, 0.5), 4),
            },
        },
        "pairing": {"mode": "portal", "activation_delay_h": [1.0, 4.0]},
        "users": users,
        "dr_feed": "dr_feed.csv",
        "dr_commands": [
            {"p_limit_w": 2700.0, "t_start": em_start, "t_end": em_end, "issuer": "emergency"}
        ],
        "mevu": {
            "members": mevu_members,
            "capacity_offer_w": 500.0 * len(mevu_members),
            "energy_price_eur_per_wh": 0.0005,
            "capacity_price_eur_per_w_h": 0.0001,
            "window": [mevu_start, mevu_start + 3 * HOUR_S],
        },
    }
    path = os.path.join(work_dir, "scenario.yaml")
    with open(path, "w") as fh:
        # JSON is valid YAML, and needs no YAML writer here.
        json.dump(scenario, fh, indent=1)
    return path


def _appliances(rng: random.Random, pn: float, days: int, heavy: bool) -> list[dict]:
    # Powers stay near 0.15 * pn so that house load plus appliances never
    # sustains the 1.1 * pn overrun that would make the meter cut supply.
    apps = []
    kinds = [("dishwasher", 4, False), ("washer", 3, True)]
    if heavy:
        kinds.append(("ev", 8, True))
    for name, slots, interruptible in kinds:
        day = rng.randrange(days - 1)
        earliest = day * DAY_S + rng.choice([18, 19, 20]) * HOUR_S
        apps.append(
            {
                "id": name,
                "profile_w": [round(pn * rng.uniform(0.10, 0.15)) for _ in range(slots)],
                "earliest_start_s": earliest,
                "deadline_s": earliest + 12 * HOUR_S,
                "interruptible": interruptible,
                "controllable": True,
            }
        )
    return apps


def _supply_events(rng: random.Random, days: int, i: int, restore_at: int) -> list:
    events = [[restore_at, "interruption_end"]]
    if i % 4 == 1:
        day = rng.randrange(days)
        start = day * DAY_S + rng.randrange(1, 20) * HOUR_S
        events += [
            [start, "interruption_start"],
            [start + rng.choice([5, 15, 45]) * 60, "interruption_end"],
            [start + 2 * HOUR_S, "voltage_event"],
        ]
    return sorted(events)


def _write_profile_csv(
    rng: random.Random, path: str, pn: float, duration: int, tick: int
) -> None:
    """A synthetic daily load curve with evening peak and random bursts."""
    with open(path, "w", newline="") as fh:
        fh.write("t_s,power_W\n")
        burst = 0
        for k in range(duration // tick):
            t = k * tick
            hour = (t % DAY_S) / HOUR_S
            level = 0.18 + 0.22 * math.exp(-((hour - 20.0) ** 2) / 6.0)
            if burst == 0 and rng.random() < 0.02:
                burst = rng.randrange(2, 20)
            if burst:
                burst -= 1
                level += 0.35
            power = pn * min(0.92, level * rng.uniform(0.85, 1.15))
            fh.write(f"{t},{power:.3f}\n")
