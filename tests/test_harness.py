"""Scenario config parsing and the end-to-end campaign runner."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chain2sim.automation import (
    Appliance,
    DrCommand,
    DrIssuer,
    MevuCluster,
    dr_site_step,
    peak_shave_step,
)
from chain2sim.channel import BernoulliLoss, ChannelConfig
from chain2sim import frames
from chain2sim.frames import SEQ, SupplyEventKind, encode_frame
from chain2sim import harness
from chain2sim.harness import (
    BatterySpec,
    ConfigError,
    LinkOutcome,
    ScenarioConfig,
    TypeStats,
    UserSpec,
    default_campaign,
    load_config,
    run,
    validate_config,
)
from chain2sim.profiles import household_profile
import reference
from reference import per_tick_loop, profile_to_csv, run_reference

POD1 = "IT001E00000001"
POD2 = "IT001E00000002"


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        duration_s=4 * 3600,
        tick_s=60,
        seed=7,
        users=(
            UserSpec(pod_id=POD1, pn_w=3000.0),
            UserSpec(pod_id=POD2, pn_w=4500.0, building_class="D"),
        ),
        channel=ChannelConfig(loss=BernoulliLoss(0.05)),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- config validation ----------------------------------------------------------


def test_validate_config_full_yaml(tmp_path):
    profile = household_profile(np.random.default_rng(1), 3000.0, 7200, tick_s=60)
    profile_to_csv(tmp_path / "prof.csv", profile, 60)
    raw = {
        "duration_s": 7200,
        "tick_s": 60,
        "seed": 3,
        "channel": {
            "rate_bps": 4800,
            "proc_delay_s": 0.05,
            "loss": {"model": "bernoulli", "p_loss": 0.01},
        },
        "pairing": {"mode": "portal", "activation_delay_h": [0.5, 1.0]},
        "users": [
            {
                "pod_id": POD1,
                "pn_w": 3000,
                "profile_csv": "prof.csv",
                "alarm_limit_w": 2400,
                "tariff": {"flat": 0.25, "feed_in": 0.08},
                "battery": {
                    "capacity_wh": 2000,
                    "p_charge_max_w": 1500,
                    "p_discharge_max_w": 1500,
                },
                "peak_shave_limit_w": 2500,
                "appliances": [
                    {"id": "wash", "profile_w": [1800, 1800], "deadline_s": 7200}
                ],
                "supply_events": [[3600, "voltage_event"]],
            },
            {"pod_id": POD2, "pn_w": 4500, "direction": "fed_in"},
        ],
        "dr_commands": [
            {"p_limit_w": 2000, "t_start": 1800, "t_end": 3600, "issuer": "emergency"}
        ],
        "mevu": {
            "members": [POD1],
            "capacity_offer_w": 500,
            "energy_price_eur_per_wh": 0.0002,
            "capacity_price_eur_per_w_h": 0.0001,
            "window": [0, 7200],
        },
    }
    config = validate_config(raw, base_dir=str(tmp_path))
    assert config.activation_delay_h == (0.5, 1.0)
    # A pre-active pod pairs at once, whatever window the file gives.
    pre_active = {**raw, "pairing": {"mode": "pre_active", "activation_delay_h": [0.5, 1.0]}}
    assert validate_config(pre_active, base_dir=str(tmp_path)).activation_delay_h == (0.0, 0.0)
    rows = (tmp_path / "prof.csv").read_text().splitlines()[1:]
    assert config.users[0].profile_w.tolist() == [float(row.split(",")[1]) for row in rows]
    assert config.users[0].tariff.slot_prices(2) == [0.25, 0.25]
    assert config.users[1].direction.name == "FED_IN"
    assert config.dr_commands[0].issuer.value == "emergency"
    assert config.mevu.window == (0.0, 7200.0)


def test_config_errors_carry_field_paths(tmp_path):
    raw = {
        "tick_s": 7,  # not a divisor of 900
        "users": [
            {"pod_id": "short", "pn_w": -1},
            {"pod_id": POD1, "pn_w": 3000, "building_class": "Z"},
            {"pod_id": POD2, "pn_w": 3000},
            {"pod_id": POD2, "pn_w": 3000},  # duplicate of the previous pod
        ],
        "mevu": {"members": ["IT001E99999999"], "window": [0, 100]},
    }
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw, base_dir=str(tmp_path))
    text = str(exc_info.value)
    assert "tick_s:" in text
    assert "users[0].pod_id" in text
    assert "users[0].pn_w" in text
    assert "users[1].building_class" in text
    assert "duplicate pod_id" in text
    assert "mevu.members" in text
    assert "duration_s" in text


def test_profile_csv_mismatches_are_config_errors(tmp_path):
    prof = household_profile(np.random.default_rng(2), 3000.0, 1800, tick_s=900)
    profile_to_csv(tmp_path / "short.csv", prof, 900)
    raw = {
        "duration_s": 7200,
        "tick_s": 900,
        "users": [{"pod_id": POD1, "pn_w": 3000, "profile_csv": "short.csv"}],
    }
    with pytest.raises(ConfigError, match="covers 1800 s"):
        validate_config(raw, base_dir=str(tmp_path))
    raw["duration_s"] = 1800
    raw["tick_s"] = 60
    with pytest.raises(ConfigError, match="tick 900 s != scenario tick 60"):
        validate_config(raw, base_dir=str(tmp_path))
    # Blank lines are not ticks: 119 of them plus two trailing blank lines
    # still fall one tick short of 7200 s.
    prof = household_profile(np.random.default_rng(3), 3000.0, 119 * 60, tick_s=60)
    path = tmp_path / "blank_tail.csv"
    profile_to_csv(path, prof, 60)
    path.write_text(path.read_text() + "\n\n")
    raw.update(duration_s=7200, users=[{"pod_id": POD1, "pn_w": 3000, "profile_csv": path.name}])
    with pytest.raises(ConfigError, match=r"users\[0\]\.profile_csv: covers 7140 s"):
        validate_config(raw, base_dir=str(tmp_path))
    # Samples the meter would reject mid-run are rejected here, by row.
    for bad in ("nan", "inf", "-250.0"):
        path = tmp_path / f"bad_{bad}.csv"
        rows = [f"{k * 60},{bad if k == 37 else 500.0}" for k in range(120)]
        path.write_text("t_s,power_W\n" + "\n".join(rows) + "\n")
        raw.update(users=[{"pod_id": POD1, "pn_w": 3000, "profile_csv": path.name}])
        with pytest.raises(ConfigError) as exc_info:
            validate_config(raw, base_dir=str(tmp_path))
        (error,) = exc_info.value.errors
        assert error.startswith("users[0].profile_csv: row 37 (t_s=2220)")
    # A row the reader cannot take is reported at the field, by row.
    for name, text in [("one_field.csv", "0\n60,100\n"), ("bad_time.csv", "x,5\n")]:
        (tmp_path / name).write_text("t_s,power_W\n" + text)
        raw.update(users=[{"pod_id": POD1, "pn_w": 3000, "profile_csv": name}])
        with pytest.raises(ConfigError) as exc_info:
            validate_config(raw, base_dir=str(tmp_path))
        (error,) = exc_info.value.errors
        assert error.startswith(f"users[0].profile_csv: {tmp_path / name}: row 0: ")
    # A bad sample past the end of the run is never read, so it passes.
    path = tmp_path / "bad_tail.csv"
    rows = [f"{k * 60},{'nan' if k == 120 else 500.0}" for k in range(121)]
    path.write_text("t_s,power_W\n" + "\n".join(rows) + "\n")
    raw.update(users=[{"pod_id": POD1, "pn_w": 3000, "profile_csv": str(path)}])  # an absolute path
    assert validate_config(raw, base_dir="elsewhere").users[0].profile_w.tolist() == [500.0] * 120


def test_profile_csv_error_names_the_listed_users_own_index(tmp_path):
    raw = {
        "duration_s": 3600,
        "fleet": {"count": 2},
        "users": [{"pod_id": "IT001E00000099", "pn_w": 3000, "profile_csv": "missing.csv"}],
    }
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw, base_dir=str(tmp_path))
    (error,) = exc_info.value.errors
    assert error.startswith("users[0].profile_csv:")


_BASE = {"duration_s": 3600, "fleet": {"count": 2}}
_DROP = object()
_BATTERY = {"capacity_wh": 2000, "p_charge_max_w": 1500, "p_discharge_max_w": 1500}
_WASH = {"id": "a", "profile_w": [500]}  # one quarter-hour slot


def _user(**fields):
    return {"users": [{"pod_id": POD1, "pn_w": 3000, **fields}]}


def _appliances(*appliances, duration_s=86400):
    return {"duration_s": duration_s, **_user(appliances=list(appliances))}


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"tick_s": True}, "tick_s"),
        ({"seed": True}, "seed"),
        ({"duration_s": True, "tick_s": 1}, "duration_s"),
        ({"duration_s": _DROP, "days": True}, "duration_s"),
        ({"fleet": 5}, "fleet"),
        ({"fleet": {"count": True}}, "fleet.count"),
        ({"fleet": {"count": 2, "energy_threshold_fraction": "x"}}, "fleet.energy_threshold_fraction"),
        ({"fleet": {"count": 2, "alarm_limit_fraction": 2.0}}, "fleet.alarm_limit_fraction"),
        ({"fleet": {"count": 2, "pn_choices_w": ["x"]}}, "fleet.pn_choices_w"),
        ({"fleet": {"count": 2, "pn_choices_w": []}}, "fleet.pn_choices_w"),
        ({"fleet": {"count": 2, "building_classes": 5}}, "fleet.building_classes"),
        ({"users": 5}, "users"),
        ({"pairing": "x"}, "pairing"),
        ({"channel": {"loss": 0.1}}, "channel.loss"),
        ({"users": [{"pod_id": POD1, "pn_w": 3000, "battery": 3}]}, "users[0].battery"),
        ({"mevu": []}, "mevu"),
        ({"users": [{"pod_id": POD1, "pn_w": float("nan")}]}, "users[0].pn_w"),
        ({"users": [{"pod_id": POD1, "pn_w": float("inf")}]}, "users[0].pn_w"),
        ({"fleet": {"count": 2, "pn_choices_w": [float("inf")]}}, "fleet.pn_choices_w"),
        ({"dr_commands": 5}, "dr_commands"),
        ({"dr_feed": 5}, "dr_feed"),
        (_user(energy_threshold_wh=-5), "users[0].energy_threshold_wh"),
        (_user(energy_threshold_wh=float("nan")), "users[0].energy_threshold_wh"),
        (_user(alarm_limit_w=-1), "users[0].alarm_limit_w"),
        (_user(peak_shave_limit_w=-3, battery=_BATTERY), "users[0].peak_shave_limit_w"),
        (_user(revoke_at_s=float("nan")), "users[0].revoke_at_s"),
        (_user(pn_w=True), "users[0].pn_w"),
        (_user(appliances=5), "users[0].appliances"),
        (_user(supply_events=5), "users[0].supply_events"),
        (
            _user(appliances=[{"id": "wash", "profile_w": [float("nan")]}]),
            "users[0].appliances[0].profile_w",
        ),
        ({"channel": {"rate_bps": float("nan")}}, "channel.rate_bps"),
        ({"duration_s": _DROP, "days": 1_000_000_000}, "duration_s"),
        # Ints with more digits than Python prints (sys.get_int_max_str_digits).
        ({"duration_s": 10**5000}, "duration_s"),
        ({"seed": 10**5000}, "seed"),
        ({"duration_s": 2**32}, "duration_s"),  # past the u32 frame timestamp
        ({"mevu": {"members": [[1]]}}, "mevu.members"),
        # Appliances the scheduler would reject at run time: a repeated id,
        # and runs with no start slot inside their window and the run.
        (_appliances(_WASH, _WASH), "users[0].appliances[1].id"),
        (_appliances({**_WASH, "earliest_start_s": 86000}), "users[0].appliances[0]"),
        (
            _appliances({**_WASH, "earliest_start_s": 100, "deadline_s": 800}),
            "users[0].appliances[0]",
        ),
        (
            _appliances({**_WASH, "earliest_start_s": 10**30, "deadline_s": 10**31}),
            "users[0].appliances[0]",
        ),
        (_appliances(_WASH, duration_s=600), "users[0].appliances[0]"),
        ({"mevu": {"members": []}}, "mevu.members"),  # an empty list selects no one
        (_user(revoke_at_s=-5), "users[0].revoke_at_s"),  # before the pairing at 0
        (_user(peak_shave_limit_w=2000), "users[0].peak_shave_limit_w"),  # no battery
        ({"days": 2}, "duration_s"),  # given with duration_s
        ({"duration_s": 2**32 - 1, "tick_s": 1}, "duration_s"),  # 4.29 G ticks a user
        # The cluster's own rules, at the field they name.
        ({"mevu": {"window": [120, 60]}}, "mevu.window"),
        ({"mevu": {"members": ["IT001E00000000", "IT001E00000000"]}}, "mevu.members"),
    ],
)
def test_malformed_fields_are_config_errors(overrides, field):
    raw = {k: v for k, v in {**_BASE, **overrides}.items() if v is not _DROP}
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw)
    assert [e.split(":")[0] for e in exc_info.value.errors] == [field]


@pytest.mark.parametrize("tick_s", [1, 60])
def test_the_ticks_of_a_users_run_are_bounded(tick_s):
    """A run of MAX_USER_TICKS ticks, a leap year at 1 s ticks, validates
    (it is not run here); one tick more is refused at duration_s."""
    at_bound = 366 * 86400 * tick_s
    assert validate_config({**_BASE, "tick_s": tick_s, "duration_s": at_bound}).duration_s == at_bound
    with pytest.raises(ConfigError) as exc_info:
        validate_config({**_BASE, "tick_s": tick_s, "duration_s": at_bound + tick_s})
    reason = f"must be >= 1 and <= {at_bound}, got {at_bound + tick_s}"
    assert exc_info.value.errors == [f"duration_s: {reason}"]


def test_a_missing_dr_field_is_reported_at_its_own_path():
    raw = {**_BASE, "dr_commands": [{"t_start": 0, "issuer": "emergency"}]}
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw)
    assert exc_info.value.errors == [
        "dr_commands[0].p_limit_w: required",
        "dr_commands[0].t_end: required",
    ]


def test_overlapping_dr_windows_name_both_entries(tmp_path):
    (tmp_path / "dr.csv").write_text(
        "t_start,t_end,p_limit_W,issuer\n61200,64800,2500,aggregator\n72000,73800,2500,aggregator\n"
    )
    later = {"p_limit_w": 2000, "t_start": 63000, "t_end": 66600, "issuer": "emergency"}
    raw = {**_BASE, "duration_s": 86400, "dr_feed": "dr.csv", "dr_commands": [later]}
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw, base_dir=str(tmp_path))
    (error,) = exc_info.value.errors
    assert error.startswith("dr_commands[0]: window [63000.0, 66600.0) overlaps dr_feed[0] ")
    # Windows are half-open, so one may start where another ends.
    later.update(t_start=64800, t_end=72000)
    config = validate_config(raw, base_dir=str(tmp_path))
    assert [c.t_start for c in config.dr_commands] == [61200.0, 72000.0, 64800.0]


def test_top_level_must_be_a_mapping():
    for raw in ([], None, "users"):
        with pytest.raises(ConfigError) as exc_info:
            validate_config(raw)
        assert [e.split(":")[0] for e in exc_info.value.errors] == ["top level"]


def test_quoted_numbers_parse():
    user = {"pod_id": POD1, "pn_w": "3000", "alarm_limit_w": "2.4e3"}
    raw = {"duration_s": "3600", "users": [user]}
    config = validate_config(raw)
    assert config.duration_s == 3600
    assert (config.users[0].pn_w, config.users[0].alarm_limit_w) == (3000.0, 2400.0)


# Real keys reach the readers behind them; `profile_csv` and `dr_feed` are left
# out because they read files.  Integers stay small or far out of range: a
# valid fleet of millions of users is legal, only slow to build.
_TOP_KEYS = "duration_s days tick_s seed channel pairing fleet users dr_commands mevu".split()
_USER_KEYS = (
    "pod_id pn_w building_class direction energy_threshold_wh alarm_limit_w tariff battery "
    "peak_shave_limit_w appliances supply_events revoke_at_s"
).split()
_INNER_KEYS = (
    "loss model p_loss rate_bps mode activation_delay_h count pn_choices_w building_classes "
    "flat windows capacity_wh id profile_w p_limit_w t_start t_end issuer members window"
).split()
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.sampled_from([2**32, 10**9, -(2**63), 10**400])
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["3000", "nan", "-inf", "portal", "gilbert_elliott", "emergency", POD1])
)
_KEYS = st.sampled_from(_TOP_KEYS + _USER_KEYS + _INNER_KEYS) | st.text(max_size=8).filter(
    lambda k: k not in ("profile_csv", "dr_feed")
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
_USERS = st.lists(st.dictionaries(st.sampled_from(_USER_KEYS), _VALUES, max_size=8), max_size=3)
_NEAR_VALID = st.builds(
    lambda top, user: {"duration_s": 3600, **top, "users": [{"pod_id": POD1, "pn_w": 3, **user}]},
    st.dictionaries(st.sampled_from(_TOP_KEYS), _VALUES, max_size=2),
    st.dictionaries(st.sampled_from(_USER_KEYS), _VALUES, max_size=2),
)
_SCENARIOS = (
    st.dictionaries(st.sampled_from(_TOP_KEYS), _VALUES | _USERS, max_size=8)
    | _NEAR_VALID
    | _VALUES
)


@settings(max_examples=200, deadline=None)
@given(raw=_SCENARIOS)
def test_validate_config_returns_a_config_or_raises_config_error(raw):
    try:
        config = validate_config(raw)
    except ConfigError as exc:
        assert exc.errors and all(isinstance(e, str) for e in exc.errors)
    else:
        assert isinstance(config, ScenarioConfig)


def test_wire_limits_are_checked_before_the_run(tmp_path):
    # 300 kW for a quarter is 75000 Wh, over the u16 energy field of T1.
    profile_to_csv(tmp_path / "big.csv", np.full(1440, 300_000.0), 60)
    appliance = {"id": "kiln", "profile_w": [200_000.0]}
    battery = {"capacity_wh": 10**6, "p_charge_max_w": 10**6, "p_discharge_max_w": 0}
    cases = [
        (_user(pn_w=400_000, profile_csv="big.csv"), "users[0].profile_csv"),
        (_user(pn_w=2_000_000), "users[0].pn_w"),
        # 1.9 * 100 kW, the generated peak, plus the appliance: 390 kW.
        (_user(pn_w=100_000, appliances=[appliance]), "users[0].pn_w"),
        # The battery may charge up to the shaving limit.
        (_user(pn_w=3000, battery=battery, peak_shave_limit_w=300_000), "users[0].pn_w"),
        (_user(energy_threshold_wh=2**32 - 10), "users[0].energy_threshold_wh"),
        ({"fleet": {"count": 3, "pn_choices_w": [3000, 2_000_000]}}, "fleet.pn_choices_w"),
    ]
    for overrides, field in cases:
        raw = {"days": 1, **overrides}
        with pytest.raises(ConfigError) as exc_info:
            validate_config(raw, base_dir=str(tmp_path))
        assert [e.split(":")[0] for e in exc_info.value.errors] == [field], overrides
    # Just inside the T1 limit at a 900 s tick: 262140 W for a quarter is 65535 Wh.
    profile_to_csv(tmp_path / "edge.csv", np.full(96, 262_140.0), 900)
    raw = {"days": 1, "tick_s": 900, **_user(pn_w=400_000, profile_csv="edge.csv")}
    _run_encoding_every_frame(validate_config(raw, base_dir=str(tmp_path)))


def _run_encoding_every_frame(config):
    """`run(config)`, checked against the reference run, which puts every
    frame the meters emit through `encode_frame`: it raises on a value past
    its wire field.  The run itself carries frames as rows of integers, so
    without this such a value would land in the outputs unnoticed."""
    encoded = []

    def encode(frame):
        encoded.append(encode_frame(frame))
        return encoded[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "encode_frame", encode)
        want = run_reference(config)
    report = run(config)
    assert len(encoded) == report.totals.sent
    assert report.to_csv_text() == want.to_csv_text()
    return report


# Run times around the 1-day run, and one far past it.
_WINDOW_S = st.integers(0, 90_000) | st.just(10**30)
# Ids drawn from two, so that a second appliance may repeat the first's.
_APPLIANCE = st.fixed_dictionaries(
    {"id": st.sampled_from("ab"), "profile_w": st.lists(st.floats(0, 200_000), min_size=1, max_size=3)},
    optional={"earliest_start_s": _WINDOW_S, "deadline_s": _WINDOW_S},
)
# A user's drawn fields, as keyword arguments of `_drawn_user`.
_USER_FIELDS = dict(
    pn_w=st.floats(1000, 300_000),
    csv_peak_w=st.none() | st.floats(0, 400_000),
    appliances=st.lists(_APPLIANCE, max_size=2),
    shave_limit_w=st.none() | st.floats(1, 400_000),
    threshold_wh=st.none() | st.floats(1, 10**6) | st.floats(2**32 - 10**7, 2**32 + 10**6),
)


def _drawn_user(
    pod, pn_w, csv_peak_w, appliances, shave_limit_w, threshold_wh, tmp, tick_s, duration_s
):
    """A raw user of the drawn fields.  A CSV profile, written into `tmp`,
    holds the peak in one quarter and a tenth of it elsewhere."""
    user = {"pod_id": pod, "pn_w": pn_w, "energy_threshold_wh": threshold_wh}
    if appliances:
        user["appliances"] = appliances
    if shave_limit_w is not None:
        user["battery"] = {"capacity_wh": 10**6, "p_charge_max_w": 10**6, "p_discharge_max_w": 10**6}
        user["peak_shave_limit_w"] = shave_limit_w
    if csv_peak_w is not None:
        power = np.full(duration_s // tick_s, csv_peak_w / 10)
        power[40 * 900 // tick_s : 41 * 900 // tick_s] = csv_peak_w
        profile_to_csv(Path(tmp, f"{pod}.csv"), power, tick_s)
        user["profile_csv"] = f"{pod}.csv"
    return user


@settings(max_examples=60, deadline=None)
@given(**_USER_FIELDS)
def test_every_accepted_config_runs_to_completion(**fields):
    with tempfile.TemporaryDirectory() as tmp:
        user = _drawn_user(POD1, **fields, tmp=tmp, tick_s=900, duration_s=86400)
        raw = {"days": 1, "tick_s": 900, "users": [user]}
        try:
            config = validate_config(raw, base_dir=tmp)
        except ConfigError:
            return
        report = _run_encoding_every_frame(config)
    assert report.totals.sent > 0


def test_readme_scenario_example_validates(tmp_path):
    """The complete example under "Scenario YAML" in the README loads, given
    the profile CSV and the DR feed it names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Scenario YAML", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "scenario.yaml").write_text(example)
    (tmp_path / "loads").mkdir()
    profile = household_profile(np.random.default_rng(4), 3000.0, 86400, tick_s=60)
    profile_to_csv(tmp_path / "loads" / "u1.csv", profile, 60)
    (tmp_path / "dr.csv").write_text("t_start,t_end,p_limit_W,issuer\n50400,54000,1500,emergency\n")
    config = load_config(str(tmp_path / "scenario.yaml"))
    assert len(config.users) == 11  # the fleet of 10, then the listed user
    assert config.mevu.members == (config.users[-1].pod_id,)
    assert len(config.dr_commands) == 2


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "days: 1\ntick_s: 900\nseed: 5\n"
        f"users:\n  - pod_id: {POD1}\n    pn_w: 3000\n"
    )
    config = load_config(path)
    assert config.duration_s == 86400
    assert config.seed == 5
    assert len(config.users) == 1


_FEED_HEADER = "t_start,t_end,p_limit_W,issuer\n"
_ISSUERS = "expected one of ['aggregator', 'emergency']"


def _load_with_feed(tmp_path, feed):
    """`load_config` of a one-day, one-user scenario whose `dr_feed` holds `feed`."""
    (tmp_path / "dr.csv").write_text(feed)
    path = tmp_path / "scenario.yaml"
    path.write_text(f"days: 1\ndr_feed: dr.csv\nusers:\n  - {{pod_id: {POD1}, pn_w: 3000}}\n")
    return load_config(str(path))


@pytest.mark.parametrize(
    "row, reason",
    [
        ("3600,1e400,2000,emergency", "t_end: expected a finite number, got '1e400'"),
        ("3600,7200,1e400,emergency", "p_limit_w: expected a finite number, got '1e400'"),
    ],
)
def test_a_dr_feed_value_past_the_float_range_fails_validation(tmp_path, row, reason):
    """`1e400` in a feed reads as inf, which the scenario reader refuses at
    the row's field, as it refuses it in `dr_commands`, before the run starts."""
    with pytest.raises(ConfigError) as exc_info:
        _load_with_feed(tmp_path, f"{_FEED_HEADER}{row}\n")
    assert exc_info.value.errors == [f"dr_feed[0].{reason}"]


def test_dr_feed_rows_are_read_as_dr_commands_entries(tmp_path):
    """A feed row's issuer is a choice as in `dr_commands`: any case, the
    blanks around it ignored.  Feed rows come first, in file order."""
    feed = "3600,7200,2500,aggregator\n80000,81000,1000,emergency\n"
    feed += "82000,83000,1000,Emergency\n84000,85000,1000, emergency\n"
    config = _load_with_feed(tmp_path, _FEED_HEADER + feed)
    assert [c.t_start for c in config.dr_commands] == [3600.0, 80000.0, 82000.0, 84000.0]
    assert config.dr_commands[0] == DrCommand(2500.0, 3600.0, 7200.0, DrIssuer.AGGREGATOR)
    assert {c.issuer for c in config.dr_commands[1:]} == {DrIssuer.EMERGENCY}


def test_blanks_around_a_choice_are_ignored():
    command = {"p_limit_w": 2000, "t_start": 0, "t_end": 600, "issuer": " emergency"}
    config = validate_config({**_BASE, "dr_commands": [command]})
    assert config.dr_commands[0].issuer is DrIssuer.EMERGENCY


@pytest.mark.parametrize(
    "rows, errors",
    [
        ("0,10,100,nobody\n", [f"dr_feed[0].issuer: {_ISSUERS}, got 'nobody'"]),
        # A short row reads as empty fields.
        (
            "3600,7200\n",
            [
                "dr_feed[0].p_limit_w: expected a finite number, got ''",
                f"dr_feed[0].issuer: {_ISSUERS}, got ''",
            ],
        ),
        ("nan,7200,2500,aggregator\n", ["dr_feed[0].t_start: expected a finite number, got 'nan'"]),
        # Each error names its row by its index, the header not counted.
        (
            "0,10,100,aggregator\n3600,7200,abc,aggregator\n",
            ["dr_feed[1].p_limit_w: expected a finite number, got 'abc'"],
        ),
        (
            "0,10,100,aggregator\n7200,3600,2500,aggregator\n",
            ["dr_feed[1]: need t_start < t_end, got [7200.0, 3600.0]"],
        ),
        # Every bad field of every row, together.
        (
            "nan,7200,2500,aggregator\n3600,7200,2500,aggregator\n7200,3600,x,nobody\n",
            [
                "dr_feed[0].t_start: expected a finite number, got 'nan'",
                "dr_feed[2].p_limit_w: expected a finite number, got 'x'",
                f"dr_feed[2].issuer: {_ISSUERS}, got 'nobody'",
            ],
        ),
    ],
)
def test_bad_dr_feed_rows_are_reported_at_their_fields(tmp_path, rows, errors):
    with pytest.raises(ConfigError) as exc_info:
        _load_with_feed(tmp_path, _FEED_HEADER + rows)
    assert exc_info.value.errors == errors


def test_a_dr_feed_without_its_header_fails_validation(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        _load_with_feed(tmp_path, "a,b\n1,2\n")
    columns = ["issuer", "p_limit_W", "t_end", "t_start"]
    header = f"header must contain {columns}, got ['a', 'b']"
    assert exc_info.value.errors == [f"dr_feed: {tmp_path / 'dr.csv'}: {header}"]


def test_harness_import_skips_yaml():
    """Only `load_config` reads YAML, so a stock campaign starts without yaml."""
    src = Path(harness.__file__).resolve().parents[1]
    probe = "import sys, chain2sim.harness; print('yaml' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_default_campaign_shape():
    config = default_campaign(10, 2, 0.01)
    assert len(config.users) == 10
    assert len({u.pod_id for u in config.users}) == 10
    assert all(len(u.pod_id) == 14 for u in config.users)
    assert config.duration_s == 2 * 86400
    assert isinstance(config.channel.loss, BernoulliLoss)
    assert any(u.energy_threshold_wh for u in config.users)
    assert any(u.alarm_limit_w for u in config.users)


# -- the runner -------------------------------------------------------------------


def test_run_computes_no_crc(monkeypatch):
    """Frames travel from meter to device as rows: the run encodes and
    decodes none of them."""
    calls = []
    crc16 = frames.crc16
    monkeypatch.setattr(frames, "crc16", lambda data: calls.append(data) or crc16(data))
    report = run(default_campaign(3, 1, 0.01, seed=3))
    assert report.totals.sent > 0
    assert calls == []


def test_run_reconciles_sent_received_lost():
    report = run(small_config(), parallel=False)
    assert report.totals.sent == report.totals.received + report.lost_total
    assert report.gated_total == 0  # pre_active mode
    assert report.totals.sent > 0
    # Per-user aggregation sums to the campaign totals.
    per_user_sent = sum(stats["all"].sent for stats in report.per_user.values())
    assert per_user_sent == report.totals.sent


def test_lossless_run_delivers_every_frame():
    config = small_config(channel=ChannelConfig())
    report = run(config, parallel=False)
    assert report.totals.sent == report.totals.received
    assert report.lost_total == 0
    # 4 hours of T1 quarters per user.
    assert report.per_type["T1"].sent == 16 * len(config.users)


def test_default_run_stays_on_the_calling_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("harness.run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run(small_config())
    assert report.totals.sent > 0


def test_harness_does_not_import_concurrent_futures():
    src = Path(harness.__file__).resolve().parents[1]
    probe = "import sys, chain2sim.harness; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_parallel_and_sequential_agree():
    config = small_config()
    sequential = run(config, parallel=False)
    parallel = run(config, parallel=True)
    assert sequential.to_csv_text() == parallel.to_csv_text()
    assert sequential.to_table_text() == parallel.to_table_text()


def test_user_order_does_not_change_results():
    config = small_config()
    flipped = small_config(users=tuple(reversed(config.users)))
    assert run(config, parallel=False).to_csv_text() == run(
        flipped, parallel=False
    ).to_csv_text()


def test_seed_changes_results():
    a = run(small_config(), parallel=False)
    b = run(small_config(seed=8), parallel=False)
    assert a.to_csv_text() != b.to_csv_text()


def test_daily_attribution_keeps_one_day_runs_in_day_zero():
    config = small_config(
        duration_s=86400,
        tick_s=900,
        channel=ChannelConfig(),
        users=(UserSpec(pod_id=POD1, pn_w=3000.0),),
    )
    report = run(config, parallel=False)
    assert set(report.per_day) == {0}
    assert report.per_day[0]["T1"].sent == 96
    assert report.per_day[0]["all"].sent == report.totals.sent


def test_portal_mode_gates_frames_before_activation(device_arrivals):
    config = small_config(
        duration_s=6 * 3600,
        activation_delay_h=(1.0, 2.0),
        channel=ChannelConfig(),
    )
    report = run(config, parallel=False)
    assert report.gated_total > 0
    assert report.totals.received == report.totals.sent - report.gated_total
    windows = harness._pairing_windows(config)
    for spec in config.users:
        active_at, revoked_at = windows[spec.pod_id]
        assert 3600.0 <= active_at <= 2 * 3600.0
        assert revoked_at == math.inf
        assert device_arrivals[spec.pod_id]
        assert all(t_arrive >= active_at for t_arrive in device_arrivals[spec.pod_id])


def test_revocation_stops_processing(device_arrivals):
    config = small_config(
        users=(UserSpec(pod_id=POD1, pn_w=3000.0, revoke_at_s=2 * 3600.0),),
        channel=ChannelConfig(),
    )
    report = run(config, parallel=False)
    assert device_arrivals[POD1]
    assert all(t_arrive < 2 * 3600.0 for t_arrive in device_arrivals[POD1])
    assert report.gated_total > 0


def _meter_skips_seq_3(monkeypatch):
    real = harness.Meter.emit_rows

    def emit_rows(self, power, t0):
        for rows in real(self, power, t0):
            seq = rows[:, SEQ]
            if seq[0] <= 3 <= seq[-1]:  # no frame ever carries seq 3
                seq[seq >= 3] += 1
                self._seq += 1
            yield rows

    monkeypatch.setattr(harness.Meter, "emit_rows", emit_rows)
    return lambda sent: [f"sent {sent} != meter seq {sent + 1}"]


def _device_misses_a_count(monkeypatch):
    real = harness.Device.ingest

    def ingest(self, rows):
        real(self, rows)
        if 3 in rows[:, SEQ]:
            self.stats["processed"] -= 1  # takes the frame without counting it

    monkeypatch.setattr(harness.Device, "ingest", ingest)
    return lambda sent: [f"processed {sent} != device {sent - 1}"]


@pytest.mark.parametrize(
    "break_book", [_meter_skips_seq_3, _device_misses_a_count], ids=["sent", "processed"]
)
def test_unbalanced_books_raise_with_the_ledger(monkeypatch, break_book):
    """A fault in either book fails the run with that book's message; the
    error carries the link's ledger."""
    problems = break_book(monkeypatch)
    config = small_config(users=(UserSpec(pod_id=POD1, pn_w=3000.0),), channel=ChannelConfig())
    with pytest.raises(harness.ReconciliationError) as caught:
        run(config)
    ledger = caught.value.ledger
    assert caught.value.pod_id == POD1
    assert ledger.sum() == ledger[..., LinkOutcome.PROCESSED].sum() > 0
    assert str(caught.value) == f"{POD1}: " + "; ".join(problems(int(ledger.sum())))


def test_a_link_that_sends_nothing_reports_no_day(tmp_path):
    """A user who draws no power for 600 s crosses no band and closes no
    quarter, so the meter sends nothing: the books balance on an empty
    ledger, and the report holds zero totals and no day."""
    profile_to_csv(tmp_path / "zero.csv", np.zeros(10), 60)
    user = {"pod_id": POD1, "pn_w": 3000, "profile_csv": "zero.csv"}
    raw = {"duration_s": 600, "tick_s": 60, "users": [user]}
    config = validate_config(raw, base_dir=str(tmp_path))
    report = run(config, out_dir=str(tmp_path / "out"))
    assert (report.totals.sent, report.totals.received) == (0, 0)
    assert report.per_day == {}
    assert report.per_user == {POD1: {"all": TypeStats(0, 0)}}
    csv_text = (tmp_path / "out" / "report.csv").read_text()
    assert csv_text == "scope,key,frame_type,sent,received,success_rate\n"
    assert "Frames lost on the channel: 0; withheld by pairing gate: 0" in report.to_table_text()


def test_outputs_written(tmp_path):
    out = tmp_path / "out"
    config = small_config(
        duration_s=7200,
        channel=ChannelConfig(),
        users=(
            UserSpec(
                pod_id=POD1,
                pn_w=3000.0,
                supply_events=(
                    (1800, SupplyEventKind.INTERRUPTION_START),
                    (2400, SupplyEventKind.INTERRUPTION_END),
                    (3000, SupplyEventKind.VOLTAGE_EVENT),
                ),
                # Frames arriving from here on are gated, so the quarters
                # they report are missing on the device.
                revoke_at_s=3600.0,
            ),
        ),
    )
    report = run(config, out_dir=str(out), parallel=False)
    assert (out / "report.csv").read_text() == report.to_csv_text()
    assert (out / "report.txt").read_text() == report.to_table_text()
    user_dir = out / "users" / POD1
    quarters = (user_dir / "quarters.csv").read_bytes().decode().splitlines()
    assert quarters[0] == "quarter_start_s,energy_Wh,flag"
    assert len(quarters) == 1 + 7200 // 900
    assert quarters[1].startswith("0,") and quarters[1].endswith(",ok")
    assert quarters[-1] == "6300,,missing"
    assert (user_dir / "events.csv").read_bytes() == (
        b"t_s,event,duration_s\n"
        b"1800,interruption_start,\n"
        b"2400,interruption_end,600\n"
        b"3000,voltage_event,\n"
    )
    notes_text = (user_dir / "notifications.jsonl").read_bytes().decode()
    assert notes_text.endswith("}\n") and "\r" not in notes_text
    kinds = [json.loads(line)["kind"] for line in notes_text.splitlines()]
    supply = {"supply_interrupted", "supply_restored", "voltage_event"}
    assert [k for k in kinds if k in supply] == [
        "supply_interrupted",
        "supply_restored",
        "voltage_event",
    ]


def test_a_run_into_an_earlier_runs_directory_is_refused(tmp_path):
    """A 2-user run into a 3-user run's directory would leave the third
    user's series beside the new report, so it is refused before any user
    runs, and the tree stays as the first run left it."""
    third = UserSpec(pod_id="IT001E00000003", pn_w=6000.0)
    first = small_config(duration_s=3600)
    run(replace(first, users=(*first.users, third)), out_dir=str(tmp_path))
    before = sorted(tmp_path.rglob("*")), _tree(tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path} already holds report.csv and users")):
        run(first, out_dir=str(tmp_path))
    assert (sorted(tmp_path.rglob("*")), _tree(tmp_path)) == before
    (tmp_path / "report.csv").unlink()  # what a run that raised part-way leaves
    with pytest.raises(ValueError, match="already holds users of"):
        run(first, out_dir=str(tmp_path))


def test_settlement_reuses_the_profiles_the_users_ran_on(tmp_path, monkeypatch):
    calls = []
    real = harness.household_profile
    monkeypatch.setattr(
        harness, "household_profile", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    config = small_config(
        mevu=MevuCluster(
            cluster_id="cluster-0",
            members=(POD1, POD2),
            capacity_offer_w=500.0,
            energy_price_eur_per_wh=0.0002,
            capacity_price_eur_per_w_h=0.0001,
            window=(0.0, 7200.0),
        )
    )
    run(config, out_dir=str(tmp_path), parallel=False)
    assert len(calls) == len(config.users)
    lines = (tmp_path / "settlement.csv").read_text().splitlines()
    assert any(POD1 in line for line in lines) and any(POD2 in line for line in lines)


@pytest.mark.parametrize(
    "members, window, reason",
    [
        ((POD1, "IT001E99999999"), (0, 86400), "mevu.members: unknown pods ['IT001E99999999']"),
        ((POD2,), (30, 3600), "mevu.window: must be tick-aligned inside [0, 86400], got (30, 3600)"),
        ((POD2,), (0, 2 * 86400), "mevu.window: must be tick-aligned inside [0, 86400]"),
    ],
)
def test_run_refuses_a_cluster_that_cannot_settle(tmp_path, members, window, reason):
    """A cluster built in Python with a member that is not a user, or a
    window off the tick grid or past the run, is refused before any user
    runs, by the check `validate_config` makes."""
    users = (UserSpec(POD1, 3000.0), UserSpec(POD2, 4500.0))
    cluster = MevuCluster("cluster-0", members, 500.0, 0.0002, 0.0001, window)
    with pytest.raises(ValueError, match=re.escape(reason)):
        run(ScenarioConfig(86400, 60, 1, users, mevu=cluster), out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_report_csv_shape():
    report = run(small_config(), parallel=False)
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "scope,key,frame_type,sent,received,success_rate"
    scopes = {line.split(",")[0] for line in lines[1:]}
    assert scopes == {"aggregate", "daily", "user"}
    agg_all = next(l for l in lines if l.startswith("aggregate,,all,"))
    sent, received, rate = agg_all.split(",")[3:]
    assert int(sent) == report.totals.sent
    assert float(rate) == pytest.approx(report.totals.success_rate, abs=1e-6)


def test_report_csv_all_rows_sum_their_frame_types():
    """In every scope of report.csv (the aggregate, each day, each user) the
    "all" row carries the sum of the scope's frame-type rows, on a lossy,
    portal-gated run over several days."""
    config = small_config(
        duration_s=2 * 86400, tick_s=300, activation_delay_h=(1.0, 6.0)
    )
    report = run(config, parallel=False)
    assert report.lost_total > 0 and report.gated_total > 0
    parts: Counter = Counter()
    alls: Counter = Counter()
    for line in report.to_csv_text().splitlines()[1:]:
        scope, key, ftype, sent, received, _ = line.split(",")
        book = alls if ftype == "all" else parts
        book[scope, key, "sent"] += int(sent)
        book[scope, key, "received"] += int(received)
    assert alls == parts
    scopes = {(scope, key) for scope, key, _ in alls}
    assert scopes == {("aggregate", ""), ("daily", "0"), ("daily", "1"), ("user", POD1), ("user", POD2)}


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_open_loop_users_match_the_per_tick_loop(tmp_path):
    """The run gives the output tree of the reference run, for plain users
    with appliances, a CSV profile (one that trips the breaker) and an
    energy threshold, settled as a flexibility cluster.  A third run makes
    every user a demand-response site whose window opens after the run,
    which must change nothing."""
    tick = 60
    duration = 2 * 86400
    profile = household_profile(np.random.default_rng(11), 3000.0, duration, tick_s=tick)
    profile[600:660] = 7500.0  # a one-hour overrun opens the breaker
    profile_to_csv(tmp_path / "prof.csv", profile, tick)
    pods = ["IT001E00000011", "IT001E00000012", "IT001E00000013"]
    raw = {
        "duration_s": duration,
        "tick_s": tick,
        "seed": 4,
        "channel": {"loss": {"model": "bernoulli", "p_loss": 0.02}},
        "users": [
            {
                "pod_id": pods[0],
                "pn_w": 3000,
                "tariff": {"windows": [[0, 25200, 0.1], [25200, 86400, 0.3]]},
                "appliances": [
                    {"id": "wash", "profile_w": [1800, 2200, 300]},
                    {"id": "dry", "profile_w": [2500, 2500], "earliest_start_s": 36000},
                ],
            },
            {"pod_id": pods[1], "pn_w": 3000, "profile_csv": "prof.csv", "alarm_limit_w": 2800},
            {"pod_id": pods[2], "pn_w": 4500, "energy_threshold_wh": 9000},
        ],
        "mevu": {
            "members": pods,
            "capacity_offer_w": 500,
            "energy_price_eur_per_wh": 0.0002,
            "capacity_price_eur_per_w_h": 0.0001,
            "window": [0, duration],
        },
    }
    config = validate_config(raw, base_dir=str(tmp_path))
    run(config, out_dir=str(tmp_path / "series"))
    run_reference(config, out_dir=str(tmp_path / "per_tick"))
    series = _tree(tmp_path / "series")
    assert series == _tree(tmp_path / "per_tick")
    # A DR command that opens after the run makes every user a DR site, which
    # the meter takes like any user, without changing any power.
    late = replace(config, dr_commands=(DrCommand(1000.0, duration, duration + 900),))
    run(late, out_dir=str(tmp_path / "closed_loop"))
    assert series == _tree(tmp_path / "closed_loop")
    events = series[Path("users", pods[1], "events.csv")].decode()
    assert "interruption_start" in events


def test_closed_loop_users_match_the_per_tick_loop(tmp_path, monkeypatch):
    """Users with demand response, peak shaving and supply events: the grid
    power built up front equals a loop over every tick, and running the
    meter over pieces split at events and emergency arms gives the output
    tree of the reference run."""
    tick = 60
    duration = 2 * 86400
    battery = {"capacity_wh": 3000, "p_charge_max_w": 1500, "p_discharge_max_w": 1500}
    pods = ["IT001E00000021", "IT001E00000022", "IT001E00000023", "IT001E00000024"]
    raw = {
        "duration_s": duration,
        "tick_s": tick,
        "seed": 9,
        "channel": {"loss": {"model": "bernoulli", "p_loss": 0.02}},
        "users": [
            {
                "pod_id": pods[0],
                "pn_w": 3000,
                "battery": {**battery, "efficiency": 0.9, "soc_wh": 1500},
                "peak_shave_limit_w": 1800,
                "appliances": [
                    {"id": "wash", "profile_w": [1800, 2200, 300], "earliest_start_s": 35100},
                    {"id": "ev", "profile_w": [2000] * 8, "earliest_start_s": 36000,
                     "interruptible": True},
                ],
                # An outage from the first tick.
                "supply_events": [[0, "interruption_start"], [600, "interruption_end"]],
            },
            {
                "pod_id": pods[1],
                "pn_w": 3000,
                "appliances": [
                    {"id": "heater", "profile_w": [2500] * 3, "earliest_start_s": 39600,
                     "controllable": False},
                    {"id": "wash", "profile_w": [1500] * 4, "earliest_start_s": 36000,
                     "interruptible": True},
                ],
                # On the emergency arm tick, then while the emergency limit
                # holds the breaker open: a start that changes nothing, an
                # end that closes it (until the limit trips it again), and
                # an end after the window.
                "supply_events": [
                    [39600, "voltage_event"],
                    [40200, "interruption_start"],
                    [40500, "interruption_end"],
                    [43200, "interruption_end"],
                ],
            },
            {
                "pod_id": pods[2],
                "pn_w": 4500,
                "energy_threshold_wh": 5000,
                "battery": battery,
                "supply_events": [[43200, "interruption_end"]],  # after an emergency trip
                "appliances": [
                    {"id": "dry", "profile_w": [2500, 2500], "earliest_start_s": 49500},
                    {"id": "pump", "profile_w": [700] * 24, "earliest_start_s": 49500,
                     "interruptible": True},
                ],
            },
            # Peak shaving with no appliance: the settlement baseline is the
            # very profile array the grid power starts from.
            {"pod_id": pods[3], "pn_w": 3000, "battery": battery, "peak_shave_limit_w": 600},
        ],
        "dr_commands": [
            # Back to back: the second window restores what the first
            # curtailed, then curtails to its own limit.
            {"p_limit_w": 1200, "t_start": 36000, "t_end": 39600},
            {"p_limit_w": 1000, "t_start": 39600, "t_end": 41400, "issuer": "emergency"},
            {"p_limit_w": 1500, "t_start": 49980.5, "t_end": 54000},
            # A load curtailed in the window above runs again in this one.
            {"p_limit_w": 1500, "t_start": 54900, "t_end": 57600},
            {"p_limit_w": 800, "t_start": duration - 7200, "t_end": duration + 7200},
        ],
        "mevu": {
            "members": pods,
            "capacity_offer_w": 500,
            "energy_price_eur_per_wh": 0.0002,
            "capacity_price_eur_per_w_h": 0.0001,
            "window": [0, duration],
        },
    }
    config = validate_config(raw)
    run(config, out_dir=str(tmp_path / "series"))
    windows = harness._pairing_windows(config)
    for spec in config.users:
        result = harness._run_user(spec, config, windows[spec.pod_id], True, None)
        profile = harness._build_profile(spec, config)
        assert result.profile_w.tobytes() == profile.tobytes()
        scheduled = harness._schedule_appliances(spec, config)
        power, arms = harness._grid_power(spec, config, profile, scheduled)
        want_power, want_arms, want_actual = per_tick_loop(spec, config)
        assert power.tobytes() == want_power.tobytes()
        assert arms == want_arms == {39600 // tick: (1000.0, 41400.0)}
        assert result.actual_w.tobytes() == want_actual.tobytes()

    calls = []
    emit_rows = harness.Meter.emit_rows
    monkeypatch.setattr(
        harness.Meter, "emit_rows", lambda self, *a: calls.append(self.pod_id) or emit_rows(self, *a)
    )
    run(config, out_dir=str(tmp_path / "pieces"))
    run_reference(config, out_dir=str(tmp_path / "per_tick"))
    series = _tree(tmp_path / "series")
    assert series == _tree(tmp_path / "pieces") == _tree(tmp_path / "per_tick")
    # Pieces start at 0, at each event and at the arm (39600); the meter finds
    # the limit's expiry inside its piece.
    assert Counter(calls) == {pods[0]: 3, pods[1]: 5, pods[2]: 3, pods[3]: 2}
    trips = [
        line for line in series[Path("users", pods[1], "events.csv")].decode().splitlines()
        if line.endswith(",interruption_start,")
    ]
    # The emergency limit opens the breaker twice; both trips fall in the window.
    assert [int(line.split(",")[0]) for line in trips] == [39720, 40620]
    assert Path("settlement.csv") in series


def test_negative_zero_csv_samples_meter_as_the_per_tick_loop(tmp_path):
    """Validation accepts a -0.0 sample (it is >= 0).  A user with no DR
    window and no shaving battery is not stepped, yet its grid power and
    supplied power equal the per-tick loop's in bytes: +0.0, as
    `dr_site_step` sums a site."""
    profile_to_csv(tmp_path / "neg.csv", np.full(60, -0.0), 60)
    user = {"pod_id": POD1, "pn_w": 3000, "profile_csv": "neg.csv"}
    config = validate_config({"duration_s": 3600, "tick_s": 60, "users": [user]}, str(tmp_path))
    spec = config.users[0]
    power, _ = harness._grid_power(spec, config, harness._build_profile(spec, config), [])
    result = harness._run_user(spec, config, harness._pairing_windows(config)[POD1], True, None)
    want_power, _, want_actual = per_tick_loop(spec, config)
    assert want_power.tobytes() == np.zeros(60).tobytes()
    assert power.tobytes() == want_power.tobytes()
    assert result.actual_w.tobytes() == want_actual.tobytes()


@st.composite
def _dr_windows(draw):
    """Windows that do not overlap, on a 900 s tick: each starts a drawn gap
    after the last (0 puts them back to back), possibly at a fractional
    second, and may fall between two ticks or run past a one-day run."""
    commands, t = [], 0.0
    for _ in range(draw(st.integers(0, 5))):
        t += draw(st.sampled_from([0.0, 0.5, 100.0, 900.0, 3600.0]) | st.floats(0, 20_000))
        length = draw(st.sampled_from([1.0, 300.0, 900.0, 1800.5, 7200.0]) | st.floats(1, 40_000))
        limit = draw(st.sampled_from([300.0, 1000.0, 2500.0]))
        commands.append(DrCommand(limit, t, t + length, draw(st.sampled_from(DrIssuer))))
        t += length
    return tuple(commands)


@settings(max_examples=100, deadline=None)
@given(commands=_dr_windows(), shave=st.booleans())
def test_grid_power_arms_each_emergency_window_once(commands, shave):
    """The grid power and arms built up front equal those of the per-tick
    loop, for any windows: an emergency window arms once, at its first tick,
    and an aggregator window never arms."""
    user = {
        "pod_id": POD1,
        "pn_w": 3000,
        "battery": {"capacity_wh": 3000, "p_charge_max_w": 1500, "p_discharge_max_w": 1500},
        "appliances": [
            {"id": "wash", "profile_w": [1800, 2200, 300], "earliest_start_s": 36000},
            {"id": "ev", "profile_w": [2000] * 8, "earliest_start_s": 36000, "interruptible": True},
        ],
    }
    if shave:
        user["peak_shave_limit_w"] = 1800
    config = validate_config({"days": 1, "tick_s": 900, "seed": 3, "users": [user]})
    config = replace(config, dr_commands=commands)
    (spec,) = config.users
    profile = harness._build_profile(spec, config)
    scheduled = harness._schedule_appliances(spec, config)
    power, arms = harness._grid_power(spec, config, profile, scheduled)
    want_power, want_arms, _ = per_tick_loop(spec, config)
    assert power.tobytes() == want_power.tobytes()
    assert arms == want_arms
    emergency = {(c.p_limit_w, c.t_end) for c in commands if c.issuer is DrIssuer.EMERGENCY}
    assert set(arms.values()) <= emergency
    assert len(set(arms.values())) == len(arms)


def test_a_touching_dr_window_restores_what_the_last_one_curtailed():
    """A window that starts where the last one ends runs the loads that one
    curtailed under its own limit, as a window after a gap does."""
    user = {
        "pod_id": POD1,
        "pn_w": 6000,
        "appliances": [{"id": "ev", "profile_w": [2000] * 8, "earliest_start_s": 36000}],
    }
    config = validate_config({"days": 1, "tick_s": 900, "seed": 3, "users": [user]})
    (spec,) = config.users
    scheduled = harness._schedule_appliances(spec, config)
    assert [start for _, start in scheduled] == [36000 // 900]  # on [36000, 43200)
    profile = np.full(96, 1000.0)
    for gap in (0.0, 900.0):
        commands = (DrCommand(500.0, 36000.0, 37800.0), DrCommand(5000.0, 37800.0 + gap, 43200.0))
        power, _ = harness._grid_power(spec, replace(config, dr_commands=commands), profile, scheduled)
        assert power[36000 // 900 : 37800 // 900].tolist() == [1000.0] * 2  # curtailed in A
        assert power[int(37800 + gap) // 900 : 43200 // 900].tolist() == [3000.0] * int(6 - gap // 900)


_SHAVE_W = 1000.0
# Load levels about the shaving limit: both zeros, well under and well over
# it, exactly at it and an ulp either side.
_LEVELS = st.sampled_from(
    [0.0, -0.0, 400.0, math.nextafter(_SHAVE_W, 0), _SHAVE_W, math.nextafter(_SHAVE_W, 2e3), 1600.0]
) | st.floats(0, 4000)


@st.composite
def _load_stretches(draw):
    """A load series in stretches of one level, long enough on 60 s ticks
    for a battery to fill or empty exactly and then idle."""
    stretches = draw(st.lists(st.tuples(_LEVELS, st.integers(1, 120)), min_size=1, max_size=8))
    return np.concatenate([np.full(k, level) for level, k in stretches])


def _shaving_user(loads, capacity_wh, charge_w, discharge_w, efficiency, start):
    """A Python-built user with `loads` as its profile, shaving at _SHAVE_W
    with a battery `start` (a fraction of its capacity) full, and its run."""
    battery = BatterySpec(capacity_wh, charge_w, discharge_w, efficiency, capacity_wh * start)
    spec = UserSpec(
        POD1, 6000.0, profile_w=loads, battery=battery,
        peak_shave_limit_w=_SHAVE_W,
    )
    return spec, ScenarioConfig(duration_s=len(loads) * 60, tick_s=60, seed=1, users=(spec,))


@settings(max_examples=200, deadline=None)
@given(
    loads=_load_stretches(),
    capacity_wh=st.sampled_from([60.0, 100.0, 250.0]),
    charge_w=st.sampled_from([600.0, 1200.0, 3000.0]),
    discharge_w=st.sampled_from([600.0, 1500.0]),
    efficiency=st.sampled_from([1.0, 0.81, 0.9]),
    start=st.sampled_from([0.0, 0.5, 1.0]),
    commands=_dr_windows(),
)
# Full, then empty, then full again across a window; -0.0 loads while full.
@example(
    loads=np.repeat([-0.0, 1600.0, 1600.0, 400.0, -0.0], 60), capacity_wh=100.0, charge_w=1200.0,
    discharge_w=1500.0, efficiency=1.0, start=1.0,
    commands=(DrCommand(300.0, 9000.0, 10800.0),),
)
# Recharged to one ulp short of full: not idle, so stepped on.
@example(
    loads=np.repeat([1600.0, 0.0], [3, 30]), capacity_wh=60.0, charge_w=1200.0, discharge_w=600.0,
    efficiency=0.9, start=1.0, commands=(),
)
# A load exactly at the limit while the battery is below full: stepped, and
# it charges 0 W.
@example(
    loads=np.repeat([_SHAVE_W, 400.0, _SHAVE_W], [30, 5, 30]), capacity_wh=250.0, charge_w=600.0,
    discharge_w=600.0, efficiency=0.9, start=0.5, commands=(),
)
# A DR run that starts on the tick after a stepped tick: the walk hands the
# window the state of charge that tick left.
@example(
    loads=np.repeat([400.0, 1600.0, 1600.0, 400.0], [10, 1, 20, 29]), capacity_wh=100.0,
    charge_w=1200.0, discharge_w=1500.0, efficiency=0.81, start=1.0,
    commands=(DrCommand(1000.0, 660.0, 1500.0),),
)
def test_idle_battery_skips_match_the_per_tick_loop(
    loads, capacity_wh, charge_w, discharge_w, efficiency, start, commands
):
    """The grid power of a peak-shaving user, whose walk skips the ticks
    where its battery is exactly full under the limit, equals that of the
    per-tick loop, bit for bit, batteries that empty included."""
    spec, config = _shaving_user(loads, capacity_wh, charge_w, discharge_w, efficiency, start)
    config = replace(config, dr_commands=commands)
    power, arms = harness._grid_power(spec, config, loads, [])
    want_power, want_arms, _ = per_tick_loop(spec, config)
    assert power.tobytes() == want_power.tobytes()
    assert arms == want_arms


def test_peak_shaving_steps_only_where_the_battery_moves(monkeypatch):
    """Over a day on which the battery idles exactly full under the limit
    but for four ticks over it, the peak-shaving walk steps just the ticks
    where the battery draws or gives power."""
    loads = np.full(1440, 400.0)
    loads[[300, 301, 302, 900]] = 1600.0
    spec, config = _shaving_user(loads, 1000.0, 1200.0, 1500.0, 0.9, 1.0)
    battery, moved = spec.battery.build(), []
    for i, p in enumerate(loads.tolist()):
        result = peak_shave_step(p, _SHAVE_W, battery, 60)
        if result.p_charge_w > 0 or result.p_discharge_w > 0:
            moved.append(i)
    stepped, walk = [], harness._shave_walk

    def spy(*args):
        ticks = walk(*args)
        stepped.extend(ticks)
        return ticks

    monkeypatch.setattr(harness, "_shave_walk", spy)
    harness._grid_power(spec, config, loads, [])
    assert stepped == moved and len(moved) == 10


@pytest.mark.parametrize("limit_w", [0.0, -100.0, math.nan])
def test_a_shave_limit_that_is_not_positive_raises(limit_w):
    """A Python-built user's limit meets `peak_shave_step`'s check, even
    when the battery, full with no load over the limit, never moves."""
    battery = BatterySpec(1000.0, 1000.0, 1000.0, soc_wh=1000.0)
    spec = UserSpec(
        POD1, 3000.0, profile_w=np.zeros(60), battery=battery,
        peak_shave_limit_w=limit_w,
    )
    with pytest.raises(ValueError, match="limit_w must be positive"):
        run(ScenarioConfig(duration_s=3600, tick_s=60, seed=1, users=(spec,)))


# Demand-response limits about the load of _LEVELS plus appliances, so that
# ticks over and under a limit interleave inside a window; some equal a load.
_DR_LIMITS = st.sampled_from([300.0, 1000.0, 1400.0, 2400.0])
_FOUR_HOURS = 4 * 3600


def _dr_scenario(loads, apps=(), commands=(), **shave):
    """A Python-built user with `loads` as its 60 s profile over four hours,
    its appliances and DR `commands`, and its run."""
    spec = UserSpec(POD1, 6000.0, profile_w=loads, appliances=tuple(apps), **shave)
    return spec, ScenarioConfig(_FOUR_HOURS, 60, 1, (spec,), dr_commands=tuple(commands))


@st.composite
def _dr_scenarios(draw):
    """Household load in stretches, up to three appliances at their earliest
    quarter in the first two hours (0 W slots and interruptible ones among
    them), DR windows that may touch or fall between ticks, and maybe a
    battery that shaves at _SHAVE_W."""
    loads = np.resize(draw(_load_stretches()), _FOUR_HOURS // 60)
    apps = []
    for j in range(draw(st.integers(0, 3))):
        # Small inexact powers, where the order of a sum shows.
        power = st.sampled_from([0.0, 400.0, 1000.0, 2500.0]) | st.floats(0, 600)
        profile = tuple(draw(st.lists(power, min_size=1, max_size=4)))
        start_s = draw(st.integers(0, 4)) * 900
        flags = draw(st.booleans()), draw(st.booleans())  # interruptible, controllable
        apps.append(Appliance(f"app{j}", profile, start_s, _FOUR_HOURS, *flags))
    commands, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.sampled_from([0.0, 30.5, 60.0, 900.0]) | st.floats(0, 3600))
        length = draw(st.sampled_from([60.0, 90.0, 900.0, 2700.5]) | st.floats(1, 7200))
        commands.append(DrCommand(draw(_DR_LIMITS), t, t + length, draw(st.sampled_from(DrIssuer))))
        t += length
    shave = {}
    if draw(st.booleans()):
        battery = BatterySpec(250.0, 1200.0, 1500.0, 0.9, draw(st.sampled_from([0.0, 125.0, 250.0])))
        shave = {"battery": battery, "peak_shave_limit_w": _SHAVE_W}
    return _dr_scenario(loads, apps, commands, **shave)


@settings(max_examples=150, deadline=None)
@given(_dr_scenarios())
# Two touching windows over a 0 W interruptible appliance, which the first
# tick over the limit curtails while it draws nothing.
@example(
    _dr_scenario(
        np.repeat([400.0, 1600.0, 400.0, 1600.0], 60),
        [Appliance("idle", (0.0, 0.0), 0, _FOUR_HOURS, True), Appliance("ev", (1000.0,) * 8, 0, _FOUR_HOURS)],
        [DrCommand(1500.0, 1800.0, 5400.0), DrCommand(900.0, 5400.0, 9000.0, DrIssuer.EMERGENCY)],
    )
)
# Three loads whose sum rounds by its order: 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1.
@example(
    _dr_scenario(
        np.zeros(240),
        [Appliance(name, (p,), 0, _FOUR_HOURS) for name, p in zip("abc", (0.1, 0.2, 0.3))],
        [DrCommand(300.0, 0.0, 900.0)],
    )
)
# A negative household load, which only a Python-built profile can hold and
# the meter refuses, inside a window: the step takes it to 0 W.
@example(_dr_scenario(np.repeat([100.0, -250.0, 100.0], 80), commands=[DrCommand(300.0, 3600.0, 10800.0)]))
# A -0.0 profile and a window that holds no tick: nothing is stepped, and the
# grid takes the built profile, +0.0 as the per-tick loop's steps give it.
@example(_dr_scenario(np.full(240, -0.0), commands=[DrCommand(300.0, 30.5, 31.5)]))
def test_dr_window_skips_match_the_per_tick_loop(scenario):
    """The grid power and arms built up front equal those of the per-tick
    loop, bit for bit, while `dr_site_step` runs only at the first tick of
    each window and at the ticks where the load it sees is over the limit."""
    spec, config = scenario
    scheduled = harness._schedule_appliances(spec, config)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        spy = lambda *args: calls.append(args) or dr_site_step(*args)  # noqa: E731
        patch.setattr(harness, "dr_site_step", spy)
        power, arms = harness._grid_power(spec, config, harness._build_profile(spec, config), scheduled)
    firsts = overs = 0

    def counted(site, cmd, t, dt_s):
        nonlocal firsts, overs
        if cmd is not None and cmd is site.command:
            loads_w = sum(load.power_w for load in site.loads if not load.curtailed)
            overs += not site.base_load_w + loads_w <= cmd.p_limit_w
        else:
            firsts += cmd is not None and cmd.t_start <= t < cmd.t_end
        return dr_site_step(site, cmd, t, dt_s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "dr_site_step", counted)
        want_power, want_arms, _ = per_tick_loop(spec, config)
    assert power.tobytes() == want_power.tobytes()
    assert arms == want_arms
    assert len(calls) <= overs + firsts


@pytest.mark.parametrize("commands", [(), (DrCommand(300.0, 30.5, 31.5),)], ids=["none", "no tick"])
def test_a_python_built_negative_zero_profile_meters_as_the_per_tick_loop(commands):
    """A Python-built profile of -0.0 samples, with no window tick to step,
    is built as +0.0: the grid power equals the per-tick loop's in bytes."""
    spec, config = _dr_scenario(np.full(240, -0.0), commands=commands)
    power, _ = harness._grid_power(spec, config, harness._build_profile(spec, config), [])
    want_power, _, _ = per_tick_loop(spec, config)
    assert power.tobytes() == want_power.tobytes() == np.zeros(240).tobytes()


def test_run_refuses_profile_samples_short_of_the_run(tmp_path):
    """A Python-built user with too few samples to cover the run is refused
    before the first user runs, naming the pod and the field."""
    late = Appliance("late", (500.0,), earliest_start_s=1800, deadline_s=3600)  # slot 2
    users = (UserSpec(POD1, 3000.0), UserSpec(POD2, 3000.0, profile_w=np.zeros(10), appliances=(late,)))
    with pytest.raises(ValueError, match=f"{POD2}: profile_w covers 600 s, need 3600 s"):
        run(ScenarioConfig(duration_s=3600, tick_s=60, seed=1, users=users), out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


_LOSS = (
    st.none()
    | st.fixed_dictionaries({"model": st.just("bernoulli"), "p_loss": st.floats(0, 1)})
    | st.fixed_dictionaries(
        {
            "model": st.just("gilbert_elliott"),
            **dict.fromkeys(("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"), st.floats(0, 1)),
        }
    )
)


_SMALL_APPLIANCES = st.lists(
    st.fixed_dictionaries(
        {"id": st.sampled_from("ab"), "profile_w": st.lists(st.floats(0, 5000), min_size=1, max_size=3)},
        optional={"earliest_start_s": st.integers(0, 80_000)},
    ),
    max_size=2,
    unique_by=lambda app: app["id"],
)


@st.composite
def _scenarios(draw):
    """Scenario parts for the oracle: one or two users drawn as for
    `test_every_accepted_config_runs_to_completion`, with alarms, supply
    events, a revocation and a feed-in meter; a loss model, a pairing mode
    and demand-response windows; 1 or 2 days at a coarse tick.  A 1 bit/s
    link with a long processing delay is still busy when the next tick
    sends, so the channel cannot batch the frames of a tick."""
    days, tick = draw(st.integers(1, 2)), draw(st.sampled_from([300, 900]))
    duration = days * 86400
    users = []
    for pod in (POD1, POD2)[: draw(st.integers(1, 2))]:
        fields = {name: draw(strategy) for name, strategy in _USER_FIELDS.items()}
        # Mostly contracts and appliances that validation accepts.
        fields["pn_w"] = draw(st.sampled_from([1500.0, 3000.0, 6000.0]) | st.just(fields["pn_w"]))
        fields["appliances"] = draw(st.just(fields["appliances"]) | _SMALL_APPLIANCES)
        extra = {
            "alarm_limit_w": draw(st.none() | st.floats(100, 20_000)),
            # Or exactly when a T1 sent at a quarter close reaches the device
            # over an idle 4800 bit/s link: the gate must refuse it.
            "revoke_at_s": draw(
                st.none()
                | st.just(0)
                | st.floats(0, 1.2 * duration)
                | st.integers(1, duration // 900).map(lambda q: q * 900 + 240 / 4800 + 0.05)
            ),
            "direction": draw(st.sampled_from(["withdrawn", "fed_in"])),
            "supply_events": draw(
                st.lists(
                    st.tuples(
                        st.integers(0, duration // tick - 1).map(lambda i: i * tick),
                        st.sampled_from(["interruption_start", "interruption_end", "voltage_event"]),
                    ),
                    max_size=3,
                )
            ),
        }
        users.append((pod, fields, extra))
    rate, delay = draw(st.sampled_from([(4800.0, 0.05), (1.0, 0.05), (4800.0, 400.0)]))
    top = {
        "days": days,
        "tick_s": tick,
        "seed": draw(st.integers(0, 2**32)),
        "channel": {"loss": draw(_LOSS), "rate_bps": rate, "proc_delay_s": delay},
        "pairing": draw(
            st.sampled_from([{}, {"mode": "portal"}, {"mode": "portal", "activation_delay_h": [0, 0.5]}])
        ),
    }
    if draw(st.booleans()):  # settle every user: the run keeps the metered series
        top["mevu"] = {"capacity_offer_w": 500, "window": [0, duration]}
    return top, users, draw(_dr_windows())


@settings(max_examples=100, deadline=None)
@given(_scenarios())
# A DR window that curtails every load of a user with no household load: the
# subtractions leave a grid power of -4.5e-13 W unless dr_site_step clamps it.
@example(
    scenario=(
        {"days": 1, "tick_s": 300, "seed": 0, "channel": {"loss": None}, "pairing": {}},
        [
            (
                POD1,
                {
                    "pn_w": 1500.0,
                    "csv_peak_w": 0.0,
                    "appliances": [
                        {"id": "b", "profile_w": [0.0, 3656.3094872094466]},
                        {"id": "a", "profile_w": [440.0], "earliest_start_s": 1},
                    ],
                    "shave_limit_w": None,
                    "threshold_wh": None,
                },
                {},
            )
        ],
        (DrCommand(300.0, 0.0, 1800.5),),
    )
)
# The T1 closing the first quarter reaches the device exactly at revoke_at_s,
# over an idle default link, so the gate must refuse it.
@example(
    scenario=(
        {"days": 1, "tick_s": 900, "seed": 0, "channel": {}, "pairing": {}},
        [
            (
                POD1,
                dict.fromkeys(("csv_peak_w", "shave_limit_w", "threshold_wh"), None)
                | {"pn_w": 3000.0, "appliances": []},
                {"revoke_at_s": 900 + 240 / 4800 + 0.05},
            )
        ],
        (),
    )
)
def test_run_writes_what_the_reference_writes(tmp_path_factory, scenario):
    """`harness.run` writes, byte for byte, the output tree of the slow model
    (`tests/reference.py`): every tick stepped, every frame through the wire
    codec, the scalar channel, the gate and the per-frame device
    `ScalarDevice`."""
    top, users, commands = scenario
    tmp = tmp_path_factory.mktemp("oracle")
    run_s = {"tick_s": top["tick_s"], "duration_s": top["days"] * 86400}
    raw = {
        **top,
        "users": [
            {**_drawn_user(pod, **fields, tmp=tmp, **run_s), **extra} for pod, fields, extra in users
        ],
    }
    try:
        config = validate_config(raw, base_dir=str(tmp))
    except ConfigError:
        assume(False)
    config = replace(config, dr_commands=commands)
    run(config, out_dir=str(tmp / "run"))
    run_reference(config, out_dir=str(tmp / "reference"))
    got, want = _tree(tmp / "run"), _tree(tmp / "reference")
    assert sorted(got) == sorted(want)
    assert [str(path) for path in want if got[path] != want[path]] == []


_TWO_HOURS = 2 * 3600
_START, _END, _VOLTAGE = SupplyEventKind


def test_supply_events_from_a_scenario_file_run_in_listed_order(tmp_path):
    """An end listed before a start on one tick ends nothing, then the
    outage starts: no 0 s outage.  The file's user writes what the same
    user built in Python writes."""
    listed = [[600, "interruption_end"], [600, "interruption_start"]]
    user = {"pod_id": POD1, "pn_w": 3000, "supply_events": listed}
    run(validate_config({"duration_s": 3600, "users": [user]}), out_dir=str(tmp_path / "file"))
    events = tmp_path / "file" / "users" / POD1 / "events.csv"
    assert events.read_text() == "t_s,event,duration_s\n600,interruption_start,\n"
    spec = UserSpec(POD1, 3000.0, supply_events=((600, _END), (600, _START)))
    run(ScenarioConfig(3600, 60, 0, (spec,)), out_dir=str(tmp_path / "python"))
    assert _tree(tmp_path / "file") == _tree(tmp_path / "python")


def _hand_built(users, duration_s, commands=(), settle=False, seed=1):
    """A Python-built scenario at 60 s ticks over a lossy link, its users
    settled as a flexibility cluster when `settle`."""
    pods = tuple(sorted(spec.pod_id for spec in users))
    mevu = MevuCluster("cluster-0", pods, 500.0, 0.0002, 0.0001, (0, duration_s)) if settle else None
    channel = ChannelConfig(loss=BernoulliLoss(0.05))
    commands = tuple(commands)
    return ScenarioConfig(duration_s, 60, seed, tuple(users), channel, dr_commands=commands, mevu=mevu)


@st.composite
def _hand_built_scenarios(draw):
    """Scenarios no scenario file gives: 1-2 users over at most two hours,
    each with its own samples running past the end of the run, supply events
    unsorted, off the tick grid or outside the run, and DR commands that
    overlap, listed in any order, emergency ones among them."""
    n = draw(st.sampled_from([15, 60, 120]) | st.integers(1, 120))
    duration = n * 60
    users = []
    for pod in (POD1, POD2)[: draw(st.integers(1, 2))]:
        loads = np.resize(draw(_load_stretches()), n + draw(st.integers(0, n)))
        off_grid = st.sampled_from([-60, 90, duration, duration + 60])
        when = st.integers(0, n - 1).map(lambda i: i * 60) | off_grid
        events = tuple(draw(st.lists(st.tuples(when, st.sampled_from(SupplyEventKind)), max_size=4)))
        pn_w = draw(st.sampled_from([3000.0, 4500.0]))
        spec = UserSpec(pod, pn_w, profile_w=loads, supply_events=events)
        if draw(st.booleans()):
            battery = BatterySpec(250.0, 1200.0, 1500.0, 0.9, draw(st.sampled_from([0.0, 125.0, 250.0])))
            spec = replace(spec, battery=battery, peak_shave_limit_w=_SHAVE_W)
        if duration >= 3600 and draw(st.booleans()):  # one or two 2-slot runs, the first interruptible
            apps = (Appliance(f"app{j}", (1000.0, 400.0), 0, duration, j == 0) for j in range(2))
            spec = replace(spec, appliances=tuple(apps)[: draw(st.integers(1, 2))])
        if draw(st.booleans()):
            threshold_wh = draw(st.sampled_from([100.0, 1000.0]))
            spec = replace(spec, energy_threshold_wh=threshold_wh, alarm_limit_w=2000.0)
        users.append(spec)
    commands = []
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.sampled_from([0.0, 30.5, 1200.0, 2400.0]) | st.floats(0, duration + 1800))
        length = draw(st.sampled_from([60.0, 90.0, 1200.0, 3600.0]) | st.floats(1, _TWO_HOURS))
        commands.append(DrCommand(draw(_DR_LIMITS), t, t + length, draw(st.sampled_from(DrIssuer))))
    return _hand_built(users, duration, commands, draw(st.booleans()), draw(st.integers(0, 2**32)))


def _overlap_case(aggregator, emergency):
    """An aggregator command listed before an overlapping emergency one,
    over a load that rises over the emergency limit at tick 38 and stays
    there."""
    load = np.repeat([500.0, 1500.0], [38, 82])
    commands = (DrCommand(2400.0, *aggregator), DrCommand(1000.0, *emergency, DrIssuer.EMERGENCY))
    return _hand_built([UserSpec(POD1, 3000.0, profile_w=load)], _TWO_HOURS, commands)


def _events_case(*events):
    """A user with the given supply events: unsorted, or one off the tick
    grid first."""
    load = np.full(120, 800.0)
    return _hand_built([UserSpec(POD1, 3000.0, profile_w=load, supply_events=events)], _TWO_HOURS)


@settings(max_examples=100, deadline=None)
@given(_hand_built_scenarios())
# The emergency command holds ticks 0-19 and 40-99 around the aggregator's
# run, and arms at the first tick of each.
@example(_overlap_case((1200.0, 2400.0), (0.0, 6000.0)))
# The emergency command holds ticks from 50, where the aggregator's ends.
@example(_overlap_case((0.0, 3000.0), (1200.0, 6000.0)))
@example(_events_case((3600, _END), (1800, _START)))
@example(_events_case((90, _VOLTAGE), (1800, _START)))
# Two days of samples on a one-day run, with an emergency window the day
# after it: the run stops at its own end.
@example(
    _hand_built(
        [UserSpec(POD1, 3000.0, profile_w=np.full(2 * 1440, 1200.0))],
        86400,
        [DrCommand(1000.0, 90_000.0, 93_600.0, DrIssuer.EMERGENCY)],
        settle=True,
    )
)
def test_hand_built_configs_run_as_the_reference_runs(tmp_path_factory, config):
    """A `ScenarioConfig` built in Python, not read from a scenario file,
    arms what the per-tick loop arms and gives its output tree byte for
    byte: a user's profile is its samples over the run, supply events fall
    on their tick in listed order (none off the grid or outside the run),
    and each run of ticks an emergency command holds arms its limit."""
    for spec in config.users:
        profile = harness._build_profile(spec, config)
        scheduled = harness._schedule_appliances(spec, config)
        _, arms = harness._grid_power(spec, config, profile, scheduled)
        assert arms == per_tick_loop(spec, config)[1]
    tmp = tmp_path_factory.mktemp("hand_built")
    run(config, out_dir=str(tmp / "run"))
    run_reference(config, out_dir=str(tmp / "reference"))
    got, want = _tree(tmp / "run"), _tree(tmp / "reference")
    assert sorted(got) == sorted(want)
    assert [str(path) for path in want if got[path] != want[path]] == []
