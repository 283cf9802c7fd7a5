"""Scenario config parsing and the end-to-end campaign runner."""

import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain2sim.automation import DrCommand, Site, SiteLoad, dr_site_step, peak_shave_step
from chain2sim.channel import BernoulliLoss, ChannelConfig
from chain2sim import frames
from chain2sim.frames import SupplyEventKind, encode_frame
from chain2sim.meter import Meter, MeterConfig
from chain2sim import harness
from chain2sim.harness import (
    ConfigError,
    LinkOutcome,
    MevuSpec,
    ScenarioConfig,
    UserSpec,
    default_campaign,
    load_config,
    run,
    summarize_daily,
    validate_config,
)
from chain2sim.profiles import household_profile, profile_to_csv

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
    assert config.pairing_mode == "portal"
    assert config.users[0].profile_csv == str(tmp_path / "prof.csv")
    assert config.users[0].tariff.price_at(0) == 0.25
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
    # A bad sample past the end of the run is never read, so it passes.
    path = tmp_path / "bad_tail.csv"
    rows = [f"{k * 60},{'nan' if k == 120 else 500.0}" for k in range(121)]
    path.write_text("t_s,power_W\n" + "\n".join(rows) + "\n")
    raw.update(users=[{"pod_id": POD1, "pn_w": 3000, "profile_csv": path.name}])
    assert validate_config(raw, base_dir=str(tmp_path)).users[0].profile_csv == str(path)


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


def _user(**fields):
    return {"users": [{"pod_id": POD1, "pn_w": 3000, **fields}]}


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
    ],
)
def test_malformed_fields_are_config_errors(overrides, field):
    raw = {k: v for k, v in {**_BASE, **overrides}.items() if v is not _DROP}
    with pytest.raises(ConfigError) as exc_info:
        validate_config(raw)
    assert [e.split(":")[0] for e in exc_info.value.errors] == [field]


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
    """`run(config)`, with every frame the meters emit also put through
    `encode_frame`, which raises on a value past its wire field.  The run
    itself carries frames as records, so without this such a value would
    land in the outputs unnoticed."""
    step_series, apply_supply_event = Meter.step_series, Meter.apply_supply_event
    encoded = []

    def encode_all(frames):
        encoded.extend(encode_frame(frame) for frame in frames)
        return frames

    def series(self, power, t0):
        for t, frames in step_series(self, power, t0):
            yield t, encode_all(frames)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Meter, "step_series", series)
        patch.setattr(
            Meter, "apply_supply_event", lambda self, t, kind: encode_all(apply_supply_event(self, t, kind))
        )
        report = run(config)
    assert len(encoded) == report.totals.sent
    return report


@settings(max_examples=60, deadline=None)
@given(
    pn_w=st.floats(1000, 300_000),
    csv_peak_w=st.none() | st.floats(0, 400_000),
    appliance_w=st.none() | st.floats(0, 200_000),
    shave_limit_w=st.none() | st.floats(1, 400_000),
    threshold_wh=st.none() | st.floats(1, 10**6) | st.floats(2**32 - 10**7, 2**32 + 10**6),
)
def test_every_accepted_config_runs_to_completion(
    pn_w, csv_peak_w, appliance_w, shave_limit_w, threshold_wh
):
    user = {"pod_id": POD1, "pn_w": pn_w, "energy_threshold_wh": threshold_wh}
    if appliance_w is not None:
        user["appliances"] = [{"id": "a", "profile_w": [appliance_w], "earliest_start_s": 3600}]
    if shave_limit_w is not None:
        user["battery"] = {"capacity_wh": 10**6, "p_charge_max_w": 10**6, "p_discharge_max_w": 10**6}
        user["peak_shave_limit_w"] = shave_limit_w
    raw = {"days": 1, "tick_s": 900, "users": [user]}
    with tempfile.TemporaryDirectory() as tmp:
        if csv_peak_w is not None:  # the peak in one quarter, a tenth of it elsewhere
            power = np.full(96, csv_peak_w / 10)
            power[40] = csv_peak_w
            profile_to_csv(Path(tmp, "p.csv"), power, 900)
            user["profile_csv"] = "p.csv"
        try:
            config = validate_config(raw, base_dir=tmp)
        except ConfigError:
            return
        report = _run_encoding_every_frame(config)
    assert report.totals.sent > 0


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
    """Frames travel from meter to device as records: the run encodes and
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
    per_user_sent = sum(
        s.sent for stats in report.per_user.values() for s in stats.values()
    )
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
    assert summarize_daily(report)[0][0] == 0


def test_portal_mode_gates_frames_before_activation():
    config = small_config(
        duration_s=6 * 3600,
        pairing_mode="portal",
        activation_delay_h=(1.0, 2.0),
        channel=ChannelConfig(),
    )
    report, details = run(config, parallel=False, with_details=True)
    assert report.gated_total > 0
    assert report.totals.received == report.totals.sent - report.gated_total
    for result in details.user_results:
        active_at, revoked_at = details.pairing_windows[result.pod_id]
        assert 3600.0 <= active_at <= 2 * 3600.0
        assert revoked_at is None
        for t_arrive, _seq in result.processed_log:
            assert t_arrive >= active_at


def test_revocation_stops_processing():
    config = small_config(
        users=(UserSpec(pod_id=POD1, pn_w=3000.0, revoke_at_s=2 * 3600.0),),
        channel=ChannelConfig(),
    )
    report, details = run(config, parallel=False, with_details=True)
    (result,) = details.user_results
    assert all(t < 2 * 3600.0 for t, _ in result.processed_log)
    assert report.gated_total > 0


def test_seq_gap_identity_per_user():
    config = small_config(duration_s=8 * 3600)
    _, details = run(config, parallel=False, with_details=True)
    for result in details.user_results:
        undelivered = (LinkOutcome.LOST, LinkOutcome.GATED)
        assert result.seq_gaps == sum(
            n for (_, _, disposition), n in result.ledger.items() if disposition in undelivered
        )


def test_unbalanced_books_raise_with_the_ledger(monkeypatch):
    """A device that takes one frame without counting it breaks the books;
    the error carries the link's ledger."""
    real = harness.Device.on_frame

    def on_frame(self, frame):
        real(self, frame)
        if frame.seq == 3:
            self.stats["processed"] -= 1

    monkeypatch.setattr(harness.Device, "on_frame", on_frame)
    config = small_config(users=(UserSpec(pod_id=POD1, pn_w=3000.0),), channel=ChannelConfig())
    with pytest.raises(harness.ReconciliationError, match=r"processed (\d+) != device") as caught:
        run(config)
    ledger = caught.value.ledger
    assert caught.value.pod_id == POD1
    assert {d for _, _, d in ledger} == {LinkOutcome.PROCESSED}
    processed = sum(ledger.values())
    assert f"processed {processed} != device {processed - 1}" in str(caught.value)


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


def test_settlement_reuses_the_profiles_the_users_ran_on(tmp_path, monkeypatch):
    calls = []
    real = harness.household_profile
    monkeypatch.setattr(
        harness, "household_profile", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    config = small_config(
        mevu=MevuSpec(
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


def _per_tick_series(calls):
    """A stand-in for Meter.step_series that steps every tick, as the oracle."""

    def per_tick(meter, power, t0):
        calls.append(meter.pod_id)
        tick_s = meter.config.tick_s
        for i, p in enumerate(np.asarray(power).tolist()):
            yield t0 + i * tick_s, meter.step(p, t0 + i * tick_s)

    return per_tick


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_open_loop_users_match_the_per_tick_loop(tmp_path, monkeypatch):
    """Breakpoint stepping gives the same output tree as stepping every tick,
    for plain users with appliances, a CSV profile (one that trips the
    breaker) and an energy threshold, settled as a flexibility cluster.  A
    third run makes every user a demand-response site whose window opens
    after the run, which must change nothing."""
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

    calls = []
    monkeypatch.setattr(harness.Meter, "step_series", _per_tick_series(calls))
    run(config, out_dir=str(tmp_path / "per_tick"))
    assert sorted(calls) == pods
    series = _tree(tmp_path / "series")
    assert series == _tree(tmp_path / "per_tick")
    # A DR command that opens after the run makes every user a DR site, which
    # goes through step_series like any user, without changing any power.
    late = replace(config, dr_commands=(DrCommand(1000.0, duration, duration + 900),))
    calls.clear()
    run(late, out_dir=str(tmp_path / "closed_loop"))
    assert sorted(calls) == pods
    assert series == _tree(tmp_path / "closed_loop")
    events = series[Path("users", pods[1], "events.csv")].decode()
    assert "interruption_start" in events


def _per_tick_loop(spec, config):
    """A user's grid power, emergency arms and metered series as a loop over
    every tick finds them: supply events, then `dr_site_step` (with no
    command outside a window), then peak shaving outside windows, then
    `Meter.step`.  Arms are recorded as {tick index: (limit_w, until_s)}."""
    tick = config.tick_s
    profile = harness._build_profile(spec, config)
    scheduled = harness._schedule_appliances(spec, config)
    battery = spec.battery.build() if spec.battery else None
    loads = [SiteLoad(a.id, 0.0, a.interruptible, a.controllable) for a, _ in scheduled]
    site = Site(spec.pod_id, loads, battery)
    threshold = spec.energy_threshold_wh
    meter = Meter(spec.pod_id, MeterConfig(spec.pn_w, energy_threshold_wh=threshold, tick_s=tick))
    arms = {}

    def arm(limit_w, until_s):  # record the arm, then arm the meter
        arms[i] = (limit_w, until_s)
        Meter.arm_emergency_limit(meter, limit_w, until_s)

    meter.arm_emergency_limit = arm
    grid, actual = [], []
    for i, p_house in enumerate(profile.tolist()):
        t = i * tick
        for _, kind in (e for e in spec.supply_events if e[0] == t):
            meter.apply_supply_event(t, kind)
        slot = t // 900
        for load, (app, start) in zip(site.loads, scheduled):
            k = slot - start
            load.power_w = app.profile_w[k] if 0 <= k < len(app.profile_w) else 0.0
        site.base_load_w = p_house
        cmd = next((c for c in config.dr_commands if c.t_start <= t < c.t_end), None)
        result = dr_site_step(site, cmd, t, tick, meter)
        p = result.p_grid_w
        if battery is not None and spec.peak_shave_limit_w is not None and not result.in_window:
            p = peak_shave_step(p, spec.peak_shave_limit_w, battery, tick).p_grid_w
        meter.step(p, t)
        grid.append(p)
        actual.append(p if meter.supply_on else 0.0)
    return np.array(grid), arms, np.array(actual)


def test_closed_loop_users_match_the_per_tick_loop(tmp_path, monkeypatch):
    """Users with demand response, peak shaving and supply events: the grid
    power built up front equals a loop over every tick, and stepping the
    meter over pieces split at events and emergency arms gives the same
    output tree as stepping every tick."""
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
            # Back to back: curtailments carry from one window to the next.
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
    _, details = run(config, out_dir=str(tmp_path / "series"), with_details=True)
    results = {result.pod_id: result for result in details.user_results}
    for spec in config.users:
        result = results[spec.pod_id]
        profile = harness._build_profile(spec, config)
        assert result.profile_w.tobytes() == profile.tobytes()
        scheduled = harness._schedule_appliances(spec, config)
        power, arms = harness._grid_power(spec, config, profile, scheduled)
        want_power, want_arms, want_actual = _per_tick_loop(spec, config)
        assert power.tobytes() == want_power.tobytes()
        assert dict(arms) == want_arms == {39600 // tick: (1000.0, 41400.0)}
        assert result.actual_w.tobytes() == want_actual.tobytes()

    calls = []
    monkeypatch.setattr(harness.Meter, "step_series", _per_tick_series(calls))
    run(config, out_dir=str(tmp_path / "per_tick"))
    series = _tree(tmp_path / "series")
    assert series == _tree(tmp_path / "per_tick")
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
