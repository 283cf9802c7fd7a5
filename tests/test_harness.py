"""Scenario config parsing and the end-to-end campaign runner."""

import json

import numpy as np
import pytest

from chain2sim.channel import BernoulliLoss, ChannelConfig
from chain2sim.frames import SupplyEventKind
from chain2sim import harness
from chain2sim.harness import (
    CampaignReport,
    ConfigError,
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
from chain2sim.seeds import derive

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
        assert result.seq_gaps == sum(result.lost.values()) + result.gated


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
