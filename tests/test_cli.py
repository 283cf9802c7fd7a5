"""The command-line front end, driven through main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chain2sim import cli
from chain2sim.cli import main
from chain2sim.profiles import household_profile
from reference import profile_to_csv

POD = "IT001E00000001"


@pytest.fixture()
def registry_csv(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "pod_id,meter_generation,active\n"
        f"{POD},second,true\n"
        "IT001E00000002,first,true\n"
    )
    return path


def test_simulate_runs_a_scenario(tmp_path, capsys):
    profile = household_profile(np.random.default_rng(0), 3000.0, 3600, tick_s=60)
    profile_to_csv(tmp_path / "prof.csv", profile, 60)
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "duration_s: 3600\ntick_s: 60\nseed: 1\n"
        "users:\n"
        f"  - pod_id: {POD}\n    pn_w: 3000\n    profile_csv: prof.csv\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Scenario: 1 users" in captured.out
    assert (out / "report.csv").exists()
    assert (out / "users" / POD / "quarters.csv").exists()


def test_simulate_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("tick_s: 7\nusers: []\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "tick_s" in capsys.readouterr().err


def test_simulate_reports_unreadable_yaml_as_a_config_error(tmp_path, capsys):
    # A YAML syntax error, and an int with more digits than Python will parse.
    texts = {"cut.yaml": "duration_s: 3600\nusers: [", "big.yaml": f"seed: {'9' * 5000}\n"}
    for name, text in texts.items():
        config = tmp_path / name
        config.write_text(text)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config:\n  {config}: ")
        assert "Traceback" not in err


def test_simulate_rejects_a_profile_csv_row_with_one_field(tmp_path, capsys):
    (tmp_path / "prof.csv").write_text("t_s,power_W\n0\n60,100\n")
    config = tmp_path / "scenario.yaml"
    config.write_text(
        f"duration_s: 3600\nusers:\n  - pod_id: {POD}\n    pn_w: 3000\n    profile_csv: prof.csv\n"
    )
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    field = f"users[0].profile_csv: {tmp_path / 'prof.csv'}: row 0: "
    assert err.startswith(f"invalid config:\n  {field}")
    assert "Traceback" not in err


def test_simulate_rejects_configs_that_overflow_the_wire_format(tmp_path, capsys):
    # A 2 MW contract's quarters exceed the 65535 Wh a T1 frame carries.
    config = tmp_path / "big.yaml"
    config.write_text(f"days: 1\ntick_s: 60\nusers:\n  - pod_id: {POD}\n    pn_w: 2000000\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:\n  users[0].pn_w: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tick", "7", "tick_s"),
        ("--loss", "2", "channel.loss.p_loss"),
        ("--loss", "-0.5", "channel.loss.p_loss"),
        ("--users", "0", "fleet.count"),
        ("--days", "0", "duration_s"),
    ],
)
def test_campaign_rejects_bad_arguments(tmp_path, capsys, flag, value, field):
    args = ["campaign", "--users", "2", "--days", "1", "--loss", "0.01", "--out", str(tmp_path / "o")]
    assert main([*args, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config:\n  {field}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_simulate_reports_a_missing_config_file(tmp_path, capsys):
    config = tmp_path / "missing.yaml"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config:\n  {config}: ")
    assert "Traceback" not in err


def test_unwritable_output_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    out = blocker / "out"  # a directory inside a regular file cannot exist
    args = ["campaign", "--users", "1", "--days", "1", "--loss", "0", "--tick", "900"]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err
    assert "Traceback" not in err


def test_a_second_run_into_one_output_directory_exits_2(tmp_path, capsys):
    args = ["campaign", "--users", "1", "--days", "1", "--loss", "0", "--tick", "900"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"{tmp_path} already holds report.csv and users of an earlier run\n"


def test_campaign_smoke(tmp_path, capsys):
    out = tmp_path / "camp"
    code = main(
        [
            "campaign",
            "--users", "3",
            "--days", "1",
            "--loss", "0.01",
            "--tick", "300",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "Frame type" in capsys.readouterr().out
    report = (out / "report.csv").read_text()
    assert report.startswith("scope,key,frame_type,sent,received,success_rate")


def test_cli_import_skips_numpy_and_yaml():
    """Only the run commands need the harness; the taxonomy and portal
    commands start without numpy and yaml."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, chain2sim.cli; print(sorted({'numpy', 'yaml'} & sys.modules.keys()))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_taxonomy_list_and_filters(capsys):
    assert main(["taxonomy", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 19  # header plus all 18 entries

    assert main(["taxonomy", "list", "--level", "automation", "--enabler", "yes"]) == 0
    out = capsys.readouterr().out
    assert "A.10" in out
    assert "A.2 " not in out


def test_taxonomy_show(capsys):
    assert main(["taxonomy", "show", "A.3"]) == 0
    assert "A.3" in capsys.readouterr().out
    assert main(["taxonomy", "show", "A.99"]) == 2
    assert "A.99" in capsys.readouterr().err


def test_portal_eligibility_exit_codes(registry_csv, capsys):
    assert main(["portal", "eligibility", "--registry", str(registry_csv), POD]) == 0
    assert "eligible" in capsys.readouterr().out
    code = main(["portal", "eligibility", "--registry", str(registry_csv), "IT001E00000002"])
    assert code == 1
    assert "meter_generation" in capsys.readouterr().out


def test_portal_pair_revoke_round_trip(registry_csv, tmp_path, capsys):
    log = tmp_path / "portal.jsonl"
    args = ["portal", "pair", "--registry", str(registry_csv), "--log", str(log), POD, "dev1"]
    assert main(args) == 0
    assert "frames flow from" in capsys.readouterr().out
    # Second pairing attempt hits the duplicate guard via the replayed log.
    assert main(args) == 2
    assert "already" in capsys.readouterr().err
    revoke = [
        "portal", "revoke", "--registry", str(registry_csv), "--log", str(log),
        POD, "dev1", "--t", "9000",
    ]
    # A revocation before the request is refused, and the log stays replayable.
    assert main([*revoke[:-1], "-5"]) == 2
    assert "before the pairing request" in capsys.readouterr().err
    assert main(revoke) == 0
    assert "revoked" in capsys.readouterr().out
    # And now pairing again is allowed; state persisted across invocations.
    assert main(args) == 0


def test_portal_log_resumes_the_seed_stream(registry_csv, tmp_path, capsys):
    # random.Random(5)'s first two uniform(3600, 14400) draws.
    log = tmp_path / "portal.jsonl"
    for device, active_at in (("dev1", 10327), ("dev2", 11611)):
        args = ["portal", "pair", "--registry", str(registry_csv), "--log", str(log)]
        assert main([*args, "--seed", "5", POD, device]) == 0
        assert f"frames flow from t={active_at}\n" in capsys.readouterr().out


def test_portal_bad_registry_exits_2(registry_csv, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"pod_id,meter_generation,active\n{POD},third,true\n")
    short = tmp_path / "short.csv"
    short.write_text(f"pod_id,meter_generation,active\n{POD},second\n")
    empty_pod = tmp_path / "empty_pod.csv"
    empty_pod.write_text(f"pod_id,meter_generation,active\n{POD},second,true\n,second,true\n")
    missing = tmp_path / "missing.csv"
    cases = (
        (bad, "row 0: 'third'"),
        (short, "row 0: active"),
        (empty_pod, "row 1: pod_id must be 14"),
        (missing, "No such file"),
    )
    for registry, message in cases:
        assert main(["portal", "eligibility", "--registry", str(registry), POD]) == 2
        err = capsys.readouterr().err
        assert message in err and str(registry) in err
        assert "Traceback" not in err


def test_portal_bad_log_exits_2(registry_csv, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"action": "pair", "t": "x"}\n')
    # A directory cannot be read as a log.
    for log, message in ((bad, f"{bad}:1: bad log entry"), (tmp_path, "Is a directory")):
        args = ["portal", "pair", "--registry", str(registry_csv), "--log", str(log), POD, "d"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_portal_rejects_a_time_its_log_could_not_replay(registry_csv, tmp_path, capsys):
    log = tmp_path / "portal.jsonl"
    for t in ("nan", "inf"):
        args = ["portal", "pair", "--registry", str(registry_csv), "--log", str(log), POD, "d"]
        with pytest.raises(SystemExit) as exc_info:
            main([*args, "--t", t])
        assert exc_info.value.code == 2
        assert f"argument --t: invalid _finite_time value: '{t}'" in capsys.readouterr().err
    assert not log.exists()
