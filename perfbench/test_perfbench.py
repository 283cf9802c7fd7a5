"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import worker
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SMOKE_SCALE = 0.1


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.fixture(scope="module")
def smoke():
    """Reduced-scale runs of every workload, untraced and traced."""
    return {
        (name, trace): run.run_benchmark(name, 5, 0.5, trace, scale=SMOKE_SCALE)[0]
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(smoke, name, trace):
    line = smoke[(name, trace)]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = (
        {n: u for n, u, _ in run.PER_LAYER} if trace else dict(run.END_TO_END)
    )
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_workloads_separate_the_layers(smoke):
    layers = {name: smoke[(name, True)]["metrics"] for name in workloads.WORKLOADS}

    def value(name, metric):
        return layers[name][metric]["value"]

    for name in ("campaign", "fine_tick"):
        assert value(name, "automation.self_share") == 0
        assert value(name, "portal.admitted_ratio") == 1
    assert value("full_feature", "automation.self_share") > 0
    assert value("full_feature", "automation.dr_site_step.us_per_call") > 0
    assert value("full_feature", "portal.admitted_ratio") < 1
    assert value("full_feature", "profiles.profile_from_csv.calls") >= 1
    assert value("fine_tick", "meter.self_share") == max(
        value(name, "meter.self_share") for name in workloads.WORKLOADS
    )
    assert value("campaign", "frames.share") >= 5 * value("fine_tick", "frames.share")
    assert all(value(name, "trace.overhead_ratio") > 0 for name in workloads.WORKLOADS)


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    sys.path.insert(0, worker.SRC)
    from chain2sim import harness

    resolved = [tracer.resolve(path) for _, path, _ in tracer.TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in resolved]
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            for (owner, attr), original in zip(resolved, originals):
                assert owner.__dict__[attr] is not original
            config = harness.default_campaign(2, 1, 0.01, tick_s=60, seed=3)
            harness.run(config, out_dir=str(tmp_path), parallel=False)
            raise RuntimeError("leave the block early")
    for (owner, attr), original in zip(resolved, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    totals = t.layer_totals()
    assert totals["harness.run"]["count"] == 1
    assert totals["meter.step"]["count"] == 2 * 1440
    assert totals["frames.crc16"]["count"] == (
        totals["frames.encode_frame"]["count"] + totals["frames.decode_frame"]["count"]
    )


def test_tracer_self_time_excludes_children():
    clock_values = iter([0.0, 1.0, 3.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(clock_values))
    inner = t.wrap(lambda: None, "inner", False)
    outer = t.wrap(lambda: inner(), "outer", True)
    outer()
    assert t.aggregates[("inner", "outer")] == [1, 2.0, 2.0]
    assert t.aggregates[("outer", None)] == [1, 10.0, 8.0]
    assert t.spans == [
        {"id": 0, "parent": None, "layer": "outer", "start": 0.0, "attrs": {},
         "end": 10.0, "self": 8.0}
    ]


def test_digest_check_rejects_a_tampered_output(tmp_path):
    spec = workloads.generate("campaign", 4, str(tmp_path / "in"), scale=SMOKE_SCALE)
    session = run.Session(str(tmp_path), spec, time.monotonic() + 120)
    reference = session.operation("serial", None)
    assert reference is not None and session.failed == 0

    out = tmp_path / "out"
    sys.path.insert(0, worker.SRC)
    from chain2sim import harness

    with open(spec) as fh:
        config = harness.default_campaign(**json.load(fh)["args"])
    harness.run(config, out_dir=str(out))
    assert worker.tree_digest(str(out)) == reference["digest"]
    quarters = next(out.glob("users/*/quarters.csv"))
    data = bytearray(quarters.read_bytes())
    data[-2] ^= 0x01
    quarters.write_bytes(bytes(data))
    assert worker.tree_digest(str(out)) != reference["digest"]

    tampered = "0" * 64
    result = session.operation("run", tampered)
    assert result is not None and result["mismatch"]
    assert (session.attempted, session.failed) == (2, 1)


def test_recorded_digests_cover_the_held_out_seed():
    for name in workloads.WORKLOADS:
        assert run.recorded_digest(name, workloads.HELD_OUT_SEED) is not None


def test_generator_is_a_function_of_the_seed(tmp_path):
    def files(seed, sub):
        workloads.generate("full_feature", seed, str(tmp_path / sub))
        return {
            p.name: p.read_bytes()
            for p in (tmp_path / sub).iterdir()
            if p.name != "spec.json"
        }

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert set(first) == {"scenario.yaml", "profile.csv", "dr_feed.csv"}
    assert first == again
    assert first["scenario.yaml"] != other["scenario.yaml"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
