"""Eligibility checks, pairing lifecycle, admission gate, log replay."""

import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chain2sim.portal import (
    DuplicatePairingError,
    IneligiblePodError,
    MeterGeneration,
    PodRecord,
    Portal,
    load_registry,
    replay_log,
)

REGISTRY = {
    "IT001E00000001": PodRecord("IT001E00000001", MeterGeneration.SECOND, True),
    "IT001E00000002": PodRecord("IT001E00000002", MeterGeneration.FIRST, True),
    "IT001E00000003": PodRecord("IT001E00000003", MeterGeneration.SECOND, False),
}


def make_portal(**kw):
    kw.setdefault("rng", random.Random(5))
    return Portal(REGISTRY, **kw)


def test_eligibility_reasons():
    portal = make_portal()
    assert portal.check_eligibility("IT001E00000001").eligible
    assert portal.check_eligibility("IT001E00000002").reason == "meter_generation"
    assert portal.check_eligibility("IT001E00000003").reason == "inactive"
    assert portal.check_eligibility("IT001E00000099").reason == "unknown_pod"


def test_pairing_activates_after_delay():
    portal = make_portal()
    pairing = portal.pair("IT001E00000001", "dev1", t=0.0)
    assert 3600.0 <= pairing.active_at <= 4 * 3600.0
    assert pairing.revoked_at is None
    assert not portal.admits("IT001E00000001", "dev1", pairing.active_at - 1.0)
    assert portal.admits("IT001E00000001", "dev1", pairing.active_at)
    assert portal.admits("IT001E00000001", "dev1", pairing.active_at + 60.0)


def test_revocation_closes_the_gate():
    portal = make_portal()
    pairing = portal.pair("IT001E00000001", "dev1", t=0.0)
    portal.revoke("IT001E00000001", "dev1", t=50_000.0)
    assert portal.admits("IT001E00000001", "dev1", 49_999.9)
    assert not portal.admits("IT001E00000001", "dev1", 50_000.0)
    assert pairing.revoked_at == 50_000.0


def test_pairing_an_ineligible_pod_fails():
    portal = make_portal()
    with pytest.raises(IneligiblePodError, match="meter_generation"):
        portal.pair("IT001E00000002", "dev1", 0.0)
    with pytest.raises(IneligiblePodError, match="inactive"):
        portal.pair("IT001E00000003", "dev1", 0.0)
    with pytest.raises(IneligiblePodError, match="unknown_pod"):
        portal.pair("IT001E00000099", "dev1", 0.0)


def test_duplicate_pairing_refused_until_revoked():
    portal = make_portal()
    portal.pair("IT001E00000001", "dev1", 0.0)
    with pytest.raises(DuplicatePairingError):
        portal.pair("IT001E00000001", "dev1", 10.0)
    # Same POD with a different device is a different pairing.
    portal.pair("IT001E00000001", "dev2", 10.0)
    portal.revoke("IT001E00000001", "dev1", 20.0)
    again = portal.pair("IT001E00000001", "dev1", 30.0)
    assert again.requested_at == 30.0


def test_revoking_a_pending_pairing_is_allowed():
    portal = make_portal()
    portal.pair("IT001E00000001", "dev1", 0.0)
    pairing = portal.revoke("IT001E00000001", "dev1", 10.0)
    assert pairing.revoked_at == 10.0
    assert not portal.admits("IT001E00000001", "dev1", pairing.active_at + 1)
    with pytest.raises(KeyError):
        portal.revoke("IT001E00000001", "dev1", 20.0)


def test_revoking_before_the_request_is_refused():
    portal = make_portal()
    portal.pair("IT001E00000001", "dev1", 100.0)
    with pytest.raises(ValueError, match="before"):
        portal.revoke("IT001E00000001", "dev1", 99.5)
    pairing = portal.revoke("IT001E00000001", "dev1", 100.0)
    assert pairing.revoked_at == 100.0


@st.composite
def pairing_cases(draw):
    """A portal holding one pair in a drawn state, with the window it must
    give: unpaired, paired, or revoked (possibly before activation)."""
    portal = make_portal(rng=random.Random(draw(st.integers(0, 2**32))))
    state = draw(st.sampled_from(["unpaired", "paired", "revoked"]))
    if state == "unpaired":
        return portal, (math.inf, math.inf)
    pairing = portal.pair("IT001E00000001", "dev1", draw(st.floats(0.0, 1e7)))
    if state == "paired":
        return portal, (pairing.active_at, math.inf)
    revoked_at = draw(st.floats(pairing.requested_at, 2e7))
    portal.revoke("IT001E00000001", "dev1", revoked_at)
    return portal, (pairing.active_at, revoked_at)


@given(pairing_cases(), st.floats(allow_nan=False))
def test_admits_is_the_window(case, t):
    portal, expected = case
    lo, hi = portal.window("IT001E00000001", "dev1")
    assert (lo, hi) == expected
    probes = [t]
    for edge in (lo, hi):
        if math.isfinite(edge):  # the edge itself and one ulp either side
            probes += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    for probe in probes:
        assert portal.admits("IT001E00000001", "dev1", probe) == (lo <= probe < hi)


def test_admits_unknown_pairing_is_false():
    portal = make_portal()
    assert not portal.admits("IT001E00000001", "devX", 1e9)


def test_same_seed_same_activation_times():
    a = Portal(REGISTRY, rng=random.Random(99)).pair("IT001E00000001", "d", 0.0)
    b = Portal(REGISTRY, rng=random.Random(99)).pair("IT001E00000001", "d", 0.0)
    assert a.active_at == b.active_at


def test_activation_window_is_configurable():
    portal = make_portal(activation_delay_h=(0.0, 0.0))
    pairing = portal.pair("IT001E00000001", "dev1", t=123.0)
    assert pairing.active_at == 123.0
    with pytest.raises(ValueError, match="activation window"):
        Portal(REGISTRY, activation_delay_h=(2.0, 1.0))


@pytest.mark.parametrize("window", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)])
def test_activation_window_refuses_nan(window):
    with pytest.raises(ValueError, match="activation window"):
        Portal(REGISTRY, activation_delay_h=window)


def test_log_and_replay_round_trip(tmp_path):
    sink = io.StringIO()
    portal = make_portal()
    portal.set_log_sink(sink)
    pairing = portal.pair("IT001E00000001", "dev1", 0.0)
    portal.pair("IT001E00000001", "dev2", 100.0)
    portal.revoke("IT001E00000001", "dev1", 40_000.0)

    log = tmp_path / "portal.jsonl"
    log.write_text(sink.getvalue())
    replayed = replay_log(REGISTRY, log, random.Random(5))

    probes = [0.0, pairing.active_at, 39_999.0, 40_000.0, 90_000.0]
    for t in probes:
        for device in ("dev1", "dev2"):
            assert replayed.admits("IT001E00000001", device, t) == portal.admits(
                "IT001E00000001", device, t
            )
    for device in ("dev1", "dev2"):
        assert replayed.window("IT001E00000001", device) == portal.window(
            "IT001E00000001", device
        )
    # The replayed dev1 pairing is revoked, so it cannot be revoked again.
    with pytest.raises(KeyError):
        replayed.revoke("IT001E00000001", "dev1", 50_000.0)
    # Replay advanced the generator past the logged pairings, so the next
    # delay is the one the original portal draws next.
    later = replayed.pair("IT001E00000001", "dev3", 50_000.0)
    assert later.active_at == portal.pair("IT001E00000001", "dev3", 50_000.0).active_at


def test_replay_rejects_garbage(tmp_path):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"action": "merge", "pod_id": "x", "device_id": "y"}\n')
    with pytest.raises(ValueError, match="unknown action"):
        replay_log(REGISTRY, log)
    log.write_text("not json\n")
    with pytest.raises(ValueError, match="bad log entry"):
        replay_log(REGISTRY, log)

    ids = '"pod_id": "IT001E00000001", "device_id": "d"'
    pair = f'{{"action": "pair", "t": 0, "active_at": 5000, {ids}}}'
    revoke = f'{{"action": "revoke", "t": 9000, {ids}}}'
    # Each log ends in its one malformed line.
    logs = [
        ([f'{{"action": "pair", "active_at": 5000, {ids}}}'], "t must be a finite number"),
        ([pair.replace('"t": 0', '"t": "x"')], "t must be a finite number"),
        ([pair.replace('"t": 0', '"t": NaN')], "t must be a finite number"),
        ([pair.replace("5000", "[5000]")], "active_at must be a finite number"),
        ([pair.replace('"d"', "7")], "must be strings"),
        (["[1, 2]"], "unknown action"),
        ([pair, f'{{"action": "activate", "t": 5000, {ids}}}'], "unknown action"),
        ([revoke], "no live pairing"),
        ([pair, revoke, revoke], "no live pairing"),
        ([pair, pair], "already live"),
    ]
    for lines, message in logs:
        log.write_text("\n".join(lines) + "\n")
        where = rf"bad\.jsonl:{len(lines)}: bad log entry: "
        with pytest.raises(ValueError, match=where + ".*" + message):
            replay_log(REGISTRY, log)


def test_load_registry(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "pod_id,meter_generation,active,dso\n"
        "IT001E00000010,second,true,acme\n"
        "IT001E00000011,first,false,\n"
    )
    registry = load_registry(path)
    assert registry["IT001E00000010"].dso == "acme"
    assert registry["IT001E00000011"].meter_generation is MeterGeneration.FIRST
    assert registry["IT001E00000011"].dso == "default-dso"

    dupe = tmp_path / "dupe.csv"
    dupe.write_text(
        "pod_id,meter_generation,active\nIT001E00000010,second,true\nIT001E00000010,second,true\n"
    )
    with pytest.raises(ValueError, match="duplicate pod_id"):
        load_registry(dupe)

    bad = tmp_path / "bad.csv"
    bad.write_text("pod_id,meter_generation,active\nIT001E00000010,second,maybe\n")
    with pytest.raises(ValueError, match="true/false"):
        load_registry(bad)

    empty_pod = tmp_path / "empty_pod.csv"
    empty_pod.write_text("pod_id,meter_generation,active\n,second,true\n")
    with pytest.raises(ValueError, match="row 0: pod_id must be 14 ASCII alphanumeric characters, got ''"):
        load_registry(empty_pod)

    headerless = tmp_path / "headerless.csv"
    headerless.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_registry(headerless)
