"""Synthetic household profiles: texture invariants, the raw-word replay of
numpy's scalar draws and CSV round-trip."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain2sim import profiles
from chain2sim.frames import TYPE, FrameType
from chain2sim.meter import Meter, MeterConfig
from chain2sim.profiles import PRESETS, household_profile, profile_from_csv
from reference import profile_to_csv, scalar_profile


def test_profile_shape_and_positivity():
    rng = np.random.default_rng(1)
    power = household_profile(rng, 3000.0, 86400, tick_s=60, preset="B")
    assert power.shape == (1440,)
    assert (power >= 0).all()
    assert power.mean() > 0


def test_profile_is_deterministic_per_seed():
    a = household_profile(np.random.default_rng(5), 4500.0, 7200)
    b = household_profile(np.random.default_rng(5), 4500.0, 7200)
    c = household_profile(np.random.default_rng(6), 4500.0, 7200)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_profile_values_avoid_the_dead_band():
    """Ordinary load is soft-capped; only overrun episodes go above it."""
    pn = 3000.0
    found_overrun = False
    for seed in range(6):
        power = household_profile(np.random.default_rng(seed), pn, 86400, preset="E")
        high = power[power > 0.92 * pn + 1e-9]
        if high.size:
            found_overrun = True
            assert (high >= 1.02 * pn - 1e-9).all()
            assert (high <= 1.9 * pn + 1e-9).all()
    assert found_overrun


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_profiles_never_trip_the_breaker(preset):
    """Overrun episodes are too short for the cut countdown to expire."""
    pn = 3000.0
    for seed in (0, 1):
        power = household_profile(
            np.random.default_rng(seed), pn, 86400, tick_s=1, preset=preset
        )
        meter = Meter("IT001E00000001", MeterConfig(pn_w=pn, tick_s=1))
        for rows in meter.emit_rows(power, 0):
            assert not (rows[:, TYPE] == FrameType.T4).any()
        assert meter.supply_on


def test_profile_validation():
    rng = np.random.default_rng(0)
    for pn_w in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="pn_w"):
            household_profile(rng, pn_w, 3600)
    with pytest.raises(ValueError, match="multiple"):
        household_profile(rng, 3000.0, 100, tick_s=60)
    with pytest.raises(ValueError, match="tick_s=3600 must not exceed the 1800 s overrun window"):
        household_profile(rng, 3000.0, 7200, tick_s=3600)
    household_profile(rng, 3000.0, 7200, tick_s=1800)  # one tick per window
    with pytest.raises(ValueError, match="preset"):
        household_profile(rng, 3000.0, 3600, preset="Z")


def _next_draws(rng):
    """The draws after a profile: a 32-bit integer, which reads a buffered
    half-word if one is left, then a double."""
    return int(rng.integers(0, 2**32)), rng.random()


def _assert_replays_the_reference(make_rng, pn_w, duration_s, tick_s, preset):
    rng, ref = make_rng(), make_rng()
    power = household_profile(rng, pn_w, duration_s, tick_s, preset)
    want = scalar_profile(ref, pn_w, duration_s, tick_s, preset)
    assert power.tobytes() == want.tobytes()
    assert _next_draws(rng) == _next_draws(ref)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    preset=st.sampled_from(sorted(PRESETS)),
    tick_s=st.integers(1, 900),
    ticks=st.integers(1, 12000),
    pn_w=st.floats(100.0, 20000.0),
)
@example(seed=0, preset="B", tick_s=900, ticks=1, pn_w=3000.0)  # start draws nothing
@example(seed=1, preset="E", tick_s=60, ticks=10080, pn_w=4500.0)  # a campaign week
def test_household_profile_replays_the_scalar_draws(seed, preset, tick_s, ticks, pn_w):
    """The profile and the generator's state after it are what numpy's
    scalar draws give (tests/reference.py)."""
    _assert_replays_the_reference(
        lambda: np.random.default_rng(seed), pn_w, tick_s * ticks, tick_s, preset
    )


def test_replay_starts_from_a_buffered_half_word():
    def make_rng():
        rng = np.random.default_rng(21)
        rng.integers(0, 10)  # leaves the high half of its word buffered
        return rng

    for tick_s in (1, 60, 900):
        _assert_replays_the_reference(make_rng, 3000.0, 86400, tick_s, "C")


@pytest.fixture
def replayed_blocks(monkeypatch):
    """The spans of each block of rounds that fell back to drawing one by
    one, after a bounded draw hit Lemire's rejection."""
    spans = []
    replay = profiles._Stream._replay

    def spy(self, count, block_spans):
        spans.append(block_spans)
        return replay(self, count, block_spans)

    monkeypatch.setattr(profiles._Stream, "_replay", spy)
    return spans


# Found by scanning PCG64(0)'s raw words for a half-word that the segment
# draw (preset B, span 2700) or the pulse start (86400 ticks, span 86399)
# rejects, then placing the generator so the block reads it.
@pytest.mark.parametrize(
    "advance, tick_s, block",
    [(3671689, 60, (2700,)), (81935, 1, (780, 86399))],
    ids=["segments", "pulses"],
)
def test_replay_falls_back_on_a_rejection(replayed_blocks, advance, tick_s, block):
    def make_rng():
        return np.random.Generator(np.random.PCG64(0).advance(advance))

    _assert_replays_the_reference(make_rng, 3000.0, 86400, tick_s, "B")
    assert replayed_blocks == [block]


def test_only_pcg64_generators_are_replayed():
    with pytest.raises(TypeError, match="PCG64"):
        household_profile(np.random.Generator(np.random.MT19937(0)), 3000.0, 3600)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    power = household_profile(rng, 3000.0, 7200, tick_s=60)
    path = tmp_path / "profile.csv"
    profile_to_csv(path, power, 60)
    loaded, tick = profile_from_csv(path)
    assert tick == 60
    assert loaded == pytest.approx(power, abs=5e-4)  # 3 decimals on disk


def test_csv_requires_uniform_grid_from_zero(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,power_W\n0,100\n60,100\n180,100\n")
    with pytest.raises(ValueError, match="uniform"):
        profile_from_csv(path)
    path.write_text("t_s,power_W\n60,100\n120,100\n")
    with pytest.raises(ValueError, match="start at 0|uniform"):
        profile_from_csv(path)
    # A short row or a field that does not parse is named by its row.
    for rows, message in [
        ("0\n60,100\n", "row 0: need t_s and power_W, got ['0']"),
        ("0,100\nx,5\n", "row 1: invalid literal for int() with base 10: 'x'"),
        ("0,100\n60,high\n", "row 1: could not convert string to float: 'high'"),
    ]:
        path.write_text("t_s,power_W\n" + rows)
        with pytest.raises(ValueError) as exc_info:
            profile_from_csv(path)
        assert str(exc_info.value) == f"{path}: {message}"
