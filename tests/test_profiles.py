"""Synthetic household profiles: texture invariants and CSV round-trip."""

import numpy as np
import pytest

from chain2sim.frames import FrameType
from chain2sim.meter import Meter, MeterConfig
from chain2sim.profiles import (
    PRESETS,
    household_profile,
    profile_from_csv,
    profile_to_csv,
)


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
        for t, p in enumerate(power):
            frames = meter.step(float(p), t)
            assert not any(f.frame_type is FrameType.T4 for f in frames)
        assert meter.supply_on


def test_profile_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="pn_w"):
        household_profile(rng, 0.0, 3600)
    with pytest.raises(ValueError, match="multiple"):
        household_profile(rng, 3000.0, 100, tick_s=60)
    with pytest.raises(ValueError, match="preset"):
        household_profile(rng, 3000.0, 3600, preset="Z")


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
