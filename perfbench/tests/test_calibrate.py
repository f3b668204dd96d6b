"""Calibration rounds and the per-job scale factors."""

import pytest

import calibrate


def test_round_is_timed():
    cal = calibrate.Calibration()
    assert 0.0 < cal.round() < 5.0


def test_factors_use_the_rounds_on_both_sides():
    near = calibrate.NEAR
    rounds = [calibrate.C_REF_S] * (near + 1) + [2 * calibrate.C_REF_S] * (near + 3)
    factors = calibrate.scale_factors(rounds, len(rounds) - 1)
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(0.5)
    # the job just before the slowdown sees NEAR fast and NEAR slow rounds
    assert factors[near] == pytest.approx(1.0 / 1.5)


def test_one_round_more_than_jobs():
    with pytest.raises(ValueError):
        calibrate.scale_factors([calibrate.C_REF_S] * 3, 3)
