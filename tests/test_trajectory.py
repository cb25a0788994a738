"""Trajectory bookkeeping, samples, and CSV rendering."""

import pytest

from driftlab.trajectory import (
    HittingTimeSample,
    Trajectory,
    format_value,
    samples_to_csv,
    trajectory_to_csv,
)


def test_trajectory_requires_a_starting_value():
    with pytest.raises(ValueError):
        Trajectory(values=[])


def test_censored_trajectory_length_contract():
    Trajectory(values=[1.0, 2.0, 3.0], censored=True, cap=2)
    with pytest.raises(ValueError):
        Trajectory(values=[1.0, 2.0], censored=True, cap=2)
    with pytest.raises(ValueError):
        Trajectory(values=[1.0, 2.0], censored=True)


def test_sample_validation():
    HittingTimeSample(run_id=0, stopping_time=0, censored=False, seed_used=0)
    with pytest.raises(ValueError):
        HittingTimeSample(run_id=-1, stopping_time=0, censored=False, seed_used=0)


def test_format_value_booleans_and_numbers():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value(0.5) == "0.5"


def test_samples_to_csv_layout():
    samples = [
        HittingTimeSample(run_id=0, stopping_time=7, censored=False, seed_used=0),
        HittingTimeSample(run_id=1, stopping_time=100, censored=True, seed_used=1),
    ]
    text = samples_to_csv(samples)
    assert text == (
        "run_id,seed,stopping_time,censored\n0,0,7,false\n1,1,100,true\n"
    )


def test_samples_to_csv_extra_columns():
    samples = [HittingTimeSample(run_id=0, stopping_time=7, censored=False, seed_used=0)]
    text = samples_to_csv(samples, ("flag",), [(True,)])
    assert text.splitlines() == ["run_id,seed,stopping_time,censored,flag", "0,0,7,false,true"]


def test_trajectory_to_csv_round_trip_floats():
    traj = Trajectory(values=[1.0, 0.30000000000000004])
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[0] == "step,value"
    # shortest round-trip repr: parsing back recovers the exact float
    assert float(lines[2].split(",")[1]) == 0.30000000000000004
