"""Trajectory bookkeeping, samples, and CSV rendering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.experiment import run_replication
from driftlab.trajectory import (
    REGRET_COLUMNS,
    SAMPLE_COLUMNS,
    TRAJECTORY_FILE,
    HittingTimeSample,
    format_value,
    is_trajectory_file,
    read_samples_csv,
    read_trajectory_csv,
    samples_to_csv,
)
from oracles import RECORDING, read_config


def recorded_runs(cap, runs):
    """Replications 0..runs-1 of each kind in RECORDING at cap, recorded."""
    for kind, (params, _) in RECORDING.items():
        config = read_config(kind, params, cap=cap, record_trajectories=True)
        for run_id in range(runs):
            yield kind, run_replication(config, run_id)


def test_trajectory_requires_a_starting_value():
    # Trajectory no longer checks it: every simulator records step 0 itself
    for kind, rep in recorded_runs(cap=0, runs=3):
        assert rep.sample.stopping_time == 0
        assert len(rep.trajectory) == 1
        if kind.startswith("synthetic_"):
            assert list(rep.trajectory) == [RECORDING[kind][0]["x0"]]


def test_censored_trajectory_length_contract():
    # a run that stops at T records T + 1 values; a censored one stops at cap
    censored = set()
    for _, rep in recorded_runs(cap=3, runs=12):
        assert len(rep.trajectory) == rep.sample.stopping_time + 1
        if rep.sample.censored:
            assert rep.sample.stopping_time == 3
        censored.add(rep.sample.censored)
    assert censored == {False, True}


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
#: a stopping time is a nonnegative int or float; a regret may be negative
stopping_times = st.one_of(st.integers(0, 10**20), finite_floats.map(abs))
regrets = st.one_of(st.integers(-(10**20), 10**20), finite_floats)


@st.composite
def written_samples(draw):
    """samples_to_csv's arguments: samples under either lead, 0-3 extra columns."""
    lead = draw(st.sampled_from([SAMPLE_COLUMNS, REGRET_COLUMNS]))
    regret = lead is REGRET_COLUMNS
    run_ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=20, unique=True))
    samples = [
        HittingTimeSample(
            run_id=run_id,
            stopping_time=draw(regrets if regret else stopping_times),
            censored=False if regret else draw(st.booleans()),
            seed_used=draw(st.integers(0, 2**64 - 1)),
        )
        for run_id in run_ids
    ]
    width = draw(st.integers(0, 3))
    cell = st.one_of(st.booleans(), st.integers(), finite_floats)
    rows = [draw(st.lists(cell, min_size=width, max_size=width)) for _ in samples]
    return samples, [f"extra_{j}" for j in range(width)], rows, lead


@settings(max_examples=200, deadline=None)
@given(written_samples())
def test_samples_csv_reads_back_the_samples_it_wrote(written):
    samples, header, rows, lead = written
    text = samples_to_csv(samples, header, rows, lead=lead)
    # repr tells an int from the equal float, so each value keeps its type
    assert list(map(repr, read_samples_csv(text))) == list(map(repr, samples))


def test_read_trajectory_csv_round_trips_floats():
    values = [1.0, 0.30000000000000004, -0.0, 1e16, 5e-324]
    text = "step,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(values))
    # shortest round-trip repr: parsing back recovers each exact float
    assert list(map(repr, read_trajectory_csv(text))) == list(map(repr, values))


@given(st.integers(min_value=0, max_value=10**9))
def test_a_trajectory_file_is_named_by_its_run_id_alone(run_id):
    name = TRAJECTORY_FILE % run_id
    assert is_trajectory_file(name)  # also past 99999, where the id outgrows the padding
    assert not is_trajectory_file(name.replace("_", "_0"))  # one zero too many
    assert is_trajectory_file(f"run_{run_id}.csv") == (run_id >= 10**4)  # unpadded
