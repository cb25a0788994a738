"""The tallied estimators and the bulk CSV codecs against their loop forms.

The oracles below are the transition-by-transition tally and estimators, the
per-threshold rescans and the row-by-row CSV codecs that the tallies and
bulk string operations replaced, kept verbatim but for two rules added
since: an analysis with nothing to report returns None, and the row-scan
reader's values must be finite.  The package passes a trajectory as its
list of values, and the oracles take a Trajectory, so each list is
wrapped only where an oracle is called.  Both estimators are called on
one tally_transitions, as build_report calls them.  A run passes each
trajectory as its narrowest int array, whose pairs the package counts
from windows of its items packed into one int, and the tally must equal
the row loop's for every typecode.  On integer-valued trajectories (all a simulator
records) every estimate and report must be byte-equal to the oracles; on
fractional ones the drift moments may differ in the last bits, because
the tallied sums are added in another order.  A streamed reanalysis
must write the same bytes as build_report over the fully read
trajectories.  The package writes int trajectories only, so the row-loop
writer also writes the float text the reader tests read back.  The
package reader returns a file of integer texts as an int array, whose
values must equal the row scan's floats; any other file, as the very
floats.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import weakref
from array import array
from collections import Counter
from functools import partial
from itertools import accumulate
from typing import Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import analysis, experiment, trajectory
from driftlab.analysis import (
    DEFAULT_CONFIDENCE,
    DEFAULT_ETA_GRID,
    DriftEstimate,
    StepTailFit,
    TailPoint,
    TailReport,
    SummaryTable,
    hoeffding_margin,
)
from driftlab.bounds import BoundSpec, tail_probability_upper
from driftlab.errors import FormatError
from driftlab.experiment import AnalysisBlock, build_report
from driftlab.trajectory import HittingTimeSample, Trajectory, format_value, report_to_json
from oracles import RECORDING
from test_experiment import first_typecode_holding, recording_config

# ---------------------------------------------------------------------------
# Oracles: the loop forms, verbatim.


def tally_transitions(trajectories: Iterable[Trajectory]) -> Counter:
    pairs: Counter = Counter()
    for traj in trajectories:
        vals = traj.values
        for t in range(len(vals) - 1):
            pairs[vals[t], vals[t + 1]] += 1
    return pairs


def estimate_drift(trajectories: Iterable[Trajectory]) -> DriftEstimate | None:
    total = 0.0
    total_sq = 0.0
    count = 0
    by_state_sum: dict[int, float] = {}
    by_state_n: dict[int, int] = {}
    for traj in trajectories:
        vals = traj.values
        for t in range(len(vals) - 1):
            d = vals[t + 1] - vals[t]
            total += d
            total_sq += d * d
            count += 1
            s = math.floor(vals[t])
            by_state_sum[s] = by_state_sum.get(s, 0.0) + d
            by_state_n[s] = by_state_n.get(s, 0) + 1
    if count == 0:
        return None
    per_state = {s: by_state_sum[s] / by_state_n[s] for s in sorted(by_state_sum)}
    return DriftEstimate(
        mean_drift=total / count,
        second_moment=total_sq / count,
        transitions=count,
        per_state_mean=per_state,
    )


def fit_step_tail(
    trajectories: Iterable[Trajectory], eta_grid: Sequence[float] = DEFAULT_ETA_GRID
) -> StepTailFit | None:
    """Fit the geometric step-tail envelope over a grid of decay rates.

    For each eta the smallest feasible r is max over observed magnitudes m
    of freq(|step| >= m) * (1 + eta)^m (the envelope is tight at some
    observed magnitude; between magnitudes the empirical tail is flat while
    the envelope falls, so checking observed m suffices).  freq(>= 0) = 1
    forces r >= 1.  The winner minimizes r / ln(1 + eta).
    """
    if not eta_grid or any(e <= 0 for e in eta_grid):
        raise ValueError("eta_grid must be nonempty with positive entries")
    magnitudes: list[float] = []
    for traj in trajectories:
        vals = traj.values
        magnitudes.extend(abs(vals[t + 1] - vals[t]) for t in range(len(vals) - 1))
    if not magnitudes:
        return None
    n = len(magnitudes)
    magnitudes.sort()
    # distinct magnitudes with exceedance counts: freq(|step| >= m)
    points: list[tuple[float, float]] = [(0.0, 1.0)]
    i = 0
    while i < n:
        m = magnitudes[i]
        if m > 0:
            points.append((m, (n - i) / n))
        j = i
        while j < n and magnitudes[j] == m:
            j += 1
        i = j

    best: StepTailFit | None = None
    for eta in eta_grid:
        growth = 1.0 + eta
        r = max(freq * growth**m for m, freq in points)
        rc = r / math.log(growth)
        if best is None or rc < best.range_constant:
            viol = max(freq - r / growth**m for m, freq in points)
            best = StepTailFit(r=r, eta=eta, max_violation=viol, range_constant=rc)
    return best


def compare_bound(
    samples: Sequence[HittingTimeSample],
    spec: BoundSpec,
    tau_grid: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
) -> TailReport:
    """Empirical survival vs. theoretical tail on a grid of thresholds.

    Survival counts runs with stopping time >= tau; censored runs count as
    exceeding every threshold (their true time is at least the cap, and
    overcounting survival can only make the check harder to pass).  A point
    is violated when the empirical frequency exceeds bound + margin.
    """
    if not samples:
        raise ValueError("tail comparison needs at least one sample")
    if not tau_grid:
        raise ValueError("tau_grid must be nonempty")
    n = len(samples)
    margin = hoeffding_margin(n, confidence)
    grid = []
    for tau in tau_grid:
        exceed = sum(1 for s in samples if s.censored or s.stopping_time >= tau)
        emp = exceed / n
        bound = tail_probability_upper(spec, tau)
        grid.append(
            TailPoint(
                tau=float(tau),
                empirical_survival=emp,
                hoeffding_upper=bound + margin,
                theoretical_bound=bound,
                violated=emp > bound + margin,
            )
        )
    return TailReport(confidence=confidence, margin=margin, sample_count=n, grid=grid)


def summary_table(
    samples: Sequence[HittingTimeSample], k_list: Sequence[float]
) -> SummaryTable | None:
    """Mean of non-censored times plus Fr(T <= k * mean) per k.

    Frequencies are over all runs, censored ones counting as never below
    any threshold, so they are conservative and nondecreasing in k.
    """
    finished = [s.stopping_time for s in samples if not s.censored]
    if not finished:
        return None
    mean = sum(finished) / len(finished)
    n = len(samples)
    freq = {}
    for k in k_list:
        hit = sum(1 for s in samples if not s.censored and s.stopping_time <= k * mean)
        freq[float(k)] = hit / n
    return SummaryTable(
        mean=mean,
        freq_at_multiples=freq,
        censored_count=n - len(finished),
        sample_count=n,
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render one trajectory as CSV text with header step,value."""
    lines = ["step,value"]
    lines.extend(f"{t},{format_value(v)}" for t, v in enumerate(traj.values))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text: str) -> Trajectory:
    # each nonblank line with its number in the file, blank lines counted
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln]
    if not lines or lines[0][1] != "step,value":
        raise FormatError("trajectory header must be step,value", line=1)
    values = []
    for lineno, raw in lines[1:]:
        cells = raw.split(",")
        if len(cells) != 2:
            raise FormatError("trajectory row must have two columns", line=lineno)
        try:
            values.append(float(cells[1]))
        except ValueError:
            raise FormatError(f"bad value {cells[1]!r}", line=lineno) from None
        if not math.isfinite(values[-1]):  # the finite rule
            raise FormatError(f"value must be a finite number, got {cells[1]!r}", line=lineno)
    if not values:
        raise FormatError("trajectory has no rows", line=2)
    return Trajectory(values=values)


def as_trajectories(value_lists) -> list[Trajectory]:
    """The oracles' input: each list of values as the Trajectory they read."""
    return [Trajectory(values=values) for values in value_lists]


def read_values(text: str) -> list[float]:
    """The row-scan reader's values, as the package's reader returns them."""
    return read_trajectory_csv(text).values


# ---------------------------------------------------------------------------
# Strategies.

#: the largest value each of the typecodes "bhiq" holds
TYPECODE_TOPS = [2**7 - 1, 2**15 - 1, 2**31 - 1, 2**63 - 1]


#: integer states around zero: negative states, holds and jumps past 1
int_steps = st.one_of(
    st.integers(-2, 2), st.integers(-40, 40), st.sampled_from([-300, 300])
)


@st.composite
def int_trajectory(draw, as_float=False):
    start = draw(st.integers(-60, 60))
    steps = draw(st.lists(int_steps, max_size=40))
    values = [start]
    for d in steps:
        values.append(values[-1] + d)
    if as_float:
        values = [float(v) for v in values]
    return values


int_trajectories = st.lists(
    st.one_of(int_trajectory(), int_trajectory(as_float=True)), max_size=25
)

#: one censored flag per trajectory of either list strategy
censored_flags = st.lists(st.booleans(), min_size=25, max_size=25)


def samples_of(trajs, censored) -> list[HittingTimeSample]:
    """Run i stopped after trajectory i's steps, censored if censored[i]."""
    return [
        HittingTimeSample(i, len(t) - 1, c, i)
        for i, (t, c) in enumerate(zip(trajs, censored))
    ] or [HittingTimeSample(0, 1, False, 0)]

fractional_values = st.floats(
    min_value=-200, max_value=200, allow_nan=False, allow_infinity=False
)
fractional_trajectories = st.lists(
    st.lists(fractional_values, min_size=1, max_size=40), min_size=1, max_size=15
)


def drift_of(trajs):
    """The single-tally drift estimate, called the way build_report calls it."""
    return analysis.estimate_drift(analysis.tally_transitions(trajs))


def step_tail_of(trajs):
    """The single-tally step-tail fit, called the way build_report calls it."""
    return analysis.fit_step_tail(analysis.tally_transitions(trajs))


def bits(x) -> bytes:
    """The exact value of a number: a float's IEEE bytes, an int's digits."""
    return struct.pack("<d", x) if isinstance(x, float) else repr(x).encode()


def fields(est) -> list | None:
    """Every field of a DriftEstimate or StepTailFit, number types kept."""
    if est is None:
        return None
    out = []
    for name, value in vars(est).items():
        if isinstance(value, dict):
            out.append((name, [(bits(k), bits(v)) for k, v in value.items()]))
        else:
            out.append((name, type(value), bits(value)))
    return out


def outcome(fn, *args):
    """What a call does: its value, or the type, message and line it raises."""
    try:
        return ("ok", fn(*args))
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err), getattr(err, "line", None))


def assert_same(new_fn, old_fn, trajs):
    """Both raise alike, or every field is bit-equal."""
    new, old = outcome(new_fn, trajs), outcome(old_fn, as_trajectories(trajs))
    if old[0] == "raised":
        assert new == old
    else:
        assert new[0] == "ok" and fields(new[1]) == fields(old[1])


# ---------------------------------------------------------------------------
# Drift and step tail.


@settings(max_examples=200, deadline=None)
@given(int_trajectories)
def test_tallies_equal_the_loops_on_integer_trajectories(trajs):
    assert_same(drift_of, estimate_drift, trajs)
    assert_same(step_tail_of, fit_step_tail, trajs)


@settings(max_examples=100, deadline=None)
@given(int_trajectories, censored_flags)
def test_report_is_byte_equal_to_the_loops_on_integer_trajectories(trajs, censored):
    samples = samples_of(trajs, censored)
    block = AnalysisBlock(
        k_list=(0.5, 1.0, 2.0),
        tau_grid=(1.0, 5.0, 20.0),
        bound=BoundSpec(kind="StandardVariance", b=10, x0=10, delta=0.5),
    )
    new = report_to_json(build_report(samples, block, trajs))
    # the oracles take the trajectories themselves, not their tally
    with mock.patch.multiple(
        experiment,
        tally_transitions=as_trajectories,
        estimate_drift=estimate_drift,
        fit_step_tail=fit_step_tail,
        compare_bound=compare_bound,
        summary_table=summary_table,
    ):
        old = report_to_json(build_report(samples, block, trajs))
    assert new == old


@settings(max_examples=200, deadline=None)
@given(fractional_trajectories)
def test_tallies_match_the_loops_on_fractional_trajectories(trajs):
    new = drift_of(trajs)
    old = estimate_drift(as_trajectories(trajs))
    if old is None:
        assert new is None
        return
    assert new.transitions == old.transitions
    # the sums may cancel, so compare within 1e-12 of the summed magnitudes
    steps = [
        (math.floor(t[i]), t[i + 1] - t[i])
        for t in trajs
        for i in range(len(t) - 1)
    ]
    scale = sum(abs(d) for _, d in steps) / len(steps)
    assert math.isclose(new.mean_drift, old.mean_drift, rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose(new.second_moment, old.second_moment, rel_tol=1e-12)
    assert list(new.per_state_mean) == list(old.per_state_mean)
    for s, mean in old.per_state_mean.items():
        ds = [abs(d) for state, d in steps if state == s]
        assert math.isclose(
            new.per_state_mean[s], mean, rel_tol=1e-12, abs_tol=1e-12 * sum(ds) / len(ds)
        )
    # magnitudes are counted, not summed: the step-tail fit stays exact
    assert_same(step_tail_of, fit_step_tail, trajs)


def test_tallies_on_fixed_edge_cases():
    cases = [
        [[7]],  # one value, no transition
        [[3, 3, 3, 3]],  # holds only: every step is 0
        [[-5, -6, -4, -4, 10, -10]],
        [[0.5, -0.5, 2.25], [-0.0, 0.0, -0.0]],
        [[0, 1, 2]] * 30,
    ]
    for trajs in cases:
        assert_same(drift_of, estimate_drift, trajs)
        assert_same(step_tail_of, fit_step_tail, trajs)
    # (1 + eta)**1000 overflows a float exactly for the etas above 1.0
    # (2**1000 < 1.8e308 < 2.05**1000): the loop form raised OverflowError,
    # the tally skips those etas and equals the loop form over the rest
    trajs = [[0, -1000]]
    finite = [eta for eta in DEFAULT_ETA_GRID if eta <= 1.0]
    assert_same(drift_of, estimate_drift, trajs)
    assert_same(step_tail_of, partial(fit_step_tail, eta_grid=finite), trajs)
    # at a magnitude of 20,000 every eta overflows, and there is no fit
    assert step_tail_of([[0, 20000]]) is None


# ---------------------------------------------------------------------------
# The tally of held arrays.


@st.composite
def typed_array(draw, unit_steps=False):
    """An int array of any "bhiq" typecode, its ends and negatives included.

    With unit_steps its values walk by -1, 0 or +1 from any start that
    keeps them in range, as every kernel's recorded values do.
    """
    code, top = draw(st.sampled_from(list(zip("bhiq", TYPECODE_TOPS))))
    lo, hi = -top - 1, top
    size = draw(st.integers(0, 9))
    ends = st.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi])
    if not unit_steps:
        items = st.one_of(ends, st.integers(lo, hi))
        return array(code, draw(st.lists(items, min_size=size, max_size=size)))
    start = min(max(draw(st.one_of(ends, st.integers(lo, hi))), lo + size), hi - size)
    steps = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size))
    return array(code, list(accumulate(steps, initial=start))[:size])


#: up to 5 held arrays with value lists mixed in among them
mixed_trajectories = st.tuples(
    st.lists(typed_array(), max_size=5),
    st.lists(
        st.one_of(int_trajectory(as_float=True), st.lists(fractional_values, max_size=9)),
        max_size=3,
    ),
).flatmap(lambda held_and_lists: st.permutations(held_and_lists[0] + held_and_lists[1]))
#: arrays and the value lists a reader returns for them
unit_step_trajectories = st.lists(
    st.one_of(
        typed_array(unit_steps=True),
        typed_array(unit_steps=True).map(lambda held: [float(v) for v in held]),
    ),
    max_size=8,
)


def assert_tally_is_the_row_loops(trajs):
    new, old = analysis.tally_transitions(trajs), tally_transitions(as_trajectories(trajs))
    assert new == old
    return new, old


@settings(max_examples=300, deadline=None)
@given(mixed_trajectories)
def test_tally_equals_the_row_loop_on_arrays_of_every_typecode_and_value_lists(trajs):
    assert_tally_is_the_row_loops(trajs)


@settings(max_examples=200, deadline=None)
@given(unit_step_trajectories)
def test_estimates_from_the_packed_tally_equal_those_from_the_row_loop(trajs):
    # steps of -1, 0 or +1 keep every sum exact, so the tally's order
    # cannot move a bit of either estimate
    new, old = assert_tally_is_the_row_loops(trajs)
    for estimate in (analysis.estimate_drift, analysis.fit_step_tail):
        assert fields(estimate(new)) == fields(estimate(old))


def test_tally_of_fixed_arrays():
    for code, top in zip("bhiq", TYPECODE_TOPS):
        lo, hi = -top - 1, top
        for values in ([], [lo], [lo, hi], [hi, lo, hi], [lo, lo, -1, 0, 1, hi, hi], [-1] * 9):
            assert_tally_is_the_row_loops([array(code, values)])
        # one pair from several typecodes and a value list tallies once
        pairs = analysis.tally_transitions(
            [array(code, [-1, 0]), array("h", [-1, 0, -1]), [-1.0, 0.0], array("q", [-1, 0])]
        )
        assert pairs == {(-1, 0): 4, (0, -1): 1}


# ---------------------------------------------------------------------------
# Threshold counts.

stopping_times = st.one_of(
    st.integers(0, 400),
    st.floats(min_value=0, max_value=400, allow_nan=False),
    st.sampled_from([math.inf, math.nan, 0.0, 1e300]),
)
hitting_samples = st.lists(
    st.tuples(stopping_times, st.booleans()), min_size=1, max_size=60
).map(
    lambda rows: [HittingTimeSample(i, t, c, i) for i, (t, c) in enumerate(rows)]
)
thresholds = st.one_of(
    st.integers(0, 400), st.floats(min_value=0, max_value=500), st.just(math.inf)
)


@settings(max_examples=200, deadline=None)
@given(hitting_samples, st.lists(thresholds, min_size=1, max_size=6))
def test_threshold_counts_equal_the_rescans(samples, tau_grid):
    spec = BoundSpec(kind="Additive", b=10, x0=0, epsilon=0.5)
    new = outcome(analysis.compare_bound, samples, spec, tau_grid)
    old = outcome(compare_bound, samples, spec, tau_grid)
    assert repr(new) == repr(old)
    k_list = [0.0 if math.isnan(k) else k for k in tau_grid]  # any k the rescan takes
    new = outcome(analysis.summary_table, samples, k_list)
    old = outcome(summary_table, samples, k_list)
    assert repr(new) == repr(old)


# ---------------------------------------------------------------------------
# Trajectory CSV.

csv_values = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.sampled_from([1e16, -0.0, 1e-7, 0.1 + 0.2, 0.0, -1e300, 5e-324]),
)

@st.composite
def held_trajectory(draw):
    """A recorded trajectory as a run holds it, in narrowest_int_array's array."""
    top = draw(st.sampled_from(TYPECODE_TOPS))
    values = draw(
        st.lists(st.one_of(int_steps, st.integers(-top - 1, top)), min_size=1, max_size=60)
    )
    return trajectory.narrowest_int_array(values)


def written_with_shared_pieces(trajs) -> list[str]:
    """Each trajectory's text, written with one trajectory_csv_pieces shared by all."""
    pieces = trajectory.trajectory_csv_pieces(trajs)
    texts = [trajectory.trajectory_to_csv(values, pieces) for values in trajs]
    assert texts == [trajectory_to_csv(Trajectory(values=list(values))) for values in trajs]
    return texts


@settings(max_examples=200, deadline=None)
@given(st.lists(held_trajectory(), min_size=1, max_size=8))
def test_trajectory_csv_is_byte_equal_to_the_row_loop(trajs):
    written_with_shared_pieces(trajs)


def test_trajectory_csv_fixed_values():
    trajs = [[3, -4, 0, 127], [300, -300], [-128, 128, -32769], [2**31, -(2**63)]]
    held = list(map(trajectory.narrowest_int_array, trajs))
    assert [a.typecode for a in held] == ["b", "h", "i", "q"]
    assert written_with_shared_pieces(held) == [
        "step,value\n0,3\n1,-4\n2,0\n3,127\n",
        "step,value\n0,300\n1,-300\n",
        "step,value\n0,-128\n1,128\n2,-32769\n",
        "step,value\n0,2147483648\n1,-9223372036854775808\n",
    ]
    # a run that records nothing still builds its pieces: none
    assert trajectory.trajectory_csv_pieces([]) == ([], {})


class Unscanned(list):
    """A trajectory whose length can be read but whose values cannot be iterated."""

    def __iter__(self):
        raise AssertionError("the values of a trajectory were scanned")


def test_pieces_read_only_lengths_and_format_each_value_once():
    trajs = [[5, 6, 5, 7], [7, 8], [5, -1, 9, 9, 9, 2], [-1]]
    pieces = trajectory.trajectory_csv_pieces(list(map(Unscanned, trajs)))
    texts = type(pieces[1])
    missing = texts.__missing__
    formatted = []

    def counted(self, value):
        formatted.append(value)
        return missing(self, value)

    with mock.patch.object(texts, "__missing__", counted):
        written = [trajectory.trajectory_to_csv(values, pieces) for values in trajs]
    assert written == [trajectory_to_csv(Trajectory(values=values)) for values in trajs]
    distinct = {v for values in trajs for v in values}
    assert sorted(formatted) == sorted(distinct)
    assert pieces[1] == {v: "%d\n" % v for v in distinct}


@pytest.mark.parametrize("kind", sorted(RECORDING))
def test_each_trajectory_file_is_the_row_loop_text_of_its_run(tmp_path, kind):
    config = recording_config(tmp_path, kind)
    directory = experiment.run_experiment(config).trajectory_dir
    for run_id in range(config.runs):
        values = experiment.run_replication(config, run_id).trajectory.tolist()
        with open(os.path.join(directory, trajectory.TRAJECTORY_FILE % run_id), "rb") as fh:
            assert fh.read() == trajectory_to_csv(Trajectory(values=values)).encode()


def assert_reads_like_the_row_scan(text):
    """The reader raises as the row scan does, or returns its values: a
    "bhi" array of ints equal to its floats, or the very floats (repr tells
    -0.0 from 0.0)."""
    new, old = outcome(trajectory.read_trajectory_csv, text), outcome(read_values, text)
    if new[0] == "ok" and isinstance(new[1], array):
        assert new[1].typecode in "bhi" and ("ok", new[1].tolist()) == old
    else:
        assert repr(new) == repr(old)


#: every line break str.splitlines knows but "\n"; float() strips the
#: ones that are whitespace, so a row must be split at them first
OTHER_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

valid_rows = st.tuples(
    st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["", "x", "1.5"])),
    csv_values.map(str),
).map(",".join)
non_finite_rows = st.sampled_from(
    ["0,inf", "0,-inf", "0,nan", "0,NaN", "0,-Infinity", "0,1e400", "0,-1e309", "0, inf "]
)
bad_rows = st.one_of(
    csv_values.map(str),  # no comma
    st.tuples(csv_values, csv_values, csv_values).map(lambda t: ",".join(map(str, t))),
    st.sampled_from(["0,x", "0,", "0,1e", "0,--1", "0,1 2", ",", ",,", "0,١", "0,1é"]),
    st.text(alphabet="0123456789,.e-+ \txé\ud800" + "".join(OTHER_BREAKS), max_size=8),
    # a break or whitespace anywhere in a valid row
    st.tuples(valid_rows, st.sampled_from([" ", "\t", *OTHER_BREAKS]), st.integers(0, 12)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :]
    ),
)
any_rows = st.lists(
    st.one_of(valid_rows, valid_rows, bad_rows, non_finite_rows, st.just("")), max_size=30
)
line_breaks = st.sampled_from(["\n", "\n\n", " ", *OTHER_BREAKS])


@st.composite
def trajectory_texts(draw):
    header = draw(st.sampled_from(["step,value"] * 6 + ["", "value", "step,value,", "Step,Value"]))
    rows = draw(st.one_of(st.lists(valid_rows, max_size=30), any_rows))
    lines = [header, *rows]
    n = len(lines)
    if draw(st.booleans()):
        # the written form, every line ending in "\n", but for one break
        breaks = ["\n"] * n
        breaks[draw(st.integers(0, n - 1))] = draw(line_breaks)
    else:
        breaks = draw(st.lists(line_breaks, min_size=n, max_size=n))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=400, deadline=None)
@given(trajectory_texts())
def test_trajectory_reader_matches_the_row_scan(text):
    assert_reads_like_the_row_scan(text)


@st.composite
def written_texts(draw):
    """The written form, header and rows each ending in "\\n", with at most one change."""
    rows = draw(st.lists(valid_rows, min_size=1, max_size=30))
    text = "step,value\n" + "".join(row + "\n" for row in rows)
    change = draw(st.sampled_from(["none", "insert", "row", "cut"]))
    if change == "insert":  # one more character anywhere
        at = draw(st.integers(0, len(text)))
        extra = draw(st.sampled_from(["\n", ",", " ", "\t", "x", "é", "\ud800", *OTHER_BREAKS]))
        text = text[:at] + extra + text[at:]
    elif change == "row":  # one more row, not a valid one
        at = draw(st.integers(0, len(rows)))
        row = draw(st.one_of(bad_rows, non_finite_rows, st.just("")))
        text = "step,value\n" + "".join(r + "\n" for r in [*rows[:at], row, *rows[at:]])
    elif change == "cut":  # no final newline, a header only, a cut header
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(written_texts())
def test_written_form_with_one_change_reads_like_the_row_scan(text):
    assert_reads_like_the_row_scan(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(csv_values, min_size=1, max_size=50))
def test_written_trajectories_read_back_like_the_row_scan(values):
    text = trajectory_to_csv(Trajectory(values=values))
    assert_reads_like_the_row_scan(text)


def test_trajectory_reader_errors_match_the_row_scan():
    for text in [
        "step,value\n0,1\n1\n",  # a row with no comma
        "step,value\n0,1\n1,2,3\n",  # a row with two commas
        "step,value\n0,1\n1,abc\n",  # a bad value
        "step,value\n\n0,1\n\n\n1,x\n",  # blank lines count as lines
        "step,value\n",  # header only
        "step,value\n\n\n",
        "",
        "value\n0,1\n",  # a wrong header
        "\nstep,value\n0,1\n",  # a blank first line is skipped
        "step,value\n0,1\n1,2\n",
        "step,value\n0,1\n1,2",  # no final newline
        "step,value\r\n0,1\r\n1,2\r\n",
        "step,value\n0,1\r1,2\n",  # a lone carriage return breaks the row
        "step,value\n0,\x0c1\n",  # float() would strip the form feed
        "step,value\n0,1\u2028\n",
        "step,value\n0,1\n1,inf\n",
        "step,value\n0,nan\n1,x\n",  # the first bad row is named
        "step,value\n0,1e308\n1,1e308\n",  # finite values whose sum overflows
    ]:
        assert_reads_like_the_row_scan(text)
    assert outcome(trajectory.read_trajectory_csv, "step,value\n\n0,1\n\n\n1,x\n") == (
        "raised", FormatError, "line 6: bad value 'x'", 6
    )
    assert outcome(trajectory.read_trajectory_csv, "step,value\n0,1\n1,-inf\n") == (
        "raised", FormatError, "line 3: value must be a finite number, got '-inf'", 3
    )
    assert outcome(trajectory.read_trajectory_csv, "step,value\n0,1e308\n1,1e308\n") == (
        "ok", [1e308, 1e308]
    )


#: the integer texts int() and float() both read: signs, padding, underscores
int_texts = st.tuples(
    st.integers(-(2**31), 2**31 - 1), st.sampled_from(["{}", "{:+d}", " {}", "{}\t", "{:_d}"])
).map(lambda t: (t[0], t[1].format(t[0])))


@settings(max_examples=200, deadline=None)
@given(st.lists(int_texts, min_size=1, max_size=40), st.booleans())
def test_integer_texts_read_back_as_the_narrowest_int_array(cells, shared):
    values = [v for v, _ in cells]
    text = "step,value\n" + "".join(f"{t},{cell}\n" for t, (_, cell) in enumerate(cells))
    ints = trajectory.TextValues() if shared else None
    got = trajectory.read_trajectory_csv(text, ints)
    assert isinstance(got, array) and got.typecode == first_typecode_holding(values)
    assert got.tolist() == values == read_values(text)
    if shared:  # each distinct text parsed once, to its int
        assert ints == {cell: v for v, cell in cells}


@pytest.mark.parametrize(
    "cell, typecode, value",
    [
        ("1.5", None, 1.5),
        ("1e3", None, 1000.0),
        ("nan", None, None),  # the row scan's FormatError
        (str(2**31), None, 2.0**31),
        (str(-(2**31) - 1), None, -(2.0**31) - 1),
        (str(2**63), None, 2.0**63),
        (str(2**31 - 1), "i", 2**31 - 1),
        (str(-(2**31)), "i", -(2**31)),
        ("1_0", "b", 10),
        (" 5", "b", 5),
        ("+5", "b", 5),
        ("-0", "b", 0),  # not -0.0, which == and the report cannot tell from 0
    ],
)
def test_a_value_cell_reads_as_an_int_only_where_int_reads_it_into_typecode_i(
    cell, typecode, value
):
    text = f"step,value\n0,{cell}\n1,7\n"
    assert_reads_like_the_row_scan(text)
    got = outcome(trajectory.read_trajectory_csv, text)
    if value is None:
        assert got[0] == "raised"
    elif typecode is None:
        assert type(got[1]) is list and repr(got[1]) == repr([value, 7.0])
    else:
        assert repr(got[1]) == repr(array(typecode, [value, 7]))


def test_a_shared_text_dict_keeps_the_texts_of_every_file_it_read():
    ints = trajectory.TextValues()
    first = trajectory.read_trajectory_csv("step,value\n0,3\n1,4\n", ints)
    fractional = trajectory.read_trajectory_csv("step,value\n0,4\n1,4.5\n", ints)
    wide = trajectory.read_trajectory_csv("step,value\n0,4\n1,300\n", ints)
    assert repr(first) == "array('b', [3, 4])" and repr(wide) == "array('h', [4, 300])"
    assert fractional == [4.0, 4.5]
    assert ints == {"3": 3, "4": 4, "300": 300}  # "4.5", which int() rejects, is not kept


# ---------------------------------------------------------------------------
# Streamed reanalysis.


def write_artifacts(directory: str, trajs: list[list], censored) -> tuple[str, str]:
    """samples.csv and one run_<id>.csv per trajectory, as a recording run writes them."""
    samples = samples_of(trajs, censored)
    samples_path = os.path.join(directory, "samples.csv")
    trajectory.write_text(samples_path, trajectory.samples_to_csv(samples))
    trajectory_dir = os.path.join(directory, "trajectories")
    os.makedirs(trajectory_dir)
    for i, traj in enumerate(trajs):
        path = os.path.join(trajectory_dir, f"run_{i:05d}.csv")
        trajectory.write_text(path, trajectory_to_csv(Trajectory(values=traj)))
    return samples_path, trajectory_dir


@settings(max_examples=60, deadline=None)
@given(st.one_of(int_trajectories, fractional_trajectories), censored_flags)
def test_streamed_reanalysis_equals_the_report_over_the_fully_read_list(trajs, censored):
    block = AnalysisBlock(
        k_list=(1.0, 2.0),
        tau_grid=(1.0, 5.0, 20.0),
        bound=BoundSpec(kind="StandardVariance", b=10, x0=10, delta=0.5),
    )
    with tempfile.TemporaryDirectory() as tmp:
        samples_path, trajectory_dir = write_artifacts(tmp, trajs, censored)
        report_path = experiment.analyze_files(
            samples_path, block, trajectory_dir, os.path.join(tmp, "report.json")
        ).report_path
        with open(report_path) as fh:
            streamed = fh.read()
        with open(samples_path) as fh:
            samples = trajectory.read_samples_csv(fh.read())
        read = []
        for name in sorted(os.listdir(trajectory_dir)):
            with open(os.path.join(trajectory_dir, name)) as fh:
                read.append(trajectory.read_trajectory_csv(fh.read()))
    assert streamed == report_to_json(build_report(samples, block, read))


def test_streamed_reanalysis_holds_a_couple_of_trajectories_at_most():
    trajs = [list(range(i, i + 50)) for i in range(30)]
    original = experiment.read_trajectory_csv
    refs: list[weakref.ref] = []
    shared: list = []  # the text dict each read is handed
    most_alive = 0

    def tracked(text, ints):
        nonlocal most_alive
        shared.append(ints)
        values = original(text, ints)
        assert isinstance(values, array)  # int texts: an array, which is weak-referenceable
        refs.append(weakref.ref(values))
        most_alive = max(most_alive, sum(ref() is not None for ref in refs))
        return values

    with tempfile.TemporaryDirectory() as tmp:
        samples_path, trajectory_dir = write_artifacts(tmp, trajs, [False] * 30)
        with mock.patch.object(experiment, "read_trajectory_csv", tracked):
            experiment.analyze_files(samples_path, AnalysisBlock(), trajectory_dir)
        with open(os.path.join(tmp, "report.json")) as fh:
            assert '"transitions": 1470' in fh.read()
    assert len(refs) == 30
    assert most_alive <= 2
    # one dict for every file, so each distinct text is parsed once
    assert isinstance(shared[0], trajectory.TextValues)
    assert all(ints is shared[0] for ints in shared)
