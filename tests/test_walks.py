"""Walk simulators against their exact mean oracles and draw contracts."""

import math
import re
from array import array
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.rng import RngStream, below
from driftlab.walks import simulate_biased_walk, simulate_fair_walk, simulate_lazy_walk
from oracles import (
    biased_walk_by_steps,
    biased_walk_mean_dp,
    fair_walk_mean,
    lazy_walk_mean_dp,
    read_config,
    walk_survival,
)


def test_fair_walk_started_on_boundary_stops_immediately():
    for x0 in (0, 7):
        sample, traj = simulate_fair_walk(RngStream(1), b=7, x0=x0, cap=100, record=True)
        assert sample.stopping_time == 0
        assert not sample.censored
        assert traj.values == [x0]


def test_fair_walk_from_middle_of_two_cells_takes_one_step():
    for seed in range(20):
        sample, _ = simulate_fair_walk(RngStream(seed), b=2, x0=1, cap=100)
        assert sample.stopping_time == 1


def test_biased_walk_deterministic_when_p_up_is_one():
    stream = RngStream(5)
    sample, traj = simulate_biased_walk(stream, b=5, x0=0, p_up=1.0, cap=100, record=True)
    assert sample.stopping_time == 5
    assert traj.values == [0, 1, 2, 3, 4, 5]
    # the step out of 0 is forced, so only 4 of the 5 steps drew a word
    assert stream.draw_counter == 4


def test_lazy_walk_started_at_zero_stops_immediately():
    sample, _ = simulate_lazy_walk(RngStream(3), b=5, x0=0, delta=0.5, cap=100)
    assert sample.stopping_time == 0
    assert not sample.censored


def test_sample_carries_run_id_and_stream_id():
    sample, _ = simulate_fair_walk(RngStream(9, stream_id=41), b=4, x0=2, cap=10**4)
    assert sample.seed_used == 41


# -- mean oracles ------------------------------------------------------------


def hitting_mean_by_linear_solve(transient, transition):
    """E[T] per transient state from (I - Q) h = 1, as a cross-check.

    Gauss-Jordan elimination over Fractions, each probability taken at its
    exact binary value, so the one rounding is the final float().
    """
    k = len(transient)
    index = {s: i for i, s in enumerate(transient)}
    # rows of the augmented matrix [I - Q | 1]
    rows = [[Fraction(i == j) for j in range(k)] + [Fraction(1)] for i in range(k)]
    for s in transient:
        for s2, p in transition(s):
            if s2 in index:
                rows[index[s]][index[s2]] -= Fraction(p)
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return {s: float(rows[index[s]][k]) for s in transient}


def test_biased_mean_dp_matches_matrix_solve():
    b, p = 23, 0.7
    def transition(x):
        if x == 0:
            return [(1, 1.0)]
        return [(x + 1, p), (x - 1, 1.0 - p)]

    h = hitting_mean_by_linear_solve(list(range(b)), transition)
    for x0 in range(b):
        assert biased_walk_mean_dp(b, x0, p) == pytest.approx(h[x0], rel=1e-9)
    assert biased_walk_mean_dp(b, b, p) == 0.0


def test_lazy_mean_dp_matches_matrix_solve_and_closed_form():
    b, delta = 11, 0.3
    def transition(x):
        if x == b:
            return [(b - 1, delta), (b, 1.0 - delta)]
        return [(x - 1, delta / 2.0), (x + 1, delta / 2.0), (x, 1.0 - delta)]

    h = hitting_mean_by_linear_solve(list(range(1, b + 1)), transition)
    for x0 in range(1, b + 1):
        assert lazy_walk_mean_dp(b, x0, delta) == pytest.approx(h[x0], rel=1e-9)
        assert lazy_walk_mean_dp(b, x0, delta) == pytest.approx(
            x0 * (2 * b - x0) / delta, rel=1e-9
        )
    assert lazy_walk_mean_dp(b, 0, delta) == 0.0


def test_lazy_mean_with_delta_one_is_the_one_sided_fair_walk():
    # delta = 1 removes the holding moves entirely
    assert lazy_walk_mean_dp(6, 2, 1.0) == pytest.approx(2 * (12 - 2))


def test_fair_mean_formula():
    assert fair_walk_mean(20, 10) == 100.0
    assert fair_walk_mean(20, 1) == 19.0
    assert fair_walk_mean(5, 0) == 0.0


# -- simulated means against the oracles -------------------------------------


def mean_stopping_time(simulate, runs, master_seed):
    total = 0
    for i in range(runs):
        sample, _ = simulate(RngStream(master_seed, stream_id=i))
        assert not sample.censored
        total += sample.stopping_time
    return total / runs


def test_fair_walk_mean_near_oracle():
    got = mean_stopping_time(
        lambda s: simulate_fair_walk(s, b=10, x0=5, cap=10**6), runs=4000, master_seed=71
    )
    assert got == pytest.approx(fair_walk_mean(10, 5), rel=0.08)


def test_biased_walk_mean_near_oracle():
    got = mean_stopping_time(
        lambda s: simulate_biased_walk(s, b=20, x0=0, p_up=0.75, cap=10**6),
        runs=3000,
        master_seed=72,
    )
    assert got == pytest.approx(biased_walk_mean_dp(20, 0, 0.75), rel=0.08)


def test_lazy_walk_mean_near_oracle():
    got = mean_stopping_time(
        lambda s: simulate_lazy_walk(s, b=8, x0=4, delta=0.5, cap=10**6),
        runs=2000,
        master_seed=73,
    )
    assert got == pytest.approx(lazy_walk_mean_dp(8, 4, 0.5), rel=0.08)


# -- draw accounting and censoring -------------------------------------------


def test_fair_and_lazy_consume_one_draw_per_step():
    stream = RngStream(11)
    sample, _ = simulate_fair_walk(stream, b=12, x0=6, cap=10**6)
    assert stream.draw_counter == sample.stopping_time

    stream = RngStream(12)
    sample, _ = simulate_lazy_walk(stream, b=6, x0=3, delta=0.4, cap=10**6)
    assert stream.draw_counter == sample.stopping_time


def test_biased_walk_skips_draws_on_forced_steps():
    stream = RngStream(13)
    sample, traj = simulate_biased_walk(stream, b=6, x0=3, p_up=0.6, cap=10**6, record=True)
    forced = sum(1 for v in traj.values[:-1] if v == 0)
    assert stream.draw_counter == sample.stopping_time - forced


def assert_biased_walk_matches_steps(seed, stream_id, b, x0, p_up, cap):
    stream = RngStream(seed, stream_id)
    sample, traj = simulate_biased_walk(stream, b=b, x0=x0, p_up=p_up, cap=cap, record=True)
    oracle = RngStream(seed, stream_id)
    t, censored, values = biased_walk_by_steps(oracle, b, x0, p_up, cap)
    assert (sample.stopping_time, sample.censored, traj.values) == (t, censored, values)
    assert stream.draw_counter == oracle.draw_counter
    # the recorded run and the unrecorded one take the same steps and words
    bare = RngStream(seed, stream_id)
    sample, traj = simulate_biased_walk(bare, b=b, x0=x0, p_up=p_up, cap=cap)
    assert (sample.stopping_time, sample.censored, traj) == (t, censored, None)
    assert bare.draw_counter == oracle.draw_counter


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream_id=st.integers(min_value=0, max_value=2**64 - 1),
    b=st.integers(min_value=1, max_value=8),
    p_up=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
    cap=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
def test_biased_walk_equals_the_step_by_step_walk(seed, stream_id, b, p_up, cap, data):
    x0 = data.draw(st.integers(min_value=0, max_value=b))
    assert_biased_walk_matches_steps(seed, stream_id, b, x0, p_up, cap)


def test_biased_walk_equals_the_step_by_step_walk_around_forced_steps():
    # from 0 with cap 1: the one forced step, and no word drawn
    stream = RngStream(21)
    sample, traj = simulate_biased_walk(stream, b=4, x0=0, p_up=0.75, cap=1, record=True)
    assert (sample.stopping_time, sample.censored, traj.values) == (1, True, [0, 1])
    assert stream.draw_counter == 0
    assert_biased_walk_matches_steps(21, 0, 4, 0, 0.75, 1)
    # started at b: no step
    for b in (1, 5):
        assert_biased_walk_matches_steps(22, 0, b, b, 0.75, 40)
    # caps on a return to 0, on the forced step out of it and on the step after
    returns = 0
    for seed in range(40):
        _, _, values = biased_walk_by_steps(RngStream(seed), 6, 1, 0.55, 200)
        for t in (t for t, x in enumerate(values) if x == 0 and t > 0):
            returns += 1
            for cap in (t, t + 1, t + 2):
                assert_biased_walk_matches_steps(seed, 0, 6, 1, 0.55, cap)
    assert returns > 20


def test_cap_censors_and_reports_partial_trajectory():
    sample, traj = simulate_fair_walk(RngStream(2), b=100, x0=50, cap=3, record=True)
    assert sample.censored
    assert sample.stopping_time == 3
    assert len(traj.values) == 4


def test_cap_zero_from_interior_censors_at_zero():
    sample, _ = simulate_lazy_walk(RngStream(2), b=5, x0=2, delta=0.5, cap=0)
    assert sample.censored
    assert sample.stopping_time == 0


BAD_START = "config.params: need b >= 1 and 0 <= x0 <= b"


def call_case(message, fn, *args, **fields):
    """A row that calls fn(*args, **fields), with an id spelt from that call."""
    parts = [fn.__name__]
    for arg in args:
        if isinstance(arg, dict):
            parts.extend(f"{k}={v!r}" for k, v in arg.items())
        else:
            parts.append(arg if isinstance(arg, str) else repr(arg))
    parts.extend(f"{k}={v!r}" for k, v in fields.items())
    return pytest.param(partial(fn, *args, **fields), message, id="-".join(parts))


# the simulators assume these params valid: the config reader rejects them
VALIDATION_CASES = [
    call_case(BAD_START, read_config, "synthetic_fair", {"b": 0, "x0": 0}),
    call_case(BAD_START, read_config, "synthetic_fair", {"b": 3, "x0": 4}),
    call_case(BAD_START, read_config, "synthetic_fair", {"b": 3, "x0": -1}),
    call_case(
        "config.cap: must be nonnegative",
        read_config, "synthetic_fair", {"b": 3, "x0": 1}, cap=-1,
    ),
    call_case(
        "config.params.p_up: must lie in (0.5, 1]",
        read_config, "synthetic_biased", {"b": 3, "x0": 1, "p_up": 0.5},
    ),
    call_case(
        "config.params.p_up: must lie in (0.5, 1]",
        read_config, "synthetic_biased", {"b": 3, "x0": 1, "p_up": 1.2},
    ),
    call_case(
        "config.params.delta: must lie in (0, 1]",
        read_config, "synthetic_lazy", {"b": 3, "x0": 1, "delta": 0.0},
    ),
    call_case(
        "config.params.delta: must lie in (0, 1]",
        read_config, "synthetic_lazy", {"b": 3, "x0": 1, "delta": 1.0001},
    ),
    call_case("p_up must lie in (1/2, 1], got 0.5", biased_walk_mean_dp, 3, 1, 0.5),
    call_case("need b >= 1 and 0 <= x0 <= b", lazy_walk_mean_dp, 0, 0, 0.5),
    call_case("need b >= 1 and 0 <= x0 <= b", fair_walk_mean, 3, 5),
]
assert len({case.id for case in VALIDATION_CASES}) == len(VALIDATION_CASES), (
    "two rows share a test id"
)


@pytest.mark.parametrize("call, message", VALIDATION_CASES)
def test_parameter_validation(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- path-shape properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    b=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
def test_fair_walk_path_has_unit_steps_and_absorbs(seed, b, data):
    x0 = data.draw(st.integers(min_value=0, max_value=b))
    sample, traj = simulate_fair_walk(RngStream(seed), b=b, x0=x0, cap=10**5, record=True)
    assert not sample.censored
    assert traj.values[-1] in (0, b)
    assert all(abs(p - q) == 1 for p, q in zip(traj.values, traj.values[1:]))
    assert all(0 <= v <= b for v in traj.values)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    b=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_lazy_walk_path_stays_in_range_with_small_steps(seed, b, data):
    x0 = data.draw(st.integers(min_value=0, max_value=b))
    sample, traj = simulate_lazy_walk(
        RngStream(seed), b=b, x0=x0, delta=0.5, cap=2000, record=True
    )
    assert all(abs(p - q) <= 1 for p, q in zip(traj.values, traj.values[1:]))
    assert all(0 <= v <= b for v in traj.values)
    if not sample.censored:
        assert traj.values[-1] == 0


# -- exact survival ----------------------------------------------------------

# kind -> its simulator, and the probabilities whose below() bounds cut the
# words into the cells that decide its moves
WALKS = {
    "synthetic_fair": (simulate_fair_walk, lambda params: [0.5]),
    "synthetic_biased": (simulate_biased_walk, lambda params: [params["p_up"]]),
    "synthetic_lazy": (simulate_lazy_walk, lambda params: [params["delta"] / 2, params["delta"]]),
}


class OneWord:
    """A stream whose words() yields one given word: enough for one step."""

    stream_id = draw_counter = 0

    def __init__(self, word):
        self.word = word

    def words(self):
        return iter((self.word,))


def survival_by_paths(kind, params, steps):
    """P(T > t) for t = 0..steps, summed path by path over the kernel's own steps.

    Each step draws one word; a word from each cell the kernel's bounds cut
    [0, 2**64) into stands for its cell, weighted by the cell's share.  The
    kernel run for one step from x on that word gives the next state and
    whether the walk is still alive.  Every alive path adds its weight at
    each step it survives, with no state merged: up to 3**steps paths.
    Each step's weights are summed with math.fsum, since adding that many
    one by one drifts by about 1e-12.
    """
    simulate, cuts = WALKS[kind]
    rates = {k: v for k, v in params.items() if k not in ("b", "x0")}
    edges = sorted({0, 1 << 64, *map(below, cuts(params))})
    cells = [(lo, (hi - lo) / (1 << 64)) for lo, hi in zip(edges, edges[1:])]

    def run(x, cap, word=0):
        sample, traj = simulate(OneWord(word), b=params["b"], x0=x, cap=cap, record=True, **rates)
        return traj.values[-1], sample.censored

    moves = {x: [(*run(x, 1, word), p) for word, p in cells] for x in range(params["b"] + 1)}
    weights = [array("d") for _ in range(steps + 1)]

    def walk(x, t, weight):
        weights[t].append(weight)
        if t < steps:
            for y, alive, p in moves[x]:
                if alive:
                    walk(y, t + 1, weight * p)

    if run(params["x0"], 0)[1]:  # censored at cap 0: not absorbed at the start
        walk(params["x0"], 0, 1.0)
    return list(map(math.fsum, weights))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(WALKS)),
    b=st.integers(min_value=1, max_value=6),
    steps=st.integers(min_value=0, max_value=12),
    data=st.data(),
)
def test_survival_dp_matches_path_enumeration(kind, b, steps, data):
    params = {"b": b, "x0": data.draw(st.integers(min_value=0, max_value=b))}
    if kind == "synthetic_biased":
        params["p_up"] = data.draw(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
    if kind == "synthetic_lazy":
        params["delta"] = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    exact = walk_survival(kind, params, steps)
    assert exact == pytest.approx(survival_by_paths(kind, params, steps), abs=1e-12)


def test_survival_sums_to_the_mean():
    # E[T] = sum over t >= 0 of P(T > t); the tails past 5000 steps are negligible
    for kind, params, mean in [
        ("synthetic_fair", {"b": 20, "x0": 10}, fair_walk_mean(20, 10)),
        ("synthetic_biased", {"b": 50, "x0": 0, "p_up": 0.75}, biased_walk_mean_dp(50, 0, 0.75)),
        ("synthetic_lazy", {"b": 10, "x0": 10, "delta": 0.5}, lazy_walk_mean_dp(10, 10, 0.5)),
    ]:
        assert math.fsum(walk_survival(kind, params, 5000)) == pytest.approx(mean, rel=1e-9)


@pytest.mark.parametrize("b, x0, t", [(20, 10, 1000), (7, 2, 400), (4, 1, 100)])
def test_fair_survival_decays_at_the_top_eigenvalue(b, x0, t):
    # the absorbing chain's top eigenvalue is cos(pi / b); the walk has
    # period 2, so the decay is read over two steps
    survival = walk_survival("synthetic_fair", {"b": b, "x0": x0}, t + 2)
    assert survival[t + 2] / survival[t] == pytest.approx(math.cos(math.pi / b) ** 2, rel=1e-9)
