"""Clause-repair walk and planted generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.errors import ConfigError
from driftlab.rng import RngStream
from driftlab.sat2 import (
    agreement_count,
    generate_planted,
    random_assignment,
    run_walk,
    satisfies,
)
from oracles import check_formula, clause_satisfied, literal_true, read_config

XOR_ISH = (((0, False), (1, False)), ((0, True), (1, True)))


def test_literal_and_clause_semantics():
    assignment = bytearray([1, 0])
    assert literal_true((0, False), assignment)
    assert not literal_true((0, True), assignment)
    assert literal_true((1, True), assignment)
    assert clause_satisfied(((0, True), (1, True)), assignment)
    assert not clause_satisfied(((0, True), (1, False)), assignment)


def test_satisfies_checks_every_clause():
    assert satisfies(XOR_ISH, bytearray([1, 0]))
    assert satisfies(XOR_ISH, bytearray([0, 1]))
    assert not satisfies(XOR_ISH, bytearray([0, 0]))
    assert not satisfies(XOR_ISH, bytearray([1, 1]))


literals = st.tuples(st.integers(0, 5), st.booleans())


@settings(max_examples=100, deadline=None)
@given(
    clauses=st.lists(st.tuples(literals, literals), max_size=12),
    assignment=st.binary(min_size=6, max_size=6),
)
def test_satisfies_agrees_with_clause_satisfied(clauses, assignment):
    # any nonzero byte is a true variable, as in literal_true
    expected = all(clause_satisfied(c, assignment) for c in clauses)
    assert satisfies(clauses, assignment) == expected


def test_formula_validation():
    check_formula(2, XOR_ISH)
    with pytest.raises(ValueError):
        check_formula(0, ())
    with pytest.raises(ValueError):
        check_formula(2, (((0, False), (2, False)),))
    with pytest.raises(ValueError):
        check_formula(2, (((0, False), (1, 0)),))


def test_agreement_count():
    assert agreement_count(bytearray([1, 0, 1]), bytearray([1, 1, 1])) == 2
    assert agreement_count(b"", b"") == 0


def test_planted_witness_satisfies_the_formula():
    for seed in range(10):
        clauses, witness = generate_planted(RngStream(seed), n=12, m=30)
        assert len(witness) == 12
        assert len(clauses) == 30
        assert satisfies(clauses, witness)
        assert all(c[0][0] != c[1][0] for c in clauses)


@pytest.mark.parametrize("n, m", [(2, 1), (12, 30), (50, 150)])
def test_generated_formula_equals_the_validated_one(n, m):
    clauses, witness = generate_planted(RngStream(6), n, m)
    check_formula(n, clauses)
    assert (len(witness), len(clauses)) == (n, m)
    # hashable all the way down: the clauses are tuples of tuples
    hash(clauses)


def test_planted_generation_validation():
    # generate_planted assumes n >= 2 (at n = 1 every clause draws u == v
    # and the draw never ends) and m >= 1: the config reader checks both
    with pytest.raises(ConfigError, match=r"^config\.params\.n: must be at least 2$"):
        read_config("sat2", {"n": 1, "m": 3})
    with pytest.raises(ConfigError, match=r"^config\.params\.m: must be at least 1$"):
        read_config("sat2", {"n": 3, "m": 0})


def test_walk_from_witness_stops_immediately():
    clauses, witness = generate_planted(RngStream(4), n=10, m=25)
    result = run_walk(clauses, witness, RngStream(5), cap=100)
    assert result.iterations == 0
    assert not result.censored
    assert bytes(result.assignment) == witness


def test_walk_reaches_a_satisfying_assignment():
    for seed in range(8):
        clauses, _ = generate_planted(RngStream(seed), n=15, m=40)
        init = random_assignment(RngStream(seed, stream_id=1), 15)
        result = run_walk(clauses, init, RngStream(seed, stream_id=2), cap=6 * 15 * 15)
        assert not result.censored
        assert satisfies(clauses, result.assignment)


def test_cap_zero_censors_unsatisfied_start():
    result = run_walk(XOR_ISH, bytearray([0, 0]), RngStream(1), cap=0)
    assert result.censored
    assert result.iterations == 0


def test_walk_input_validation():
    # run_walk assumes cap >= 0, which the config reader checks, and an init
    # and a reference of length n, which the replication draws and plants
    with pytest.raises(ConfigError, match=r"^config\.cap: must be nonnegative$"):
        read_config("sat2", {"n": 3, "m": 2}, cap=-1)
    for n in (2, 7, 40):
        stream = RngStream(n)
        clauses, witness = generate_planted(stream, n, 3 * n)
        init = random_assignment(stream, n)
        assert len(init) == len(witness) == n
        check_formula(n, clauses)


def naive_walk(clauses, init, stream, cap):
    """Same policy with none of the bookkeeping: rescan every clause per step.

    Returns the final assignment, the step count and whether a clause is
    still violated.
    """
    assignment = bytearray(init)
    t = 0
    while True:
        chosen = next(
            (c for c in clauses if not clause_satisfied(c, assignment)), None
        )
        if chosen is None or t >= cap:
            return assignment, t, chosen is not None
        var = chosen[stream.next_index(2)][0]
        assignment[var] ^= 1
        t += 1


def test_walk_matches_naive_rescan_walk_draw_for_draw():
    for seed in range(12):
        clauses, _ = generate_planted(RngStream(seed), n=15, m=45)
        init = random_assignment(RngStream(seed, stream_id=7), 15)
        _, needed, _ = naive_walk(clauses, init, RngStream(seed, stream_id=8), 6 * 15 * 15)
        # the full run, then caps that stop it before it is satisfied
        for cap in {6 * 15 * 15, needed - 1, needed // 2}:
            fast_stream, slow_stream = RngStream(seed, stream_id=8), RngStream(seed, stream_id=8)
            fast = run_walk(clauses, init, fast_stream, cap=cap)
            slow_assignment, slow_t, slow_censored = naive_walk(
                clauses, init, slow_stream, cap=cap
            )
            assert bytes(fast.assignment) == bytes(slow_assignment)
            assert fast.iterations == slow_t
            assert fast.censored == slow_censored == (cap < needed)
            assert fast_stream.draw_counter == slow_stream.draw_counter


def test_agreement_trajectory_moves_by_one_per_flip():
    clauses, witness = generate_planted(RngStream(21), n=12, m=35)
    init = random_assignment(RngStream(22), 12)
    result = run_walk(clauses, init, RngStream(23), cap=6 * 12 * 12, reference=witness)
    values = result.trajectory.values
    assert values[0] == agreement_count(init, witness)
    assert values[-1] == agreement_count(result.assignment, witness)
    assert len(values) == result.iterations + 1
    assert all(abs(p - q) == 1 for p, q in zip(values, values[1:]))

