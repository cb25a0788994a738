"""Triangle repair on witnessed 3-colourable graphs."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.errors import ConfigError
from driftlab.recolour import (
    generate_3colorable,
    random_colouring,
    run_recolour,
    seek_monochromatic_triangle,
)
from driftlab.rng import RngStream
from oracles import checked_graph, edges_of, read_config

TRIANGLE = checked_graph(3, ((0, 1), (0, 2), (1, 2)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, edges=()),
        dict(n=3, edges=((0, 3),)),
        dict(n=3, edges=((2, 1),)),
        dict(n=3, edges=((0, 1), (0, 1))),
        dict(n=4, edges=((0, 3),)),
    ],
)
def test_graph_validation(kwargs):
    with pytest.raises(ValueError):
        checked_graph(**kwargs)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, ((0, 3),), r"edge \(0,3\) out of range"),
        (3, ((-1, 1),), r"edge \(-1,1\) out of range"),
        (4, ((3, 5),), r"edge \(3,5\) out of range"),
        (3, ((2, 1),), r"edge \(2,1\) must be ordered u < v"),
        (3, ((1, 1),), r"edge \(1,1\) must be ordered u < v"),
        (3, ((0, 1), (1, 2), (0, 1)), r"duplicate edge \(0,1\)"),
        (3, ((0, 1), (0, 2), (1, 2), (0, 2)), r"duplicate edge \(0,2\)"),
        (4, ((0, 3),), r"edge \(0,3\) joins one witness class"),
    ],
)
def test_graph_validation_names_the_first_bad_edge(n, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        checked_graph(n, edges)


@pytest.mark.parametrize("n, edge_prob", [(3, 1.0), (9, 0.0), (12, 0.7), (30, 0.9)])
def test_generated_graph_equals_the_validated_one(n, edge_prob):
    adj = generate_3colorable(RngStream(5), n, edge_prob)
    assert len(adj) == n
    assert checked_graph(n, edges_of(adj)) == adj


def test_generator_extremes():
    full = edges_of(generate_3colorable(RngStream(1), n=9, edge_prob=1.0))
    # 36 unordered pairs minus the 9 intra-class ones
    assert len(full) == 27
    assert all(u % 3 != v % 3 for u, v in full)
    assert all(u < v for u, v in full)

    assert generate_3colorable(RngStream(1), n=9, edge_prob=0.0) == [0] * 9


def naive_triangle(adj, colouring):
    present = set(edges_of(adj))
    for u, v, w in combinations(range(len(adj)), 3):
        if colouring[u] == colouring[v] == colouring[w]:
            if (u, v) in present and (u, w) in present and (v, w) in present:
                return (u, v, w)
    return None


def test_triangle_search_matches_naive_scan():
    for seed in range(25):
        adj = generate_3colorable(RngStream(seed), n=12, edge_prob=0.7)
        colouring = random_colouring(RngStream(seed, stream_id=1), 12)
        assert seek_monochromatic_triangle(adj, colouring) == naive_triangle(
            adj, colouring
        )


def test_triangle_search_on_the_triangle_graph():
    assert seek_monochromatic_triangle(TRIANGLE, bytearray([1, 1, 1])) == (0, 1, 2)
    assert seek_monochromatic_triangle(TRIANGLE, bytearray([1, 0, 1])) is None


def test_run_stops_at_zero_when_already_triangle_free():
    result = run_recolour(TRIANGLE, bytearray([1, 0, 1]), RngStream(3), cap=50)
    assert result.iterations == 0
    assert not result.censored


def test_run_repairs_until_triangle_free():
    for seed in range(6):
        adj = generate_3colorable(RngStream(seed), n=12, edge_prob=0.8)
        init = random_colouring(RngStream(seed, stream_id=1), 12)
        result = run_recolour(adj, init, RngStream(seed, stream_id=2), cap=5000)
        assert not result.censored
        assert seek_monochromatic_triangle(adj, result.colouring) is None


def test_cap_zero_censors_a_monochromatic_start():
    result = run_recolour(TRIANGLE, bytearray([0, 0, 0]), RngStream(3), cap=0)
    assert result.censored
    assert result.iterations == 0


def test_run_input_validation():
    # run_recolour assumes cap >= 0, which the config reader checks, and a
    # colouring of length n in colours 0 and 1 (the walk keeps one vertex
    # mask per colour), which random_colouring draws
    with pytest.raises(ConfigError, match=r"^config\.cap: must be nonnegative$"):
        read_config("recolour", {"n": 3, "edge_prob": 0.5}, cap=-1)
    for n in (3, 10, 65):
        colouring = random_colouring(RngStream(n), n)
        assert len(colouring) == n
        assert set(colouring) <= {0, 1}


def replay_with_recomputed_potential(adj, init, stream, cap, spec):
    """Re-run the policy naively, rescanning every triple and recomputing
    the potential from scratch after each flip.

    Returns the final colouring, the potential values and whether a
    monochromatic triangle is left at the cap.
    """
    (ca, cb), (col_a, col_b) = spec
    pairing = {ca: col_a, cb: col_b}

    def potential(colouring):
        return sum(
            1
            for v in range(len(adj))
            if v % 3 in pairing and colouring[v] == pairing[v % 3]
        )

    colouring = bytearray(init)
    values = [potential(colouring)]
    while (tri := naive_triangle(adj, colouring)) is not None and len(values) <= cap:
        v = tri[stream.next_index(3)]
        colouring[v] ^= 1
        values.append(potential(colouring))
    return colouring, values, tri is not None


SPEC = ((0, 1), (0, 1))


def test_recorded_potential_matches_scratch_recomputation():
    for seed in range(6):
        adj = generate_3colorable(RngStream(seed), n=12, edge_prob=0.8)
        init = random_colouring(RngStream(seed, stream_id=3), 12)
        result = run_recolour(
            adj, init, RngStream(seed, stream_id=4), cap=5000, record=True
        )
        final, values, _ = replay_with_recomputed_potential(
            adj, init, RngStream(seed, stream_id=4), cap=5000, spec=SPEC
        )
        assert bytes(result.colouring) == bytes(final)
        assert result.trajectory.values == values
        assert all(
            abs(p - q) <= 1
            for p, q in zip(result.trajectory.values, result.trajectory.values[1:])
        )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 40),
    edge_prob=st.sampled_from([0.0, 0.3, 0.9, 1.0]) | st.floats(0.0, 1.0),
    cap=st.integers(0, 200),
    seed=st.integers(0, 2**32),
    record=st.booleans(),
)
def test_resumed_scan_matches_full_rescan_replay(n, edge_prob, cap, seed, record):
    # the walk resumes its scan after each flip; the replay rescans every
    # triple from scratch, so both must pick the same triangle at each step
    adj = generate_3colorable(RngStream(seed), n, edge_prob)
    init = random_colouring(RngStream(seed, stream_id=1), n)
    fast, slow = RngStream(seed, stream_id=2), RngStream(seed, stream_id=2)
    result = run_recolour(adj, init, fast, cap, record=record)
    colouring, values, censored = replay_with_recomputed_potential(
        adj, init, slow, cap, SPEC
    )
    assert bytes(result.colouring) == bytes(colouring)
    assert result.iterations == len(values) - 1
    assert result.censored == censored
    if record:
        assert result.trajectory.values == values
    assert fast.draw_counter == slow.draw_counter
