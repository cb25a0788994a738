"""Determinism and distribution checks for the counter-based streams."""

import math
import pickle
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.rng import RngStream, _GOLDEN, _blocks, _mix64, below, bits, index_limit

MASK = (1 << 64) - 1

# Published splitmix64 reference outputs for seed 0 (Steele/Lea/Vigna
# finalizer, state advancing by the golden-ratio increment).  A stream's
# n-th word is mix64(key + (n+1)*GOLDEN), which for key = 0 is exactly that
# reference sequence.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_mix64_matches_published_reference_sequence():
    state = 0
    for expected in SPLITMIX64_SEED0:
        state = (state + _GOLDEN) & MASK
        assert _mix64(state) == expected


def test_same_triple_same_output():
    a = RngStream(master_seed=42, stream_id=3)
    b = RngStream(master_seed=42, stream_id=3)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_draw_counter_addresses_position():
    a = RngStream(master_seed=42, stream_id=3)
    skipped = [a.next_u64() for _ in range(10)]
    resumed = RngStream(master_seed=42, stream_id=3, draw_counter=4)
    assert [resumed.next_u64() for _ in range(6)] == skipped[4:]


def test_counter_advances_by_one_per_word():
    s = RngStream(master_seed=1)
    assert s.draw_counter == 0
    s.next_u64()
    assert s.draw_counter == 1
    s.next_uniform()
    assert s.draw_counter == 2


def test_distinct_streams_disagree():
    a = RngStream(master_seed=42, stream_id=0)
    b = RngStream(master_seed=42, stream_id=1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_distinct_master_seeds_disagree():
    a = RngStream(master_seed=1, stream_id=0)
    b = RngStream(master_seed=2, stream_id=0)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_validation_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        RngStream(master_seed=-1)
    with pytest.raises(ValueError):
        RngStream(master_seed=1 << 64)
    with pytest.raises(ValueError):
        RngStream(master_seed=0, stream_id=-5)
    with pytest.raises(ValueError):
        RngStream(master_seed=0.5)


def test_uniform_range_and_mean():
    s = RngStream(master_seed=7)
    draws = [s.next_uniform() for _ in range(20000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.01  # sd of the mean ~ 0.002


def test_index_range_and_uniformity():
    s = RngStream(master_seed=11)
    k = 7
    counts = [0] * k
    n = 21000
    for _ in range(n):
        counts[s.next_index(k)] += 1
    for c in counts:
        assert abs(c - n / k) < 5 * math.sqrt(n / k)


def test_index_rejects_bad_k():
    s = RngStream(master_seed=0)
    with pytest.raises(ValueError):
        s.next_index(0)
    with pytest.raises(ValueError):
        s.next_index(-3)
    with pytest.raises(ValueError):
        s.next_index(2.0)
    with pytest.raises(ValueError):
        s.next_index((1 << 64) + 1)  # every word would be rejected
    assert s.draw_counter == 0


def test_index_k_one_is_free_of_bias():
    s = RngStream(master_seed=0)
    assert all(s.next_index(1) == 0 for _ in range(50))


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    k=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=60)
def test_index_always_in_range(seed, sid, k):
    s = RngStream(master_seed=seed, stream_id=sid)
    for _ in range(5):
        assert 0 <= s.next_index(k) < k


@given(seed=st.integers(min_value=0, max_value=MASK))
@settings(max_examples=30)
def test_replay_is_exact(seed):
    a = RngStream(master_seed=seed, stream_id=17)
    first = [a.next_u64() for _ in range(6)]
    b = RngStream(master_seed=seed, stream_id=17)
    assert [b.next_u64() for _ in range(6)] == first


# k values near 2**63 reject about half of all words; k = 2**64 rejects none
INDEX_KS = st.one_of(
    st.sampled_from([1, 2, 3, 2000, 2**63 + 1, 2**64]),
    st.integers(min_value=2**63 - 2**20, max_value=2**63 + 2**20),
    st.integers(min_value=1, max_value=MASK),
)


def _reduce(words, k):
    """next_index(k) on a word iterator, the way the kernels apply it."""
    limit = index_limit(k)
    for w in words:
        if w < limit:
            yield w % k


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    start=st.sampled_from([0, 1023, 1024, 1025]),
    k=INDEX_KS,
    taken=st.integers(min_value=0, max_value=2100),
)
@settings(max_examples=60, deadline=None)
def test_reduced_words_match_scalar_next_index(seed, sid, start, k, taken):
    block = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    scalar = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    words = block.words()
    values = _reduce(words, k)
    for _ in range(taken):
        assert next(values) == scalar.next_index(k)
    assert block.draw_counter == start  # words() never moves it
    # the iterator stopped just past the last word a value used
    assert next(words) == scalar.next_u64()


def test_index_limit_rejects_bad_k():
    for k in (0, -3, 2.0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            index_limit(k)


# p at the ends of [0, 1], at the smallest subnormal, at multiples of 2**-53
# (where the bound is exact) and at their float neighbours on either side
MULTIPLES = st.integers(min_value=0, max_value=2**53).map(lambda q: q * 2.0**-53)
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 5e-324, -0.0, -5e-324, math.nextafter(1.0, 2.0)]),
    MULTIPLES,
    MULTIPLES.map(lambda p: math.nextafter(p, -1.0)),
    MULTIPLES.map(lambda p: math.nextafter(p, 2.0)),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(p=PROBABILITIES, w=st.integers(min_value=0, max_value=MASK))
@settings(max_examples=300)
def test_below_bounds_exactly_the_words_whose_uniform_is_below_p(p, w):
    bound = below(p)
    for word in (w, 0, MASK, bound - 1, bound):
        if 0 <= word <= MASK:
            assert (word < bound) == ((word >> 11) * 2.0**-53 < p)


def test_below_at_the_ends_of_the_unit_interval():
    assert below(0.0) == 0  # no word: a uniform is never below 0
    assert below(1.0) == 1 << 64  # every word: a uniform is always below 1
    assert below(0.5) == 1 << 63
    assert below(5e-324) == 1 << 11  # only the words whose uniform is 0.0


@pytest.mark.parametrize("start, drawn", [(0, 0), (0, 40), (0, 1000), (10**15, 0), (10**15, 77)])
def test_words_match_repeated_next_u64(start, drawn):
    # drawn > 0: scalar draws come before the iterator
    block = RngStream(master_seed=2024, stream_id=9, draw_counter=start)
    for _ in range(drawn):
        block.next_u64()
    scalar = RngStream(master_seed=2024, stream_id=9, draw_counter=start + drawn)
    oracle = FormulaStream(2024, 9, start + drawn)
    words = block.words()
    for _ in range(3000):  # across several block growth edges
        assert next(words) == scalar.next_u64() == oracle.next_u64()
    assert block.draw_counter == start + drawn


# ---------------------------------------------------------------------------
# The block path against the defining formula.  A words() iterator draws
# blocks of 64, 128, 256, 512, 1024, 1024, ... words, starting at these
# offsets from where it starts; each edge is tested from both sides.
GROWTH_EDGES = [0, 63, 64, 191, 192, 447, 448, 959, 960, 1983, 1984]


class FormulaStream:
    """The draw methods straight from the formula in the rng module docstring."""

    def __init__(self, seed, sid, counter=0):
        self.key = _mix64((seed + (sid + 1) * _GOLDEN) & MASK)
        self.draw_counter = counter

    def next_u64(self):
        self.draw_counter += 1
        return _mix64((self.key + self.draw_counter * _GOLDEN) & MASK)

    def next_uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def next_index(self, k):
        limit = (1 << 64) - (1 << 64) % k
        while True:
            w = self.next_u64()
            if w < limit:
                return w % k


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    positions=st.lists(
        st.one_of(
            st.sampled_from(GROWTH_EDGES),
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=0, max_value=MASK),
        ),
        min_size=1,
        max_size=12,
    ),
    run=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_next_u64_matches_formula_at_reassigned_positions(seed, sid, positions, run):
    stream = RngStream(master_seed=seed, stream_id=sid)
    for pos in positions:
        stream.draw_counter = pos
        oracle = FormulaStream(seed, sid, pos)
        for _ in range(run):
            assert stream.next_u64() == oracle.next_u64()
            assert stream.draw_counter == oracle.draw_counter


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    start=st.sampled_from(GROWTH_EDGES),
    k=st.one_of(st.none(), INDEX_KS),
    taken=st.integers(min_value=0, max_value=2100),
)
@settings(max_examples=60, deadline=None)
def test_words_match_scalar_calls_across_growth_edges(seed, sid, start, k, taken):
    block = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    scalar = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    oracle = FormulaStream(seed, sid, start)
    words = block.words()
    if k is None:
        values, draw, reference = words, scalar.next_u64, oracle.next_u64
    else:
        values = _reduce(words, k)
        draw, reference = partial(scalar.next_index, k), partial(oracle.next_index, k)
    for _ in range(taken):
        expected = reference()
        assert next(values) == expected
        assert draw() == expected
        assert scalar.draw_counter == oracle.draw_counter
    assert block.draw_counter == start  # words() never moves it
    # a kernel sets the counter once, where it stops
    block.draw_counter = oracle.draw_counter
    assert block.next_u64() == scalar.next_u64() == oracle.next_u64()


# one step of an interleaved script: how to draw, k for indices, how many
STEPS = st.tuples(
    st.sampled_from(["words", "reduced_words", "next_uniform", "next_index", "jump"]),
    st.sampled_from([2, 3, 2000, 2**63 + 1]),
    st.integers(min_value=0, max_value=700),
)


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    script=st.lists(STEPS, min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_interleaved_iterators_and_scalar_calls_match_formula(seed, sid, script):
    stream = RngStream(master_seed=seed, stream_id=sid)
    oracle = FormulaStream(seed, sid)
    for how, k, taken in script:
        if how == "jump":  # reassign the counter, forward or back
            stream.draw_counter = oracle.draw_counter = taken * 7
        elif how == "words":  # the caller counts the words and moves the counter
            words = stream.words()
            for _ in range(taken):
                assert next(words) == oracle.next_u64()
            stream.draw_counter += taken
        elif how == "reduced_words":  # next_index(k) the way the kernels draw it
            words = stream.words()
            limit = index_limit(k)
            used = 0
            for _ in range(taken):
                w = next(words)
                used += 1
                while w >= limit:
                    w = next(words)
                    used += 1
                assert w % k == oracle.next_index(k)
            stream.draw_counter += used
        else:
            if how == "next_uniform":
                draw, reference = stream.next_uniform, oracle.next_uniform
            else:
                draw, reference = partial(stream.next_index, k), partial(oracle.next_index, k)
            for _ in range(taken):
                assert draw() == reference()
                assert stream.draw_counter == oracle.draw_counter
        assert stream.draw_counter == oracle.draw_counter
    assert stream.next_u64() == oracle.next_u64()


def test_a_stream_that_has_drawn_equals_a_fresh_one_at_its_counter():
    drawn = RngStream(master_seed=42, stream_id=3)
    drawn.next_u64()
    drawn.next_uniform()
    drawn.next_index(2**63 + 1)
    assert len(list(islice(drawn.words(), 1000))) == 1000
    drawn.draw_counter += 1000  # counted as a kernel does
    fresh = RngStream(master_seed=42, stream_id=3, draw_counter=drawn.draw_counter)
    assert drawn == fresh
    assert repr(drawn) == repr(fresh)
    assert pickle.dumps(drawn) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(drawn)) == fresh
    fresh.next_u64()
    assert drawn != fresh
    drawn.next_u64()
    assert drawn == fresh


@pytest.mark.parametrize("start", [0, 10, 1984, MASK - 3000])
def test_blocks_double_from_64_to_1024_from_any_start(start):
    key = RngStream(master_seed=5)._key
    sizes = [len(b) for b in islice(_blocks(key, start), 8)]
    assert sizes == [64, 128, 256, 512, 1024, 1024, 1024, 1024]


# the ramp of 64 + 128 + 256 + 512 words, then five full blocks whose
# counters are the previous block's stepped by 1024 * GOLDEN
RAMP_AND_FIVE_FULL_BLOCKS = 960 + 5 * 1024


@pytest.mark.parametrize("start", [0, *GROWTH_EDGES, 2**63, MASK - 4000])
def test_stepped_full_blocks_match_formula(start):
    # from MASK - 4000 the counters pass 2**64 inside a full block
    words = RngStream(master_seed=2024, stream_id=9, draw_counter=start).words()
    oracle = FormulaStream(2024, 9, start)
    for _ in range(RAMP_AND_FIVE_FULL_BLOCKS):
        assert next(words) == oracle.next_u64()


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    start=st.one_of(st.sampled_from(GROWTH_EDGES), st.integers(min_value=0, max_value=2**63)),
    n=st.sampled_from([0, 1, 63, 64, 65, 191, 192, 2000]),
)
@settings(max_examples=60, deadline=None)
def test_bits_are_scalar_coin_flips_and_move_the_counter_n_words(seed, sid, start, n):
    stream = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    scalar = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    assert bits(stream, n) == bytearray(scalar.next_uniform() < 0.5 for _ in range(n))
    assert stream.draw_counter == scalar.draw_counter == start + n
