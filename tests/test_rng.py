"""Determinism and distribution checks for the counter-based streams."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.rng import RngStream, _GOLDEN, _mix64

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
    s.next_bernoulli(0.5)
    assert s.draw_counter == 3


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


def test_bernoulli_endpoints():
    s = RngStream(master_seed=5)
    assert not any(s.next_bernoulli(0.0) for _ in range(100))
    assert all(s.next_bernoulli(1.0) for _ in range(100))
    with pytest.raises(ValueError):
        s.next_bernoulli(1.5)
    with pytest.raises(ValueError):
        s.next_bernoulli(-0.1)


def test_bernoulli_frequency():
    s = RngStream(master_seed=9)
    n = 20000
    hits = sum(1 for _ in range(n) if s.next_bernoulli(0.3))
    assert abs(hits / n - 0.3) < 0.01


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


@given(
    seed=st.integers(min_value=0, max_value=MASK),
    sid=st.integers(min_value=0, max_value=2**32),
    start=st.sampled_from([0, 1023, 1024, 1025]),
    k=INDEX_KS,
    taken=st.integers(min_value=0, max_value=2100),
)
@settings(max_examples=60, deadline=None)
def test_indices_match_scalar_next_index(seed, sid, start, k, taken):
    block = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    scalar = RngStream(master_seed=seed, stream_id=sid, draw_counter=start)
    values = block.indices(k)
    for _ in range(taken):
        assert next(values) == scalar.next_index(k)
        assert block.draw_counter == scalar.draw_counter
    assert block.draw_counter == scalar.draw_counter
    # a stream left by the block path continues on the scalar path
    assert block.next_u64() == scalar.next_u64()


def test_indices_reject_bad_k_at_the_call():
    s = RngStream(master_seed=0)
    for k in (0, -3, 2.0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            s.indices(k)
    assert s.draw_counter == 0
