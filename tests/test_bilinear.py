"""Bilinear payoff, dominance acceptance, and the two run loops."""

from fractions import Fraction
from itertools import product
from math import inf, nan, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.bilinear import (
    _FLIP_TABLES,
    PAYOFFS,
    BilinearParams,
    run_forgetting,
    run_search,
    run_until_opt,
)
from driftlab.errors import ConfigError
from driftlab.experiment import Rlspd
from driftlab.rng import RngStream
from oracles import (
    bilinear_value,
    classes_of,
    copy_pair,
    dominates,
    manhattan_distance,
    pair_from_bits,
    pair_of,
    pair_with_counts,
    quadrant,
    random_pair,
    read_config,
    rls_pd_step,
)

HALVES4 = BilinearParams(n=4, alpha=0.5, beta=0.5)
THIRDS6 = BilinearParams(n=6, alpha=1 / 3, beta=2 / 3)
TENTHS10 = BilinearParams(n=10, alpha=0.3, beta=0.6)


def value_by_fractions(params, ox, oy):
    """The payoff evaluated in exact rational arithmetic, from its definition."""
    n3 = params.n**3
    return (
        Fraction(oy * (ox - params.bn) - params.an * ox)
        + Fraction(max((params.an - oy) ** 2, 1), n3)
        - Fraction(max((params.bn - ox) ** 2, 1), n3)
    )


def dominance_by_fractions(params, cand, inc):
    a = value_by_fractions(params, cand.ones_x, inc.ones_y)
    b = value_by_fractions(params, cand.ones_x, cand.ones_y)
    c = value_by_fractions(params, inc.ones_x, cand.ones_y)
    return a >= b >= c


def test_params_validation():
    with pytest.raises(ValueError):
        BilinearParams(n=1, alpha=0.5, beta=0.5)
    with pytest.raises(ValueError):
        BilinearParams(n=4, alpha=0.0, beta=0.5)
    with pytest.raises(ValueError):
        BilinearParams(n=4, alpha=0.5, beta=1.0)
    with pytest.raises(ValueError):
        BilinearParams(n=5, alpha=0.3, beta=0.4)  # 1.5 and 2.0: first is fractional
    assert THIRDS6.an == 2 and THIRDS6.bn == 4


def test_value_known_points():
    # at n = 4, alpha = beta = 1/2 the two correction terms cancel exactly
    assert bilinear_value(HALVES4, pair_with_counts(HALVES4, 2, 2)) == -4.0
    assert bilinear_value(HALVES4, pair_with_counts(HALVES4, 0, 0)) == 0.0


def test_value_depends_only_on_counts():
    scattered = pair_from_bits([0, 1, 0, 1], [1, 0, 0, 1])
    prefix = pair_with_counts(HALVES4, 2, 2)
    assert bilinear_value(HALVES4, scattered) == bilinear_value(HALVES4, prefix)


@pytest.mark.parametrize("params", [HALVES4, THIRDS6])
def test_value_matches_fraction_oracle_everywhere(params):
    for ox, oy in product(range(params.n + 1), repeat=2):
        got = bilinear_value(params, pair_with_counts(params, ox, oy))
        assert got == pytest.approx(float(value_by_fractions(params, ox, oy)), rel=1e-12)


@pytest.mark.parametrize("params", [HALVES4, THIRDS6])
def test_dominance_matches_fraction_oracle_everywhere(params):
    states = range(params.n + 1)
    for ox1, oy1, ox2, oy2 in product(states, repeat=4):
        cand = pair_with_counts(params, ox1, oy1)
        inc = pair_with_counts(params, ox2, oy2)
        assert dominates(params, cand, inc) == dominance_by_fractions(params, cand, inc)


def test_dominance_is_reflexive():
    for ox, oy in product(range(5), repeat=2):
        p = pair_with_counts(HALVES4, ox, oy)
        assert dominates(params=HALVES4, cand=p, inc=p)


def flip_starts(n):
    """One stream start per flip position: a counter whose next index draw lands on it."""
    starts = {}
    counter = 0
    while len(starts) < 2 * n:
        starts.setdefault(RngStream(0, draw_counter=counter).next_index(2 * n), counter)
        counter += 1
    return starts


@pytest.mark.parametrize("params", [HALVES4, THIRDS6])
def test_flip_sign_rules_match_dominance_everywhere(params):
    n = params.n
    starts = flip_starts(n)
    oracles = {"plain": plain_step, "corrected": lambda *args: rls_pd_step(*args)[0]}
    for payoff, oracle in oracles.items():
        for ox, oy in product(range(n + 1), repeat=2):
            for pos, counter in starts.items():
                stream = RngStream(0, draw_counter=counter)
                # lo = -1 takes the step at the optimum as well
                got = run_search(
                    params, stream, classes_of(pair_with_counts(params, ox, oy)), 1, -1, inf,
                    plain=payoff == "plain",
                ).classes
                ref = RngStream(0, draw_counter=counter)
                want = oracle(params, pair_with_counts(params, ox, oy), ref)
                assert got == classes_of(want), (payoff, ox, oy, pos)
                assert stream.draw_counter == ref.draw_counter


@pytest.mark.parametrize("params", [HALVES4, THIRDS6])
def test_flip_tables_match_the_oracles_in_every_region(params):
    # entry 12 * (sign(|x| - beta*n) + 1) + 4 * (sign(|y| - alpha*n) + 1) + c,
    # c = x bit 0, x bit 1, y bit 0, y bit 1; pair_with_counts sets the
    # leading bits, so position 0 is a one of x and n - 1 a zero of x
    n, an, bn = params.n, params.an, params.bn
    starts = flip_starts(n)
    positions = (n - 1, 0, 2 * n - 1, n)
    oracles = {True: plain_step, False: lambda *args: rls_pd_step(*args)[0]}
    for plain, oracle in oracles.items():
        accept, dm = _FLIP_TABLES[plain]
        assert len(accept) == len(dm) == 36
        sides_x = enumerate((bn - 1, bn, bn + 1))
        sides_y = enumerate((an - 1, an, an + 1))
        for (i, ox), (j, oy) in product(sides_x, sides_y):
            for c, pos in enumerate(positions):
                before = pair_with_counts(params, ox, oy)
                after = oracle(params, copy_pair(before), RngStream(0, draw_counter=starts[pos]))
                kept = (after.ones_x, after.ones_y) != (ox, oy)
                move = manhattan_distance(params, after) - manhattan_distance(params, before)
                assert accept[12 * i + 4 * j + c] == kept, (plain, ox, oy, c)
                assert dm[12 * i + 4 * j + c] == move, (plain, ox, oy, c)


def test_search_pair_from_bits_and_copy():
    p = pair_from_bits([1, 0, 1, 1], [0, 0, 0, 1])
    assert (p.ones_x, p.ones_y) == (3, 1)
    q = copy_pair(p)
    q.x[0] = 0
    q.ones_x = 2
    assert p.x[0] == 1 and p.ones_x == 3
    with pytest.raises(ValueError):
        pair_from_bits([0, 2], [0, 0])


def test_class_vector_round_trip():
    p = pair_from_bits([1, 0, 1, 1], [0, 0, 0, 1])
    classes = classes_of(p)
    assert classes == bytearray([1, 0, 1, 1, 2, 2, 2, 3])
    assert pair_of(classes, 4) == p
    with pytest.raises(ValueError):
        pair_of(bytearray([1, 0, 3, 1, 2, 2, 2, 3]), 4)  # a y class among the x bits


def test_forgetting_starts_at_the_optimum_with_leading_bits_set():
    result = run_forgetting(THIRDS6, RngStream(0), threshold=0, cap=100)
    assert result.iterations == 0
    p = pair_of(result.classes, THIRDS6.n)
    assert p == pair_with_counts(THIRDS6, 4, 2)
    assert manhattan_distance(THIRDS6, p) == 0
    assert result.quadrant_at_end == quadrant(THIRDS6, p) == 0


@pytest.mark.parametrize("params", [HALVES4, THIRDS6, TENTHS10])
def test_quadrant_table_matches_the_oracle_at_every_count_pair(params):
    # a run of no steps reads its label off the region it starts in; every
    # count pair of every size covers all nine regions
    for ox, oy in product(range(params.n + 1), repeat=2):
        pair = pair_with_counts(params, ox, oy)
        result = run_search(params, RngStream(0), classes_of(pair), 0, -1, inf, False)
        assert result.iterations == 0
        assert result.quadrant_at_end == quadrant(params, pair), (ox, oy)


def test_quadrant_labels():
    cases = {
        (2, 2): 0,
        (1, 2): 1,
        (0, 3): 1,
        (2, 3): 2,
        (3, 3): 2,
        (3, 2): 3,
        (2, 1): 3,
        (3, 1): 3,
        (1, 1): 4,
        (0, 0): 4,
    }
    for (ox, oy), expected in cases.items():
        assert quadrant(HALVES4, pair_with_counts(HALVES4, ox, oy)) == expected
    for ox, oy in product(range(5), repeat=2):
        assert quadrant(HALVES4, pair_with_counts(HALVES4, ox, oy)) in (0, 1, 2, 3, 4)


def test_start_vector_consumes_two_n_draws():
    stream = RngStream(6)
    classes = run_until_opt(THIRDS6, stream, cap=0).classes
    assert stream.draw_counter == 12
    ref = RngStream(6)
    assert pair_of(classes, THIRDS6.n) == random_pair(ref, THIRDS6)
    assert ref.draw_counter == 12


def test_rls_pd_step_restores_state_on_reject():
    params = THIRDS6
    pair = pair_with_counts(params, 3, 3)
    for seed in range(30):
        before_x, before_y = bytes(pair.x), bytes(pair.y)
        before = (pair.ones_x, pair.ones_y)
        _, accepted = rls_pd_step(params, pair, RngStream(seed))
        if not accepted:
            assert bytes(pair.x) == before_x and bytes(pair.y) == before_y
            assert (pair.ones_x, pair.ones_y) == before
        else:
            changed = (bytes(pair.x) != before_x) + (bytes(pair.y) != before_y)
            assert changed == 1
        pair = pair_with_counts(params, 3, 3)


def test_corrected_run_matches_iterated_single_steps():
    params = BilinearParams(n=8, alpha=0.5, beta=0.5)
    for seed in range(10):
        init = random_pair(RngStream(seed, stream_id=1), params)
        cap = 4000
        fast_stream = RngStream(seed, stream_id=2)
        fast = run_search(params, fast_stream, classes_of(init), cap, 0, inf, False)
        pair = copy_pair(init)
        stream = RngStream(seed, stream_id=2)
        t = 0
        while manhattan_distance(params, pair) != 0 and t < cap:
            pair, _ = rls_pd_step(params, pair, stream)
            t += 1
        assert fast.iterations == t
        assert fast.classes == classes_of(pair)
        assert fast.censored == (manhattan_distance(params, pair) != 0)
        assert fast_stream.draw_counter == stream.draw_counter


# n -> (alpha, beta) with alpha*n and beta*n integral and away from the ends
SEARCH_PARAMS = {4: (0.5, 0.5), 6: (1 / 3, 2 / 3), 10: (0.3, 0.6), 20: (0.75, 0.25)}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.sampled_from(sorted(SEARCH_PARAMS)),
    mode=st.sampled_from(["plain", "corrected", "forgetting"]),
    threshold=st.sampled_from([1, 2, 2.5, 3, 4.5]),
    record=st.booleans(),
    cap=st.sampled_from([63, 64, 65, 959, 960, 961, 1023, 1024, 1025]),
    start=st.sampled_from([0, 1, 960]),
)
def test_search_matches_iterated_single_steps(seed, n, mode, threshold, record, cap, start):
    # the search's words() iterator draws blocks of 64, 128, 256, 512 and
    # 1024 words from wherever it starts, so caps of 64 and 960 end on a
    # block edge when no word is rejected
    params = BilinearParams(n, *SEARCH_PARAMS[n])
    step = plain_step if mode == "plain" else (lambda *args: rls_pd_step(*args)[0])
    if mode == "forgetting":
        init, hi = pair_with_counts(params, params.bn, params.an), threshold
    else:
        init, hi = random_pair(RngStream(seed, stream_id=1), params), inf
    fast_stream, ref = RngStream(seed), RngStream(seed)
    for _ in range(start):
        fast_stream.next_u64()
    ref.draw_counter = start
    if mode == "forgetting":
        fast = run_forgetting(params, fast_stream, threshold, cap, record=record)
    else:
        fast = run_search(
            params, fast_stream, classes_of(init), cap, 0, inf, mode == "plain", record
        )
    pair = copy_pair(init)
    values = [manhattan_distance(params, pair)]
    lo = -1 if mode == "forgetting" else 0
    while lo < values[-1] < hi and len(values) <= cap:
        pair = step(params, pair, ref)
        values.append(manhattan_distance(params, pair))
    assert fast.iterations == len(values) - 1
    assert fast.classes == classes_of(pair)
    assert pair_of(fast.classes, n) == pair
    assert fast.censored == (lo < values[-1] < hi)
    assert fast.quadrant_at_end == quadrant(params, pair)
    assert fast_stream.draw_counter == ref.draw_counter
    assert fast_stream.next_u64() == ref.next_u64()
    if record:
        assert fast.trajectory.values == values
    else:
        assert fast.trajectory is None


@pytest.mark.parametrize("payoff", PAYOFFS)
@pytest.mark.parametrize(
    "case", ["cap 0", "start outside the range", "first kept flip", "fractional range", "capped"]
)
def test_search_writes_its_classes_back_on_every_exit(payoff, case):
    # the loop works on a list copy; each way out leaves the caller's
    # bytearray, as result.classes, holding the oracle's pair
    params = TENTHS10
    step = plain_step if payoff == "plain" else (lambda *args: rls_pd_step(*args)[0])
    for seed in range(5):
        init = random_pair(RngStream(seed, stream_id=1), params)
        m0 = manhattan_distance(params, init)
        lo, hi, cap = 0, inf, 1000
        if case == "cap 0":
            cap = 0
        elif case == "start outside the range":
            init = pair_with_counts(params, params.bn, params.an)  # m = 0, not above lo
        elif case == "first kept flip":
            lo, hi = m0 - 1, m0 + 1  # a kept flip moves m by one
        elif case == "fractional range":
            lo, hi = m0 - 1.5, m0 + 1.5  # the loop compares m with integer bounds
        else:
            lo, cap = -1, 3  # m never leaves (-1, inf)
        classes = classes_of(init)
        stream, ref = RngStream(seed), RngStream(seed)
        result = run_search(params, stream, classes, cap, lo, hi, payoff == "plain")
        pair, t = copy_pair(init), 0
        while lo < manhattan_distance(params, pair) < hi and t < cap:
            pair = step(params, pair, ref)
            t += 1
        assert result.classes is classes
        assert classes == classes_of(pair)
        assert result.iterations == t
        assert stream.draw_counter == ref.draw_counter
        if case in ("first kept flip", "fractional range"):
            assert pair != init and t >= 1
        elif case == "capped":
            assert result.censored and t == cap
        else:
            assert t == 0


def plain_value(params, ox, oy):
    """The plain payoff: the bare objective, without correction terms."""
    return oy * (ox - params.bn) - params.an * ox


def plain_step(params, pair, stream):
    """One scalar-path step under the plain payoff, by the dominance chain."""
    pos = stream.next_index(2 * params.n)
    cand = copy_pair(pair)
    if pos < params.n:
        cand.x[pos] ^= 1
        cand.ones_x += 1 if cand.x[pos] else -1
    else:
        cand.y[pos - params.n] ^= 1
        cand.ones_y += 1 if cand.y[pos - params.n] else -1
    a = plain_value(params, cand.ones_x, pair.ones_y)
    b = plain_value(params, cand.ones_x, cand.ones_y)
    c = plain_value(params, pair.ones_x, cand.ones_y)
    return cand if a >= b >= c else pair


@pytest.mark.parametrize("payoff", PAYOFFS)
def test_run_from_a_drawn_start_continues_the_same_stream(payoff):
    # run_until_opt draws the 2n = 1000 start bits from one words() iterator,
    # here checked against scalar draws; then the walk's block draws pick up
    # at that counter and cross the first block boundary at word 1024
    params = BilinearParams(n=500, alpha=0.5, beta=0.5)
    step = plain_step if payoff == "plain" else (lambda *args: rls_pd_step(*args)[0])
    for seed in range(10):
        stream = RngStream(seed, stream_id=4)
        fast = run_until_opt(params, stream, cap=3000, payoff=payoff)
        ref = RngStream(seed, stream_id=4)
        pair = random_pair(ref, params)
        assert ref.draw_counter == 2 * params.n
        t = 0
        while manhattan_distance(params, pair) != 0 and t < 3000:
            pair = step(params, pair, ref)
            t += 1
        assert fast.iterations == t
        assert fast.classes == classes_of(pair)
        assert stream.draw_counter == ref.draw_counter
        fresh = RngStream(seed, stream_id=4, draw_counter=stream.draw_counter)
        assert stream.next_u64() == fresh.next_u64()


def test_plain_run_reaches_the_optimum_and_records_distance():
    params = Rlspd(n=16, alpha=0.5, beta=0.5)  # the config kind is its own problem
    result = run_until_opt(
        params, RngStream(11), cap=params.default_cap(), record=True, payoff="plain"
    )
    assert not result.censored
    assert result.quadrant_at_end == 0
    values = result.trajectory.values
    assert values[-1] == 0
    assert len(values) == result.iterations + 1
    assert all(abs(p - q) <= 1 for p, q in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_run_until_opt_validation():
    # run_until_opt assumes cap >= 0 and a known payoff: the config reader checks both
    params = {"n": 4, "alpha": 0.5, "beta": 0.5}
    with pytest.raises(ConfigError, match=r"^config\.cap: must be nonnegative$"):
        read_config("rlspd", params, cap=-1)
    with pytest.raises(ConfigError, match=r"^config\.params\.payoff: choose from "):
        read_config("rlspd", {**params, "payoff": "bare"})


def test_forgetting_threshold_zero_stops_at_once():
    result = run_forgetting(HALVES4, RngStream(1), threshold=0, cap=100)
    assert result.iterations == 0
    assert not result.censored


def test_forgetting_matches_iterated_single_steps():
    params = BilinearParams(n=8, alpha=0.5, beta=0.5)
    threshold = 2 * sqrt(8)
    for seed in range(10):
        cap = 5000
        fast_stream = RngStream(seed, stream_id=3)
        fast = run_forgetting(params, fast_stream, threshold, cap=cap)
        pair = pair_with_counts(params, params.bn, params.an)
        stream = RngStream(seed, stream_id=3)
        t = 0
        while manhattan_distance(params, pair) < threshold and t < cap:
            pair, _ = rls_pd_step(params, pair, stream)
            t += 1
        assert fast.iterations == t
        assert fast.classes == classes_of(pair)
        assert fast_stream.draw_counter == stream.draw_counter


def test_forgetting_records_distance_from_zero():
    params = BilinearParams(n=8, alpha=0.5, beta=0.5)
    result = run_forgetting(params, RngStream(5), threshold=3, cap=50000, record=True)
    values = result.trajectory.values
    assert values[0] == 0
    if not result.censored:
        assert values[-1] >= 3
    assert all(abs(p - q) <= 1 for p, q in zip(values, values[1:]))


def test_forgetting_validation():
    # run_forgetting assumes cap >= 0 and a finite threshold (A + B) sqrt(n)
    # above 0: the config reader checks cap, A and B
    params = {"n": 4, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0}
    with pytest.raises(ConfigError, match=r"^config\.params: A and B must be positive$"):
        read_config("rlspd_forgetting", {**params, "A": -1.0})
    with pytest.raises(ConfigError, match=r"^config\.cap: must be nonnegative$"):
        read_config("rlspd_forgetting", params, cap=-5)
    with pytest.raises(ConfigError, match=r"^config\.params\.B: expected a finite number$"):
        read_config("rlspd_forgetting", {**params, "B": nan})


def test_default_cap_scales_with_n_to_the_three_halves():
    assert Rlspd(n=1000, alpha=0.5, beta=0.5).default_cap() == int(20 * 1000 * sqrt(1000))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), steps=st.integers(1, 60))
def test_ones_caches_stay_consistent_under_stepping(seed, steps):
    params = THIRDS6
    stream = RngStream(seed)
    pair = random_pair(stream, params)
    for _ in range(steps):
        pair, _ = rls_pd_step(params, pair, stream)
        assert pair.ones_x == sum(pair.x)
        assert pair.ones_y == sum(pair.y)
