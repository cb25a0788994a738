"""Restless two-armed bandit baseline: schedule, challenges, full runs."""

import math
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftlab.rng import RngStream
from driftlab.rwab import (
    MAX_CHALLENGE_ITERATIONS,
    BanditEnv,
    RegretLedger,
    run_challenge,
    run_rwab,
    sample_change_times,
    theoretical_regret_bound,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(horizon=0, mu1=0.5, mu2=0.5, change_times=()),
        dict(horizon=10, mu1=-0.1, mu2=0.5, change_times=()),
        dict(horizon=10, mu1=0.5, mu2=1.5, change_times=()),
        dict(horizon=10, mu1=0.5, mu2=0.5, change_times=(3, 3)),
        dict(horizon=10, mu1=0.5, mu2=0.5, change_times=(1,)),
        dict(horizon=10, mu1=0.5, mu2=0.5, change_times=(11,)),
        dict(horizon=3, mu1=0.5, mu2=0.5, change_times=(2, 3, 4)),
        # both arms always pay the same, so a challenge could never end
        dict(horizon=50, mu1=0.0, mu2=0.0, change_times=(10, 20)),
        dict(horizon=50, mu1=1.0, mu2=1.0, change_times=(10, 20)),
        # the walk moves with probability ~2e-9 per iteration: ~2.5e10 in all
        dict(horizon=50, mu1=1e-9, mu2=1e-9, change_times=(10, 20)),
        dict(horizon=50, mu1=1.0 - 1e-9, mu2=1.0, change_times=(10, 20)),
    ],
)
def test_env_validation(kwargs):
    with pytest.raises(ValueError):
        BanditEnv(**kwargs)


def test_challenge_length_limit_sits_at_the_constant():
    # mu1 = 0 makes the move probability exactly mu2 = 2**-20, so the
    # estimate horizon / q = horizon * 2**20 crosses 1e8 between 95 and 96
    assert MAX_CHALLENGE_ITERATIONS == 10**8
    BanditEnv(horizon=95, mu1=0.0, mu2=2.0**-20, change_times=(10,))
    with pytest.raises(ValueError, match="challenge iterations"):
        BanditEnv(horizon=96, mu1=0.0, mu2=2.0**-20, change_times=(10,))


def test_change_time_sampling_shapes():
    assert sample_change_times(RngStream(1), horizon=50, count=0) == ()
    full = sample_change_times(RngStream(1), horizon=10, count=9)
    assert full == tuple(range(2, 11))
    times = sample_change_times(RngStream(7), horizon=100, count=12)
    assert len(times) == 12
    assert len(set(times)) == 12
    assert times == tuple(sorted(times))
    assert all(2 <= t <= 100 for t in times)
    # replaying the stream reproduces the schedule
    assert times == sample_change_times(RngStream(7), horizon=100, count=12)


def fisher_yates_by_next_index(stream, horizon, count):
    pool = list(range(2, horizon + 1))
    for i in range(count):
        j = i + stream.next_index(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:count]))


@settings(max_examples=200, deadline=None)
@given(
    horizon=st.integers(1, 400),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    start=st.sampled_from([0, 63, 2**40]),
)
def test_change_time_sampling_matches_scalar_next_index(horizon, share, seed, start):
    count = int(share * (horizon - 1))
    fast = RngStream(seed, stream_id=1, draw_counter=start)
    slow = RngStream(seed, stream_id=1, draw_counter=start)
    assert sample_change_times(fast, horizon, count) == fisher_yates_by_next_index(
        slow, horizon, count
    )
    assert fast.draw_counter == slow.draw_counter


def test_change_time_sampling_validation():
    with pytest.raises(ValueError):
        sample_change_times(RngStream(1), horizon=0, count=0)
    with pytest.raises(ValueError):
        sample_change_times(RngStream(1), horizon=10, count=-1)
    with pytest.raises(ValueError):
        sample_change_times(RngStream(1), horizon=10, count=10)


def test_change_time_sampling_is_uniform():
    horizon, count, draws = 1000, 5, 10**4
    hits = [0] * (horizon + 1)
    for i in range(draws):
        for t in sample_change_times(RngStream(99, stream_id=i), horizon, count):
            hits[t] += 1
    target = count / (horizon - 1)
    for t in range(2, horizon + 1):
        assert abs(hits[t] / draws - target) < 0.01


def test_challenge_instant_win_keeps_the_order():
    out = run_challenge([1.0, 0.0], 0, 1, RngStream(1), s_threshold=5.0)
    assert not out.swap
    assert (out.a_plus, out.a_minus) == (0, 1)
    assert out.inner_rounds == 1
    assert out.regret == 0.0


def test_challenge_certain_loss_swaps_after_threshold_steps():
    for accounting in ("mean_gap", "realized"):
        out = run_challenge(
            [0.0, 1.0], 0, 1, RngStream(1), s_threshold=2.0, accounting=accounting
        )
        assert out.swap
        assert (out.a_plus, out.a_minus) == (1, 0)
        assert out.inner_rounds == 2
        assert out.regret == 2.0


def test_challenge_with_threshold_one_swaps_in_one_step():
    out = run_challenge([0.0, 1.0], 0, 1, RngStream(4), s_threshold=1.0)
    assert out.swap and out.inner_rounds == 1


def test_challenge_zero_gap_costs_nothing():
    out = run_challenge([0.5, 0.5], 0, 1, RngStream(8), s_threshold=3.0)
    assert out.regret == 0.0


def env_for(seed, horizon, changes):
    times = sample_change_times(RngStream(seed, stream_id=1000), horizon, changes)
    return BanditEnv(horizon=horizon, mu1=0.2, mu2=0.8, change_times=times)


@pytest.mark.parametrize("accounting", ["mean_gap", "realized"])
@pytest.mark.parametrize("horizon, changes", [(200, 3), (500, 10)])
def test_run_ledger_invariants(accounting, horizon, changes):
    for seed in range(5):
        env = env_for(seed, horizon, changes)
        ledger = run_rwab(env, RngStream(seed), accounting=accounting, record_per_round=True)
        assert ledger.rounds == horizon
        assert ledger.eras == changes + 1
        assert ledger.mistakes <= ledger.swaps
        # every change breaks a sub-era; every extra break needs a swap
        assert ledger.eras <= ledger.sub_eras <= 1 + changes + ledger.swaps
        assert ledger.pulls >= ledger.rounds
        assert len(ledger.per_round) == horizon
        assert sum(ledger.per_round) == pytest.approx(ledger.total_regret, abs=1e-9)
        if accounting == "mean_gap":
            assert ledger.total_regret >= 0.0


def test_run_is_deterministic_and_per_round_off_by_default():
    env = env_for(3, 300, 4)
    a = run_rwab(env, RngStream(17))
    b = run_rwab(env, RngStream(17))
    assert a == b
    assert a.per_round is None


def tuple_comparing_rwab(env, stream, accounting, record_per_round):
    """run_rwab's policy with scalar draws and per-round bookkeeping.

    Compares the (swapped, a+) pair every round to count sub-eras and
    re-reads the ranking of a+ on every round, where run_rwab updates both
    only when a sub-era starts.
    """
    ell, horizon = len(env.change_times), env.horizon
    p = math.sqrt(ell / horizon)
    s_threshold = math.sqrt(horizon / ell)
    realized = accounting == "realized"
    mu = [env.mu1, env.mu2]
    swapped, a_plus, a_minus = False, 0, 1
    total = 0.0
    pulls = swaps = mistakes = sub_eras = 0
    prev_pair = None
    per_round = [] if record_per_round else None
    for clock in range(1, horizon + 1):
        if clock in env.change_times:
            mu.reverse()
            swapped = not swapped
        if (swapped, a_plus) != prev_pair:
            sub_eras += 1
            prev_pair = (swapped, a_plus)
        if stream.next_uniform() < p:
            started_correct = mu[a_plus] >= mu[a_minus]
            out = run_challenge(mu, a_plus, a_minus, stream, s_threshold, accounting)
            pulls += 2 * out.inner_rounds
            if out.swap:
                swaps += 1
                mistakes += started_correct
            a_plus, a_minus = out.a_plus, out.a_minus
            round_regret = out.regret
        else:
            pulls += 1
            round_regret = 0.0
            if mu[a_plus] < mu[a_minus]:
                if realized:
                    r_plus = 1.0 if stream.next_uniform() < mu[a_plus] else 0.0
                    r_best = 1.0 if stream.next_uniform() < mu[a_minus] else 0.0
                    round_regret = r_best - r_plus
                else:
                    round_regret = mu[a_minus] - mu[a_plus]
            elif realized:
                stream.next_u64()  # the pull itself
        total += round_regret
        if per_round is not None:
            per_round.append(round_regret)
    return RegretLedger(total, swaps, mistakes, ell + 1, sub_eras, horizon, pulls, per_round)


means = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.integers(2, 300),
    share=st.floats(0.0, 1.0),
    mu1=means,
    mu2=means,
    accounting=st.sampled_from(["mean_gap", "realized"]),
    record_per_round=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_run_matches_tuple_comparing_loop(
    horizon, share, mu1, mu2, accounting, record_per_round, seed
):
    # a challenge's walk moves with probability q per iteration; keep
    # challenges short enough for the scalar loop
    assume(mu1 * (1 - mu2) + mu2 * (1 - mu1) >= 0.05)
    changes = 1 + int(share * min(horizon - 2, 40))
    times = sample_change_times(RngStream(seed, stream_id=1000), horizon, changes)
    env = BanditEnv(horizon=horizon, mu1=mu1, mu2=mu2, change_times=times)
    fast, slow = RngStream(seed), RngStream(seed)
    ledger = run_rwab(env, fast, accounting=accounting, record_per_round=record_per_round)
    expected = tuple_comparing_rwab(env, slow, accounting, record_per_round)
    assert astuple(ledger) == astuple(expected)
    assert fast.draw_counter == slow.draw_counter


def test_run_requires_a_change_and_a_known_accounting():
    no_changes = BanditEnv(horizon=10, mu1=0.2, mu2=0.8, change_times=())
    with pytest.raises(ValueError):
        run_rwab(no_changes, RngStream(1))
    env = env_for(1, 50, 2)
    with pytest.raises(ValueError):
        run_rwab(env, RngStream(1), accounting="optimistic")


def test_regret_bound_anchor_values():
    bound, confidence = theoretical_regret_bound(1000, 10, 1.0)
    assert bound == pytest.approx(52800.0, rel=1e-12)
    assert confidence == 0.0

    eps = (math.e * math.log(40.0)) ** 2
    _, confidence = theoretical_regret_bound(1000, 10, eps)
    assert confidence == pytest.approx(0.95, rel=1e-12)
    assert confidence >= 0.95


def test_regret_bound_monotone_in_each_argument():
    base, _ = theoretical_regret_bound(1000, 10, 2.0)
    assert theoretical_regret_bound(2000, 10, 2.0)[0] > base
    assert theoretical_regret_bound(1000, 20, 2.0)[0] > base
    assert theoretical_regret_bound(1000, 10, 3.0)[0] > base


def test_regret_bound_validation():
    with pytest.raises(ValueError):
        theoretical_regret_bound(1000, 10, 0.5)
    with pytest.raises(ValueError):
        theoretical_regret_bound(0, 10, 2.0)
    with pytest.raises(ValueError):
        theoretical_regret_bound(1000, 0, 2.0)
