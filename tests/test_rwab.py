"""Restless two-armed bandit baseline: schedule, challenges, full runs."""

import math

import pytest

from driftlab.rng import RngStream
from driftlab.rwab import (
    MAX_CHALLENGE_ITERATIONS,
    BanditEnv,
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
