"""Restless two-armed bandit baseline: schedule, challenges, full runs."""

import math
import re
import tracemalloc
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftlab.errors import ConfigError
from driftlab.rng import RngStream
from driftlab.rwab import (
    MAX_CHALLENGE_ITERATIONS,
    check_challenges_end,
    run_rwab,
    sample_change_times,
)
from oracles import (
    change_times_by_list,
    read_config,
    run_challenge,
    theoretical_regret_bound,
    tuple_comparing_rwab,
)


def rwab_params(**changed):
    return {"horizon": 10, "changes": 2, "mu1": 0.5, "mu2": 0.5, **changed}


ENDLESS = "config.params: mu1 == mu2 == {} makes every challenge endless"
SLOW = "config.params: mu1 = {}, mu2 = {} move a challenge's walk with probability"


# run_rwab takes these as given: the config reader rejects them.  Each
# row is the change to rwab_params() and the message it must raise.
ENV_CASES = [
    ({"horizon": 0}, "config.params.horizon: must be at least 2"),
    ({"horizon": 1, "changes": 1}, "config.params.horizon: must be at least 2"),
    ({"mu1": -0.1}, "config.params.mu1: must lie in [0, 1]"),
    ({"mu2": 1.5}, "config.params.mu2: must lie in [0, 1]"),
    ({"changes": 0}, "config.params.changes: must lie in [1, horizon - 2]"),
    ({"changes": 9}, "config.params.changes: must lie in [1, horizon - 2]"),
    ({"horizon": 3, "changes": 3}, "config.params.changes: must lie in [1, horizon - 2]"),
    ({"horizon": 50, "mu1": 0.0, "mu2": 0.0}, ENDLESS.format(0.0)),
    ({"horizon": 50, "mu1": 1.0, "mu2": 1.0}, ENDLESS.format(1.0)),
    ({"horizon": 50, "mu1": 1e-9, "mu2": 1e-9}, SLOW.format(1e-9, 1e-9)),
    ({"horizon": 50, "mu1": 1.0 - 1e-9, "mu2": 1.0}, SLOW.format(1.0 - 1e-9, 1.0)),
]
ENV_IDS = ["-".join(f"{k}={v!r}" for k, v in changed.items()) for changed, _ in ENV_CASES]
assert len(set(ENV_IDS)) == len(ENV_IDS), "two rows share a test id"


@pytest.mark.parametrize("changed, message", ENV_CASES, ids=ENV_IDS)
def test_env_validation(changed, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        read_config("rwab", rwab_params(**changed))


@pytest.mark.parametrize(
    "horizon, mu1, mu2",
    [
        # both arms always pay the same, so a challenge could never end
        (50, 0.0, 0.0),
        (50, 1.0, 1.0),
        # the walk moves with probability ~2e-9 per iteration: ~2.5e10 in all
        (50, 1e-9, 1e-9),
        (50, 1.0 - 1e-9, 1.0),
    ],
)
def test_endless_or_slow_challenges_are_rejected(horizon, mu1, mu2):
    with pytest.raises(ValueError):
        check_challenges_end(horizon, mu1, mu2)


def test_challenge_length_limit_sits_at_the_constant():
    # mu1 = 0 makes the move probability exactly mu2 = 2**-20, so the
    # estimate horizon / q = horizon * 2**20 crosses 1e8 between 95 and 96
    assert MAX_CHALLENGE_ITERATIONS == 10**8
    check_challenges_end(95, 0.0, 2.0**-20)
    with pytest.raises(ValueError, match="challenge iterations"):
        check_challenges_end(96, 0.0, 2.0**-20)


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


@settings(max_examples=300, deadline=None)
@given(
    horizon=st.integers(1, 3000),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    start=st.sampled_from([0, 63, 2**40]),
)
def test_sparse_change_times_match_the_list_oracle(horizon, share, seed, start):
    count = int(share * (horizon - 1))
    sparse = RngStream(seed, stream_id=2, draw_counter=start)
    listed = RngStream(seed, stream_id=2, draw_counter=start)
    assert sample_change_times(sparse, horizon, count) == change_times_by_list(
        listed, horizon, count
    )
    assert sparse.draw_counter == listed.draw_counter


def test_change_times_at_horizon_1e8_stay_small_in_memory():
    # the list oracle would hold 10**8 ints here, about 3.6 GB
    tracemalloc.start()
    try:
        times = sample_change_times(RngStream(5), horizon=10**8, count=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(times) == 2 and all(2 <= t <= 10**8 for t in times)
    assert peak < 64 * 1024


def test_change_time_sampling_validation():
    # sample_change_times assumes horizon >= 2 and 0 <= count <= horizon - 1;
    # the config reader asks for 1 <= changes <= horizon - 2
    with pytest.raises(ConfigError, match=r"^config\.params\.horizon: must be at least 2$"):
        read_config("rwab", rwab_params(horizon=0, changes=0))
    for changes in (-1, 10):
        with pytest.raises(ConfigError, match=r"^config\.params\.changes: must lie in "):
            read_config("rwab", rwab_params(changes=changes))


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
    """run_rwab's arguments after the stream: horizon, means, change times."""
    times = sample_change_times(RngStream(seed, stream_id=1000), horizon, changes)
    return horizon, 0.2, 0.8, times


@pytest.mark.parametrize("accounting", ["mean_gap", "realized"])
@pytest.mark.parametrize("horizon, changes", [(200, 3), (500, 10)])
def test_run_ledger_invariants(accounting, horizon, changes):
    for seed in range(5):
        env = env_for(seed, horizon, changes)
        ledger = run_rwab(RngStream(seed), *env, accounting=accounting)
        assert ledger.rounds == horizon
        assert ledger.mistakes <= ledger.swaps
        # every change breaks a sub-era; every extra break needs a swap
        assert changes + 1 <= ledger.sub_eras <= 1 + changes + ledger.swaps
        if accounting == "mean_gap":
            assert ledger.total_regret >= 0.0


def test_run_is_deterministic():
    env = env_for(3, 300, 4)
    a = run_rwab(RngStream(17), *env)
    b = run_rwab(RngStream(17), *env)
    assert a == b


means = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.integers(2, 300),
    share=st.floats(0.0, 1.0),
    mu1=means,
    mu2=means,
    accounting=st.sampled_from(["mean_gap", "realized"]),
    seed=st.integers(0, 2**32),
)
def test_run_matches_tuple_comparing_loop(horizon, share, mu1, mu2, accounting, seed):
    # a challenge's walk moves with probability q per iteration; keep
    # challenges short enough for the scalar loop
    assume(mu1 * (1 - mu2) + mu2 * (1 - mu1) >= 0.05)
    changes = 1 + int(share * min(horizon - 2, 40))
    times = sample_change_times(RngStream(seed, stream_id=1000), horizon, changes)
    fast, slow = RngStream(seed), RngStream(seed)
    ledger = run_rwab(fast, horizon, mu1, mu2, times, accounting=accounting)
    ref = tuple_comparing_rwab(slow, horizon, mu1, mu2, times, accounting)
    expected = (ref.total_regret, ref.swaps, ref.mistakes, ref.sub_eras, ref.rounds)
    assert astuple(ledger) == expected
    assert fast.draw_counter == slow.draw_counter


def test_run_requires_a_change_and_a_known_accounting():
    # run_rwab assumes at least one change and a known accounting: the
    # config reader checks both
    with pytest.raises(ConfigError, match=r"^config\.params\.changes: must lie in "):
        read_config("rwab", rwab_params(changes=0))
    with pytest.raises(ConfigError, match=r"^config\.params\.accounting: choose from "):
        read_config("rwab", rwab_params(accounting="optimistic"))


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
