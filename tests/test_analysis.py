"""Drift estimation, tail comparison, and sample summaries."""

import math

import pytest

from driftlab.analysis import (
    compare_bound,
    estimate_drift,
    fit_step_tail,
    hoeffding_margin,
    histogram_export,
    summary_table,
    tally_transitions,
)
from driftlab.bounds import BoundSpec
from driftlab.rng import RngStream
from driftlab.trajectory import HittingTimeSample
from driftlab.walks import simulate_fair_walk, simulate_lazy_walk


def sample(i, t, censored=False):
    return HittingTimeSample(run_id=i, stopping_time=t, censored=censored, seed_used=i)


def test_hoeffding_margin_formula_and_validation():
    assert hoeffding_margin(1000, 0.999) == pytest.approx(
        math.sqrt(math.log(1000.0) / 2000.0), rel=1e-12
    )
    with pytest.raises(ValueError, match="margin needs at least one sample"):
        hoeffding_margin(0)


def test_drift_estimate_on_fixed_paths():
    est = estimate_drift(tally_transitions([[0, 1, 2, 3]]))
    assert est.mean_drift == 1.0
    assert est.second_moment == 1.0
    assert est.transitions == 3
    assert est.per_state_mean == {0: 1.0, 1: 1.0, 2: 1.0}

    est = estimate_drift(tally_transitions([[3, 2, 2, 4]]))
    assert est.mean_drift == pytest.approx(1 / 3)
    assert est.second_moment == pytest.approx(5 / 3)
    assert est.per_state_mean == {2: 1.0, 3: -1.0}


def test_drift_estimate_is_none_without_transitions():
    assert estimate_drift(tally_transitions([])) is None
    assert estimate_drift(tally_transitions([[5]])) is None


def test_drift_estimate_recovers_walk_moments():
    fair = [
        simulate_fair_walk(RngStream(40, stream_id=i), b=10, x0=5, cap=10**5, record=True)[1]
        .values
        for i in range(200)
    ]
    est = estimate_drift(tally_transitions(fair))
    assert abs(est.mean_drift) < 0.05
    assert est.second_moment == 1.0  # every fair-walk step has magnitude one

    lazy = [
        simulate_lazy_walk(
            RngStream(41, stream_id=i), b=10, x0=5, delta=0.5, cap=10**5, record=True
        )[1].values
        for i in range(200)
    ]
    est = estimate_drift(tally_transitions(lazy))
    # slightly negative: the ceiling state only moves down
    assert abs(est.mean_drift) < 0.05
    assert est.per_state_mean[10] == pytest.approx(-0.5, abs=0.05)
    assert est.second_moment == pytest.approx(0.5, abs=0.02)


def test_step_tail_fit_on_unit_steps():
    fit = fit_step_tail(tally_transitions([list(range(50))]))
    # freq(>= 1) = 1, so r = 1 + eta and the cost (1 + eta)/ln(1 + eta)
    # bottoms out where 1 + eta = e; the grid lands on 1.70
    assert fit.eta == pytest.approx(1.70)
    assert fit.r == pytest.approx(1.0 + fit.eta)
    assert fit.max_violation <= 1e-12
    assert fit.range_constant == pytest.approx(fit.r / math.log(1.0 + fit.eta))


def test_step_tail_envelope_dominates_the_empirical_tail():
    stream = RngStream(55)
    values = [0.0]
    for _ in range(4000):
        mag = 1
        while stream.next_uniform() < 0.5 and mag < 30:
            mag += 1
        values.append(values[-1] + mag)
    fit = fit_step_tail(tally_transitions([values]))
    steps = [values[t + 1] - values[t] for t in range(len(values) - 1)]
    n = len(steps)
    for j in range(0, 32):
        freq = sum(1 for s in steps if abs(s) >= j) / n
        assert freq <= fit.r / (1.0 + fit.eta) ** j + 1e-12
    assert fit.max_violation <= 1e-12


def test_step_tail_fit_is_none_without_transitions():
    assert fit_step_tail(tally_transitions([])) is None


STD_UNIT = BoundSpec(kind="StandardVariance", b=1.0, x0=0.0, delta=1.0)


def test_compare_bound_counts_survival_exactly():
    samples = [sample(i, t) for i, t in enumerate([1, 2, 3, 4])]
    report = compare_bound(samples, STD_UNIT, tau_grid=[2.5])
    assert report.grid[0].empirical_survival == 0.5
    assert report.sample_count == 4


def test_compare_bound_flags_a_clear_violation():
    samples = [sample(i, 10) for i in range(20)]
    report = compare_bound(samples, STD_UNIT, tau_grid=[5.0, 11.0])
    point_5, point_11 = report.grid
    assert point_5.empirical_survival == 1.0
    assert point_5.violated
    assert point_11.empirical_survival == 0.0
    assert not point_11.violated
    assert report.violated
    assert point_5.hoeffding_upper == pytest.approx(
        point_5.theoretical_bound + report.margin
    )


def test_compare_bound_counts_censored_as_surviving():
    samples = [sample(0, 3, censored=True)] + [sample(i, 1) for i in range(1, 10)]
    report = compare_bound(samples, STD_UNIT, tau_grid=[1000.0])
    assert report.grid[0].empirical_survival == pytest.approx(0.1)


def test_compare_bound_validation():
    with pytest.raises(ValueError, match="tail comparison needs at least one sample"):
        compare_bound([], STD_UNIT, tau_grid=[1.0])


def test_summary_table_fixed_cases():
    table = summary_table([sample(i, 1) for i in range(3)], k_list=[1.0])
    assert table.mean == 1.0
    assert table.freq_at_multiples == {1.0: 1.0}
    assert table.censored_count == 0

    table = summary_table([sample(0, 1), sample(1, 3)], k_list=[1.0])
    assert table.mean == 2.0
    assert table.freq_at_multiples == {1.0: 0.5}


def test_summary_table_mean_adds_left_to_right_in_sample_order():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum would keep the 1.0
    table = summary_table([sample(0, 1e16), sample(1, 1.0), sample(2, -1e16)], k_list=[1.0])
    assert table.mean == 0.0
    # the sum starts from 0, as sum() does, so a lone -0.0 gives a mean of 0.0
    assert math.copysign(1.0, summary_table([sample(0, -0.0)], k_list=[]).mean) == 1.0


def test_summary_table_censoring_is_conservative():
    samples = [sample(0, 2), sample(1, 4), sample(2, 9, censored=True)]
    table = summary_table(samples, k_list=[1.0, 2.0])
    assert table.mean == 3.0
    assert table.censored_count == 1
    assert table.sample_count == 3
    assert table.freq_at_multiples[1.0] == pytest.approx(1 / 3)
    assert table.freq_at_multiples[2.0] == pytest.approx(2 / 3)
    ks = sorted(table.freq_at_multiples)
    assert all(
        table.freq_at_multiples[a] <= table.freq_at_multiples[b]
        for a, b in zip(ks, ks[1:])
    )


def test_summary_table_is_none_without_a_finished_sample():
    assert summary_table([], k_list=[1.0]) is None
    assert summary_table([sample(0, 5, censored=True)], k_list=[1.0]) is None


def test_histogram_degenerate_sample_gets_a_unit_bin():
    hist = histogram_export([sample(i, 7) for i in range(4)], bin_count=10)
    assert hist.edges[0] == 7.0
    assert hist.edges[-1] == 8.0
    assert sum(hist.counts) == 4
    assert hist.counts[0] == 4


def test_histogram_density_normalizes():
    samples = [sample(i, t) for i, t in enumerate(range(1, 101))]
    hist = histogram_export(samples, bin_count=13)
    width = hist.edges[1] - hist.edges[0]
    assert sum(d * width for d in hist.densities) == pytest.approx(1.0, abs=1e-9)
    assert sum(hist.counts) == 100


def test_histogram_excludes_censored_and_is_none_without_a_finished_sample():
    samples = [sample(0, 5), sample(1, 6), sample(2, 50, censored=True)]
    hist = histogram_export(samples, bin_count=5)
    assert sum(hist.counts) == 2
    assert histogram_export([sample(0, 5, censored=True)]) is None
