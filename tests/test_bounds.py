"""Closed-form bound formulas against hand-derived anchor values."""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftlab.bounds import KINDS, BoundSpec, expected_time_upper, tail_probability_upper
from oracles import expected_time, tail_exponent

E = math.e


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


# --- expected-time formulas -------------------------------------------------


def test_expected_time_two_absorbing():
    spec = BoundSpec(kind="TwoAbsorbing", b=20, x0=10, delta=1.0)
    assert expected_time_upper(spec) == 100.0


def test_expected_time_additive():
    spec = BoundSpec(kind="Additive", b=50, x0=0, epsilon=0.5)
    assert expected_time_upper(spec) == 100.0


def test_expected_time_standard_variance():
    spec = BoundSpec(kind="StandardVariance", b=1, x0=0, delta=1.0)
    assert expected_time_upper(spec) == 1.0


def test_expected_time_negative_drift_variance():
    spec = BoundSpec(kind="NegativeDriftVariance", b=10, x0=4, delta=0.5)
    assert rel_close(expected_time_upper(spec), (100 - 36) / 0.5)


def test_expected_time_unsupported_for_polynomial_kind():
    spec = BoundSpec(kind="KotzingPolynomial", ell=1.0, c=E, n=10)
    with pytest.raises(ValueError):
        expected_time_upper(spec)


# --- tail formulas at exponent -1 anchors -----------------------------------


def test_tail_standard_variance_exponent_minus_one():
    spec = BoundSpec(kind="StandardVariance", b=1, x0=0, delta=1.0)
    assert rel_close(tail_probability_upper(spec, E), math.exp(-1))


def test_tail_additive_exponent_minus_one():
    spec = BoundSpec(kind="Additive", b=1, x0=0, epsilon=1.0)
    assert rel_close(tail_probability_upper(spec, E), math.exp(-1))


def test_tail_additive_formula_at_b_e():
    # exponent is -tau*eps/(e*b) = -1/e here, not -1: the denominator
    # carries b = e as well as the constant e
    spec = BoundSpec(kind="Additive", b=E, x0=0, epsilon=1.0)
    assert rel_close(tail_probability_upper(spec, E), math.exp(-1 / E))


def test_tail_two_absorbing_exponent_minus_one():
    spec = BoundSpec(kind="TwoAbsorbing", b=1, x0=0.5, delta=1.0)
    assert rel_close(tail_probability_upper(spec, E / 2), math.exp(-1))


def test_tail_negative_drift_variance_matches_standard():
    a = BoundSpec(kind="NegativeDriftVariance", b=3, x0=1, delta=0.25)
    s = BoundSpec(kind="StandardVariance", b=3, x0=1, delta=0.25)
    for tau in (1.0, 10.0, 100.0):
        assert tail_probability_upper(a, tau) == tail_probability_upper(s, tau)


def test_tail_polynomial_quarter_at_r_four():
    # tau = r * n^2 with r = 4, c = e: (1/4)^(1/(1*ln e)) = 0.25
    spec = BoundSpec(kind="KotzingPolynomial", ell=1.0, c=E, n=10)
    assert rel_close(tail_probability_upper(spec, 400.0), 0.25)


def test_tail_polynomial_vacuous_below_quadratic():
    spec = BoundSpec(kind="KotzingPolynomial", ell=1.0, c=E, n=10)
    assert tail_probability_upper(spec, 50.0) == 1.0
    assert tail_probability_upper(spec, 100.0) == 1.0


def test_tail_stays_in_unit_interval():
    spec = BoundSpec(kind="StandardVariance", b=100, x0=0, delta=0.01)
    assert tail_probability_upper(spec, 0.0) == 1.0
    p = tail_probability_upper(spec, 0.001)
    assert 0.0 < p <= 1.0


def test_tail_two_absorbing_squares_the_standard_bound():
    two = BoundSpec(kind="TwoAbsorbing", b=7, x0=3, delta=0.5)
    std = BoundSpec(kind="StandardVariance", b=7, x0=3, delta=0.5)
    for tau in (200.0, 500.0, 900.0):
        assert rel_close(
            tail_probability_upper(two, tau), tail_probability_upper(std, tau) ** 2
        )


@pytest.mark.parametrize(
    "spec",
    [
        BoundSpec("NegativeDriftVariance", b=3, x0=1, delta=0.25),
        BoundSpec("StandardVariance", b=3, x0=1, delta=0.25),
        BoundSpec("TwoAbsorbing", b=3, x0=1, delta=0.25),
        BoundSpec("Additive", b=3, x0=1, epsilon=0.25),
        BoundSpec("KotzingPolynomial", ell=1.0, c=E, n=10),
    ],
    ids=lambda spec: spec.kind,
)
def test_tail_at_infinite_tau_is_zero(spec):
    assert tail_probability_upper(spec, math.inf) == 0.0


@given(
    tau=st.floats(min_value=0.1, max_value=1e5),
    later=st.floats(min_value=1.01, max_value=10.0),
)
@settings(max_examples=80)
def test_tail_nonincreasing_in_tau(tau, later):
    spec = BoundSpec(kind="StandardVariance", b=10, x0=5, delta=0.5)
    assert tail_probability_upper(spec, tau * later) <= tail_probability_upper(spec, tau)


# --- fields at the ends of the float range ---------------------------------

EXTREME = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def extreme_specs(draw, kinds=st.sampled_from(KINDS)):
    kind = draw(kinds)
    if kind == "KotzingPolynomial":
        c = draw(st.floats(min_value=1.0, max_value=1e300, exclude_min=True))
        return BoundSpec(kind, ell=draw(EXTREME), c=c, n=draw(st.integers(2, 10**400)))
    b = draw(EXTREME)
    rate = {"epsilon" if kind == "Additive" else "delta": draw(EXTREME)}
    return BoundSpec(kind, b=b, x0=b * draw(st.floats(0.0, 1.0)), **rate)


#: the kinds with an expected-time ceiling and an exponential tail
MEAN_KINDS = [kind for kind in KINDS if kind != "KotzingPolynomial"]


def rounding_slack(exponent):
    """Relative error the float evaluation may carry at this exact exponent:
    a few roundings per step, which scale with the exponent."""
    return 1e-12 * max(1.0, -exponent)


@settings(max_examples=400, deadline=None)
@given(spec=extreme_specs(), tau=EXTREME)
# the three specs whose evaluation raised: b**2 and n**2 overflow a float,
# and ell * ln c underflows to 0
@example(spec=BoundSpec("TwoAbsorbing", b=1e200, x0=0.0, delta=1.0), tau=1.0)
@example(spec=BoundSpec("StandardVariance", b=1e200, x0=0.0, delta=1.0), tau=1.0)
@example(spec=BoundSpec("NegativeDriftVariance", b=1e200, x0=0.0, delta=1.0), tau=1.0)
@example(spec=BoundSpec("KotzingPolynomial", ell=1.0, c=E, n=10**400), tau=1e300)
@example(spec=BoundSpec("KotzingPolynomial", ell=5e-324, c=1.0000000000000002, n=2), tau=10.0)
# r = tau / n^2 one ulp above 1 as a float, where 1 / (ell * ln c) is large:
# rounding r first gave 0.97804 (exact 0.98020) and 0.80088 (exact 0.81873)
@example(spec=BoundSpec("KotzingPolynomial", ell=1e-14, c=E, n=10**8), tau=1e16 + 2)
@example(spec=BoundSpec("KotzingPolynomial", ell=1e-15, c=E, n=10**8), tau=1e16 + 2)
# tau * delta and b * b both overflow, where the bound is 0.996
@example(spec=BoundSpec("StandardVariance", b=1e160, x0=0.0, delta=1e10), tau=1e308)
def test_tail_at_extreme_fields_matches_the_exact_exponent(spec, tau):
    got = tail_probability_upper(spec, tau)
    assert 0.0 <= got <= 1.0
    exponent = tail_exponent(spec, tau)
    want = min(1.0, math.exp(exponent))
    assert math.isclose(got, want, rel_tol=rounding_slack(exponent), abs_tol=1e-300)


def off_the_float_formula(spec, tau):
    """Whether scale * tau * rate or b**power of an exponential tail leaves
    the normal float range, as the evaluator computes them."""
    if spec.kind == "Additive":
        numerator, b_power = tau * spec.epsilon, spec.b
    else:
        scale = 2.0 if spec.kind == "TwoAbsorbing" else 1.0
        numerator, b_power = scale * tau * spec.delta, spec.b * spec.b
    return not (sys.float_info.min <= numerator < math.inf and sys.float_info.min <= b_power)


@settings(max_examples=400, deadline=None)
@given(spec=extreme_specs(st.sampled_from(MEAN_KINDS)), tau=EXTREME)
# b^2 and tau * delta below the normal range: the mantissa and exponent
# evaluation gave 5.6839216326970575e-142
@example(
    spec=BoundSpec(
        "TwoAbsorbing",
        b=3.1924028130848014e-161,
        x0=2.051211884338888e-161,
        delta=6.123942677060064e-207,
    ),
    tau=7.356285783928851e-113,
)
# tau * delta past the float range: it gave 3.533810036471156e-34
@example(
    spec=BoundSpec(
        "TwoAbsorbing",
        b=7.5272115123580755e267,
        x0=6.523125543848659e267,
        delta=1.3106167270263427e241,
    ),
    tau=4.52576124052493e296,
)
def test_tail_off_the_float_formula_is_the_exact_value(spec, tau):
    assume(off_the_float_formula(spec, tau))
    assert tail_probability_upper(spec, tau) == math.exp(tail_exponent(spec, tau))


#: the start at which each variance ceiling is b^2 / delta
FULL_RANGE_X0 = {"NegativeDriftVariance": 1e200, "StandardVariance": 0.0}


@pytest.mark.parametrize("kind", sorted(FULL_RANGE_X0))
def test_expected_time_is_inf_where_b_squared_overflows(kind):
    spec = BoundSpec(kind, b=1e200, x0=FULL_RANGE_X0[kind], delta=1.0)
    assert expected_time_upper(spec) == math.inf


NEAR_1E10 = math.nextafter(1e10, 0.0)


@settings(max_examples=400, deadline=None)
@given(spec=extreme_specs(st.sampled_from(MEAN_KINDS)))
# b^2 - (b - x0)^2 and b^2 - x0^2 cancelled: 0.0 where the ceiling is 2,
# 32768.0 where it is 38146.97...
@example(spec=BoundSpec("NegativeDriftVariance", b=1e10, x0=1e-10, delta=1.0))
@example(spec=BoundSpec("StandardVariance", b=1e10, x0=NEAR_1E10, delta=1.0))
# a factor of 0 times a factor past the float range, 0 * inf, is NaN
@example(spec=BoundSpec("StandardVariance", b=1e308, x0=1e308, delta=1.0))
@example(spec=BoundSpec("NegativeDriftVariance", b=1e308, x0=0.0, delta=1.0))
# the product past the float range, the quotient within it; b + x0 too
@example(spec=BoundSpec("TwoAbsorbing", b=1e300, x0=5e299, delta=1e300))
@example(spec=BoundSpec("StandardVariance", b=1e308, x0=1e308 - 1e298, delta=1e300))
def test_expected_time_matches_the_exact_ceiling(spec):
    assert expected_time_upper(spec) == expected_time(spec)


def test_expected_time_does_not_cancel():
    spec = BoundSpec("NegativeDriftVariance", b=1e10, x0=1e-10, delta=1.0)
    assert expected_time_upper(spec) == 2.0
    spec = BoundSpec("StandardVariance", b=1e10, x0=NEAR_1E10, delta=1.0)
    assert expected_time_upper(spec) == 38146.97265625


# --- validation -------------------------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        BoundSpec(kind="Nope", b=1, x0=0, delta=1.0)


def test_spec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BoundSpec(kind="StandardVariance", b=0, x0=0, delta=1.0)
    with pytest.raises(ValueError):
        BoundSpec(kind="StandardVariance", b=1, x0=2, delta=1.0)
    with pytest.raises(ValueError):
        BoundSpec(kind="StandardVariance", b=1, x0=0)  # delta missing
    with pytest.raises(ValueError):
        BoundSpec(kind="Additive", b=1, x0=0)  # epsilon missing
    with pytest.raises(ValueError):
        BoundSpec(kind="KotzingPolynomial", ell=1.0, c=1.0, n=10)  # c must exceed 1
    with pytest.raises(ValueError):
        BoundSpec(kind="KotzingPolynomial", ell=1.0, c=E, n=1)
    # NaN fails every comparison, so it must fail every check
    nan = math.nan
    for kwargs in (
        dict(kind="StandardVariance", b=nan, x0=0, delta=1.0),
        dict(kind="StandardVariance", b=1, x0=nan, delta=1.0),
        dict(kind="TwoAbsorbing", b=1, x0=0, delta=nan),
        dict(kind="Additive", b=1, x0=0, epsilon=nan),
        dict(kind="KotzingPolynomial", ell=nan, c=E, n=10),
        dict(kind="KotzingPolynomial", ell=1.0, c=nan, n=10),
    ):
        with pytest.raises(ValueError):
            BoundSpec(**kwargs)


#: a valid spec that sets each float field
FIELD_SPECS = {
    "b": dict(kind="StandardVariance", b=1.0, x0=0.0, delta=1.0),
    "x0": dict(kind="StandardVariance", b=1.0, x0=0.0, delta=1.0),
    "delta": dict(kind="TwoAbsorbing", b=1.0, x0=0.0, delta=1.0),
    "epsilon": dict(kind="Additive", b=1.0, x0=0.0, epsilon=1.0),
    "ell": dict(kind="KotzingPolynomial", ell=1.0, c=E, n=10),
    "c": dict(kind="KotzingPolynomial", ell=1.0, c=E, n=10),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(FIELD_SPECS))
def test_spec_rejects_an_infinite_field(name, value):
    with pytest.raises(ValueError, match=f"requires a finite {name}, got {value!r}"):
        BoundSpec(**{**FIELD_SPECS[name], name: value})


def test_tail_rejects_negative_tau():
    spec = BoundSpec(kind="StandardVariance", b=1, x0=0, delta=1.0)
    with pytest.raises(ValueError):
        tail_probability_upper(spec, -1.0)
    with pytest.raises(ValueError):
        tail_probability_upper(spec, math.nan)
