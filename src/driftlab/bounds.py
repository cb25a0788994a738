"""Closed-form hitting-time guarantees for variance-driven processes.

Each BoundSpec names one guarantee family and carries its parameters; the
two evaluators below turn a spec into an expected-time ceiling or a tail
probability.  Families:

* ``NegativeDriftVariance`` -- potential in [0, b] drifting weakly downward
  (step expectation in [-c/n, 0)) with per-step second moment at least
  delta; target is 0.  E[T] <= (b^2 - (b - x0)^2) / delta and
  Pr(T > tau) <= exp(-tau * delta / (e * b^2)).
* ``StandardVariance`` -- nonnegative drift toward b with second moment at
  least delta, started at x0: E[T] <= (b^2 - x0^2) / delta, same tail shape.
* ``TwoAbsorbing`` -- zero-drift process on [0, b] absorbed at either end,
  second moment at least delta: E[T] <= x0 * (b - x0) / delta and
  Pr(T >= tau) <= exp(-2 * tau * delta / (e * b^2)).
* ``Additive`` -- drift at least epsilon toward the target b:
  E[T] <= (b - x0) / epsilon, Pr(T >= tau) <= exp(-tau * epsilon / (e * b)).
* ``KotzingPolynomial`` -- heavy-step regime with scale parameters
  (ell, c, n): only a tail is available,
  Pr(T >= r * n^2) <= (1/r)^(1 / (ell * ln c)) at tau = r * n^2.
  Logarithms here are natural.

The first four families' tails are exp(-scale * tau * rate / (e * b**power));
the table _TAILS holds each one's rate field (required > 0), scale and power.

Tail values are clamped into [0, 1]; a clamped bound is vacuous, not wrong.
Neither evaluator raises on a spec BoundSpec accepts, but for the expected
time of KotzingPolynomial, which has none: a tail past the float range is
its limit, 0.0 or 1.0, and an expected time past it is inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_TAILS = {
    "NegativeDriftVariance": ("delta", 1.0, 2),
    "StandardVariance": ("delta", 1.0, 2),
    "TwoAbsorbing": ("delta", 2.0, 2),
    "Additive": ("epsilon", 1.0, 1),
}
KINDS = (*_TAILS, "KotzingPolynomial")


@dataclass(frozen=True)
class BoundSpec:
    """Parameters of one closed-form guarantee.

    b is the potential range endpoint and x0 the start, with 0 <= x0 <= b.
    delta (second-moment floor), epsilon (drift floor), and the
    KotzingPolynomial scale triple (ell, c, n) are required exactly by the
    kinds that use them.
    """

    kind: str
    b: float = 0.0
    x0: float = 0.0
    delta: float | None = None
    epsilon: float | None = None
    ell: float | None = None
    c: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "KotzingPolynomial":
            if self.ell is None or not self.ell > 0:
                raise ValueError("KotzingPolynomial requires ell > 0")
            if self.c is None or not self.c > 1:
                raise ValueError("KotzingPolynomial requires c > 1")
            if self.n is None or not self.n >= 2:
                raise ValueError("KotzingPolynomial requires integer n >= 2")
            return
        if not self.b > 0:
            raise ValueError(f"{self.kind} requires b > 0, got {self.b!r}")
        if not 0 <= self.x0 <= self.b:
            raise ValueError(f"x0 must lie in [0, b], got {self.x0!r}")
        name = _TAILS[self.kind][0]
        rate = getattr(self, name)
        if rate is None or not rate > 0:
            raise ValueError(f"{self.kind} requires {name} > 0")


def _product_over(p: float, b: float, q: float, delta: float) -> float:
    """p * (b + q) / delta for p >= 0, b > 0, b + q >= 0 and delta > 0.

    The mantissas and the binary exponents are combined apart (frexp), and
    a sum past the float range is halved first, so no step overflows or
    underflows: the result lies within a few roundings of the exact
    quotient, is 0.0 when p or b + q is 0 (never 0 * inf), and is inf only
    where the quotient lies past the float range.
    """
    s, halved = b + q, 0
    if s == math.inf:
        s, halved = 0.5 * b + 0.5 * q, 1
    if not p or not s:
        return 0.0
    (mp, ep), (ms, es), (md, ed) = map(math.frexp, (p, s, delta))
    m, e = math.frexp(mp * ms / md)
    e += ep + es + halved - ed
    return math.ldexp(m, e) if e <= 1024 else math.inf


def expected_time_upper(spec: BoundSpec) -> float:
    """Expected-hitting-time ceiling for the given bound family.

    The differences of squares are evaluated factored, b^2 - (b - x0)^2 as
    x0 * (2b - x0) and b^2 - x0^2 as (b - x0) * (b + x0), so they do not
    cancel; inf where the exact ceiling lies past the float range.
    """
    b, x0 = spec.b, spec.x0
    if spec.kind == "NegativeDriftVariance":
        return _product_over(x0, b, b - x0, spec.delta)
    if spec.kind == "StandardVariance":
        return _product_over(b - x0, b, x0, spec.delta)
    if spec.kind == "TwoAbsorbing":
        return _product_over(x0, b, -x0, spec.delta)
    if spec.kind == "Additive":
        return (b - x0) / spec.epsilon
    # KotzingPolynomial comes with a tail only; there is no mean guarantee.
    raise ValueError(f"{spec.kind} provides no expected-time bound")


_NORMAL = sys.float_info.min  # the least positive normal float


def _exp_tail(scale: float, tau: float, rate: float, b: float, power: int) -> float:
    """exp(-scale * tau * rate / (e * b**power)) for b > 0.

    The float expression is kept while its numerator (unless 0), b**power
    and e * b**power are normal floats, so no step rounds twice or leaves
    the float range.  Otherwise the mantissas and the binary exponents
    are combined apart (frexp, ldexp), and an exponent past the float
    range gives the tail's limit, 0.0 or 1.0.
    """
    num = -scale * tau * rate
    try:
        b_power = b**power
    except OverflowError:
        b_power = math.inf
    den = math.e * b_power
    if (num == 0 or _NORMAL <= -num < math.inf) and _NORMAL <= b_power and den < math.inf:
        return math.exp(num / den)
    (mt, et), (mr, er), (mb, eb) = map(math.frexp, (tau, rate, b))
    mantissa = scale * mt * mr / (math.e * mb**power)
    try:
        return math.exp(-math.ldexp(mantissa, et + er - power * eb))
    except OverflowError:  # the exponent lies below the float range
        return 0.0


def tail_probability_upper(spec: BoundSpec, tau: float) -> float:
    """Probability ceiling for the event {T at least tau}, clamped to [0, 1]."""
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")
    if spec.kind in _TAILS:
        name, scale, power = _TAILS[spec.kind]
        raw = _exp_tail(scale, tau, getattr(spec, name), spec.b, power)
    else:  # KotzingPolynomial
        if tau <= spec.n**2:  # exact, also where n**2 is past the float range
            return 1.0
        scale = spec.ell * math.log(spec.c)
        if not scale or tau == math.inf:  # the exponent lies below the float range
            return 0.0
        # ln r from r - 1 = (p - q n^2) / (q n^2), rounded once: no digit lost near r = 1
        p, q = tau.as_integer_ratio()
        raw = math.exp(-math.log1p((p - q * spec.n**2) / (q * spec.n**2)) / scale)
    return min(1.0, max(0.0, raw))
