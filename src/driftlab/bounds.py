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

Every field is finite.  A bound is the float formula wherever each of its
steps stays a normal float; elsewhere it is the exact rational value of
the formula on the fields, from fractions.Fraction, rounded to a float
once.  Only the code that takes Fractions imports fractions, so a run
whose bounds stay in the float range does not pay for loading it.  A
value past the float range is the bound's limit: a tail of 0.0 or 1.0,
an expected time of inf.  Tail values are clamped into [0, 1]; a
clamped bound is vacuous, not wrong.  Neither evaluator raises on a spec
BoundSpec accepts, but for the expected time of KotzingPolynomial, which
has none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from driftlab.errors import shown

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
            raise ValueError(f"unknown bound kind {shown(self.kind)}; choose from {KINDS}")
        for name in ("b", "x0", "delta", "epsilon", "ell", "c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.kind} requires a finite {name}, got {value!r}")
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


def expected_time_upper(spec: BoundSpec) -> float:
    """Expected-hitting-time ceiling for the given bound family.

    b^2 - (b - x0)^2, b^2 - x0^2, x0 * (b - x0) or b - x0 over the family's
    rate field, on Fractions throughout: no step cancels or overflows.
    """
    if spec.kind not in _TAILS:
        # KotzingPolynomial comes with a tail only; there is no mean guarantee.
        raise ValueError(f"{spec.kind} provides no expected-time bound")
    from fractions import Fraction
    b, x0 = Fraction(spec.b), Fraction(spec.x0)
    numerator = {
        "NegativeDriftVariance": b**2 - (b - x0) ** 2,
        "StandardVariance": b**2 - x0**2,
        "TwoAbsorbing": x0 * (b - x0),
        "Additive": b - x0,
    }[spec.kind]
    try:
        return float(numerator / Fraction(getattr(spec, _TAILS[spec.kind][0])))
    except OverflowError:
        return math.inf


_NORMAL = sys.float_info.min  # the least positive normal float


def _exp_tail(scale: float, tau: float, rate: float, b: float, power: int) -> float:
    """exp(-scale * tau * rate / (e * b**power)) for b > 0.

    The float expression holds while its numerator (unless 0), b**power
    and e * b**power are normal floats; past that, Fractions.
    """
    num = -scale * tau * rate
    try:
        b_power = b**power
    except OverflowError:
        b_power = math.inf
    den = math.e * b_power
    if (num == 0 or _NORMAL <= -num < math.inf) and _NORMAL <= b_power and den < math.inf:
        return math.exp(num / den)
    from fractions import Fraction
    try:  # Fraction(inf) and a float past the range both raise
        product = Fraction(scale) * Fraction(rate) * Fraction(tau)
        return math.exp(-float(product / (Fraction(math.e) * Fraction(b) ** power)))
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
        from fractions import Fraction
        # ln r from r - 1 rounded once: no digit lost near r = 1
        raw = math.exp(-math.log1p(float(Fraction(tau) / spec.n**2 - 1)) / scale)
    return min(1.0, max(0.0, raw))
