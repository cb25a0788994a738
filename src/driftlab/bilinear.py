"""Bilinear maximin benchmark and its single-flip dominance search.

The payoff over bit-vector pairs (x, y) of length n each is

    g(x, y) = |y|(|x| - beta*n) - alpha*n*|x| + E1(|y|) - E2(|x|)

with tie-breaking error terms E1 = max{(alpha*n - |y|)^2, 1} / n^3 and
E2 = max{(beta*n - |x|)^2, 1} / n^3, so the value depends on the pair only
through the one-counts.  The x-player maximizes, the y-player minimizes;
the optimum region is |x| = beta*n and |y| = alpha*n.

The search accepts a mutation when the candidate pairwise-dominates the
incumbent: g(x1, y2) >= g(x1, y1) >= g(x2, y1) for candidate (x1, y1) and
incumbent (x2, y2).  Taken on the integer-scaled value n^3 * g, the
chain is exact, so acceptance never hinges on float rounding.

run_search is the one search loop: it flips one position per step while
the Manhattan distance m to the optimum satisfies lo < m < hi, up to a
cap.  run_until_opt runs it from a drawn pair until m = 0 (optimum
hitting), run_forgetting from the optimum until m reaches a threshold
(forgetting).  The loop knows two payoffs: "corrected" is g above;
"plain" drops the correction terms and ranks by the bare objective
|y|(|x| - beta*n) - alpha*n*|x| alone.  Under the plain payoff every
flip along the target row |y| = alpha*n (or column |x| = beta*n) ties
and is accepted, so the approach to the optimum mixes ratchet phases
with long unbiased excursions and the hitting times come out severalfold
larger; the plain payoff is run_until_opt's default because its
hitting-time statistics are the ones the optimum-hitting experiment
reports.  Forgetting always runs the corrected payoff.

Whether a flip is kept depends only on the region of the count pair,
(sign(|x| - beta*n), sign(|y| - alpha*n)), and on the class of the
flipped position: an x bit that is 0 or 1, a y bit that is 0 or 1.  The
loop reads that rule from a 9 x 4 table per payoff.  Each kept entry is
the change of the Manhattan distance m; "." is a rejected flip.  The
corrected payoff:

    |x| vs bn  |y| vs an   x:0  x:1  y:0  y:1
        <          <        .   +1   -1    .
        <          =       -1    .   +1    .
        <          >       -1    .   +1    .
        =          <        .   +1   -1    .
        =          =       +1   +1   +1   +1
        =          >       +1    .    .   -1
        >          <        .   -1    .   +1
        >          =        .   -1    .   +1
        >          >       +1    .    .   -1

The plain payoff keeps four more, the tied flips that leave a plateau,
each with m +1: x:1 at (<, =), y:1 at (=, <), y:0 at (=, >) and x:0 at
(>, =).

The search state is one bytearray of 2n classes: x bits, then y bits + 2.
Progress is measured by the Manhattan distance of the count pair to the
optimum.  A run ends on the side of the optimum its region names:
0 at the optimum; 1 with |x| short of beta*n and |y| at or above alpha*n;
2 with |x| at or above and |y| above; 3 with |x| at or above and |y| at or
below; 4 with both strictly below.  The column |x| = beta*n below the
optimum belongs to 3, so the five labels partition the count pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import ceil, floor, inf

from driftlab.rng import RngStream, bits, index_limit
from driftlab.trajectory import Trajectory

#: acceptance payoffs run_until_opt understands.
PAYOFFS = ("plain", "corrected")


@dataclass(frozen=True)
class BilinearParams:
    """Problem size n and target fractions alpha, beta (both in (0, 1)).

    alpha*n and beta*n must be integers: the optimum region must be
    reachable by single-bit flips, and the quadrant boundaries must fall
    on count values.  The bilinear experiment kinds subclass it.
    """

    n: int
    alpha: float
    beta: float
    an: int = field(init=False)  # alpha * n, exact
    bn: int = field(init=False)  # beta * n, exact

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        for name, frac in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {frac!r}")
            scaled = frac * self.n
            if abs(scaled - round(scaled)) > 1e-9:
                raise ValueError(f"{name} * n must be integral, got {scaled!r}")
        object.__setattr__(self, "an", round(self.alpha * self.n))
        object.__setattr__(self, "bn", round(self.beta * self.n))


@dataclass
class BilinearRunResult:
    classes: bytearray
    iterations: int
    censored: bool
    trajectory: Trajectory | None
    quadrant_at_end: int


# The byte values a class vector holds: x bit 0, x bit 1, y bit 0, y bit 1.
# Flipping a position toggles the low bit of its class.
_X_ONES = (1, -1, 0, 0)  # change of |x| when a position of each class flips
_Y_ONES = (0, 0, 1, -1)
_PLUS_TWO = bytes((b + 2) % 256 for b in range(256))
# the side label of each region r // 4 = 3 * (sign(|x| - beta*n) + 1) +
# (sign(|y| - alpha*n) + 1), as the module docstring names them
_QUADRANT = bytes((4, 1, 1, 3, 0, 2, 3, 3, 2))


def _flip_tables(plain: bool) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """run_search's accept and dm tables, from the sign rule in its docstring.

    Entry r + c covers the region r = 12 * (sign(|x| - beta*n) + 1) +
    4 * (sign(|y| - alpha*n) + 1) and the flipped position's class c.
    dm is the change of the Manhattan distance on a kept flip, 0 where
    the flip is rejected.
    """
    accept, dm = [], []
    for sx, sy, c in product((-1, 0, 1), (-1, 0, 1), range(4)):
        # side of the flipped axis, sign that must favour the flip, step
        own, other = (sx, sy) if c < 2 else (sy, -sx)
        d = 1 - 2 * (c & 1)
        s = other * d
        keep = s > 0 or (s == 0 and (plain or own * d <= 0))
        accept.append(keep)
        dm.append((own * d if own else 1) if keep else 0)
    return tuple(accept), tuple(dm)


_FLIP_TABLES = {plain: _flip_tables(plain) for plain in (False, True)}


def _sides(n: int, target: int, unit: int) -> tuple[int, ...]:
    """unit * (sign(count - target) + 1) for each count 0..n."""
    return (0,) * target + (unit,) + (2 * unit,) * (n - target)


def run_search(
    params: BilinearParams,
    stream: RngStream,
    classes: bytearray,
    cap: int,
    lo: float,
    hi: float,
    plain: bool,
    record: bool = False,
) -> BilinearRunResult:
    """Single-flip dominance steps while lo < m < hi and fewer than cap steps.

    m is the Manhattan distance of the count pair to the optimum; the
    trajectory, when recorded, is m after each step.  classes, the x bits
    then the y bits + 2, is updated in place.  Flip positions are
    next_index(2n) draws taken from stream.words(): a word at or above
    index_limit(2n) is rejected and the next one read, a kept word w gives
    w % 2n, and draw_counter moves once, past the last word used.

    Acceptance is the dominance chain reduced to a sign test.  The payoff
    terms move in units of n^3 and the correction terms are O(n^2), so off
    the row |y| = alpha*n an x-flip by d = +-1 is kept iff
    (|y| - alpha*n) * d > 0, under either payoff; off the column
    |x| = beta*n a y-flip is kept iff (beta*n - |x|) * d > 0.  On the row
    (column) the plain payoff ties, so it keeps every flip; the corrected
    one keeps a flip iff it stays on the E2 (E1) plateau:
    |beta*n - new| <= max(|beta*n - old|, 1).  Tests pin this rule to the
    dominance chain of each payoff at every count pair and flip position.

    The rule depends only on the region (sign(|x| - beta*n),
    sign(|y| - alpha*n)) and on the flipped position's class (an x or a y
    bit, 0 or 1), so the loop looks it up in a 9 x 4 table per payoff
    (_flip_tables; the module docstring prints it).  The region offset
    is sx[|x|] + sy[|y|] from two tuples of n + 1 entries, and the result
    names the side of the last region.  A step reads the class and one
    table entry; a kept flip then stores the new class and updates m, the
    counts and the region.  The range test on m runs only after a kept
    flip, the only time m moves, and a recording run notes the step and m
    of each kept flip and fills in the steps between them at the end.

    The loop works on a list copy of classes, on tuples and on integer
    range bounds: the interpreter specializes list and tuple subscripts
    and int comparisons, not bytearray or bytes subscripts or int-float
    comparisons.  Where the loop stops, the list is written back into
    classes, so the result holds the caller's bytearray, updated.
    """
    n, an, bn = params.n, params.an, params.bn
    accept, dm = _FLIP_TABLES[plain]
    x_ones, y_ones = _X_ONES, _Y_ONES
    sx = _sides(n, bn, 12)
    sy = _sides(n, an, 4)
    ox, oy = classes.count(1, 0, n), classes.count(3, n)
    m = m0 = abs(bn - ox) + abs(an - oy)
    r = sx[ox] + sy[oy]
    kept = [] if record else None  # (step, m after it) of each kept flip
    t = 0
    if lo < m < hi and cap > 0:
        # index draws continue from wherever the stream's earlier draws stopped
        k = 2 * n
        limit = index_limit(k)
        words = stream.words()
        cls = list(classes)
        # m is an integer in [0, 2n]: these bounds give the same range test
        lo = -1 if lo < 0 else floor(lo)
        hi = 2 * n + 1 if hi > 2 * n else ceil(hi)
        rejected = 0
        for t, w in zip(range(1, cap + 1), words):
            while w >= limit:
                w = next(words)
                rejected += 1
            pos = w % k
            c = cls[pos]
            if accept[r + c]:
                cls[pos] = c ^ 1
                m += dm[r + c]
                ox += x_ones[c]
                oy += y_ones[c]
                r = sx[ox] + sy[oy]
                if record:
                    kept.append((t, m))
                if not lo < m < hi:
                    break
        classes[:] = cls
        stream.draw_counter += t + rejected
    traj = Trajectory(values=_fill_steps(m0, kept, t)) if record else None
    return BilinearRunResult(
        classes=classes,
        iterations=t,
        censored=lo < m < hi,
        trajectory=traj,
        quadrant_at_end=_QUADRANT[r // 4],
    )


def _fill_steps(m0: int, kept: list[tuple[int, int]], steps: int) -> list[int]:
    """m after each of steps steps, from m0 and the (step, m) of each kept flip."""
    values = [m0]
    for t, m in kept:
        values += [values[-1]] * (t - len(values))
        values.append(m)
    values += [values[-1]] * (steps + 1 - len(values))
    return values


def run_until_opt(
    params: BilinearParams,
    stream: RngStream,
    cap: int,
    record: bool = False,
    payoff: str = "plain",
) -> BilinearRunResult:
    """Search from drawn bits until the optimum region or cap.

    The 2n start bits, x then y, are one rng.bits draw.  payoff picks the
    acceptance ranking: "plain" compares the bare objective, "corrected"
    the objective with its tie-breaking terms (see the module docstring).
    """
    n = params.n
    drawn = bits(stream, 2 * n)
    classes = drawn[:n] + drawn[n:].translate(_PLUS_TWO)
    return run_search(params, stream, classes, cap, 0, inf, payoff == "plain", record)


def run_forgetting(
    params: BilinearParams,
    stream: RngStream,
    threshold: float,
    cap: int,
    record: bool = False,
) -> BilinearRunResult:
    """Start at the optimum with the leading bits of x and y set; run until
    the Manhattan distance reaches threshold.

    Measures how long the corrected dominance rule retains the optimum once
    reached: the error terms allow drifting moves along the optimum
    boundary, so the distance performs a slow random walk away from zero.
    """
    n, an, bn = params.n, params.an, params.bn
    classes = bytearray(b"\1" * bn + b"\0" * (n - bn) + b"\3" * an + b"\2" * (n - an))
    return run_search(params, stream, classes, cap, -1, threshold, False, record)
