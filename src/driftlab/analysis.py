"""Estimators and bound-vs-experiment comparisons.

Everything here consumes either recorded trajectories (drift and step-tail
estimation) or stopping-time samples (summaries, tail comparisons,
histograms).  Censored samples are handled conservatively throughout: they
are excluded from means, counted as exceeding every survival threshold,
and reported separately.

The trajectory estimators never walk the transitions in Python.
``tally_transitions`` counts each distinct (X_t, X_{t+1}) pair once, in one
pass that reads each trajectory as it arrives and keeps none of them, so a
lazy iterator over files holds one file in memory at a time.  Both
estimators take that one tally: the drift sums d * count per distinct pair,
and the step tail folds the pairs into one count per magnitude |y - x|.
Every simulator records integer values, and on integer-valued trajectories
the tallied sums are exact in any order, so the results equal a
transition-by-transition sum.  A run holds each trajectory as an int
array, and the reader returns a file of integer texts as one too.
Fractional values (a value list, as the reader returns any other file)
are summed in the tally's first-occurrence order, which is deterministic
but may differ from the sequential sum in the last bits; the step tail
only counts, so it is exact for any values.

Each analysis returns its report section, or None when there is nothing
to report: no finished sample for the summary and the histogram, no
tallied transition for the drift estimate and the step tail.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add
from typing import Iterable, Sequence

from driftlab.bounds import BoundSpec, tail_probability_upper
from driftlab.trajectory import HittingTimeSample

DEFAULT_CONFIDENCE = 0.999


def hoeffding_margin(n: int, confidence: float = DEFAULT_CONFIDENCE) -> float:
    """One-sided allowance sqrt(ln(1/(1-confidence)) / (2n)).

    An empirical frequency from n independent runs exceeds its true
    probability by more than this with probability at most 1 - confidence.
    """
    if n <= 0:
        raise ValueError("margin needs at least one sample")
    return math.sqrt(math.log(1.0 / (1.0 - confidence)) / (2.0 * n))


# ---------------------------------------------------------------------------
# Drift estimation from trajectories.


@dataclass
class DriftEstimate:
    """Moment estimates over all pre-stopping transitions.

    mean_drift and second_moment average X_{t+1} - X_t and its square over
    every recorded consecutive pair; per_state_mean buckets the same means
    by floor(X_t) of the departing state.
    """

    mean_drift: float
    second_moment: float
    transitions: int
    per_state_mean: dict[int, float] = field(default_factory=dict)


#: the int typecodes whose items pack k = 8 // itemsize >= 2 to one "q" item
_PACKED = tuple(t for t in "bhi" if array(t).itemsize < 8)


def _windows(code: str, windows: Counter) -> tuple[int, array]:
    """k and every value of the tallied k-item windows of typecode code, in order."""
    return 8 // array(code).itemsize, array(code, array("q", windows).tobytes())


def tally_transitions(trajectories: Iterable[Sequence[float]]) -> Counter:
    """How often each distinct (X_t, X_{t+1}) pair occurs, over every trajectory.

    Each trajectory is its sequence of values.  Reads each one once, as the
    iterable yields it, and keeps only the tally, so trajectories read
    lazily are never all held at once.

    Value lists (the reader's floats, for a file with a fractional value
    or one past typecode "i") tally in first-occurrence order.  Arrays (a
    run's, and the reader's for a file of int texts) tally in no stated
    order.  A ``b``, ``h`` or ``i`` array's bytes are read as "q" items of
    k = 8, 4 or 2 values, so that Counter counts them at C speed: the
    windows from offset 0 hold k - 1 pairs each, and the windows from
    offset k - 1 hold the pair that links two of them first.  Each
    distinct window is read back into its pairs once, after the last
    trajectory; the pairs after the last whole window are counted one by
    one.  A recorded run's windows repeat (its steps are -1, 0 or
    +1 over a bounded range), so a value costs about 2 / k counts.
    """
    pairs: Counter = Counter()
    heads: dict[str, Counter] = {}
    links: dict[str, Counter] = {}
    for vals in trajectories:
        code = vals.typecode if isinstance(vals, array) else None
        if code not in _PACKED:
            pairs.update(zip(vals, islice(vals, 1, None)))
            continue
        size = vals.itemsize
        k = 8 // size
        whole = len(vals) // k * k
        # 8 bytes of padding: the last link window may run past the end
        raw = vals.tobytes() + bytes(8)
        heads.setdefault(code, Counter()).update(array("q", raw[: whole * size]))
        first = (k - 1) * size
        links.setdefault(code, Counter()).update(
            array("q", raw[first : first + max(len(vals) - 1, 0) // k * 8])
        )
        tail = vals[whole:]
        pairs.update(zip(tail, islice(tail, 1, None)))
    for code, windows in heads.items():
        k, flat = _windows(code, windows)
        for start, c in zip(range(0, len(flat), k), windows.values()):
            window = flat[start : start + k]
            for x, y in zip(window, islice(window, 1, None)):
                pairs[x, y] += c
    for code, windows in links.items():
        k, flat = _windows(code, windows)
        for x, y, c in zip(flat[::k], flat[1::k], windows.values()):
            pairs[x, y] += c
    return pairs


def estimate_drift(pairs: Counter) -> DriftEstimate | None:
    """Mean drift and second moment over every tallied transition, or None.

    Sums d * count per distinct pair of tally_transitions, in the tally's
    order: first-occurrence order for value lists, no stated order for
    arrays (a run's, and the reader's for a file of int texts).  The order
    cannot move the result on integer-valued trajectories, whose sums a
    float adds exactly below 2**53; every recorded kernel steps by -1, 0 or
    +1, so its sums stay far below that.
    Fractional values may differ from a sequential sum in the last bits.
    """
    if not pairs:
        return None
    total = 0.0
    total_sq = 0.0
    count = 0
    by_state_sum: dict[int, float] = {}
    by_state_n: dict[int, int] = {}
    for (x, y), c in pairs.items():
        d = y - x
        total += d * c
        total_sq += d * d * c
        count += c
        s = math.floor(x)
        by_state_sum[s] = by_state_sum.get(s, 0.0) + d * c
        by_state_n[s] = by_state_n.get(s, 0) + c
    per_state = {s: by_state_sum[s] / by_state_n[s] for s in sorted(by_state_sum)}
    return DriftEstimate(
        mean_drift=total / count,
        second_moment=total_sq / count,
        transitions=count,
        per_state_mean=per_state,
    )


# ---------------------------------------------------------------------------
# Step-size tail fitting: find (r, eta) with
# freq(|step| >= j) <= r / (1 + eta)^j for all j >= 0, minimizing the
# induced range constant r / ln(1 + eta).


@dataclass
class StepTailFit:
    r: float
    eta: float
    max_violation: float
    range_constant: float  # r / ln(1 + eta)


DEFAULT_ETA_GRID = tuple(i / 20.0 for i in range(1, 61))  # 0.05 .. 3.00


def fit_step_tail(pairs: Counter) -> StepTailFit | None:
    """Fit the geometric step-tail envelope over DEFAULT_ETA_GRID.

    For each eta the smallest feasible r is max over observed magnitudes m
    of freq(|step| >= m) * (1 + eta)^m (the envelope is tight at some
    observed magnitude; between magnitudes the empirical tail is flat while
    the envelope falls, so checking observed m suffices).  freq(>= 0) = 1
    forces r >= 1.  The winner minimizes r / ln(1 + eta).

    An eta for which (1 + eta)^m or r / ln(1 + eta) overflows a float
    cannot win: its range constant is infinite.  None means no transition,
    or that every eta overflows, as it does past a step magnitude of ~14,500.

    The pairs of tally_transitions fold into one count per magnitude
    |y - x|, so the exceedance points are exact counts for any input.
    """
    by_magnitude: Counter = Counter()
    for (x, y), c in pairs.items():
        by_magnitude[abs(y - x)] += c
    n = sum(by_magnitude.values())
    if not n:
        return None
    # distinct magnitudes with exceedance frequencies: freq(|step| >= m)
    points: list[tuple[float, float]] = [(0.0, 1.0)]
    below = 0
    for m in sorted(by_magnitude):
        if m > 0:
            points.append((m, (n - below) / n))
        below += by_magnitude[m]

    best: StepTailFit | None = None
    for eta in DEFAULT_ETA_GRID:
        growth = 1.0 + eta
        try:
            r = max(freq * growth**m for m, freq in points)
        except OverflowError:
            continue
        rc = r / math.log(growth)
        if rc < (best.range_constant if best else math.inf):
            viol = max(freq - r / growth**m for m, freq in points)
            best = StepTailFit(r=r, eta=eta, max_violation=viol, range_constant=rc)
    return best


# ---------------------------------------------------------------------------
# Tail comparison against a closed-form bound.


@dataclass
class TailPoint:
    tau: float
    empirical_survival: float
    theoretical_bound: float
    hoeffding_upper: float  # bound + margin: the largest admissible frequency
    violated: bool


@dataclass
class TailReport:
    """The tail comparison; report.json writes its fields in this order.

    violated is not passed in: it is set from the grid, true when any
    point is violated.
    """

    confidence: float
    margin: float
    sample_count: int
    violated: bool = field(init=False)
    grid: list[TailPoint]

    def __post_init__(self):
        self.violated = any(p.violated for p in self.grid)


def compare_bound(
    samples: Sequence[HittingTimeSample],
    spec: BoundSpec,
    tau_grid: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
) -> TailReport:
    """Empirical survival vs. theoretical tail on a grid of thresholds.

    Survival counts runs with stopping time >= tau; censored runs count as
    exceeding every threshold (their true time is at least the cap, and
    overcounting survival can only make the check harder to pass).  A point
    is violated when the empirical frequency exceeds bound + margin.
    """
    if not samples:
        raise ValueError("tail comparison needs at least one sample")
    n = len(samples)
    margin = hoeffding_margin(n, confidence)
    finished = [s.stopping_time for s in samples if not s.censored]
    censored = n - len(finished)
    grid = []
    for tau in tau_grid:
        emp = (censored + sum(t >= tau for t in finished)) / n
        bound = tail_probability_upper(spec, tau)
        grid.append(
            TailPoint(
                tau=float(tau),
                empirical_survival=emp,
                theoretical_bound=bound,
                hoeffding_upper=bound + margin,
                violated=emp > bound + margin,
            )
        )
    return TailReport(confidence=confidence, margin=margin, sample_count=n, grid=grid)


# ---------------------------------------------------------------------------
# Summaries and histograms.


@dataclass
class SummaryTable:
    mean: float
    freq_at_multiples: dict[float, float]
    censored_count: int
    sample_count: int


def summary_table(
    samples: Sequence[HittingTimeSample], k_list: Sequence[float]
) -> SummaryTable | None:
    """Mean of non-censored times plus Fr(T <= k * mean) per k, or None.

    Frequencies are over all runs, censored ones counting as never below
    any threshold, so they are conservative and nondecreasing in k.  A NaN
    limit (a NaN time, or 0 * inf) is reached by no time.
    """
    finished = [s.stopping_time for s in samples if not s.censored]
    if not finished:
        return None
    # left to right in sample order: regrets are floats, and sum() adds
    # floats with compensation from Python 3.12 on
    mean = reduce(add, finished, 0) / len(finished)
    n = len(samples)
    freq = {}
    for k in k_list:
        limit = k * mean
        freq[float(k)] = sum(t <= limit for t in finished) / n
    return SummaryTable(
        mean=mean,
        freq_at_multiples=freq,
        censored_count=n - len(finished),
        sample_count=n,
    )


@dataclass
class Histogram:
    edges: list[float]  # bin_count + 1 edges
    densities: list[float]  # per-bin density; sum(density * width) == 1
    counts: list[int]


def histogram_export(
    samples: Sequence[HittingTimeSample], bin_count: int = 50
) -> Histogram | None:
    """Equal-width density histogram of non-censored stopping times, or None."""
    times = [s.stopping_time for s in samples if not s.censored]
    if not times:
        return None
    lo, hi = float(min(times)), float(max(times))
    if hi == lo:
        hi = lo + 1.0  # degenerate sample: one unit-width bin holds everything
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for t in times:
        idx = min(int((t - lo) / width), bin_count - 1)
        counts[idx] += 1
    n = len(times)
    densities = [c / (n * width) for c in counts]
    edges = [lo + i * width for i in range(bin_count + 1)]
    return Histogram(edges=edges, densities=densities, counts=counts)
