"""Exact references the kernel tests compare the package against.

Nothing here runs under a ``driftlab`` command or the benchmark.  Each
function is evidence for a kernel, written from the definition and kept
independent of the fast path it checks:

* walks: exact expected hitting times from the one-step recurrences, the
  exact survival P(T > t) by a forward DP over the unabsorbed mass, and
  the biased walk stepped one word at a time;
* bilinear: the search state as an (x, y) pair with its one-counts, the
  side of the optimum a pair sits on, the start bits on scalar draws, the
  integer-scaled payoff n^3 * g, the pairwise-dominance chain and the
  single-flip RLS-PD step that ``run_search`` is pinned to;
* sat2: literal and clause semantics, and the invariants of a formula's
  clauses;
* recolour: adjacency masks built from outside edges, with every invariant
  checked, and the edge list read back from the masks;
* rwab: the paper's regret ceiling 480*eps*(L + sqrt(L*T)), one challenge
  on scalar next_uniform() draws (sharing no code with run_rwab's inline
  loop), the round loop built on it with a full ledger, and the
  list-backed Fisher-Yates draw of the change times;
* bounds: the exponent of each tail bound and each expected-time ceiling
  from exact rational inputs;
* configs: a one-run config read as ``driftlab run`` reads one, since the
  config reader is the one place that checks what the kernels assume, and
  the tiny params of every kind that records trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from driftlab.bilinear import BilinearParams
from driftlab.bounds import BoundSpec
from driftlab.experiment import ExperimentConfig
from driftlab.rng import RngStream, below, index_limit
from driftlab.sat2 import Clause, Literal

# ---------------------------------------------------------------------------
# Walks: exact means, solved from the first-step recurrences by forward
# substitution on the expected-time differences; O(b) and exact up to float
# rounding, independent of any simulation.


def fair_walk_mean(b: int, x0: int) -> float:
    """E[T] for the fair walk: the classical x0 * (b - x0)."""
    if b < 1 or not 0 <= x0 <= b:
        raise ValueError("need b >= 1 and 0 <= x0 <= b")
    return float(x0 * (b - x0))


def biased_walk_mean_dp(b: int, x0: int, p_up: float) -> float:
    """E[T] for the reflecting biased walk, from its one-step equations.

    With h(x) the expected time to b:  h(b) = 0,  h(0) = 1 + h(1),  and
    h(x) = 1 + p*h(x+1) + (1-p)*h(x-1) inside.  Writing d(x) = h(x) - h(x+1)
    gives d(0) = 1 and d(x) = (1 + (1-p) * d(x-1)) / p, then h(x0) is the
    tail sum of d.
    """
    if b < 1 or not 0 <= x0 <= b:
        raise ValueError("need b >= 1 and 0 <= x0 <= b")
    if not 0.5 < p_up <= 1.0:
        raise ValueError(f"p_up must lie in (1/2, 1], got {p_up!r}")
    q = 1.0 - p_up
    d = [0.0] * b
    d[0] = 1.0
    for x in range(1, b):
        d[x] = (1.0 + q * d[x - 1]) / p_up
    return float(sum(d[x0:]))


def lazy_walk_mean_dp(b: int, x0: int, delta: float) -> float:
    """E[T] for the lazy zero-drift walk, from its one-step equations.

    With h(x) the expected time to 0:  h(0) = 0, the ceiling equation
    delta * h(b) = 1 + delta * h(b-1) pins e(b) = h(b) - h(b-1) = 1/delta,
    and the interior equations give e(x) = e(x+1) + 2/delta going down.
    """
    if b < 1 or not 0 <= x0 <= b:
        raise ValueError("need b >= 1 and 0 <= x0 <= b")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    e = [0.0] * (b + 1)
    e[b] = 1.0 / delta
    for x in range(b - 1, 0, -1):
        e[x] = e[x + 1] + 2.0 / delta
    return float(sum(e[1 : x0 + 1]))


def _walk_moves(kind: str, b: int, p_up: float = 0.5, delta: float = 1.0) -> dict:
    """Each transient state of a synthetic walk -> its [(next state, probability)]."""
    if kind == "synthetic_fair":  # absorbed at 0 and b
        return {x: [(x - 1, 0.5), (x + 1, 0.5)] for x in range(1, b)}
    if kind == "synthetic_biased":  # forced up from 0, absorbed at b
        moves = {x: [(x + 1, p_up), (x - 1, 1.0 - p_up)] for x in range(1, b)}
        return {0: [(1, 1.0)], **moves}
    if kind != "synthetic_lazy":
        raise ValueError(f"not a walk: {kind!r}")
    # absorbed at 0; at b the up-move is folded into the hold
    moves = {x: [(x - 1, delta / 2), (x + 1, delta / 2), (x, 1.0 - delta)] for x in range(1, b)}
    moves[b] = [(b - 1, delta), (b, 1.0 - delta)]
    return moves


def walk_survival(kind: str, params: dict, steps: int) -> list[float]:
    """P(T > t) for t = 0..steps of a synthetic walk with these config params.

    A forward DP over the mass not yet absorbed: mass[x] is the probability
    of standing at transient state x after t steps, never absorbed; each
    step pushes it along _walk_moves and drops what lands on an absorbing
    state, and P(T > t) is what is left.  O(b * steps), exact up to float
    rounding, and independent of the simulators' draws.
    """
    rates = {k: v for k, v in params.items() if k in ("p_up", "delta")}
    moves = _walk_moves(kind, params["b"], **rates)
    mass = {params["x0"]: 1.0} if params["x0"] in moves else {}
    survival = [math.fsum(mass.values())]
    for _ in range(steps):
        after = dict.fromkeys(moves, 0.0)
        for x, m in mass.items():
            for y, p in moves[x]:
                if y in after:
                    after[y] += m * p
        mass = after
        survival.append(math.fsum(mass.values()))
    return survival


def biased_walk_by_steps(
    stream: RngStream, b: int, x0: int, p_up: float, cap: int
) -> tuple[int, bool, list[int]]:
    """The biased walk one step at a time: (stopping time, censored, values).

    Every step tests for 0: a forced step up from 0 draws no word, and any
    other step draws one and moves up when it is below below(p_up).  Sets
    the stream's draw_counter past the last word drawn.  simulate_biased_walk
    runs its excursions above 0 over one words() iterator instead, and must
    agree with this loop on all four.
    """
    x, t = x0, 0
    values = [x]
    up = below(p_up)
    forced = 0
    draw = stream.words().__next__
    while x < b and t < cap:
        if x == 0:
            x = 1
            forced += 1
        else:
            x += 1 if draw() < up else -1
        t += 1
        values.append(x)
    stream.draw_counter += t - forced
    return t, x < b, values


# ---------------------------------------------------------------------------
# Bilinear state, payoff and the dominance step.  run_search holds one class
# vector, x bits then y bits + 2; these references hold the two vectors apart.


@dataclass
class SearchPair:
    """One (x, y) state with cached one-counts."""

    x: bytearray
    y: bytearray
    ones_x: int
    ones_y: int


def pair_from_bits(x, y) -> SearchPair:
    """A SearchPair from two 0/1 sequences, with its one-counts."""
    x, y = bytearray(x), bytearray(y)
    if any(b not in (0, 1) for b in x) or any(b not in (0, 1) for b in y):
        raise ValueError("bit vectors must hold only 0/1")
    return SearchPair(x=x, y=y, ones_x=sum(x), ones_y=sum(y))


def copy_pair(pair: SearchPair) -> SearchPair:
    """A SearchPair that shares no bytes with pair."""
    return SearchPair(bytearray(pair.x), bytearray(pair.y), pair.ones_x, pair.ones_y)


def pair_with_counts(params: BilinearParams, ox: int, oy: int) -> SearchPair:
    """The pair with the leading ox bits of x and oy bits of y set."""
    n = params.n
    return pair_from_bits([1] * ox + [0] * (n - ox), [1] * oy + [0] * (n - oy))


def classes_of(pair: SearchPair) -> bytearray:
    """run_search's class vector of a pair: the x bits, then the y bits + 2."""
    return bytearray(pair.x) + bytearray(b + 2 for b in pair.y)


def pair_of(classes, n: int) -> SearchPair:
    """The pair a class vector of 2n classes holds; raises on a stray class."""
    return pair_from_bits(classes[:n], [c - 2 for c in classes[n:]])


def random_pair(stream: RngStream, params: BilinearParams) -> SearchPair:
    """Uniform start bits, x then y, on scalar draws: 1 when next_uniform() < 0.5."""
    n = params.n
    bits = [stream.next_uniform() < 0.5 for _ in range(2 * n)]
    return pair_from_bits(bits[:n], bits[n:])


def quadrant(params: BilinearParams, pair: SearchPair) -> int:
    """Side of the optimum a pair sits on: 0 at the optimum, else 1..4.

    1: x short of target, y at-or-above.  2: x at-or-above, y above.
    3: x at-or-above, y at-or-below.  4: both strictly below.  The
    boundary column |x| = beta*n below the optimum belongs to quadrant 3,
    which keeps the five labels a partition of all count pairs.
    """
    ox, oy = pair.ones_x, pair.ones_y
    an, bn = params.an, params.bn
    if ox == bn and oy == an:
        return 0
    if ox < bn and oy >= an:
        return 1
    if ox >= bn and oy > an:
        return 2
    if ox >= bn and oy <= an:
        return 3
    return 4


def _scaled_value(params: BilinearParams, ox: int, oy: int) -> int:
    """n^3 * g as an exact integer."""
    n3 = params.n**3
    base = oy * (ox - params.bn) - params.an * ox
    e1 = max((params.an - oy) ** 2, 1)
    e2 = max((params.bn - ox) ** 2, 1)
    return base * n3 + e1 - e2


def bilinear_value(params: BilinearParams, pair: SearchPair) -> float:
    """g(x, y) as a float; exact comparisons should use dominates()."""
    return _scaled_value(params, pair.ones_x, pair.ones_y) / params.n**3


def dominates(params: BilinearParams, cand: SearchPair, inc: SearchPair) -> bool:
    """Pairwise dominance of the candidate over the incumbent."""
    a = _scaled_value(params, cand.ones_x, inc.ones_y)
    b = _scaled_value(params, cand.ones_x, cand.ones_y)
    c = _scaled_value(params, inc.ones_x, cand.ones_y)
    return a >= b >= c


def manhattan_distance(params: BilinearParams, pair: SearchPair) -> int:
    return abs(params.bn - pair.ones_x) + abs(params.an - pair.ones_y)


def rls_pd_step(
    params: BilinearParams, pair: SearchPair, stream: RngStream
) -> tuple[SearchPair, bool]:
    """One mutation-and-test step under the corrected payoff, in place.

    Flips one of the 2n positions chosen by next_index(2n), keeps the flip
    iff the mutated pair dominates the incumbent, otherwise restores it.
    Returns the (possibly unchanged) pair and whether the flip was kept.
    """
    n = params.n
    pos = stream.next_index(2 * n)
    inc_ox, inc_oy = pair.ones_x, pair.ones_y
    if pos < n:
        pair.x[pos] ^= 1
        pair.ones_x += 1 if pair.x[pos] else -1
    else:
        pair.y[pos - n] ^= 1
        pair.ones_y += 1 if pair.y[pos - n] else -1
    a = _scaled_value(params, pair.ones_x, inc_oy)
    b = _scaled_value(params, pair.ones_x, pair.ones_y)
    c = _scaled_value(params, inc_ox, pair.ones_y)
    if a >= b >= c:
        return pair, True
    # dominance failed: undo the flip
    if pos < n:
        pair.x[pos] ^= 1
        pair.ones_x = inc_ox
    else:
        pair.y[pos - n] ^= 1
        pair.ones_y = inc_oy
    return pair, False


# ---------------------------------------------------------------------------
# 2-SAT semantics: a literal (var, neg) holds when bool(assignment[var]) != neg.


def literal_true(lit: Literal, assignment) -> bool:
    var, neg = lit
    return bool(assignment[var]) != neg


def clause_satisfied(clause: Clause, assignment) -> bool:
    return literal_true(clause[0], assignment) or literal_true(clause[1], assignment)


def check_formula(n: int, clauses) -> None:
    """Raise ValueError unless clauses form a 2-CNF formula over n variables.

    At least one variable; every clause two literals, each an in-range
    variable with a bool negation flag.
    """
    if n < 1:
        raise ValueError("formula needs at least one variable")
    for idx, clause in enumerate(clauses):
        if len(clause) != 2:
            raise ValueError(f"clause {idx} must have exactly two literals")
        for var, neg in clause:
            if not 0 <= var < n:
                raise ValueError(f"clause {idx}: variable {var} out of range")
            if not isinstance(neg, bool):
                raise ValueError(f"clause {idx}: negation flag must be bool")


# ---------------------------------------------------------------------------
# Recolouring.


def checked_graph(n: int, edges) -> list[int]:
    """The neighbour bitmasks of n vertices joined by edges, or the first fault.

    Checks what generate_3colorable builds by construction: at least three
    vertices, and canonical edges (u < v, in range, no duplicates) that
    join different witness classes v % 3.
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    adj = [0] * n
    for u, v in edges:
        if not 0 <= u < v < n:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            raise ValueError(f"edge ({u},{v}) must be ordered u < v")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        if u % 3 == v % 3:
            raise ValueError(f"edge ({u},{v}) joins one witness class")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of the adjacency masks, in lexicographic order."""
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


# ---------------------------------------------------------------------------
# Restless bandit.


def theoretical_regret_bound(horizon: int, changes: int, eps: float) -> tuple[float, float]:
    """Regret ceiling 480*eps*(L + sqrt(L*T)) and the confidence it holds with.

    The confidence 1 - 2*exp(-sqrt(eps)/e) is clamped at 0; it only
    becomes informative for eps around 40 and beyond.
    """
    if eps < 1:
        raise ValueError("eps must be at least 1")
    if horizon < 1 or changes < 1:
        raise ValueError("need horizon >= 1 and changes >= 1")
    bound = 480.0 * eps * (changes + math.sqrt(changes * horizon))
    confidence = max(0.0, 1.0 - 2.0 * math.exp(-math.sqrt(eps) / math.e))
    return bound, confidence


@dataclass
class ChallengeOutcome:
    """One completed challenge: final preference order and its cost."""

    a_plus: int
    a_minus: int
    swap: bool
    inner_rounds: int
    regret: float


def run_challenge(
    mu: list[float],
    a_plus: int,
    a_minus: int,
    stream: RngStream,
    s_threshold: float,
    accounting: str = "mean_gap",
) -> ChallengeOutcome:
    """One challenge from its definition, on scalar next_uniform() draws.

    Each inner iteration pulls a+ then a- (an arm pays 1 when its draw
    falls below its mean) and adds r+ - r- to the walk S.  While a+ is
    the worse arm every a+ pull is charged: the mean gap, or in realized
    mode the better arm's draw r- minus r+.  Exit at S >= 1 keeps the
    order, at S <= -s swaps it.
    """
    for arm in (a_plus, a_minus):
        if not 0.0 <= mu[arm] <= 1.0:
            raise ValueError(f"arm means must lie in [0, 1], got {mu[arm]!r}")
    s_val, inner, regret = 0.0, 0, 0.0
    while True:
        r_plus = 1.0 if stream.next_uniform() < mu[a_plus] else 0.0
        r_minus = 1.0 if stream.next_uniform() < mu[a_minus] else 0.0
        s_val += r_plus - r_minus
        inner += 1
        if mu[a_plus] < mu[a_minus]:
            if accounting == "realized":
                regret += r_minus - r_plus
            else:
                regret += mu[a_minus] - mu[a_plus]
        if s_val >= 1.0:
            return ChallengeOutcome(a_plus, a_minus, False, inner, regret)
        if s_val <= -s_threshold:
            return ChallengeOutcome(a_minus, a_plus, True, inner, regret)


@dataclass
class ReferenceLedger:
    """tuple_comparing_rwab's outcome: run_rwab's ledger plus per-run accounting."""

    total_regret: float
    swaps: int
    mistakes: int
    eras: int
    sub_eras: int
    rounds: int
    pulls: int
    per_round: list[float]


def tuple_comparing_rwab(
    stream: RngStream,
    horizon: int,
    mu1: float,
    mu2: float,
    change_times,
    accounting: str,
) -> ReferenceLedger:
    """run_rwab's policy with scalar draws and per-round bookkeeping.

    Compares the (swapped, a+) pair every round to count sub-eras and
    re-reads the ranking of a+ on every round, where run_rwab updates both
    only when a sub-era starts.  Also counts the eras, the pulls and each
    round's regret, which run_rwab does not keep.
    """
    ell = len(change_times)
    p = math.sqrt(ell / horizon)
    s_threshold = math.sqrt(horizon / ell)
    realized = accounting == "realized"
    mu = [mu1, mu2]
    swapped, a_plus, a_minus = False, 0, 1
    total = 0.0
    pulls = swaps = mistakes = sub_eras = 0
    prev_pair = None
    per_round = []
    for clock in range(1, horizon + 1):
        if clock in change_times:
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
        per_round.append(round_regret)
    return ReferenceLedger(total, swaps, mistakes, ell + 1, sub_eras, horizon, pulls, per_round)


def change_times_by_list(stream: RngStream, horizon: int, count: int) -> tuple[int, ...]:
    """sample_change_times over a materialized candidate list {2, ..., horizon}.

    Partial Fisher-Yates: step i swaps pool[i] with pool[i + next_index(k)],
    k = horizon - 1 - i, drawn from raw words (reject at index_limit(k),
    then take w % k).  O(horizon) memory, the form the sparse draw replaces.
    """
    pool = list(range(2, horizon + 1))
    if count > len(pool):
        raise ValueError(f"cannot draw {count} distinct times from {len(pool)} candidates")
    draw = stream.words().__next__
    used = count
    for i in range(count):
        k = len(pool) - i
        limit = index_limit(k)
        w = draw()
        while w >= limit:
            w = draw()
            used += 1
        j = i + w % k
        pool[i], pool[j] = pool[j], pool[i]
    stream.draw_counter += used
    return tuple(sorted(pool[:count]))


# ---------------------------------------------------------------------------
# Tail bounds.


def _rounded(q: Fraction) -> float:
    """q rounded to a float, +-inf past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def tail_exponent(spec: BoundSpec, tau: float) -> float:
    """The natural log of spec's tail bound at tau, before clamping to [0, 1].

    Every rational step runs on exact Fractions of the float fields, so no
    intermediate overflows, underflows or rounds; only e, the logarithms
    and the one final rounding are floats.  0.0 where the polynomial tail
    is vacuous (tau <= n^2).
    """
    t = Fraction(tau)
    if spec.kind == "KotzingPolynomial":
        r = t / spec.n**2
        if r <= 1:
            return 0.0
        log_r = math.log1p(float(r - 1))  # no digits lost where r is close to 1
        return _rounded(-Fraction(log_r) / (Fraction(spec.ell) * Fraction(math.log(spec.c))))
    if spec.kind == "Additive":
        rate = t * Fraction(spec.epsilon) / Fraction(spec.b)
    else:
        rate = t * Fraction(spec.delta) / Fraction(spec.b) ** 2
        if spec.kind == "TwoAbsorbing":
            rate *= 2
    return _rounded(-rate / Fraction(math.e))


def expected_time(spec: BoundSpec) -> float:
    """spec's expected-time ceiling from exact Fractions of its fields.

    The differences of squares are taken as written, b^2 - (b - x0)^2 and
    b^2 - x0^2, and rounded once: +inf past the float range.
    """
    b, x0 = Fraction(spec.b), Fraction(spec.x0)
    if spec.kind == "Additive":
        return _rounded((b - x0) / Fraction(spec.epsilon))
    if spec.kind == "NegativeDriftVariance":
        numerator = b**2 - (b - x0) ** 2
    elif spec.kind == "StandardVariance":
        numerator = b**2 - x0**2
    else:  # TwoAbsorbing
        numerator = x0 * (b - x0)
    return _rounded(numerator / Fraction(spec.delta))


# ---------------------------------------------------------------------------
# Configs.  The kernels take their params as given, so a test of what a
# kernel assumes reads the params through the config reader.


#: each kind that records trajectories -> tiny params and the cap its
#: config sets (None: the kind's default cap)
RECORDING = {
    "sat2": ({"n": 6, "m": 10}, 200),
    "recolour": ({"n": 7, "edge_prob": 0.5}, 200),
    "rlspd": ({"n": 8, "alpha": 0.5, "beta": 0.5}, None),
    "rlspd_forgetting": ({"n": 16, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0}, None),
    "synthetic_fair": ({"b": 6, "x0": 3}, 200),
    "synthetic_biased": ({"b": 6, "x0": 0, "p_up": 0.75}, 200),
    "synthetic_lazy": ({"b": 6, "x0": 6, "delta": 0.5}, 200),
}


def read_config(kind: str, params: dict, **fields) -> ExperimentConfig:
    """A one-run config of kind with params, cap 10 unless fields set one."""
    doc = {"kind": kind, "params": params, "runs": 1, "master_seed": 0, "output_dir": "out"}
    return ExperimentConfig.from_dict({**doc, "cap": 10, **fields})
