"""Random-walk arm-preference baseline for a two-armed restless bandit.

Two Bernoulli arms whose mean pair is swapped at L unknown change times.
The learner keeps a preferred arm a+ and each round, with probability
p = sqrt(L/T), opens a challenge instead of the plain pull: both arms are
pulled repeatedly while the reward-difference walk S accumulates, until S
reaches +1 (keep the preference) or falls to -sqrt(T/L) (swap).  A
challenge runs to completion within its round: the horizon clock counts
loop rounds, not pulls, so changes land between rounds and never interrupt
a challenge.  run_rwab plays it all, challenges included, in one loop.

Regret accounting follows the preferred arm.  In "mean_gap" mode every
pull of a+ while it is not the better arm costs the mean gap; a challenge
round therefore accrues one gap charge per inner iteration when the
preference is misranked and nothing when it is correct (its a- pulls are
exploration, not charged).  "realized" mode replaces each charge with the
realized reward difference: inside a challenge the better arm's draw is
already in hand, on plain rounds a counterfactual draw stands in for it.
Both modes agree in expectation.

Sub-era bookkeeping: the L changes cut the horizon into L + 1 eras, and
sub-eras are the maximal round intervals on which both the mean
assignment and the preferred arm are constant, so a run has at least
L + 1 of them and at most L + 1 + swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from driftlab.rng import RngStream, below, index_limit

ACCOUNTING_MODES = ("mean_gap", "realized")

# Largest accepted estimate of one run's inner challenge iterations (see
# check_challenges_end): at about a microsecond each, minutes per run.
MAX_CHALLENGE_ITERATIONS = 10**8


def check_challenges_end(horizon: int, mu1: float, mu2: float) -> None:
    """Raise ValueError when a run's challenges would not finish in practice.

    A challenge's difference walk moves with probability
    q = mu1 (1 - mu2) + mu2 (1 - mu1) per inner iteration (the same after
    the means swap).  At zero drift a run holds about sqrt(L T) challenges
    of about sqrt(T / L) / q iterations each, so about T / q in all.  q = 0
    (mu1 == mu2 in {0, 1}) means no challenge ever ends.
    """
    q = mu1 * (1.0 - mu2) + mu2 * (1.0 - mu1)
    if q == 0.0:
        # both arms always pay the same, so a challenge's walk never moves
        raise ValueError(f"mu1 == mu2 == {mu1!r} makes every challenge endless")
    if horizon / q > MAX_CHALLENGE_ITERATIONS:
        raise ValueError(
            f"mu1 = {mu1!r}, mu2 = {mu2!r} move a challenge's walk with probability "
            f"{q:.3g}, so a run would need ~{horizon / q:.3g} challenge iterations "
            f"(limit {MAX_CHALLENGE_ITERATIONS:.0e})"
        )


def sample_change_times(stream: RngStream, horizon: int, count: int) -> tuple[int, ...]:
    """count distinct rounds drawn uniformly from {2, ..., horizon}, sorted.

    Partial Fisher-Yates over the candidate pool {2, ..., horizon}, so count
    close to the maximum works as well as count = 0 (empty schedule).  The
    pool is never built: moved holds only the positions a swap has touched,
    and position p holds moved.get(p, p + 2), so memory is O(count) at any
    horizon.  count must not exceed that pool's horizon - 1 candidates.
    """
    size = horizon - 1
    # next_index(size - i) on raw words: reject at the limit, then take w % k
    draw = stream.words().__next__
    used = count
    moved: dict[int, int] = {}
    for i in range(count):
        k = size - i
        limit = index_limit(k)
        w = draw()
        while w >= limit:
            w = draw()
            used += 1
        j = i + w % k
        moved[i], moved[j] = moved.get(j, j + 2), moved.get(i, i + 2)
    stream.draw_counter += used
    return tuple(sorted(moved[i] for i in range(count)))


@dataclass
class RegretLedger:
    """Outcome of one run: totals plus counting diagnostics."""

    total_regret: float
    swaps: int
    mistakes: int
    sub_eras: int
    rounds: int


def run_rwab(
    stream: RngStream,
    horizon: int,
    mu1: float,
    mu2: float,
    change_times: Sequence[int],
    accounting: str = "mean_gap",
) -> RegretLedger:
    """Play rounds 1..horizon from the arm means mu1, mu2; totals and bookkeeping.

    The means swap at each of the distinct change_times in [2, horizon],
    as sample_change_times draws them; the rwab config reader checks the
    horizon and the means.  The number of changes L = len(change_times)
    sets the challenge probability sqrt(L/T) and the swap threshold
    sqrt(T/L), so at least one change is required.  accounting is one of
    ACCOUNTING_MODES.

    Every draw reads one words() iterator: an arm pays 1 when a word falls
    below bounds[arm] = below(mu[arm]), as a next_uniform() draw would fall
    below mu[arm].  A challenge sums its charges into the round's regret
    before the total takes it, the order the pinned sums were made in.
    """
    ell = len(change_times)
    p = math.sqrt(ell / horizon)
    s_threshold = math.sqrt(horizon / ell)
    change_set = frozenset(change_times)

    mu = [mu1, mu2]
    bounds = [below(mu1), below(mu2)]
    challenge = below(p)
    a_plus, a_minus = 0, 1
    total = 0.0
    swaps = mistakes = 0
    sub_eras = 0
    # A sub-era starts at round 1, at each change time and after each swap;
    # only then can the ranking of a+ and the plain-round gap change.
    fresh = True
    realized = accounting == "realized"
    draw = stream.words().__next__
    used = horizon  # words: one challenge test per round, plus the pulls below

    for clock in range(1, horizon + 1):
        if clock in change_set:
            mu[0], mu[1] = mu[1], mu[0]
            bounds[0], bounds[1] = bounds[1], bounds[0]
            fresh = True
        if fresh:
            sub_eras += 1
            misranked = mu[a_plus] < mu[a_minus]
            gap = mu[a_minus] - mu[a_plus]
            fresh = False
        if draw() < challenge:
            # pull both arms until the difference walk S leaves (-s, 1):
            # S >= 1 keeps a+, S <= -s swaps; the means stay fixed meanwhile
            w_plus, w_minus = bounds[a_plus], bounds[a_minus]
            s_val = 0.0
            round_regret = 0.0
            while -s_threshold < s_val < 1.0:
                r_plus = 1.0 if draw() < w_plus else 0.0
                r_minus = 1.0 if draw() < w_minus else 0.0
                s_val += r_plus - r_minus
                used += 2
                if misranked:
                    # the better arm's realized draw is r_minus, already in hand
                    round_regret += (r_minus - r_plus) if realized else gap
            if s_val <= -s_threshold:
                swaps += 1
                # no change can land mid-challenge, so a swap that starts
                # from the better arm is always a mistake
                if not misranked:
                    mistakes += 1
                a_plus, a_minus = a_minus, a_plus
                fresh = True
        elif misranked:
            if realized:
                r_plus = 1.0 if draw() < bounds[a_plus] else 0.0
                r_best = 1.0 if draw() < bounds[a_minus] else 0.0
                round_regret = r_best - r_plus
                used += 2
            else:
                round_regret = gap
        else:
            if realized:
                draw()  # the pull itself
                used += 1
            round_regret = 0.0
        total += round_regret
    stream.draw_counter += used

    return RegretLedger(
        total_regret=total,
        swaps=swaps,
        mistakes=mistakes,
        sub_eras=sub_eras,
        rounds=horizon,
    )

