"""Synthetic walks with known hitting-time laws.

Three integer walks whose moments are chosen to sit exactly on the
hypotheses of the bound families in :mod:`driftlab.bounds`, so simulated
tails can be compared against theory with no modelling slack:

* fair walk on {0..b}, absorbed at both ends (zero drift, unit steps);
* biased walk, up-probability p_up > 1/2, reflecting at 0 (a visit to 0
  forces the next step up), absorbed at b;
* lazy zero-drift walk: +-1 each with probability delta/2, else hold;
  at the ceiling b only a down-move (probability delta) or a hold is
  possible; absorbed at 0.

Each simulator consumes one raw word per step (none on forced moves)
from the stream's ``words()`` iterator and tests it against an integer
bound from ``below``, so a step makes the same move a ``next_uniform()``
draw would; it sets ``draw_counter`` once, past the last word used.  It
reports a HittingTimeSample plus, on request, the full trajectory.
Parameters are taken as given: the config reader in
:mod:`driftlab.experiment` checks b, x0, the rate and the cap once.
"""

from __future__ import annotations

from driftlab.rng import RngStream, below
from driftlab.trajectory import HittingTimeSample, Trajectory


def _finish(stream, t, censored, values):
    # run_id 0: the experiment runner stamps each replication's own id
    sample = HittingTimeSample(
        run_id=0, stopping_time=t, censored=censored, seed_used=stream.stream_id
    )
    return sample, None if values is None else Trajectory(values=values)


def simulate_fair_walk(
    stream: RngStream, b: int, x0: int, cap: int, record: bool = False
) -> tuple[HittingTimeSample, Trajectory | None]:
    """Unit-step zero-drift walk absorbed at 0 and b."""
    x, t = x0, 0
    values = [x] if record else None
    if 0 < x < b and cap > 0:
        up = below(0.5)
        for t, w in zip(range(1, cap + 1), stream.words()):
            x += 1 if w < up else -1
            if record:
                values.append(x)
            if not 0 < x < b:
                break
        stream.draw_counter += t
    return _finish(stream, t, 0 < x < b, values)


def simulate_biased_walk(
    stream: RngStream, b: int, x0: int, p_up: float, cap: int, record: bool = False
) -> tuple[HittingTimeSample, Trajectory | None]:
    """Upward-drifting walk, reflecting at 0, stopped on reaching b.

    p_up must exceed 1/2 so the additive drift 2*p_up - 1 is positive.  A
    step from 0 is forced upward and consumes no randomness; the steps
    between visits to 0 run over one words() iterator, as the fair walk's do.
    """
    x, t = x0, 0
    values = [x] if record else None
    up = below(p_up)
    forced = 0
    words = stream.words()
    while x < b and t < cap:
        if not x:
            x = 1
            t += 1
            forced += 1
            if record:
                values.append(x)
        else:
            # one excursion above 0, a word a step, until it reaches b or 0
            for t, w in zip(range(t + 1, cap + 1), words):
                x += 1 if w < up else -1
                if record:
                    values.append(x)
                if not 0 < x < b:
                    break
    stream.draw_counter += t - forced
    return _finish(stream, t, x < b, values)


def simulate_lazy_walk(
    stream: RngStream, b: int, x0: int, delta: float, cap: int, record: bool = False
) -> tuple[HittingTimeSample, Trajectory | None]:
    """Zero-drift holding walk on {0..b}, absorbed at 0.

    Interior states move +-1 with probability delta/2 each and hold
    otherwise; at b the up-move is folded into the hold, so the chain
    keeps per-step second moment delta everywhere.  delta = 1 is the fair
    walk with one absorbing end.
    """
    x, t = x0, 0
    values = [x] if record else None
    if x > 0 and cap > 0:
        half, move = below(delta / 2.0), below(delta)
        for t, w in zip(range(1, cap + 1), stream.words()):
            if x == b:
                if w < move:
                    x -= 1
            elif w < half:
                x -= 1
            elif w < move:
                x += 1
            if record:
                values.append(x)
            if not x:
                break
        stream.draw_counter += t
    return _finish(stream, t, x > 0, values)

