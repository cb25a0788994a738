"""Recorded runs and their hitting times.

A Trajectory is what a kernel returns for the sampled path of a scalar
potential, one value per step starting at step 0.  A run keeps only its
values, and everything downstream of the kernels takes those.  A
HittingTimeSample is the one-number summary a simulator hands to the
statistics layer: when the run first reached its target, or that it was
cut off at the cap.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass
class Trajectory:
    """What a kernel returns; a run keeps its values.

    values[t] is the potential after t steps, a list of ints that holds at
    least the starting value.  run_replication keeps them as
    narrowest_int_array's array, so a stored value costs 1 to 8 bytes.
    Whether the run was censored is its HittingTimeSample's flag; a
    censored run records cap + 1 values (steps 0..cap).
    """

    values: list[int]


def narrowest_int_array(values: Sequence[int]) -> array:
    """The ints values as an array of the first typecode in "bhiq" whose
    signed range holds their min and max.

    Each narrower typecode is tried in turn, and its constructor stops at
    the first value out of its range; a path that leaves a range early
    costs about one conversion, where finding min and max would cost two
    more passes.  A value outside the signed 64-bit range is an
    OverflowError, as array("q") raises.
    """
    for code in "bhi":
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array("q", values)


@dataclass(frozen=True)
class HittingTimeSample:
    """Scalar outcome of one replication, usually a stopping time.

    censored means the run was cut off: stopping_time then equals the cap
    and the true hitting time is only known to be at least that large.
    The bandit experiment reuses the slot for its total regret (a float,
    never censored, negative when the realized rewards beat the means);
    everything downstream only needs an ordered scalar.  run_id >= 0 holds
    by construction, and read_samples_csv rejects a negative one.
    """

    run_id: int
    stopping_time: float
    censored: bool
    seed_used: int


# ---------------------------------------------------------------------------
# CSV export.  Floats are written in shortest round-trip form (Python's str),
# so identical data always produces identical bytes.


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


#: leading samples.csv columns of a stopping time, and of a scalar that is
#: never censored (a bandit's total regret), which has no censored flag
SAMPLE_COLUMNS = ("run_id", "seed", "stopping_time", "censored")
REGRET_COLUMNS = ("run_id", "seed", "total_regret")


def samples_to_csv(
    samples: Iterable[HittingTimeSample],
    extra_header: Sequence[str] = (),
    extra_rows: Sequence[Sequence] = (),
    lead: Sequence[str] = SAMPLE_COLUMNS,
) -> str:
    """Render samples as CSV text: the lead columns, then the extra ones.

    lead is SAMPLE_COLUMNS or REGRET_COLUMNS.  extra_header/extra_rows
    append per-run diagnostic columns; extra_rows must be aligned with
    samples by position.
    """
    header = [*lead, *extra_header]
    width = len(lead)
    lines = [",".join(header)]
    extras = list(extra_rows)
    for i, s in enumerate(samples):
        row = [str(s.run_id), str(s.seed_used), str(s.stopping_time),
               format_value(s.censored)][:width]
        if extras:
            row.extend(format_value(v) for v in extras[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


TRAJECTORY_HEADER = "step,value"


def trajectory_to_csv(values: Sequence[float]) -> str:
    """Render one trajectory's values as CSV text with header TRAJECTORY_HEADER.

    Values are numbers, each written with str (floats in shortest
    round-trip form), one row per step.
    """
    return f"{TRAJECTORY_HEADER}\n" + "".join(map("%s,%s\n".__mod__, enumerate(values)))


def write_text(path: str, text: str) -> None:
    """Write text with fixed newline handling so bytes never vary by platform."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
