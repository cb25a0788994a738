"""Recorded runs, their hitting times, and the files a run writes.

A Trajectory is what a kernel returns for the sampled path of a scalar
potential, one value per step starting at step 0.  A run keeps only its
values, and everything downstream of the kernels takes those.  A
HittingTimeSample is the one-number summary a simulator hands to the
statistics layer: when the run first reached its target, or that it was
cut off at the cap.

Each artifact's name and text format is stated here once, its reader
beside its writer: samples.csv and the trajectory CSVs, which driftlab
analyze reads back, report.json and histogram.csv.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from driftlab.errors import FormatError

T = TypeVar("T")


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


def narrowest_int_array(values: Sequence[int], codes: str = "bhiq") -> array:
    """The ints values as an array of the first typecode in codes whose
    signed range holds their min and max.

    Each narrower typecode is tried in turn, and its constructor stops at
    the first value out of its range; a path that leaves a range early
    costs about one conversion, where finding min and max would cost two
    more passes.  A value outside the last typecode's range is an
    OverflowError, as its array constructor raises.
    """
    *narrower, widest = codes
    for code in narrower:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array(widest, values)


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
# The artifacts.  Floats are written in shortest round-trip form (Python's
# str), and a trajectory's ints in decimal, so identical data always
# produces identical bytes.

#: the files a run writes at the top of its output directory, and the
#: directory of its trajectory files, one TRAJECTORY_FILE % run_id each
SAMPLES_FILE = "samples.csv"
REPORT_FILE = "report.json"
HISTOGRAM_FILE = "histogram.csv"
ARTIFACT_FILES = (SAMPLES_FILE, REPORT_FILE, HISTOGRAM_FILE)
TRAJECTORY_DIR = "trajectories"
TRAJECTORY_FILE = "run_%05d.csv"


def is_trajectory_file(name: str) -> bool:
    """Whether name is TRAJECTORY_FILE % run_id for a run_id >= 0, of any length."""
    head, tail = TRAJECTORY_FILE.split("%05d")
    digits = name.removeprefix(head).removesuffix(tail)
    return digits.isdecimal() and TRAJECTORY_FILE % int(digits) == name


#: leading samples.csv columns of a stopping time, and of a scalar that is
#: never censored (a bandit's total regret), which has no censored flag;
#: and the trajectory CSV's header
SAMPLE_COLUMNS = ("run_id", "seed", "stopping_time", "censored")
REGRET_COLUMNS = ("run_id", "seed", "total_regret")
TRAJECTORY_HEADER = "step,value"

#: a bool cell's text (the censored flag, a diagnostic column), False's first
BOOL_TEXT = ("false", "true")


def format_value(v) -> str:
    if isinstance(v, bool):
        return BOOL_TEXT[v]
    return str(v)


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
    lines = [",".join([*lead, *extra_header])]
    extras = list(extra_rows)
    for i, s in enumerate(samples):
        row = [s.run_id, s.seed_used, s.stopping_time, s.censored][: len(lead)]
        if extras:
            row.extend(extras[i])
        lines.append(",".join(map(format_value, row)))
    return "\n".join(lines) + "\n"


class ValueTexts(dict):
    """value -> "%d\n" % value, each formatted the first time it is looked up."""

    def __missing__(self, value: int) -> str:
        self[value] = text = "%d\n" % value
        return text


#: a run's trajectory CSV texts: a row list that holds "%d," % t at each
#: even index 2t below twice the longest trajectory's length, and the
#: ValueTexts of the values written so far
CsvPieces = tuple[list, ValueTexts]


def trajectory_csv_pieces(trajectories: Sequence[Sequence[int]]) -> CsvPieces:
    """The texts every trajectory_to_csv of one run joins, each formatted once.

    The row list holds one step text per row index of the longest
    trajectory, made here from the trajectories' lengths alone; the value
    texts start empty and gain one text per distinct value as the files
    are written.  So a run writing many files converts each index and each
    state to text once, not once per file.  The caller keeps them only
    while it writes the run's files.  No trajectories give no pieces.
    """
    rows = [""] * (2 * max(map(len, trajectories), default=0))
    rows[::2] = map("%d,".__mod__, range(len(rows) // 2))
    return rows, ValueTexts()


def trajectory_to_csv(values: Sequence[int], pieces: CsvPieces) -> str:
    """Render one int trajectory as CSV text with header TRAJECTORY_HEADER.

    One row per step, its index and its value in decimal: a copy of the
    row list's first 2 * len(values) slots, the value texts in its odd
    slots, joined.  pieces is what trajectory_csv_pieces built from
    trajectories including this one.
    """
    rows, texts = pieces
    rows = rows[: 2 * len(values)]
    rows[1::2] = map(texts.__getitem__, values)
    return f"{TRAJECTORY_HEADER}\n" + "".join(rows)


def write_text(path: str, text: str) -> None:
    """Write text with fixed newline handling so bytes never vary by platform."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def report_to_json(report: dict) -> str:
    """report.json's text: strict JSON, so a non-finite number is a ValueError.

    Float and int keys are written as repr and str write them, as in the
    CSVs.  Only when the one dump fails are the sections dumped one by one,
    so the error names the first that holds a non-finite number (an
    overflowed drift moment, say); nothing is written.
    """
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        for name, section in report.items():
            try:
                json.dumps(section, allow_nan=False)
            except ValueError:
                raise ValueError(
                    f"report.json: {name} holds a non-finite number, "
                    "which strict JSON cannot write"
                ) from None
        raise


def histogram_to_csv(hist) -> str:
    """histogram.csv's text: one row per bin of analysis.histogram_export's Histogram."""
    rows = zip(hist.edges, hist.edges[1:], hist.counts, hist.densities)
    return "bin_left,bin_right,count,density\n" + "".join(map("%s,%s,%s,%s\n".__mod__, rows))


def is_finite(value: int | float) -> bool:
    """False for NaN, the infinities and integers too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_scalar(text: str, name: str, line: int) -> int | float:
    """An int or float cell that is_finite accepts, or a FormatError."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise FormatError(f"bad {name} {text!r}", line=line) from None
    if not is_finite(value):
        raise FormatError(f"{name} must be a finite number, got {text!r}", line=line)
    return value


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each nonblank line of text, the header first;
    a blank line is counted, so an error names its file's line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line:
            yield lineno, line.split(",")


def read_samples_csv(text: str) -> list[HittingTimeSample]:
    """Parse a samples CSV back into memory, ignoring diagnostic columns.

    The first line is the header, which starts with SAMPLE_COLUMNS or
    REGRET_COLUMNS; regret rows have no censored flag and are never
    censored.  Every value is finite (the rule the config reader applies);
    a stopping time is nonnegative, a regret may be negative.  run_ids are
    nonnegative and distinct.
    """
    if not text:
        raise FormatError("empty samples file", line=1)
    rows = _rows(text)
    first, header = next(rows, (1, []))
    leads = (SAMPLE_COLUMNS, REGRET_COLUMNS)
    lead = next((lead for lead in leads if tuple(header[: len(lead)]) == lead), None)
    if lead is None or first != 1:
        expected = " or ".join(",".join(lead) for lead in leads)
        raise FormatError(f"header must start with {expected}", line=1)
    width = len(lead)
    samples = []
    seen = set()
    for lineno, cells in rows:
        if len(cells) < width:
            raise FormatError(f"row has fewer than {width} columns", line=lineno)
        flag = cells[3] if lead is SAMPLE_COLUMNS else BOOL_TEXT[False]
        if flag not in BOOL_TEXT:
            raise FormatError(f"bad censored flag {flag!r}", line=lineno)
        try:
            run_id, seed = int(cells[0]), int(cells[1])
        except ValueError:
            raise FormatError("run_id and seed must be integers", line=lineno) from None
        if run_id < 0:
            raise FormatError(f"negative run_id {cells[0]!r}", line=lineno)
        if run_id in seen:
            raise FormatError(f"repeated run_id {run_id}", line=lineno)
        seen.add(run_id)
        value = _parse_scalar(cells[2], lead[2], lineno)
        if value < 0 and lead is SAMPLE_COLUMNS:
            raise FormatError(f"negative stopping_time {cells[2]!r}", line=lineno)
        samples.append(HittingTimeSample(run_id, value, flag == BOOL_TEXT[True], seed))
    if not samples:
        raise FormatError("no sample rows", line=2)
    return samples


# every ASCII byte but the comma and the line breaks str.splitlines knows,
# for read_trajectory_csv's row check; the bytes kept are those and every
# byte of a non-ASCII character
_NOT_COMMA_OR_BREAK = bytes(b for b in range(128) if b not in b",\n\r\x0b\x0c\x1c\x1d\x1e")


class TextValues(dict):
    """text -> int(text), each parsed the first time it is looked up.

    The reader's mirror of ValueTexts; a text that int() rejects raises its
    ValueError and is not stored.
    """

    def __missing__(self, text: str) -> int:
        self[text] = value = int(text)
        return value


def read_trajectory_csv(text: str, ints: TextValues | None = None) -> array | list[float]:
    """A step,value CSV's values; blank lines are skipped, the step column unread.

    Every value must be a finite number, as in samples.csv.  Text that is
    the header and rows of one comma each, every line ending in a newline,
    is parsed with one split; any other text, and any with a bad value, is
    read row by row, which raises the FormatError of the first bad row.

    Where every value cell of the split is an integer text that int()
    reads, and the values fit typecode "i", they are returned as an array
    of the first typecode in "bhi" that holds them: the form a run holds
    them in, which the tally counts in packed windows.  ints maps each
    value text to its int; analyze_files passes one for all the files it
    reads, so each distinct text is parsed once (a call without one parses
    into its own).  Every such value is at most 2**31 in magnitude, so it
    equals the float() of its text, with one difference that neither ==
    nor a report can tell: "-0" reads as 0, not -0.0.  Any other values, those with a
    fractional, exponent or out-of-range cell, are returned as a list of
    floats.
    """
    head = f"{TRAJECTORY_HEADER}\n"
    if text.startswith(head) and text.endswith("\n"):
        body = text[len(head):]
        # one comma per row: the commas and the newlines alternate, and no
        # other line break or non-ASCII character (surrogatepass lets any
        # str encode) is left to make splitlines see other rows
        marks = body.encode("utf-8", "surrogatepass").translate(None, _NOT_COMMA_OR_BREAK)
        if marks and marks == b",\n" * (len(marks) // 2):
            cells = body.replace("\n", ",").split(",")[1::2]
            parse = (TextValues() if ints is None else ints).__getitem__
            try:
                return narrowest_int_array(list(map(parse, cells)), "bhi")
            except (ValueError, OverflowError):
                pass  # a cell int() rejects, or a value past typecode "i"
            try:
                values = list(map(float, cells))
            except ValueError:
                pass  # a bad value: the row walk names its row
            else:
                if math.isfinite(sum(values)):  # else NaN, an infinity or an overflow
                    return values
    rows = _rows(text)
    if next(rows, (1, None))[1] != TRAJECTORY_HEADER.split(","):
        raise FormatError(f"trajectory header must be {TRAJECTORY_HEADER}", line=1)
    values = []
    for lineno, cells in rows:
        if len(cells) != 2:
            raise FormatError("trajectory row must have two columns", line=lineno)
        try:
            value = float(cells[1])
        except ValueError:
            raise FormatError(f"bad value {cells[1]!r}", line=lineno) from None
        if not math.isfinite(value):
            raise FormatError(f"value must be a finite number, got {cells[1]!r}", line=lineno)
        values.append(value)
    if not values:
        raise FormatError("trajectory has no rows", line=2)
    return values


def read_file(path: str, parse: Callable[..., T], *args) -> T:
    """parse(text, *args) of the text of the file at path, every FormatError
    naming path.

    A file that does not decode is a FormatError with no line; one that
    parse rejects keeps parse's line.
    """
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(str(exc), path=path) from None
    try:
        return parse(text, *args)
    except FormatError as exc:
        raise FormatError(exc.reason, exc.line, path) from None


def trajectory_paths(directory: str) -> list[str]:
    """The path of each CSV file in directory, in name order."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    return [os.path.join(directory, name) for name in names]
