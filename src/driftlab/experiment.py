"""Configuration-driven experiment runner.

One JSON config fully determines one experiment: which simulator, how many
replications, the master seed, and what analysis to run on the collected
stopping times.  Replication i always uses stream_id = i under the config's
master seed, so results are reproducible run-to-run and independent of the
worker count; outputs are written once, in run_id order, after every
replication has finished.

Artifacts per experiment: ``samples.csv`` (one row per replication),
``report.json`` (summary, optional tail comparison, optional drift
sections), optional per-run trajectory CSVs, and an optional histogram CSV.
Their names and text formats, written and read, are driftlab.trajectory's.
They are written into a partial directory that then replaces output_dir
whole, so output_dir holds one complete run's artifacts.
"""

from __future__ import annotations

import math
import os
import shutil
from array import array
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cache
from types import UnionType
from typing import Iterable, Sequence, Union, get_args, get_origin, get_type_hints

from driftlab.analysis import (
    DEFAULT_CONFIDENCE,
    compare_bound,
    estimate_drift,
    fit_step_tail,
    histogram_export,
    summary_table,
    tally_transitions,
)
from driftlab.bilinear import PAYOFFS, BilinearParams, run_forgetting, run_until_opt
from driftlab.bounds import BoundSpec
from driftlab.errors import ConfigError, cut, shown
from driftlab.recolour import (
    generate_3colorable,
    random_colouring,
    run_recolour,
    seek_monochromatic_triangle,
)
from driftlab.rng import RngStream
from driftlab.rwab import ACCOUNTING_MODES, check_challenges_end, run_rwab, sample_change_times
from driftlab.sat2 import generate_planted, random_assignment, run_walk, satisfies
from driftlab.trajectory import (
    ARTIFACT_FILES,
    HISTOGRAM_FILE,
    REGRET_COLUMNS,
    REPORT_FILE,
    SAMPLE_COLUMNS,
    SAMPLES_FILE,
    TRAJECTORY_DIR,
    TRAJECTORY_FILE,
    HittingTimeSample,
    TextValues,
    histogram_to_csv,
    is_finite,
    is_trajectory_file,
    narrowest_int_array,
    read_file,
    read_samples_csv,
    read_trajectory_csv,
    report_to_json,
    samples_to_csv,
    trajectory_csv_pieces,
    trajectory_paths,
    trajectory_to_csv,
    write_text,
)
from driftlab.walks import simulate_biased_walk, simulate_fair_walk, simulate_lazy_walk

DEFAULT_K_LIST = (1.0, 2.0)

#: the most bins a histogram may have: histogram_export holds three lists
#: of about that length, so 10**11 bins exhaust memory and 10**22 overflow
MAX_HISTOGRAM_BINS = 10**6


def finite_number(value, where: str) -> float:
    """A JSON number as a finite float, or a ConfigError naming where.

    A number that is_finite rejects is an error here: a run configured
    with one reports results that mean nothing.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {shown(value)}")
    if not is_finite(value):
        raise ConfigError(f"{where}: expected a finite number")
    return float(value)


def number_list(value, where: str, positive: bool = False) -> tuple[float, ...]:
    """A JSON list of finite numbers, each > 0 if positive, else >= 0."""
    what = "positive" if positive else "nonnegative"
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of {what} numbers")
    numbers = tuple(finite_number(v, where) for v in value)
    if not all(v > 0 if positive else v >= 0 for v in numbers):
        raise ConfigError(f"{where}: expected a list of {what} numbers")
    return numbers


_EXPECTED = {bool: "a boolean", int: "an integer", str: "a string"}


@cache
def _field_specs(cls) -> dict:
    """name: (type, required, metadata positive); X | None is X, tuple[...] tuple."""
    hints = get_type_hints(cls)
    specs = {}
    for f in fields(cls):
        if not f.init:
            continue  # derived in __post_init__, not read
        typ = hints[f.name]
        if get_origin(typ) in (Union, UnionType):
            typ = next(arg for arg in get_args(typ) if arg is not type(None))
        required = f.default is MISSING and f.default_factory is MISSING
        specs[f.name] = (get_origin(typ) or typ, required, f.metadata.get("positive", False))
    return specs


def _read(typ, value, where: str, positive: bool):
    if typ in _EXPECTED:
        # bool is an int subclass; a config saying true where a count
        # belongs is a mistake worth naming
        if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
            raise ConfigError(f"{where}: expected {_EXPECTED[typ]}, got {shown(value)}")
        return value
    if typ is float:
        return finite_number(value, where)
    if typ is tuple:
        return number_list(value, where, positive)
    if typ is object:  # a JSON value that its class reads itself
        return value
    return from_json(typ, value, where)  # a nested dataclass


def from_json(cls, obj, where: str):
    """Read the JSON object obj into the frozen dataclass cls, naming where.

    obj's keys must be init fields of cls.  A field with a default may be
    omitted or null; each value is read as its annotation says, a nested
    dataclass by this function.  The instance's check(where) runs last, when
    cls has one; a ValueError from it or the constructor is named by where.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {shown(obj)}")
    specs = _field_specs(cls)
    extra = sorted(set(obj).difference(specs))
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {cut(', '.join(extra))}")
    values = {}
    for name, (typ, required, positive) in specs.items():
        if not required and obj.get(name) is None:
            continue  # null, like an omitted key, is the default
        if name not in obj:
            raise ConfigError(f"{where}.{name}: required field is missing")
        values[name] = _read(typ, obj[name], f"{where}.{name}", positive)
    try:
        made = cls(**values)
        if hasattr(made, "check"):
            made.check(where)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return made


@dataclass(frozen=True)
class AnalysisBlock:
    """What to compute from the collected samples.

    k_list drives the summary (mean plus Fr(T <= k * mean)); tau_grid plus
    bound drives the tail comparison; histogram_bins, when set, adds a
    histogram CSV.  Drift sections appear whenever trajectories exist.
    """

    k_list: tuple[float, ...] = field(default=DEFAULT_K_LIST, metadata={"positive": True})
    tau_grid: tuple[float, ...] = ()
    confidence: float = DEFAULT_CONFIDENCE
    bound: BoundSpec | None = None
    histogram_bins: int | None = None

    @classmethod
    def from_dict(cls, obj: dict) -> "AnalysisBlock":
        return from_json(cls, obj, "analysis")

    def check(self, where: str) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"{where}.confidence: must lie strictly between 0 and 1")
        if self.tau_grid and self.bound is None:
            raise ConfigError(f"{where}.bound: required whenever tau_grid is given")
        if self.histogram_bins is not None and self.histogram_bins < 1:
            raise ConfigError(f"{where}.histogram_bins: must be positive")
        if self.histogram_bins is not None and self.histogram_bins > MAX_HISTOGRAM_BINS:
            raise ConfigError(f"{where}.histogram_bins: must be at most {MAX_HISTOGRAM_BINS}")


@dataclass(frozen=True)
class BoundTable:
    """The spec of ``driftlab bounds``: one bound evaluated over tau_grid."""

    bound: BoundSpec
    tau_grid: tuple[float, ...]

    def check(self, where: str) -> None:
        if not self.tau_grid:
            raise ConfigError(f"{where}.tau_grid: expected a nonempty list")


# ---------------------------------------------------------------------------
# The experiment kinds, which KINDS maps by name.  A kind is a frozen
# dataclass whose init fields are exactly the keys its params accept; a
# derived init=False field is not a key.  Its check, or its constructor,
# states each range rule on them once; the simulators below take the params
# as given and check nothing again.  Its simulate runs one replication from
# (stream, cap, record) and returns the scalar (a stopping time or a total
# regret), the censored flag, the values of its extra samples.csv columns
# and the kernel's Trajectory or None.  Simulators are called through this
# module's globals, so rebinding one of those names reaches every call.


#: the largest walk ceiling b: every state up to it is a float that the
#: trajectory reader reads back exactly, and a signed 64-bit int
MAX_WALK_B = 2**53

#: the most steps a config may ask for: runs times each run's cap (or its
#: kind's default cap).  The largest acceptance config asks for 10**10
#: (10**4 walks with cap 10**6); at the kernels' 10**6 to 10**7 steps a
#: second, 10**11 is hours to a day.  runs is at most MAX_HELD, so runs
#: with cap 0 stay far below it too.
MAX_STEPS = 10**11

#: the most entries a run holds at once: its samples, one per run, or
#: one instance's variables, clauses, vertex pairs or vector entries.
#: Each takes tens to hundreds of bytes, so 10**7 of them take at most a
#: few GB.
MAX_HELD = 10**7


def check_held(where: str, count: int) -> None:
    """A ConfigError naming where when its count is above MAX_HELD."""
    if count > MAX_HELD:
        raise ConfigError(f"{where}: must be at most 10**7 = {MAX_HELD}")


class Params:
    """The defaults a kind inherits.

    samples.csv starts with lead and ends with columns; records says whether
    trajectories can be recorded.  default_cap() gives the cap when the
    config sets none; default_cap is None only for a kind whose config must
    set cap.
    """

    lead = SAMPLE_COLUMNS
    columns = ()
    records = True
    default_cap = None


@dataclass(frozen=True)
class Walk(Params):
    b: int
    x0: int

    def check(self, where: str) -> None:
        if self.b > MAX_WALK_B:
            raise ConfigError(f"{where}.b: must be at most 2**53 = {MAX_WALK_B}")
        if self.b < 1 or not 0 <= self.x0 <= self.b:
            raise ConfigError(f"{where}: need b >= 1 and 0 <= x0 <= b")

    def simulate(self, stream, cap, record):
        sample, traj = self.walk(stream, cap, record)
        return sample.stopping_time, sample.censored, (), traj


@dataclass(frozen=True)
class FairWalk(Walk):
    def walk(self, stream, cap, record):
        return simulate_fair_walk(stream, self.b, self.x0, cap, record=record)


@dataclass(frozen=True)
class BiasedWalk(Walk):
    p_up: float

    def check(self, where: str) -> None:
        super().check(where)
        if not 0.5 < self.p_up <= 1.0:
            raise ConfigError(f"{where}.p_up: must lie in (0.5, 1]")

    def walk(self, stream, cap, record):
        return simulate_biased_walk(stream, self.b, self.x0, self.p_up, cap, record=record)


@dataclass(frozen=True)
class LazyWalk(Walk):
    delta: float

    def check(self, where: str) -> None:
        super().check(where)
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"{where}.delta: must lie in (0, 1]")

    def walk(self, stream, cap, record):
        return simulate_lazy_walk(stream, self.b, self.x0, self.delta, cap, record=record)


@dataclass(frozen=True)
class Sat2(Params):
    n: int
    m: int
    columns = ("satisfied",)

    def check(self, where: str) -> None:
        if self.n < 2:
            raise ConfigError(f"{where}.n: must be at least 2")
        if self.m < 1:
            raise ConfigError(f"{where}.m: must be at least 1")
        check_held(f"{where}.n", self.n)
        check_held(f"{where}.m", self.m)

    def simulate(self, stream, cap, record):
        clauses, witness = generate_planted(stream, self.n, self.m)
        init = random_assignment(stream, self.n)
        result = run_walk(clauses, init, stream, cap, reference=witness if record else None)
        satisfied = satisfies(clauses, result.assignment)
        return result.iterations, result.censored, (satisfied,), result.trajectory


@dataclass(frozen=True)
class Recolour(Params):
    n: int
    edge_prob: float
    columns = ("triangle_free",)

    def check(self, where: str) -> None:
        if self.n < 3:
            raise ConfigError(f"{where}.n: must be at least 3")
        # the generator examines every cross-class pair; the masks hold n**2 bits
        if self.n * (self.n - 1) // 2 > MAX_HELD:
            raise ConfigError(
                f"{where}.n: n * (n - 1) / 2 vertex pairs must be at most 10**7 = {MAX_HELD}"
            )
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ConfigError(f"{where}.edge_prob: must lie in [0, 1]")

    def simulate(self, stream, cap, record):
        adj = generate_3colorable(stream, self.n, self.edge_prob)
        init = random_colouring(stream, self.n)
        result = run_recolour(adj, init, stream, cap, record=record)
        triangle_free = seek_monochromatic_triangle(adj, result.colouring) is None
        return result.iterations, result.censored, (triangle_free,), result.trajectory


@dataclass(frozen=True)
class Bilinear(BilinearParams, Params):
    """The kind is its own problem, which search() passes to its run loop once."""

    columns = ("quadrant_at_end",)

    def check(self, where: str) -> None:
        check_held(f"{where}.n", self.n)

    def simulate(self, stream, cap, record):
        result = self.search(stream, cap, record)
        return result.iterations, result.censored, (result.quadrant_at_end,), result.trajectory


@dataclass(frozen=True)
class Rlspd(Bilinear):
    payoff: str = "plain"

    def check(self, where: str) -> None:
        super().check(where)
        if self.payoff not in PAYOFFS:
            raise ConfigError(f"{where}.payoff: choose from {', '.join(PAYOFFS)}")

    def default_cap(self) -> int:
        return int(20 * self.n * math.sqrt(self.n))

    def search(self, stream, cap, record):
        return run_until_opt(self, stream, cap, record=record, payoff=self.payoff)


@dataclass(frozen=True)
class Forgetting(Bilinear):
    A: float
    B: float

    def check(self, where: str) -> None:
        super().check(where)
        if self.A <= 0 or self.B <= 0:
            raise ConfigError(f"{where}: A and B must be positive")

    def default_cap(self) -> int:
        return 100 * self.n

    def search(self, stream, cap, record):
        threshold = (self.A + self.B) * math.sqrt(self.n)
        return run_forgetting(self, stream, threshold, cap, record=record)


@dataclass(frozen=True)
class Rwab(Params):
    """A bandit run plays every round to its horizon, which is its default
    cap; simulate ignores the cap.  Its scalar is a regret, which is never
    censored, and it records no trajectory."""

    horizon: int
    changes: int
    mu1: float
    mu2: float
    accounting: str = "mean_gap"
    lead = REGRET_COLUMNS
    columns = ("swaps", "mistakes", "sub_eras")
    records = False

    def check(self, where: str) -> None:
        if self.horizon < 2:
            raise ConfigError(f"{where}.horizon: must be at least 2")
        if not 1 <= self.changes < self.horizon - 1:
            raise ConfigError(f"{where}.changes: must lie in [1, horizon - 2]")
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not 0.0 <= mu <= 1.0:
                raise ConfigError(f"{where}.{name}: must lie in [0, 1]")
        check_challenges_end(self.horizon, self.mu1, self.mu2)
        if self.accounting not in ACCOUNTING_MODES:
            raise ConfigError(f"{where}.accounting: choose from {', '.join(ACCOUNTING_MODES)}")

    def default_cap(self) -> int:
        return self.horizon

    def simulate(self, stream, cap, record):
        times = sample_change_times(stream, self.horizon, self.changes)
        ledger = run_rwab(stream, self.horizon, self.mu1, self.mu2, times, self.accounting)
        return ledger.total_regret, False, (ledger.swaps, ledger.mistakes, ledger.sub_eras), None


KINDS = {
    "sat2": Sat2,
    "recolour": Recolour,
    "rlspd": Rlspd,
    "rlspd_forgetting": Forgetting,
    "rwab": Rwab,
    "synthetic_fair": FairWalk,
    "synthetic_biased": BiasedWalk,
    "synthetic_lazy": LazyWalk,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  from_json leaves params and analysis as the JSON
    values given; from_dict reads them as KINDS[kind] and as the analysis
    block under its own name, as driftlab analyze reads it from a file."""

    kind: str
    runs: int
    master_seed: int
    output_dir: str
    cap: int | None = None
    record_trajectories: bool = False
    workers: int = 1
    params: object = field(default_factory=dict)
    analysis: object = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        config = from_json(cls, obj, "config")
        analysis = AnalysisBlock.from_dict(config.analysis)
        params = from_json(KINDS[config.kind], config.params, "config.params")
        if config.cap is None and params.default_cap is None:
            raise ConfigError("config.cap: required for this kind")
        if config.record_trajectories and not params.records:
            raise ConfigError(f"config.record_trajectories: {config.kind} records no trajectories")
        cap = params.default_cap() if config.cap is None else config.cap
        if cap > MAX_STEPS:  # a default one: check() bounds a cap that is set
            raise ConfigError(
                f"config.cap: the default cap of these params, {cap} steps, "
                f"is above 10**11 = {MAX_STEPS}; set a smaller cap"
            )
        if config.runs * cap > MAX_STEPS:
            raise ConfigError(f"config.runs: runs x cap must be at most 10**11 = {MAX_STEPS} steps")
        return replace(config, params=params, analysis=analysis)

    def check(self, where: str) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"{where}.kind: unknown kind {shown(self.kind)}; choose from {', '.join(KINDS)}"
            )
        if self.runs < 1:
            raise ConfigError(f"{where}.runs: must be at least 1")
        check_held(f"{where}.runs", self.runs)
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"{where}.master_seed: must fit in 64 unsigned bits")
        if not self.output_dir:
            raise ConfigError(f"{where}.output_dir: must name a directory")
        if self.cap is not None and self.cap < 0:
            raise ConfigError(f"{where}.cap: must be nonnegative")
        if self.cap is not None and self.cap > MAX_STEPS:
            raise ConfigError(f"{where}.cap: must be at most 10**11 = {MAX_STEPS}")
        if self.workers < 1:
            raise ConfigError(f"{where}.workers: must be at least 1")


# ---------------------------------------------------------------------------
# One replication.  Module-level so worker processes can pickle the call;
# every replication builds its own stream from (master_seed, run_id) and
# touches no shared state.


@dataclass
class Replication:
    """One run's sample, extra columns and recorded values (or None)."""

    sample: HittingTimeSample
    extra: tuple
    trajectory: array | None


def run_replication(config: ExperimentConfig, run_id: int) -> Replication:
    stream = RngStream(master_seed=config.master_seed, stream_id=run_id)
    params = config.params
    cap = config.cap if config.cap is not None else params.default_cap()
    scalar, censored, extra, traj = params.simulate(stream, cap, config.record_trajectories)
    # 1 to 8 bytes a value with no int object behind it, held until
    # run_experiment returns; every recorded value is an int within 2**63
    # (a walk's within MAX_WALK_B, any other kind's within 2n)
    values = None if traj is None else narrowest_int_array(traj.values)
    sample = HittingTimeSample(
        run_id=run_id, stopping_time=scalar, censored=censored, seed_used=run_id
    )
    return Replication(sample=sample, extra=extra, trajectory=values)


def _run_replication_star(args) -> Replication:
    return run_replication(*args)


def collect(config: ExperimentConfig) -> list[Replication]:
    """Execute all replications, in parallel if configured, in run_id order.

    The pool has min(workers, runs, cpu_count) processes, since a fork pool
    starts all of them at its first submit; at one, the runs are serial, and
    the pool machinery (multiprocessing, socket, subprocess) is not imported.
    """
    ids = range(config.runs)
    workers = min(config.workers, config.runs, os.cpu_count() or 1)
    if workers == 1:
        return [run_replication(config, i) for i in ids]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, config.runs // (workers * 8))
        return list(
            pool.map(_run_replication_star, [(config, i) for i in ids], chunksize=chunk)
        )


# ---------------------------------------------------------------------------
# Reports.


def build_report(
    samples: Sequence[HittingTimeSample],
    block: AnalysisBlock,
    trajectories: Iterable[Sequence[float]] = (),
) -> dict:
    """Assemble the analysis JSON document as a plain dict.

    After the two counts come four sections, each the asdict of what its
    analysis returns (fields in declaration order) or None: summary_table
    when every sample is censored, tail_report unless the block carries a
    grid and a bound, the drift sections unless the trajectories hold a
    transition, and step_tail_fit also when every envelope on its grid
    overflows.

    Each trajectory is its sequence of values.  They are read once, in one
    tally that both drift sections are computed from, and may come from a
    lazy iterator.
    """
    summary = summary_table(samples, block.k_list)
    tail = None
    if block.tau_grid:
        tail = compare_bound(samples, block.bound, block.tau_grid, block.confidence)
    pairs = tally_transitions(trajectories)
    drift = step = None
    if pairs:
        drift, step = estimate_drift(pairs), fit_step_tail(pairs)
    return {
        "sample_count": len(samples),
        "censored_count": sum(1 for s in samples if s.censored),
        "summary_table": _section(summary),
        "tail_report": _section(tail),
        "drift_estimate": _section(drift),
        "step_tail_fit": _section(step),
    }


def _section(result) -> dict | None:
    return None if result is None else asdict(result)


def write_report(
    samples: Sequence[HittingTimeSample],
    block: AnalysisBlock,
    trajectories: Iterable[Sequence[float]],
    path: str,
) -> bool:
    """Write build_report's report to path; True when its tail check is violated."""
    report = build_report(samples, block, trajectories)
    write_text(path, report_to_json(report))
    return bool(report["tail_report"] and report["tail_report"]["violated"])


@dataclass(frozen=True)
class ExperimentArtifacts:
    samples_path: str
    report_path: str
    histogram_path: str | None
    trajectory_dir: str | None
    violated: bool


def _foreign_path(out: str) -> str | None:
    """The first path under out, in name order, that no run writes; None
    when out does not exist or holds only a run's artifacts.

    out itself is foreign when it is not a directory, or is a symlink.
    """
    if not os.path.lexists(out):
        return None
    if os.path.islink(out) or not os.path.isdir(out):
        return out
    for entry in sorted(os.scandir(out), key=lambda e: e.name):
        if entry.name == TRAJECTORY_DIR and entry.is_dir(follow_symlinks=False):
            for run in sorted(os.scandir(entry.path), key=lambda e: e.name):
                if not (is_trajectory_file(run.name) and run.is_file(follow_symlinks=False)):
                    return run.path
        elif not (entry.name in ARTIFACT_FILES and entry.is_file(follow_symlinks=False)):
            return entry.path
    return None


def _move_into_place(partial: str, out: str) -> None:
    """Rename the complete directory partial to out, replacing an old out.

    The old out is renamed aside first and deleted last, so out always
    holds one run's artifacts in full; if partial cannot be renamed in,
    the old out is renamed back.
    """
    if not os.path.lexists(out):
        os.rename(partial, out)
        return
    aside = f"{out}.old-{os.getpid()}"
    os.rename(out, aside)
    try:
        os.rename(partial, out)
    except BaseException:
        os.rename(aside, out)
        raise
    shutil.rmtree(aside)


def run_experiment(config: ExperimentConfig) -> ExperimentArtifacts:
    """Simulate, analyse, and write every artifact for one config.

    The artifacts are written into the sibling directory
    <output_dir>.partial-<pid> and then moved into place whole, replacing
    an output_dir that holds only a run's artifacts.  An output_dir holding
    anything else is a ConfigError raised before any run is simulated; a
    run that fails leaves output_dir as it was and no partial directory.
    """
    out = os.path.abspath(config.output_dir)
    foreign = _foreign_path(out)
    if foreign is not None:
        raise ConfigError(
            f"config.output_dir: {foreign} is not an artifact of a run; "
            "move it or choose another directory"
        )
    replications = collect(config)
    samples = [r.sample for r in replications]
    extras = [r.extra for r in replications]
    trajectories = [r.trajectory for r in replications if r.trajectory is not None]

    partial = f"{out}.partial-{os.getpid()}"
    os.makedirs(partial)  # not exist_ok: a leftover is no one's to write into or delete
    params = config.params
    try:
        text = samples_to_csv(samples, params.columns, extras, lead=params.lead)
        write_text(os.path.join(partial, SAMPLES_FILE), text)
        pieces = trajectory_csv_pieces(trajectories)
        for r in replications:
            if r.trajectory is not None:  # recorded
                path = os.path.join(partial, TRAJECTORY_DIR, TRAJECTORY_FILE % r.sample.run_id)
                write_text(path, trajectory_to_csv(r.trajectory, pieces))
        del pieces
        report_path = os.path.join(partial, REPORT_FILE)
        violated = write_report(samples, config.analysis, trajectories, report_path)
        bins = config.analysis.histogram_bins
        histogram = None if bins is None else histogram_export(samples, bins)
        if histogram is not None:  # else no sample finished, and nothing is binned
            write_text(os.path.join(partial, HISTOGRAM_FILE), histogram_to_csv(histogram))
        _move_into_place(partial, out)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise

    def final(name: str) -> str:
        return os.path.join(config.output_dir, name)

    return ExperimentArtifacts(
        samples_path=final(SAMPLES_FILE),
        report_path=final(REPORT_FILE),
        histogram_path=final(HISTOGRAM_FILE) if histogram is not None else None,
        trajectory_dir=final(TRAJECTORY_DIR) if config.record_trajectories else None,
        violated=violated,
    )


# ---------------------------------------------------------------------------
# Re-analysis of stored samples.


def analyze_files(
    samples_path: str,
    block: AnalysisBlock,
    trajectory_dir: str | None = None,
    report_path: str | None = None,
) -> ExperimentArtifacts:
    """Recompute the analysis JSON from stored samples, as run_experiment does.

    Returns the same ExperimentArtifacts, with histogram_path None: only the
    report is written.  The trajectory files are read lazily, in name
    order, as build_report tallies them, so one file is in memory at a
    time.  One TextValues serves every file, so a file of integer texts
    reads back as an int array with each distinct text parsed once per
    call.  A bad file raises its FormatError, naming the file and its
    line, before any report is written.
    """
    samples = read_file(samples_path, read_samples_csv)
    trajectories: Iterable[Sequence[float]] = ()
    if trajectory_dir is not None:
        paths = trajectory_paths(trajectory_dir)
        ints = TextValues()  # one for every file: each distinct text is parsed once
        trajectories = (read_file(path, read_trajectory_csv, ints) for path in paths)
    if report_path is None:
        report_path = os.path.join(os.path.dirname(samples_path) or ".", REPORT_FILE)
    return ExperimentArtifacts(
        samples_path=samples_path,
        report_path=report_path,
        histogram_path=None,
        trajectory_dir=trajectory_dir,
        violated=write_report(samples, block, trajectories, report_path),
    )
