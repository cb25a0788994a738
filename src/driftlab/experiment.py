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
"""

from __future__ import annotations

import json
import math
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Iterable, Sequence

from driftlab.analysis import (
    DEFAULT_CONFIDENCE,
    compare_bound,
    estimate_drift,
    fit_step_tail,
    histogram_export,
    summary_table,
    tally_transitions,
)
from driftlab.bilinear import (
    PAYOFFS,
    BilinearParams,
    default_cap,
    run_forgetting,
    run_until_opt,
)
from driftlab.bounds import BoundSpec
from driftlab.errors import ConfigError, EmptySampleError, FormatError
from driftlab.recolour import (
    generate_3colorable,
    random_colouring,
    run_recolour,
    seek_monochromatic_triangle,
)
from driftlab.rng import RngStream
from driftlab.rwab import (
    ACCOUNTING_MODES,
    BanditEnv,
    check_challenges_end,
    run_rwab,
    sample_change_times,
)
from driftlab.sat2 import generate_planted, random_assignment, run_walk, satisfies
from driftlab.trajectory import (
    REGRET_COLUMNS,
    SAMPLE_COLUMNS,
    HittingTimeSample,
    Trajectory,
    format_value,
    samples_to_csv,
    trajectory_to_csv,
    write_text,
)
from driftlab.walks import simulate_biased_walk, simulate_fair_walk, simulate_lazy_walk

DEFAULT_K_LIST = (1.0, 2.0)


def is_finite(value: int | float) -> bool:
    """False for NaN, the infinities and integers too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite_number(value, where: str) -> float:
    """A JSON number as a finite float, or a ConfigError naming where.

    A number that is_finite rejects is an error here: a run configured
    with one reports results that mean nothing.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
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


def _need(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: required field is missing")
    value = obj[key]
    if kinds is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected a boolean, got {value!r}")
    elif kinds is int:
        # bool is an int subclass; a config saying true where a count belongs
        # is a mistake worth naming
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    elif kinds is float:
        value = finite_number(value, f"{where}.{key}")
    elif kinds is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def _given(obj: dict, key: str, default):
    """obj[key], or default when the key is omitted or null."""
    value = obj.get(key)
    return default if value is None else value


def _optional(obj: dict, key: str, kinds, where: str, default):
    if key not in obj or obj[key] is None:
        return default
    return _need(obj, key, kinds, where)


def _reject_unknown(obj: dict, allowed, where: str):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(extra)}")


@dataclass(frozen=True)
class AnalysisBlock:
    """What to compute from the collected samples.

    k_list drives the summary (mean plus Fr(T <= k * mean)); tau_grid plus
    bound drives the tail comparison; histogram_bins, when set, adds a
    histogram CSV.  Drift sections appear whenever trajectories exist.
    """

    k_list: tuple[float, ...] = DEFAULT_K_LIST
    tau_grid: tuple[float, ...] = ()
    confidence: float = DEFAULT_CONFIDENCE
    bound: BoundSpec | None = None
    histogram_bins: int | None = None

    @classmethod
    def from_dict(cls, obj: dict, where: str = "analysis") -> "AnalysisBlock":
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object, got {obj!r}")
        _reject_unknown(obj, {f.name for f in fields(cls)}, where)
        k_list = number_list(
            _given(obj, "k_list", list(DEFAULT_K_LIST)), f"{where}.k_list", positive=True
        )
        tau_grid = number_list(_given(obj, "tau_grid", []), f"{where}.tau_grid")
        confidence = _optional(obj, "confidence", float, where, DEFAULT_CONFIDENCE)
        if not 0.0 < confidence < 1.0:
            raise ConfigError(f"{where}.confidence: must lie strictly between 0 and 1")
        bound = None
        if obj.get("bound") is not None:
            bound = parse_bound_spec(obj["bound"], where=f"{where}.bound")
        if tau_grid and bound is None:
            raise ConfigError(f"{where}.bound: required whenever tau_grid is given")
        bins = _optional(obj, "histogram_bins", int, where, None)
        if bins is not None and bins < 1:
            raise ConfigError(f"{where}.histogram_bins: must be positive")
        return cls(
            k_list=k_list,
            tau_grid=tau_grid,
            confidence=confidence,
            bound=bound,
            histogram_bins=bins,
        )


def parse_bound_spec(obj: dict, where: str = "bound") -> BoundSpec:
    """Build a BoundSpec from a JSON object, naming the offending field."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    _reject_unknown(obj, {f.name for f in fields(BoundSpec)}, where)
    kind = _need(obj, "kind", str, where)
    kwargs = {"kind": kind}
    for key in ("b", "x0", "delta", "epsilon", "ell", "c"):
        if obj.get(key) is not None:
            kwargs[key] = _need(obj, key, float, where)
    if obj.get("n") is not None:
        kwargs["n"] = _need(obj, "n", int, where)
    try:
        return BoundSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# The experiment kinds.  A kind's check raises ConfigError (or a ValueError
# from a domain constructor) for a bad params block.  Its simulate function
# runs one replication from (params, stream, cap, record) and returns the
# scalar (a stopping time or a total regret), the censored flag, the values
# of its extra samples.csv columns and the trajectory or None.  Simulators
# are called through this module's globals, so rebinding one of those names
# reaches every call.


#: the largest walk ceiling b: every state up to it is a float that the
#: trajectory reader reads back exactly, and a signed 64-bit int
MAX_WALK_B = 2**53


def _check_walk(p: dict, where: str, rate: str | None = None, low: float = 0.0) -> None:
    """1 <= b <= MAX_WALK_B and 0 <= x0 <= b, plus the named rate in (low, 1]."""
    b = _need(p, "b", int, where)
    x0 = _need(p, "x0", int, where)
    if b > MAX_WALK_B:
        raise ConfigError(f"{where}.b: must be at most 2**53 = {MAX_WALK_B}")
    if b < 1 or not 0 <= x0 <= b:
        raise ConfigError(f"{where}: need b >= 1 and 0 <= x0 <= b")
    if rate is not None and not low < _need(p, rate, float, where) <= 1.0:
        raise ConfigError(f"{where}.{rate}: must lie in ({low:g}, 1]")
    _reject_unknown(p, {"b", "x0"} if rate is None else {"b", "x0", rate}, where)


def _walk(sample_and_trajectory) -> tuple:
    sample, traj = sample_and_trajectory
    return sample.stopping_time, sample.censored, (), traj


def _simulate_fair(p, stream, cap, record):
    return _walk(simulate_fair_walk(stream, p["b"], p["x0"], cap, record=record))


def _simulate_biased(p, stream, cap, record):
    walk = simulate_biased_walk(stream, p["b"], p["x0"], p["p_up"], cap, record=record)
    return _walk(walk)


def _simulate_lazy(p, stream, cap, record):
    walk = simulate_lazy_walk(stream, p["b"], p["x0"], p["delta"], cap, record=record)
    return _walk(walk)


def _check_sat2(p: dict, where: str) -> None:
    _reject_unknown(p, {"n", "m"}, where)
    n = _need(p, "n", int, where)
    m = _need(p, "m", int, where)
    if n < 2:
        raise ConfigError(f"{where}.n: must be at least 2")
    if m < 1:
        raise ConfigError(f"{where}.m: must be at least 1")


def _simulate_sat2(p, stream, cap, record):
    instance = generate_planted(stream, p["n"], p["m"])
    init = random_assignment(stream, p["n"])
    reference = instance.witness if record else None
    result = run_walk(instance.formula, init, stream, cap, reference=reference)
    satisfied = satisfies(instance.formula, result.assignment)
    return result.iterations, result.censored, (satisfied,), result.trajectory


def _check_recolour(p: dict, where: str) -> None:
    _reject_unknown(p, {"n", "edge_prob"}, where)
    n = _need(p, "n", int, where)
    edge_prob = _need(p, "edge_prob", float, where)
    if n < 3:
        raise ConfigError(f"{where}.n: must be at least 3")
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError(f"{where}.edge_prob: must lie in [0, 1]")


def _simulate_recolour(p, stream, cap, record):
    graph = generate_3colorable(stream, p["n"], p["edge_prob"])
    init = random_colouring(stream, p["n"])
    result = run_recolour(graph, init, stream, cap, record=record)
    triangle_free = seek_monochromatic_triangle(graph, result.colouring) is None
    return result.iterations, result.censored, (triangle_free,), result.trajectory


def _bilinear(p: dict) -> BilinearParams:
    return BilinearParams(p["n"], p["alpha"], p["beta"])


def _check_bilinear(p: dict, where: str, others: set) -> None:
    _reject_unknown(p, {"n", "alpha", "beta"} | others, where)
    BilinearParams(
        _need(p, "n", int, where),
        _need(p, "alpha", float, where),
        _need(p, "beta", float, where),
    )


def _check_rlspd(p: dict, where: str) -> None:
    _check_bilinear(p, where, {"payoff"})
    if _optional(p, "payoff", str, where, "plain") not in PAYOFFS:
        raise ConfigError(f"{where}.payoff: choose from {', '.join(PAYOFFS)}")


def _simulate_rlspd(p, stream, cap, record):
    # null, like an omitted key, is the default (see _optional)
    payoff = p.get("payoff") or "plain"
    result = run_until_opt(_bilinear(p), stream, cap, record=record, payoff=payoff)
    return result.iterations, result.censored, (result.quadrant_at_end,), result.trajectory


def _check_forgetting(p: dict, where: str) -> None:
    _check_bilinear(p, where, {"A", "B"})
    a = _need(p, "A", float, where)
    b = _need(p, "B", float, where)
    if a <= 0 or b <= 0:
        raise ConfigError(f"{where}: A and B must be positive")


def _simulate_forgetting(p, stream, cap, record):
    threshold = (p["A"] + p["B"]) * math.sqrt(p["n"])
    result = run_forgetting(_bilinear(p), stream, threshold, cap, record=record)
    return result.iterations, result.censored, (result.quadrant_at_end,), result.trajectory


def _check_rwab(p: dict, where: str) -> None:
    _reject_unknown(p, {"horizon", "mu1", "mu2", "changes", "accounting"}, where)
    horizon = _need(p, "horizon", int, where)
    changes = _need(p, "changes", int, where)
    mu1 = _need(p, "mu1", float, where)
    mu2 = _need(p, "mu2", float, where)
    if horizon < 2:
        raise ConfigError(f"{where}.horizon: must be at least 2")
    if not 1 <= changes < horizon - 1:
        raise ConfigError(f"{where}.changes: must lie in [1, horizon - 2]")
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not 0.0 <= mu <= 1.0:
            raise ConfigError(f"{where}.{name}: must lie in [0, 1]")
    check_challenges_end(horizon, mu1, mu2)
    if _optional(p, "accounting", str, where, "mean_gap") not in ACCOUNTING_MODES:
        raise ConfigError(f"{where}.accounting: choose from {', '.join(ACCOUNTING_MODES)}")


def _simulate_rwab(p, stream, cap, record):
    times = sample_change_times(stream, p["horizon"], p["changes"])
    env = BanditEnv(horizon=p["horizon"], mu1=p["mu1"], mu2=p["mu2"], change_times=times)
    ledger = run_rwab(env, stream, accounting=p.get("accounting") or "mean_gap")
    return ledger.total_regret, False, (ledger.swaps, ledger.mistakes, ledger.sub_eras), None


@dataclass(frozen=True)
class Kind:
    """One experiment kind: params check, cap, simulator and CSV columns.

    default_cap gives the cap from the params when the config sets none;
    None means the config must set one.  samples.csv starts with lead and
    ends with columns.  records says whether trajectories can be recorded.
    """

    check: Callable[[dict, str], None]
    default_cap: Callable[[dict], int | None] | None
    simulate: Callable[[dict, RngStream, int, bool], tuple]
    columns: tuple[str, ...] = ()
    lead: tuple[str, ...] = SAMPLE_COLUMNS
    records: bool = True


KINDS = {
    "sat2": Kind(_check_sat2, None, _simulate_sat2, ("satisfied",)),
    "recolour": Kind(_check_recolour, None, _simulate_recolour, ("triangle_free",)),
    "rlspd": Kind(
        _check_rlspd,
        lambda p: default_cap(_bilinear(p)),
        _simulate_rlspd,
        ("quadrant_at_end",),
    ),
    "rlspd_forgetting": Kind(
        _check_forgetting, lambda p: 100 * p["n"], _simulate_forgetting, ("quadrant_at_end",)
    ),
    # a bandit run ends at its horizon, so it takes no cap; its scalar is a
    # regret, which is never censored, and it records no trajectory
    "rwab": Kind(
        _check_rwab,
        lambda p: None,
        _simulate_rwab,
        ("swaps", "mistakes", "sub_eras"),
        lead=REGRET_COLUMNS,
        records=False,
    ),
    "synthetic_fair": Kind(_check_walk, None, _simulate_fair),
    "synthetic_biased": Kind(partial(_check_walk, rate="p_up", low=0.5), None, _simulate_biased),
    "synthetic_lazy": Kind(partial(_check_walk, rate="delta"), None, _simulate_lazy),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    runs: int
    master_seed: int
    output_dir: str
    cap: int | None = None
    record_trajectories: bool = False
    workers: int = 1
    analysis: AnalysisBlock = field(default_factory=AnalysisBlock)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"config: expected an object, got {obj!r}")
        _reject_unknown(obj, {f.name for f in fields(cls)}, "config")
        kind = _need(obj, "kind", str, "config")
        if kind not in KINDS:
            raise ConfigError(
                f"config.kind: unknown kind {kind!r}; choose from {', '.join(KINDS)}"
            )
        runs = _need(obj, "runs", int, "config")
        if runs < 1:
            raise ConfigError("config.runs: must be at least 1")
        master_seed = _need(obj, "master_seed", int, "config")
        if not 0 <= master_seed < 2**64:
            raise ConfigError("config.master_seed: must fit in 64 unsigned bits")
        output_dir = _need(obj, "output_dir", str, "config")
        cap = _optional(obj, "cap", int, "config", None)
        if cap is not None and cap < 0:
            raise ConfigError("config.cap: must be nonnegative")
        record = _optional(obj, "record_trajectories", bool, "config", False)
        workers = _optional(obj, "workers", int, "config", 1)
        if workers < 1:
            raise ConfigError("config.workers: must be at least 1")
        params = _given(obj, "params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"config.params: expected an object, got {params!r}")
        analysis = AnalysisBlock.from_dict(_given(obj, "analysis", {}))
        entry = KINDS[kind]
        try:
            entry.check(params, "config.params")
        except ConfigError:
            raise
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"config.params: {exc}") from exc
        if cap is None and entry.default_cap is None:
            raise ConfigError("config.cap: required for this kind")
        if record and not entry.records:
            raise ConfigError(f"config.record_trajectories: {kind} records no trajectories")
        return cls(
            kind=kind,
            # a null param is the default, as for every optional field
            params={k: v for k, v in params.items() if v is not None},
            runs=runs,
            master_seed=master_seed,
            output_dir=output_dir,
            cap=cap,
            record_trajectories=record,
            workers=workers,
            analysis=analysis,
        )


# ---------------------------------------------------------------------------
# One replication.  Module-level so worker processes can pickle the call;
# every replication builds its own stream from (master_seed, run_id) and
# touches no shared state.


@dataclass
class Replication:
    sample: HittingTimeSample
    extra: tuple
    trajectory: Trajectory | None


def run_replication(config: ExperimentConfig, run_id: int) -> Replication:
    stream = RngStream(master_seed=config.master_seed, stream_id=run_id)
    kind = KINDS[config.kind]
    cap = config.cap if config.cap is not None else kind.default_cap(config.params)
    scalar, censored, extra, traj = kind.simulate(
        config.params, stream, cap, config.record_trajectories
    )
    if traj is not None:
        # 8 bytes a value with no int object behind it, held until
        # run_experiment returns; every recorded value is an int within
        # 2**63 (a walk's within MAX_WALK_B, any other kind's within 2n)
        traj.values = array("q", traj.values)
    sample = HittingTimeSample(
        run_id=run_id, stopping_time=scalar, censored=censored, seed_used=run_id
    )
    return Replication(sample=sample, extra=extra, trajectory=traj)


def _run_replication_star(args) -> Replication:
    return run_replication(*args)


def collect(config: ExperimentConfig) -> list[Replication]:
    """Execute all replications, in parallel if configured, in run_id order.

    The pool has min(workers, runs, cpu_count) processes, since a fork pool
    starts all of them at its first submit; at one, the runs are serial.
    """
    ids = range(config.runs)
    workers = min(config.workers, config.runs, os.cpu_count() or 1)
    if workers == 1:
        return [run_replication(config, i) for i in ids]
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
    trajectories: Iterable[Trajectory] = (),
) -> dict:
    """Assemble the analysis JSON document as a plain dict.

    After the two counts come four sections, each the asdict of its
    analysis dataclass (fields in declaration order) or None: summary_table
    when every sample is censored, tail_report unless the block carries a
    grid and a bound, the drift sections unless the trajectories hold a
    transition, and step_tail_fit also when every envelope on its grid
    overflows.  json.dumps writes the float keys of freq_at_multiples and
    the int keys of per_state_mean as repr and str do, as the CSVs do.

    The trajectories are read once, in one tally that both drift sections
    are computed from; they may be a lazy iterator.
    """
    report: dict = {
        "sample_count": len(samples),
        "censored_count": sum(1 for s in samples if s.censored),
        "summary_table": None,
        "tail_report": None,
        "drift_estimate": None,
        "step_tail_fit": None,
    }
    try:
        report["summary_table"] = asdict(summary_table(samples, block.k_list))
    except EmptySampleError:
        pass  # every sample censored: no mean
    if block.tau_grid:
        tail = compare_bound(samples, block.bound, block.tau_grid, block.confidence)
        report["tail_report"] = asdict(tail)
    pairs = tally_transitions(trajectories)
    try:
        report["drift_estimate"] = asdict(estimate_drift(pairs))
    except EmptySampleError:
        return report  # no trajectories, or not one transition among them
    step = fit_step_tail(pairs)
    if step is not None:  # None: every envelope on the grid overflows
        report["step_tail_fit"] = asdict(step)
    return report


def report_to_json(report: dict) -> str:
    """report.json's text: strict JSON, so a non-finite number is a ValueError.

    The error names the first section that holds one (an overflowed drift
    moment, say), and nothing is written.
    """
    for name, section in report.items():
        try:
            json.dumps(section, allow_nan=False)
        except ValueError:
            raise ValueError(
                f"report.json: {name} holds a non-finite number, "
                "which strict JSON cannot write"
            ) from None
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def histogram_to_csv(samples: Sequence[HittingTimeSample], bins: int) -> str:
    hist = histogram_export(samples, bins)
    lines = ["bin_left,bin_right,count,density"]
    for i, count in enumerate(hist.counts):
        lines.append(
            f"{format_value(hist.edges[i])},{format_value(hist.edges[i + 1])},"
            f"{count},{format_value(hist.densities[i])}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentArtifacts:
    samples_path: str
    report_path: str
    histogram_path: str | None
    trajectory_dir: str | None
    violated: bool


def run_experiment(config: ExperimentConfig) -> ExperimentArtifacts:
    """Simulate, analyse, and write every artifact for one config."""
    replications = collect(config)
    samples = [r.sample for r in replications]
    extras = [r.extra for r in replications]
    trajectories = [r.trajectory for r in replications if r.trajectory is not None]

    out = config.output_dir
    samples_path = os.path.join(out, "samples.csv")
    kind = KINDS[config.kind]
    write_text(samples_path, samples_to_csv(samples, kind.columns, extras, lead=kind.lead))

    trajectory_dir = None
    if config.record_trajectories:
        trajectory_dir = os.path.join(out, "trajectories")
        for r in replications:
            if r.trajectory is None:
                continue
            write_text(
                os.path.join(trajectory_dir, f"run_{r.sample.run_id:05d}.csv"),
                trajectory_to_csv(r.trajectory),
            )

    report = build_report(samples, config.analysis, trajectories)
    report_path = os.path.join(out, "report.json")
    write_text(report_path, report_to_json(report))

    histogram_path = None
    if config.analysis.histogram_bins is not None:
        try:
            text = histogram_to_csv(samples, config.analysis.histogram_bins)
        except EmptySampleError:
            text = None  # every run censored: nothing to bin
        if text is not None:
            histogram_path = os.path.join(out, "histogram.csv")
            write_text(histogram_path, text)

    violated = bool(report["tail_report"] and report["tail_report"]["violated"])
    return ExperimentArtifacts(
        samples_path=samples_path,
        report_path=report_path,
        histogram_path=histogram_path,
        trajectory_dir=trajectory_dir,
        violated=violated,
    )


# ---------------------------------------------------------------------------
# Re-analysis of stored samples.


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


def read_samples_csv(text: str) -> list[HittingTimeSample]:
    """Parse a samples CSV back into memory, ignoring diagnostic columns.

    The header starts with SAMPLE_COLUMNS or REGRET_COLUMNS; regret rows
    have no censored flag and are never censored.  Every value is finite
    (the rule finite_number applies to configs); a stopping time is
    nonnegative, a regret may be negative.  run_ids are nonnegative and
    distinct.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty samples file", line=1)
    header = tuple(lines[0].split(","))
    leads = (SAMPLE_COLUMNS, REGRET_COLUMNS)
    lead = next((lead for lead in leads if header[: len(lead)] == lead), None)
    if lead is None:
        raise FormatError(
            "header must start with " + " or ".join(",".join(lead) for lead in leads),
            line=1,
        )
    width = len(lead)
    samples = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        cells = raw.split(",")
        if len(cells) < width:
            raise FormatError(f"row has fewer than {width} columns", line=lineno)
        flag = cells[3] if lead is SAMPLE_COLUMNS else "false"
        if flag not in ("true", "false"):
            raise FormatError(f"bad censored flag {flag!r}", line=lineno)
        try:
            run_id = int(cells[0])
            seed = int(cells[1])
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
        samples.append(
            HittingTimeSample(
                run_id=run_id,
                stopping_time=value,
                censored=flag == "true",
                seed_used=seed,
            )
        )
    if not samples:
        raise FormatError("no sample rows", line=2)
    return samples


_TRAJECTORY_HEADER = "step,value\n"

# every ASCII byte but the comma and the line breaks str.splitlines knows,
# for read_trajectory_csv's row check; the bytes kept are those and every
# byte of a non-ASCII character
_NOT_COMMA_OR_BREAK = bytes(b for b in range(128) if b not in b",\n\r\x0b\x0c\x1c\x1d\x1e")


def read_trajectory_csv(text: str) -> Trajectory:
    """Parse a step,value CSV; blank lines are skipped, the step column unread.

    Every value must be a finite number, as in samples.csv.  Text that is
    the header and rows of one comma each, every line ending in a newline,
    is parsed with one split; any other text, and any with a bad value, is
    scanned row by row, which raises the FormatError of the first bad row.
    """
    if text.startswith(_TRAJECTORY_HEADER) and text.endswith("\n"):
        body = text[len(_TRAJECTORY_HEADER):]
        # one comma per row: the commas and the newlines alternate, and no
        # other line break or non-ASCII character (surrogatepass lets any
        # str encode) is left to make splitlines see other rows
        marks = body.encode("utf-8", "surrogatepass").translate(None, _NOT_COMMA_OR_BREAK)
        if marks and marks == b",\n" * (len(marks) // 2):
            try:
                values = list(map(float, body.replace("\n", ",").split(",")[1::2]))
            except ValueError:
                pass  # a bad value: the scan names its row
            else:
                if math.isfinite(sum(values)):  # else NaN, an infinity or an overflow
                    return Trajectory(values=values)
    return Trajectory(values=_scan_trajectory_rows(text))


def _scan_trajectory_rows(text: str) -> list[float]:
    lines = list(filter(None, text.splitlines()))
    if not lines or lines[0] != "step,value":
        raise FormatError("trajectory header must be step,value", line=1)
    if len(lines) == 1:
        raise FormatError("trajectory has no rows", line=2)
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.split(",")
        if len(cells) != 2:
            raise FormatError("trajectory row must have two columns", line=lineno)
        try:
            value = float(cells[1])
        except ValueError:
            raise FormatError(f"bad value {cells[1]!r}", line=lineno) from None
        if not math.isfinite(value):
            raise FormatError(f"value must be a finite number, got {cells[1]!r}", line=lineno)
        values.append(value)
    return values


def _read_trajectory_file(path: str) -> Trajectory:
    with open(path, "r") as fh:
        return read_trajectory_csv(fh.read())


def analyze_files(
    samples_path: str,
    block: AnalysisBlock,
    trajectory_dir: str | None = None,
    report_path: str | None = None,
) -> str:
    """Recompute the analysis JSON from stored samples; returns report path.

    The trajectory files are read lazily, in name order, as build_report
    tallies them, so one file is in memory at a time.  A bad file raises
    its FormatError before any report is written.
    """
    with open(samples_path, "r") as fh:
        samples = read_samples_csv(fh.read())
    trajectories: Iterable[Trajectory] = ()
    if trajectory_dir is not None:
        names = sorted(n for n in os.listdir(trajectory_dir) if n.endswith(".csv"))
        paths = (os.path.join(trajectory_dir, n) for n in names)
        trajectories = map(_read_trajectory_file, paths)
    report = build_report(samples, block, trajectories)
    if report_path is None:
        report_path = os.path.join(os.path.dirname(samples_path) or ".", "report.json")
    write_text(report_path, report_to_json(report))
    return report_path
