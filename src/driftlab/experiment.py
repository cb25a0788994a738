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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from driftlab.analysis import (
    DEFAULT_CONFIDENCE,
    compare_bound,
    estimate_drift,
    fit_step_tail,
    histogram_export,
    summary_table,
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
    HittingTimeSample,
    Trajectory,
    format_value,
    samples_to_csv,
    trajectory_to_csv,
    write_text,
)
from driftlab.walks import simulate_biased_walk, simulate_fair_walk, simulate_lazy_walk

KINDS = (
    "sat2",
    "recolour",
    "rlspd",
    "rlspd_forgetting",
    "rwab",
    "synthetic_fair",
    "synthetic_biased",
    "synthetic_lazy",
)

# per-run diagnostic columns appended after run_id,seed,stopping_time,censored;
# rwab has its own fixed schema (see RWAB_HEADER) because its scalar is a
# regret, not a stopping time, and its runs cannot be censored
EXTRA_COLUMNS = {
    "sat2": ("satisfied",),
    "recolour": ("triangle_free",),
    "rlspd": ("quadrant_at_end",),
    "rlspd_forgetting": ("quadrant_at_end",),
    "synthetic_fair": (),
    "synthetic_biased": (),
    "synthetic_lazy": (),
}

RWAB_HEADER = "run_id,seed,total_regret,swaps,mistakes,sub_eras"

_CONFIG_KEYS = {
    "kind",
    "params",
    "runs",
    "master_seed",
    "cap",
    "record_trajectories",
    "output_dir",
    "workers",
    "analysis",
}

_ANALYSIS_KEYS = {"k_list", "tau_grid", "confidence", "bound", "histogram_bins"}

DEFAULT_K_LIST = (1.0, 2.0)


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
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        value = float(value)
    elif kinds is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
    return value


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
        _reject_unknown(obj, _ANALYSIS_KEYS, where)
        k_list = obj.get("k_list", list(DEFAULT_K_LIST))
        if not isinstance(k_list, list) or not all(
            isinstance(k, (int, float)) and not isinstance(k, bool) and k > 0
            for k in k_list
        ):
            raise ConfigError(f"{where}.k_list: expected a list of positive numbers")
        tau_grid = obj.get("tau_grid", [])
        if not isinstance(tau_grid, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) and t >= 0
            for t in tau_grid
        ):
            raise ConfigError(f"{where}.tau_grid: expected a list of nonnegative numbers")
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
            k_list=tuple(float(k) for k in k_list),
            tau_grid=tuple(float(t) for t in tau_grid),
            confidence=confidence,
            bound=bound,
            histogram_bins=bins,
        )


def parse_bound_spec(obj: dict, where: str = "bound") -> BoundSpec:
    """Build a BoundSpec from a JSON object, naming the offending field."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    allowed = {"kind", "b", "x0", "delta", "epsilon", "ell", "c", "n"}
    _reject_unknown(obj, allowed, where)
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
        _reject_unknown(obj, _CONFIG_KEYS, "config")
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
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"config.params: expected an object, got {params!r}")
        analysis = AnalysisBlock.from_dict(obj.get("analysis", {}))
        config = cls(
            kind=kind,
            params=dict(params),
            runs=runs,
            master_seed=master_seed,
            output_dir=output_dir,
            cap=cap,
            record_trajectories=record,
            workers=workers,
            analysis=analysis,
        )
        _validate_params(config)
        return config

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config is not valid JSON: {exc}", line=exc.lineno) from exc
        return cls.from_dict(obj)


def _effective_cap(config: ExperimentConfig) -> int:
    if config.cap is not None:
        return config.cap
    if config.kind == "rlspd":
        p = config.params
        return default_cap(BilinearParams(p["n"], p["alpha"], p["beta"]))
    if config.kind == "rlspd_forgetting":
        return 100 * config.params["n"]
    raise AssertionError("cap resolution for a kind that requires one")


def _validate_params(config: ExperimentConfig) -> None:
    """Check the kind-specific block by building its domain objects early."""
    kind, p = config.kind, config.params
    where = "config.params"
    try:
        if kind in ("synthetic_fair", "synthetic_biased", "synthetic_lazy"):
            allowed = {"b", "x0"}
            b = _need(p, "b", int, where)
            x0 = _need(p, "x0", int, where)
            if b < 1 or not 0 <= x0 <= b:
                raise ConfigError(f"{where}: need b >= 1 and 0 <= x0 <= b")
            if kind == "synthetic_biased":
                allowed.add("p_up")
                p_up = _need(p, "p_up", float, where)
                if not 0.5 < p_up <= 1.0:
                    raise ConfigError(f"{where}.p_up: must lie in (1/2, 1]")
            if kind == "synthetic_lazy":
                allowed.add("delta")
                delta = _need(p, "delta", float, where)
                if not 0.0 < delta <= 1.0:
                    raise ConfigError(f"{where}.delta: must lie in (0, 1]")
            _reject_unknown(p, allowed, where)
        elif kind == "sat2":
            _reject_unknown(p, {"n", "m"}, where)
            n = _need(p, "n", int, where)
            m = _need(p, "m", int, where)
            if n < 2:
                raise ConfigError(f"{where}.n: must be at least 2")
            if m < 1:
                raise ConfigError(f"{where}.m: must be at least 1")
        elif kind == "recolour":
            _reject_unknown(p, {"n", "edge_prob"}, where)
            n = _need(p, "n", int, where)
            edge_prob = _need(p, "edge_prob", float, where)
            if n < 3:
                raise ConfigError(f"{where}.n: must be at least 3")
            if not 0.0 <= edge_prob <= 1.0:
                raise ConfigError(f"{where}.edge_prob: must lie in [0, 1]")
        elif kind == "rlspd":
            _reject_unknown(p, {"n", "alpha", "beta", "payoff"}, where)
            BilinearParams(
                _need(p, "n", int, where),
                _need(p, "alpha", float, where),
                _need(p, "beta", float, where),
            )
            payoff = _optional(p, "payoff", str, where, "plain")
            if payoff not in PAYOFFS:
                raise ConfigError(f"{where}.payoff: choose from {', '.join(PAYOFFS)}")
        elif kind == "rlspd_forgetting":
            _reject_unknown(p, {"n", "alpha", "beta", "A", "B"}, where)
            BilinearParams(
                _need(p, "n", int, where),
                _need(p, "alpha", float, where),
                _need(p, "beta", float, where),
            )
            a = _need(p, "A", float, where)
            b = _need(p, "B", float, where)
            if a <= 0 or b <= 0:
                raise ConfigError(f"{where}: A and B must be positive")
        elif kind == "rwab":
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
            accounting = _optional(p, "accounting", str, where, "mean_gap")
            if accounting not in ACCOUNTING_MODES:
                raise ConfigError(
                    f"{where}.accounting: choose from {', '.join(ACCOUNTING_MODES)}"
                )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    if config.cap is None and kind not in ("rlspd", "rlspd_forgetting", "rwab"):
        raise ConfigError("config.cap: required for this kind")


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
    kind, p = config.kind, config.params
    record = config.record_trajectories
    traj = None
    extra: tuple = ()

    if kind == "synthetic_fair":
        sample, traj = simulate_fair_walk(
            stream, p["b"], p["x0"], _effective_cap(config), record=record, run_id=run_id
        )
    elif kind == "synthetic_biased":
        sample, traj = simulate_biased_walk(
            stream, p["b"], p["x0"], p["p_up"], _effective_cap(config),
            record=record, run_id=run_id,
        )
    elif kind == "synthetic_lazy":
        sample, traj = simulate_lazy_walk(
            stream, p["b"], p["x0"], p["delta"], _effective_cap(config),
            record=record, run_id=run_id,
        )
    elif kind == "sat2":
        instance = generate_planted(stream, p["n"], p["m"])
        init = random_assignment(stream, p["n"])
        result = run_walk(
            instance.formula,
            init,
            stream,
            _effective_cap(config),
            reference=instance.witness if record else None,
        )
        sample = HittingTimeSample(
            run_id=run_id,
            stopping_time=result.iterations,
            censored=result.censored,
            seed_used=run_id,
        )
        extra = (satisfies(instance.formula, result.assignment),)
        traj = result.trajectory
    elif kind == "recolour":
        graph = generate_3colorable(stream, p["n"], p["edge_prob"])
        init = random_colouring(stream, p["n"])
        result = run_recolour(
            graph,
            init,
            stream,
            _effective_cap(config),
            potential_spec=((0, 1), (0, 1)) if record else None,
        )
        sample = HittingTimeSample(
            run_id=run_id,
            stopping_time=result.iterations,
            censored=result.censored,
            seed_used=run_id,
        )
        extra = (seek_monochromatic_triangle(graph, result.colouring) is None,)
        traj = result.trajectory
    elif kind == "rlspd":
        bp = BilinearParams(p["n"], p["alpha"], p["beta"])
        result = run_until_opt(
            bp,
            stream,
            _effective_cap(config),
            record=record,
            payoff=p.get("payoff", "plain"),
        )
        sample = HittingTimeSample(
            run_id=run_id,
            stopping_time=result.iterations,
            censored=result.censored,
            seed_used=run_id,
        )
        extra = (result.quadrant_at_end,)
        traj = result.trajectory
    elif kind == "rlspd_forgetting":
        bp = BilinearParams(p["n"], p["alpha"], p["beta"])
        threshold = (p["A"] + p["B"]) * math.sqrt(bp.n)
        result = run_forgetting(
            bp, stream, threshold, _effective_cap(config), record=record
        )
        sample = HittingTimeSample(
            run_id=run_id,
            stopping_time=result.iterations,
            censored=result.censored,
            seed_used=run_id,
        )
        extra = (result.quadrant_at_end,)
        traj = result.trajectory
    elif kind == "rwab":
        times = sample_change_times(stream, p["horizon"], p["changes"])
        env = BanditEnv(
            horizon=p["horizon"], mu1=p["mu1"], mu2=p["mu2"], change_times=times
        )
        ledger = run_rwab(env, stream, accounting=p.get("accounting", "mean_gap"))
        sample = HittingTimeSample(
            run_id=run_id,
            stopping_time=ledger.total_regret,
            censored=False,
            seed_used=run_id,
        )
        extra = (ledger.swaps, ledger.mistakes, ledger.sub_eras)
    else:  # unreachable after validation
        raise AssertionError(kind)
    return Replication(sample=sample, extra=extra, trajectory=traj)


def _run_replication_star(args) -> Replication:
    return run_replication(*args)


def collect(config: ExperimentConfig) -> list[Replication]:
    """Execute all replications, in parallel if configured, in run_id order."""
    ids = range(config.runs)
    if config.workers <= 1 or config.runs == 1:
        return [run_replication(config, i) for i in ids]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        chunk = max(1, config.runs // (config.workers * 8))
        return list(
            pool.map(_run_replication_star, [(config, i) for i in ids], chunksize=chunk)
        )


# ---------------------------------------------------------------------------
# Reports.


def build_report(
    samples: Sequence[HittingTimeSample],
    block: AnalysisBlock,
    trajectories: Sequence[Trajectory] = (),
) -> dict:
    """Assemble the analysis JSON document as a plain dict.

    summary_table is null when every sample is censored; tail_report only
    appears when the block carries a grid and a bound; the drift sections
    only when the recorded trajectories hold at least one transition.
    """
    report: dict = {
        "sample_count": len(samples),
        "censored_count": sum(1 for s in samples if s.censored),
    }
    try:
        summary = summary_table(samples, block.k_list)
        report["summary_table"] = {
            "mean": summary.mean,
            "freq_at_multiples": {
                format_value(k): v for k, v in summary.freq_at_multiples.items()
            },
            "censored_count": summary.censored_count,
            "sample_count": summary.sample_count,
        }
    except EmptySampleError:
        report["summary_table"] = None
    if block.tau_grid:
        tail = compare_bound(samples, block.bound, block.tau_grid, block.confidence)
        report["tail_report"] = {
            "confidence": tail.confidence,
            "margin": tail.margin,
            "sample_count": tail.sample_count,
            "violated": tail.violated,
            "grid": [
                {
                    "tau": pt.tau,
                    "empirical_survival": pt.empirical_survival,
                    "theoretical_bound": pt.theoretical_bound,
                    "hoeffding_upper": pt.hoeffding_upper,
                    "violated": pt.violated,
                }
                for pt in tail.grid
            ],
        }
    else:
        report["tail_report"] = None
    report["drift_estimate"] = None
    report["step_tail_fit"] = None
    try:
        drift = estimate_drift(trajectories)
        step = fit_step_tail(trajectories)
    except EmptySampleError:
        return report  # no trajectories, or not one transition among them
    report["drift_estimate"] = {
        "mean_drift": drift.mean_drift,
        "second_moment": drift.second_moment,
        "transitions": drift.transitions,
        "per_state_mean": {str(s): v for s, v in drift.per_state_mean.items()},
    }
    report["step_tail_fit"] = {
        "r": step.r,
        "eta": step.eta,
        "max_violation": step.max_violation,
        "range_constant": step.range_constant,
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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
    if config.kind == "rwab":
        lines = [RWAB_HEADER]
        for s, ex in zip(samples, extras):
            lines.append(
                f"{s.run_id},{s.seed_used},{format_value(s.stopping_time)},"
                f"{ex[0]},{ex[1]},{ex[2]}"
            )
        write_text(samples_path, "\n".join(lines) + "\n")
    else:
        write_text(
            samples_path,
            samples_to_csv(samples, EXTRA_COLUMNS[config.kind], extras),
        )

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


def _parse_time(text: str, line: int):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise FormatError(f"bad stopping_time {text!r}", line=line) from None


def read_samples_csv(text: str) -> list[HittingTimeSample]:
    """Parse a samples CSV back into memory, ignoring diagnostic columns.

    Accepts the standard hitting-time schema and the bandit schema (third
    column total_regret, no censored flag; such rows are never censored).
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty samples file", line=1)
    header = lines[0].split(",")
    bandit = header[:3] == ["run_id", "seed", "total_regret"]
    if not bandit and header[:4] != ["run_id", "seed", "stopping_time", "censored"]:
        raise FormatError(
            "header must start with run_id,seed,stopping_time,censored "
            "or run_id,seed,total_regret",
            line=1,
        )
    width = 3 if bandit else 4
    samples = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        cells = raw.split(",")
        if len(cells) < width:
            raise FormatError(f"row has fewer than {width} columns", line=lineno)
        if bandit:
            censored = False
        elif cells[3] in ("true", "false"):
            censored = cells[3] == "true"
        else:
            raise FormatError(f"bad censored flag {cells[3]!r}", line=lineno)
        try:
            run_id = int(cells[0])
            seed = int(cells[1])
        except ValueError:
            raise FormatError("run_id and seed must be integers", line=lineno) from None
        samples.append(
            HittingTimeSample(
                run_id=run_id,
                stopping_time=_parse_time(cells[2], lineno),
                censored=censored,
                seed_used=seed,
            )
        )
    if not samples:
        raise FormatError("no sample rows", line=2)
    return samples


def read_trajectory_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "step,value":
        raise FormatError("trajectory header must be step,value", line=1)
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.split(",")
        if len(cells) != 2:
            raise FormatError("trajectory row must have two columns", line=lineno)
        try:
            values.append(float(cells[1]))
        except ValueError:
            raise FormatError(f"bad value {cells[1]!r}", line=lineno) from None
    if not values:
        raise FormatError("trajectory has no rows", line=2)
    return Trajectory(values=values)


def analyze_files(
    samples_path: str,
    block: AnalysisBlock,
    trajectory_dir: str | None = None,
    report_path: str | None = None,
) -> str:
    """Recompute the analysis JSON from stored samples; returns report path."""
    with open(samples_path, "r") as fh:
        samples = read_samples_csv(fh.read())
    trajectories = []
    if trajectory_dir is not None:
        for name in sorted(os.listdir(trajectory_dir)):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(trajectory_dir, name), "r") as fh:
                trajectories.append(read_trajectory_csv(fh.read()))
    report = build_report(samples, block, trajectories)
    if report_path is None:
        report_path = os.path.join(os.path.dirname(samples_path) or ".", "report.json")
    write_text(report_path, report_to_json(report))
    return report_path
