"""Config-driven runner: parsing, artifacts, re-analysis, and the CLI."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftlab
import driftlab.experiment as experiment
from driftlab.bilinear import PAYOFFS
from driftlab.cli import main
from driftlab.errors import ConfigError, FormatError
from driftlab.experiment import (
    KINDS,
    AnalysisBlock,
    ExperimentConfig,
    analyze_files,
    build_report,
    run_experiment,
)
from driftlab.rng import RngStream
from driftlab.rwab import ACCOUNTING_MODES
from driftlab.trajectory import (
    narrowest_int_array,
    read_samples_csv,
    read_trajectory_csv,
    report_to_json,
)
from oracles import RECORDING


def base_config(tmp_path, **overrides):
    obj = {
        "kind": "synthetic_fair",
        "params": {"b": 4, "x0": 2},
        "runs": 5,
        "master_seed": 11,
        "cap": 10**5,
        "output_dir": str(tmp_path / "out"),
    }
    obj.update(overrides)
    return obj


def test_config_defaults(tmp_path):
    config = ExperimentConfig.from_dict(base_config(tmp_path))
    assert config.workers == 1
    assert not config.record_trajectories
    assert config.analysis.k_list == (1.0, 2.0)
    assert config.analysis.bound is None


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(kind="synthetic_unfair"), "config.kind"),
        (dict(extra_field=1), "unknown field"),
        (dict(runs=0), "config.runs"),
        (dict(runs=True), "config.runs: expected an integer"),
        (dict(master_seed=-1), "config.master_seed"),
        (dict(master_seed=2**64), "config.master_seed"),
        (dict(cap=-1), "config.cap"),
        (dict(workers=0), "config.workers"),
        (dict(params={"b": 4}), "config.params.x0"),
        (dict(params={"b": 4, "x0": 9}), "config.params"),
        (dict(params={"b": 4, "x0": 2, "mystery": 1}), "config.params"),
        (dict(analysis={"k_list": [1.0, -2.0]}), "analysis.k_list"),
        (dict(analysis={"confidence": 1.0}), "analysis.confidence"),
        (dict(analysis={"tau_grid": [10.0]}), "analysis.bound"),
        (dict(analysis={"histogram_bins": 0}), "analysis.histogram_bins"),
        (dict(analysis={"surprise": 1}), "analysis"),
        (
            dict(analysis={"tau_grid": [1.0], "bound": {"kind": "StandardVariance", "b": 0.0}}),
            "analysis.bound",
        ),
        (dict(analysis={"k_list": [math.nan]}), "analysis.k_list"),
        (dict(analysis={"k_list": [math.inf]}), "analysis.k_list"),
        (dict(analysis={"confidence": math.nan}), "analysis.confidence"),
        (dict(analysis={"tau_grid": [math.inf]}), "analysis.tau_grid"),
        (dict(analysis={"tau_grid": [10**400]}), "analysis.tau_grid"),
        (
            dict(
                analysis={
                    "tau_grid": [1.0],
                    "bound": {"kind": "Additive", "b": 1.0, "epsilon": math.nan},
                }
            ),
            "analysis.bound.epsilon",
        ),
        # rwab records no trajectory, so asking for them is a mistake
        (
            dict(
                kind="rwab",
                params={"horizon": 60, "mu1": 0.2, "mu2": 0.8, "changes": 2},
                record_trajectories=True,
            ),
            "config.record_trajectories",
        ),
    ],
)
def test_config_rejections_name_the_field(tmp_path, overrides, fragment):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(base_config(tmp_path, **overrides))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "kind, params, fragment",
    [
        ("synthetic_biased", {"b": 4, "x0": 2, "p_up": 0.5}, "p_up"),
        ("synthetic_lazy", {"b": 4, "x0": 2, "delta": 0.0}, "delta"),
        ("sat2", {"n": 1, "m": 5}, "config.params.n"),
        ("sat2", {"n": 10, "m": 0}, "config.params.m"),
        ("recolour", {"n": 2, "edge_prob": 0.5}, "config.params.n"),
        ("recolour", {"n": 10, "edge_prob": 1.5}, "edge_prob"),
        ("rlspd", {"n": 10, "alpha": 0.55, "beta": 0.5}, "config.params"),
        ("rlspd", {"n": 10, "alpha": 0.5, "beta": 0.5, "payoff": "bare"}, "payoff"),
        ("rlspd_forgetting", {"n": 10, "alpha": 0.5, "beta": 0.5, "A": 0.0, "B": 1.0}, "A and B"),
        ("rwab", {"horizon": 10, "mu1": 0.2, "mu2": 0.8, "changes": 9}, "changes"),
        (
            "rwab",
            {"horizon": 100, "mu1": 0.2, "mu2": 0.8, "changes": 5, "accounting": "hopeful"},
            "accounting",
        ),
        # equal certain rewards: a challenge's difference walk never moves
        ("rwab", {"horizon": 50, "mu1": 1.0, "mu2": 1.0, "changes": 2}, "mu1 == mu2"),
        ("rwab", {"horizon": 50, "mu1": 0.0, "mu2": 0.0, "changes": 2}, "mu1 == mu2"),
        # near-equal certain rewards: it moves, but a run would need ~2.5e10 pulls
        (
            "rwab",
            {"horizon": 50, "mu1": 1e-9, "mu2": 1e-9, "changes": 2},
            "challenge iterations",
        ),
        # NaN, infinities and integers too large for a float are not numbers
        # to run with: a NaN threshold would make every run "forget" at once
        (
            "rlspd_forgetting",
            {"n": 10, "alpha": 0.5, "beta": 0.5, "A": math.nan, "B": 1.0},
            "config.params.A",
        ),
        ("synthetic_biased", {"b": 4, "x0": 2, "p_up": math.nan}, "config.params.p_up"),
        ("synthetic_lazy", {"b": 4, "x0": 2, "delta": math.inf}, "config.params.delta"),
        ("synthetic_biased", {"b": 4, "x0": 2, "p_up": 10**400}, "config.params.p_up"),
        ("recolour", {"n": 10, "edge_prob": math.nan}, "config.params.edge_prob"),
        ("rlspd", {"n": 10, "alpha": -math.inf, "beta": 0.5}, "config.params.alpha"),
        ("rlspd", {"n": 10**400, "alpha": 0.5, "beta": 0.5}, "config.params"),
        ("rwab", {"horizon": 50, "mu1": math.nan, "mu2": 0.5, "changes": 2}, "mu1"),
    ],
)
def test_kind_specific_param_rejections(tmp_path, kind, params, fragment):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(base_config(tmp_path, kind=kind, params=params))
    assert fragment in str(err.value)


def test_cap_requirement_depends_on_kind(tmp_path):
    obj = base_config(tmp_path)
    del obj["cap"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(obj)
    assert "config.cap" in str(err.value)
    # search kinds derive their own default allowance
    obj = base_config(
        tmp_path, kind="rlspd", params={"n": 16, "alpha": 0.5, "beta": 0.5}
    )
    del obj["cap"]
    ExperimentConfig.from_dict(obj)


# the smallest params each kind with a default cap accepts
SMALLEST_DEFAULT_CAP_PARAMS = {
    "rlspd": {"n": 2, "alpha": 0.5, "beta": 0.5},
    "rlspd_forgetting": {"n": 2, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0},
    "rwab": {"horizon": 3, "changes": 1, "mu1": 0.0, "mu2": 1.0},
}


def test_a_default_cap_is_a_nonnegative_int():
    # None marks only a kind whose config must set cap
    kinds = {kind for kind, entry in KINDS.items() if entry.default_cap is not None}
    assert kinds == set(SMALLEST_DEFAULT_CAP_PARAMS)
    for kind, obj in SMALLEST_DEFAULT_CAP_PARAMS.items():
        cap = experiment.from_json(KINDS[kind], obj, "config.params").default_cap()
        assert type(cap) is int and cap >= 0, kind


def test_single_cell_walk_writes_exact_samples(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config(tmp_path, params={"b": 2, "x0": 1}, runs=3)
    )
    artifacts = run_experiment(config)
    with open(artifacts.samples_path) as fh:
        assert fh.read() == (
            "run_id,seed,stopping_time,censored\n0,0,1,false\n1,1,1,false\n2,2,1,false\n"
        )
    with open(artifacts.report_path) as fh:
        report = json.load(fh)
    assert report["summary_table"]["mean"] == 1.0
    assert report["tail_report"] is None
    assert report["drift_estimate"] is None
    assert not artifacts.violated


def test_outputs_are_identical_across_reruns_and_worker_counts(tmp_path):
    def run(out, workers):
        config = ExperimentConfig.from_dict(
            base_config(
                tmp_path,
                kind="sat2",
                params={"n": 10, "m": 25},
                runs=8,
                cap=600,
                output_dir=str(tmp_path / out),
                workers=workers,
            )
        )
        artifacts = run_experiment(config)
        with open(artifacts.samples_path, "rb") as fh:
            samples = fh.read()
        with open(artifacts.report_path, "rb") as fh:
            report = fh.read()
        return samples, report

    first = run("serial", 1)
    assert run("serial_again", 1) == first
    assert run("parallel", 3) == first


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "workers, runs, cpus, pool",
    [
        (100000, 2, 2, 2),
        (100000, 7, 3, 3),
        (4, 7, 64, 4),
        (2, 7, 2, 2),
        (3, 1, 8, None),
        (1, 7, 8, None),
        (6, 7, 1, None),
        (6, 7, None, None),
    ],
)
def test_the_pool_holds_min_of_workers_runs_and_cpus(
    tmp_path, monkeypatch, workers, runs, cpus, pool
):
    # None: cpu_count() could not tell, and a pool of one runs serially
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    config = ExperimentConfig.from_dict(base_config(tmp_path, runs=runs, workers=workers))
    reps = experiment.collect(config)
    assert FakePool.sizes == ([] if pool is None else [pool])
    assert reps == [experiment.run_replication(config, i) for i in range(runs)]


def test_recorded_trajectories_reanalyze_to_the_same_report(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config(tmp_path, runs=4, record_trajectories=True)
    )
    artifacts = run_experiment(config)
    names = sorted(os.listdir(artifacts.trajectory_dir))
    assert names == [f"run_{i:05d}.csv" for i in range(4)]
    with open(os.path.join(artifacts.trajectory_dir, names[0])) as fh:
        assert fh.readline() == "step,value\n"
    with open(artifacts.report_path, "rb") as fh:
        original = fh.read()
    report_path = analyze_files(
        artifacts.samples_path,
        config.analysis,
        trajectory_dir=artifacts.trajectory_dir,
        report_path=str(tmp_path / "redo.json"),
    ).report_path
    with open(report_path, "rb") as fh:
        assert fh.read() == original
    with open(report_path) as fh:
        assert json.load(fh)["drift_estimate"] is not None


def recording_config(tmp_path, kind, out="out", **overrides):
    params, cap = RECORDING[kind]
    obj = base_config(
        tmp_path,
        kind=kind,
        params=params,
        runs=6,
        cap=cap,
        record_trajectories=True,
        output_dir=str(tmp_path / out),
        analysis={
            "tau_grid": [5.0, 20.0],
            "bound": {"kind": "Additive", "b": 10.0, "x0": 0.0, "epsilon": 1.0},
        },
    )
    obj.update(overrides)
    return ExperimentConfig.from_dict(obj)


def artifact_bytes(root):
    """Every file under root, by its path relative to root."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_every_recording_kind_is_covered():
    assert set(RECORDING) == {kind for kind, entry in KINDS.items() if entry.records}


@pytest.mark.parametrize("kind", sorted(RECORDING))
def test_recorded_runs_cross_the_pool_byte_for_byte(tmp_path, monkeypatch, kind):
    # two CPUs make workers=2 a real pool of two on any host
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    written = []
    for workers in (1, 2):
        config = recording_config(tmp_path, kind, out=f"w{workers}", workers=workers)
        run_experiment(config)
        written.append(artifact_bytes(config.output_dir))
    serial, pooled = written
    assert pooled == serial
    names = sorted(n for n in serial if n.startswith("trajectories"))
    assert names == [os.path.join("trajectories", f"run_{i:05d}.csv") for i in range(6)]
    assert json.loads(serial["report.json"])["drift_estimate"] is not None
    redo = analyze_files(
        str(tmp_path / "w2" / "samples.csv"),
        config.analysis,
        trajectory_dir=str(tmp_path / "w2" / "trajectories"),
        report_path=str(tmp_path / "redo.json"),
    ).report_path
    with open(redo, "rb") as fh:
        assert fh.read() == serial["report.json"]


@pytest.mark.parametrize("kind", sorted(RECORDING))
def test_reanalysis_of_the_trajectories_rewritten_as_floats_writes_the_runs_report(
    tmp_path, kind
):
    # every value v as "v.0": the reader's float lists, not its int arrays,
    # must tally into the same report bytes
    config = recording_config(tmp_path, kind)
    artifacts = run_experiment(config)
    floats = tmp_path / "floats"
    floats.mkdir()
    for name in os.listdir(artifacts.trajectory_dir):
        with open(os.path.join(artifacts.trajectory_dir, name)) as fh:
            text = fh.read().replace("\n", ".0\n").replace(".0\n", "\n", 1)
        assert type(read_trajectory_csv(text)) is list
        (floats / name).write_text(text)
    redo = analyze_files(
        artifacts.samples_path, config.analysis, str(floats), str(tmp_path / "redo.json")
    ).report_path
    with open(redo, "rb") as fh, open(artifacts.report_path, "rb") as run_report:
        assert fh.read() == run_report.read()


def first_typecode_holding(values):
    """The first of "bhiq" whose signed range holds every one of values."""
    for code in "bhiq":
        top = 1 << (8 * array(code).itemsize - 1)
        if all(-top <= v < top for v in values):
            return code
    raise AssertionError("no typecode holds the values")


@pytest.mark.parametrize("kind", sorted(RECORDING))
def test_a_replication_holds_the_simulators_values_in_the_narrowest_int_array(tmp_path, kind):
    config = recording_config(tmp_path, kind)
    entry = KINDS[kind]
    cap = config.cap if config.cap is not None else entry.default_cap(config.params)
    for run_id in range(config.runs):
        held = experiment.run_replication(config, run_id).trajectory
        stream = RngStream(master_seed=config.master_seed, stream_id=run_id)
        own = entry.simulate(config.params, stream, cap, True)[3]
        assert type(own.values) is list
        assert isinstance(held, array)
        assert held.typecode == first_typecode_holding(own.values)
        assert held.tolist() == own.values


@pytest.mark.parametrize(
    "values, typecode",
    [
        pytest.param([-128, 127], "b", id="int8-ends"),
        pytest.param([128], "h", id="128"),
        pytest.param([-129], "h", id="-129"),
        pytest.param([-32769], "i", id="-32769"),
        pytest.param([2**31], "q", id="2**31"),
        pytest.param([2**53], "q", id="2**53"),
        pytest.param([-(2**63), 2**63 - 1], "q", id="int64-ends"),
    ],
)
def test_the_narrowest_int_array_takes_the_first_typecode_that_holds_both_ends(
    values, typecode
):
    held = narrowest_int_array(values)
    assert held.typecode == typecode == first_typecode_holding(values)
    assert held.tolist() == values


def test_no_int_array_holds_a_value_beyond_64_bits():
    with pytest.raises(OverflowError):
        narrowest_int_array([0, 2**63])


def test_a_held_recorded_value_costs_under_16_bytes(tmp_path):
    # as a list, a value above 256 costs a 32-byte int plus an 8-byte slot
    config = ExperimentConfig.from_dict(
        base_config(
            tmp_path,
            kind="synthetic_biased",
            params={"b": 1000, "x0": 0, "p_up": 0.75},
            runs=50,
            cap=10**6,
            record_trajectories=True,
        )
    )
    tracemalloc.start()
    try:
        reps = experiment.collect(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = sum(len(r.trajectory) for r in reps)
    assert values > 50 * 1000
    assert peak < 16 * values
    # every state lies in [0, 1000], so each run holds an array('h')
    assert sum(r.trajectory.itemsize * len(r.trajectory) for r in reps) == 2 * values


@pytest.mark.parametrize(
    "kind, rate",
    [
        ("synthetic_fair", {}),
        ("synthetic_biased", {"p_up": 0.75}),
        ("synthetic_lazy", {"delta": 0.5}),
    ],
)
def test_a_walk_ceiling_is_at_most_2_to_the_53(tmp_path, capsys, kind, rate):
    top = 2**53
    for b, x0 in ((top + 1, top - 2), (2**70, 2**69)):
        obj = base_config(tmp_path, kind=kind, params={"b": b, "x0": x0, **rate}, runs=2, cap=5)
        assert main(["run", write_json(tmp_path / "over.json", obj)]) == 2
        assert "config.params.b" in capsys.readouterr().err
        assert not os.path.exists(obj["output_dir"])
    # at the bound every state reads back exactly, so analyze reproduces the run
    obj["params"].update(b=top, x0=top - 2)
    config = ExperimentConfig.from_dict(dict(obj, record_trajectories=True))
    artifacts = run_experiment(config)
    redo = analyze_files(
        artifacts.samples_path,
        config.analysis,
        trajectory_dir=artifacts.trajectory_dir,
        report_path=str(tmp_path / "redo.json"),
    ).report_path
    with open(redo, "rb") as fh, open(artifacts.report_path, "rb") as original:
        assert fh.read() == original.read()
    with open(redo) as fh:
        assert json.load(fh)["drift_estimate"]["transitions"] > 0


def test_trajectories_without_transitions_get_null_drift_sections(tmp_path):
    # x0 = 0 is absorbing at once: every trajectory is the single value 0
    config = ExperimentConfig.from_dict(
        base_config(
            tmp_path, params={"b": 4, "x0": 0}, cap=10, record_trajectories=True
        )
    )
    artifacts = run_experiment(config)
    assert len(os.listdir(artifacts.trajectory_dir)) == 5
    with open(artifacts.report_path) as fh:
        report = json.load(fh)
    assert report["drift_estimate"] is None
    assert report["step_tail_fit"] is None
    assert report["summary_table"]["mean"] == 0.0


def test_analyze_files_without_transitions_gets_null_drift_sections(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([0, 0]))
    trajectories = tmp_path / "trajectories"
    trajectories.mkdir()
    for i in range(2):
        (trajectories / f"run_{i:05d}.csv").write_text("step,value\n0,0\n")
    report_path = analyze_files(
        str(samples), AnalysisBlock(k_list=(1.0,)), trajectory_dir=str(trajectories)
    ).report_path
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["drift_estimate"] is None
    assert report["step_tail_fit"] is None
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    argv = ["analyze", str(samples), analysis, "--trajectories", str(trajectories)]
    assert main(argv) == 0


@pytest.mark.parametrize("step, eta", [(1000, 0.05), (20000, None)])
def test_cli_analyze_skips_step_tail_envelopes_that_overflow(tmp_path, step, eta):
    # (1 + eta)**step overflows a float for the larger etas of the grid at
    # a step of 1000 and for every eta at 20000
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([1]))
    trajectories = tmp_path / "trajectories"
    trajectories.mkdir()
    (trajectories / "run_00000.csv").write_text(f"step,value\n0,0\n1,{step}\n")
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    argv = ["analyze", str(samples), analysis, "--trajectories", str(trajectories)]
    assert main(argv) == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["drift_estimate"]["mean_drift"] == step
    fit = report["step_tail_fit"]
    if eta is None:
        assert fit is None
    else:
        assert fit["eta"] == eta
        assert fit["r"] == (1.0 + eta) ** step


def test_bandit_experiment_uses_its_own_schema(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config(
            tmp_path,
            kind="rwab",
            params={"horizon": 60, "mu1": 0.2, "mu2": 0.8, "changes": 2},
            runs=3,
            cap=None,
        )
    )
    artifacts = run_experiment(config)
    with open(artifacts.samples_path) as fh:
        text = fh.read()
    lines = text.splitlines()
    assert lines[0] == "run_id,seed,total_regret,swaps,mistakes,sub_eras"
    assert len(lines) == 4
    samples = read_samples_csv(text)
    assert all(not s.censored for s in samples)
    assert all(isinstance(s.stopping_time, float) for s in samples)
    # stored regrets re-analyze like any scalar sample
    report_path = analyze_files(
        artifacts.samples_path, AnalysisBlock(k_list=(1.0,)),
        report_path=str(tmp_path / "regret.json"),
    ).report_path
    with open(report_path) as fh:
        assert json.load(fh)["summary_table"]["sample_count"] == 3


def test_negative_realized_regret_is_a_valid_sample(tmp_path):
    # realized accounting charges reward differences, whose sum can be < 0
    params = {"horizon": 3, "changes": 1, "mu1": 0.25, "mu2": 0.75, "accounting": "realized"}
    obj = base_config(tmp_path, kind="rwab", params=params, runs=1, master_seed=1)
    del obj["cap"]
    assert main(["run", write_json(tmp_path / "config.json", obj)]) == 0
    samples = read_samples_csv((tmp_path / "out" / "samples.csv").read_text())
    assert samples[0].stopping_time == -1.0


def test_all_censored_run_still_writes_artifacts(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config(
            tmp_path, params={"b": 4, "x0": 2}, cap=0,
            analysis={"histogram_bins": 10},
        )
    )
    artifacts = run_experiment(config)
    with open(artifacts.report_path) as fh:
        report = json.load(fh)
    assert report["summary_table"] is None
    assert report["censored_count"] == 5
    assert artifacts.histogram_path is None


def test_histogram_artifact(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config(tmp_path, runs=40, analysis={"histogram_bins": 8})
    )
    artifacts = run_experiment(config)
    with open(artifacts.histogram_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "bin_left,bin_right,count,density"
    assert len(lines) == 9
    assert sum(int(row.split(",")[2]) for row in lines[1:]) == 40


def rerun_configs(tmp_path):
    """A 5-run config with trajectories and a histogram, and a 2-run one without."""
    first = base_config(
        tmp_path, runs=5, record_trajectories=True, analysis={"histogram_bins": 5}
    )
    return first, base_config(tmp_path, runs=2, record_trajectories=True)


def test_a_smaller_rerun_leaves_only_the_new_artifacts(tmp_path):
    first, second = rerun_configs(tmp_path)
    run_experiment(ExperimentConfig.from_dict(first))
    artifacts = run_experiment(ExperimentConfig.from_dict(second))
    written = artifact_bytes(second["output_dir"])
    assert sorted(written) == [
        "report.json", "samples.csv", "trajectories/run_00000.csv", "trajectories/run_00001.csv"
    ]
    fresh = dict(second, output_dir=str(tmp_path / "fresh"))
    run_experiment(ExperimentConfig.from_dict(fresh))
    assert artifact_bytes(fresh["output_dir"]) == written
    # a re-analysis of the directory reads this run's trajectories alone
    redo = analyze_files(
        artifacts.samples_path,
        AnalysisBlock(),
        trajectory_dir=artifacts.trajectory_dir,
        report_path=str(tmp_path / "redo.json"),
    )
    with open(redo.report_path, "rb") as fh:
        assert fh.read() == written["report.json"]
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out", "redo.json"]


def test_a_run_that_fails_leaves_the_old_directory_as_it_was(tmp_path, monkeypatch):
    first, second = rerun_configs(tmp_path)
    run_experiment(ExperimentConfig.from_dict(first))
    before = artifact_bytes(first["output_dir"])
    original = experiment.write_text
    written = []

    def fail_after_samples(path, text):
        if written:
            raise RuntimeError("injected after samples.csv")
        original(path, text)
        written.append(os.path.basename(path))

    monkeypatch.setattr(experiment, "write_text", fail_after_samples)
    with pytest.raises(RuntimeError, match="injected"):
        run_experiment(ExperimentConfig.from_dict(second))
    assert written == ["samples.csv"]
    assert artifact_bytes(first["output_dir"]) == before
    assert os.listdir(tmp_path) == ["out"]  # no .partial-* or renamed-aside directory


@pytest.mark.parametrize(
    "foreign, named",
    [
        ("notes.txt", "notes.txt"),
        ("trajectories/notes.txt", "trajectories/notes.txt"),
        ("trajectories/run_00000.csv/x", "trajectories/run_00000.csv"),
        ("trajectories/run_notes.csv", "trajectories/run_notes.csv"),
        ("trajectories/run_7.csv", "trajectories/run_7.csv"),
        ("trajectories/run_000001.csv", "trajectories/run_000001.csv"),
        ("extra/x", "extra"),
    ],
)
def test_a_foreign_path_exits_two_and_deletes_nothing(
    tmp_path, monkeypatch, capsys, foreign, named
):
    first, second = rerun_configs(tmp_path)
    run_experiment(ExperimentConfig.from_dict(first))
    out = tmp_path / "out"
    path = out / foreign
    if path.parent.is_file():
        path.parent.unlink()
    path.parent.mkdir(exist_ok=True)
    path.write_text("mine\n")
    before = artifact_bytes(out)

    def simulate(config):
        raise AssertionError("simulated before the output directory was checked")

    monkeypatch.setattr(experiment, "collect", simulate)
    assert main(["run", write_json(tmp_path / "config.json", second)]) == 2
    assert f"config.output_dir: {out / named} is not an artifact" in capsys.readouterr().err
    assert artifact_bytes(out) == before
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]


def test_an_output_dir_that_is_a_file_exits_two(tmp_path, capsys):
    obj = base_config(tmp_path)
    (tmp_path / "out").write_text("mine\n")
    assert main(["run", write_json(tmp_path / "config.json", obj)]) == 2
    assert "is not an artifact" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "mine\n"


def sample_rows(times, censored=None):
    lines = ["run_id,seed,stopping_time,censored"]
    for i, t in enumerate(times):
        flag = "true" if censored and i in censored else "false"
        lines.append(f"{i},{i},{t},{flag}")
    return "\n".join(lines) + "\n"


def test_read_samples_round_trip_and_diagnostic_columns():
    text = "run_id,seed,stopping_time,censored,satisfied\n0,0,7,false,true\n1,1,9,true,false\n"
    samples = read_samples_csv(text)
    assert [s.stopping_time for s in samples] == [7, 9]
    assert [s.censored for s in samples] == [False, True]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("time,who\n1,2\n", "line 1"),
        ("run_id,seed,stopping_time,censored\n0,0,7\n", "line 2"),
        ("run_id,seed,stopping_time,censored\n0,0,7,maybe\n", "line 2"),
        ("run_id,seed,stopping_time,censored\nx,0,7,false\n", "line 2"),
        ("run_id,seed,stopping_time,censored\n0,0,what,false\n", "line 2"),
        ("run_id,seed,stopping_time,censored\n0,0,7,false\n1,1,-3,false\n", "line 3"),
        ("run_id,seed,stopping_time,censored\n", "line 2"),
        ("run_id,seed,stopping_time,censored\n0,0,7,false\n-1,1,2,false\n", "line 3"),
        ("run_id,seed,total_regret\n-1,0,1.5\n", "line 2"),
        # a repeated run_id is reported on its second row
        ("run_id,seed,stopping_time,censored\n0,0,7,false\n1,1,2,false\n0,2,3,false\n", "line 4"),
        ("run_id,seed,total_regret\n3,0,1.5\n3,0,1.5\n", "line 3"),
        # values that are not finite floats, under either header
        ("run_id,seed,stopping_time,censored\n0,0,nan,false\n", "line 2"),
        ("run_id,seed,total_regret\n0,0,1.5\n1,1,inf\n", "line 3"),
        ("run_id,seed,total_regret\n0,0,-Infinity\n", "line 2"),
        pytest.param(
            f"run_id,seed,stopping_time,censored\n0,0,{'9' * 401},false\n",
            "line 2",
            id="401-digit-stopping_time",
        ),
    ],
)
def test_read_samples_errors_carry_line_numbers(text, fragment):
    with pytest.raises(FormatError) as err:
        read_samples_csv(text)
    assert fragment in str(err.value)


def test_read_trajectory_round_trip_and_errors():
    assert repr(read_trajectory_csv("step,value\n0,5\n1,4.5\n2,4\n")) == "[5.0, 4.5, 4.0]"
    assert repr(read_trajectory_csv("step,value\n0,5\n1,-4\n2,4\n")) == "array('b', [5, -4, 4])"
    for text, fragment in [
        ("value\n1\n", "line 1"),
        ("step,value\n0\n", "line 2"),
        ("step,value\n0,x\n", "line 2"),
        ("step,value\n", "line 2"),
    ]:
        with pytest.raises(FormatError) as err:
            read_trajectory_csv(text)
        assert fragment in str(err.value)


def test_analyze_files_on_hand_written_samples(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(sample_rows([1, 1, 1]))
    artifacts = analyze_files(str(path), AnalysisBlock(k_list=(1.0,)))
    assert artifacts.report_path == str(tmp_path / "report.json")
    assert artifacts.histogram_path is None  # a re-analysis writes the report alone
    with open(artifacts.report_path) as fh:
        report = json.load(fh)
    assert report["summary_table"]["mean"] == 1.0
    assert report["summary_table"]["freq_at_multiples"] == {"1.0": 1.0}


def test_build_report_counts_censored_rows():
    samples = read_samples_csv(sample_rows([2, 4, 9], censored={2}))
    report = build_report(samples, AnalysisBlock(k_list=(1.0,)))
    assert report["censored_count"] == 1
    assert report["summary_table"]["mean"] == 3.0


def test_build_report_without_a_transition_never_estimates_drift(monkeypatch):
    def unreachable(pairs):
        raise AssertionError("called with an empty tally")

    monkeypatch.setattr(experiment, "estimate_drift", unreachable)
    monkeypatch.setattr(experiment, "fit_step_tail", unreachable)
    samples = read_samples_csv(sample_rows([2, 4]))
    for trajectories in ((), [[5]], [[5], [0]]):
        report = build_report(samples, AnalysisBlock(), trajectories)
        assert report["drift_estimate"] is None
        assert report["step_tail_fit"] is None


# -- command line ------------------------------------------------------------


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


# the fair walk from 2 on {0..4} has mean 4; this bound holds with room to spare
HELD_BOUND = {
    "tau_grid": [10.0, 40.0],
    "bound": {"kind": "TwoAbsorbing", "b": 4.0, "x0": 2.0, "delta": 1.0},
}


# every such run takes at least 2 steps, so Fr(T > 1) is 1, far above this bound
BROKEN_BOUND = {
    "tau_grid": [1.0],
    "bound": {"kind": "TwoAbsorbing", "b": 4.0, "x0": 2.0, "delta": 1000.0},
}


@pytest.mark.parametrize(
    "analysis, violated", [(HELD_BOUND, False), (BROKEN_BOUND, True)], ids=["held", "broken"]
)
def test_run_and_analyze_exit_by_the_reports_verdict(tmp_path, capsys, analysis, violated):
    code, line = (1, "bound check: VIOLATED") if violated else (0, "bound check: ok")
    obj = base_config(tmp_path, analysis=analysis)
    artifacts = run_experiment(ExperimentConfig.from_dict(obj))
    assert artifacts.violated is violated
    block = AnalysisBlock.from_dict(analysis)
    redo = analyze_files(artifacts.samples_path, block, report_path=str(tmp_path / "redo.json"))
    assert redo.violated is violated
    assert main(["run", write_json(tmp_path / "config.json", obj)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert f"samples: {artifacts.samples_path}" in lines
    assert f"report: {artifacts.report_path}" in lines
    analysis_path = write_json(tmp_path / "analysis.json", analysis)
    assert main(["analyze", artifacts.samples_path, analysis_path]) == code
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("analysis", [None, {"k_list": [1.0]}, {"tau_grid": []}])
def test_cli_run_prints_no_bound_check_without_a_tau_grid(tmp_path, capsys, analysis):
    config_path = write_json(
        tmp_path / "config.json", base_config(tmp_path, analysis=analysis)
    )
    assert main(["run", config_path]) == 0
    out = capsys.readouterr().out
    assert "report:" in out
    assert "bound check" not in out


def test_cli_run_rejects_an_unbounded_histogram_before_writing(tmp_path, capsys):
    # the histogram is built after samples.csv and report.json are written,
    # where 10**22 bins overflowed and 10**11 exhausted memory, each exiting
    # 1 as if a tail check were violated
    AnalysisBlock.from_dict({"histogram_bins": experiment.MAX_HISTOGRAM_BINS})
    for bins in (10**22, experiment.MAX_HISTOGRAM_BINS + 1):
        obj = base_config(tmp_path, analysis={"histogram_bins": bins})
        assert main(["run", write_json(tmp_path / "config.json", obj)]) == 2
        assert "analysis.histogram_bins" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(obj["output_dir"], "samples.csv"))


def test_cli_analyze_rejects_a_negative_stopping_time(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([1, -3, 2]))
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    assert main(["analyze", str(samples), analysis]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        "run_id,seed,stopping_time,censored\n0,0,1,false\n-1,1,2,false\n",
        "run_id,seed,stopping_time,censored\n0,0,1,false\n0,0,2,false\n",
    ],
    ids=["negative", "repeated"],
)
def test_cli_analyze_rejects_a_bad_run_id(tmp_path, capsys, text):
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    assert main(["analyze", str(samples), analysis]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        "run_id,seed,stopping_time,censored\n0,0,1,false\n1,1,nan,false\n",
        "run_id,seed,total_regret\n0,0,1.5\n1,1,inf\n",
        f"run_id,seed,stopping_time,censored\n0,0,1,false\n1,1,{'1' * 401},false\n",
    ],
    ids=["nan", "inf-regret", "401-digit-stopping_time"],
)
def test_cli_analyze_rejects_a_non_finite_sample(tmp_path, capsys, text):
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    assert main(["analyze", str(samples), analysis]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def cli_analyze_trajectories(tmp_path, texts):
    """Exit code of driftlab analyze over one trajectory file per text."""
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([1] * len(texts)))
    trajectories = tmp_path / "trajectories"
    trajectories.mkdir()
    for i, text in enumerate(texts):
        (trajectories / f"run_{i:05d}.csv").write_text(text)
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    return main(["analyze", str(samples), analysis, "--trajectories", str(trajectories)])


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_cli_analyze_rejects_a_non_finite_trajectory_value(tmp_path, capsys, value):
    # the bad file is the second: the first is already tallied when it is read
    texts = ["step,value\n0,0\n1,1\n", f"step,value\n0,0\n1,{value}\n"]
    assert cli_analyze_trajectories(tmp_path, texts) == 2
    err = capsys.readouterr().err
    assert f"line 3: value must be a finite number, got {value!r}" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "bad, reason",
    [
        (b"step,value\n0,0\n1,x\n", "line 3: bad value 'x'"),
        (b"step,value\n0,0\n1,\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["bad-value", "not-utf-8"],
)
def test_analyze_errors_name_the_file(tmp_path, capsys, bad, reason):
    texts = ["step,value\n0,0\n1,1\n"] * 5
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([1] * len(texts)))
    trajectories = tmp_path / "trajectories"
    trajectories.mkdir()
    for i, text in enumerate(texts):
        (trajectories / f"run_{i:05d}.csv").write_text(text)
    path = trajectories / "run_00003.csv"
    path.write_bytes(bad)
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    assert main(["analyze", str(samples), analysis, "--trajectories", str(trajectories)]) == 2
    assert f"error: {path}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    with pytest.raises(FormatError) as err:
        analyze_files(str(samples), AnalysisBlock(), str(trajectories))
    assert err.value.path == str(path)
    assert err.value.line == (3 if "line" in reason else None)
    # and a bad samples.csv names itself, keeping its line
    samples.write_text(sample_rows([1, -3, 2]))
    with pytest.raises(FormatError, match=f"^{re.escape(str(samples))}: line 3: ") as err:
        analyze_files(str(samples), AnalysisBlock())
    assert err.value.line == 3


def test_cli_analyze_refuses_a_drift_moment_that_overflows(tmp_path, capsys):
    # both values are finite, but the squared step 1e400 is not
    assert cli_analyze_trajectories(tmp_path, ["step,value\n0,0\n1,1e200\n"]) == 2
    assert "drift_estimate holds a non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_to_json_is_strict_and_names_the_section():
    report = {"sample_count": 1, "summary_table": {"mean": 1.0}, "tail_report": None}
    assert json.loads(report_to_json(report)) == report
    for bad in (math.inf, -math.inf, math.nan):
        report["summary_table"]["freq_at_multiples"] = {1.0: bad}
        with pytest.raises(ValueError, match="^report.json: summary_table holds"):
            report_to_json(report)


def test_read_samples_accepts_a_negative_regret():
    samples = read_samples_csv("run_id,seed,total_regret\n0,1,-1.0\n")
    assert samples[0].stopping_time == -1.0


def test_cli_analyze_honors_out_path(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text(sample_rows([1, 2, 3]))
    analysis = write_json(tmp_path / "analysis.json", {"k_list": [1.0]})
    out_path = tmp_path / "elsewhere" / "r.json"
    assert main(["analyze", str(samples), analysis, "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert f"report: {out_path}" in capsys.readouterr().out


def test_cli_bounds_prints_the_table(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {
            "bound": {"kind": "Additive", "b": 1.0, "x0": 0.0, "epsilon": 1.0},
            "tau_grid": [math.e],
        },
    )
    assert main(["bounds", spec]) == 0
    assert capsys.readouterr().out == "tau,bound\n2.71828,0.36788\n"


KOTZING = "KotzingPolynomial"

# b**2 lies past the float range, so each tail is its limit 1.0
HUGE_B_BOUND = {
    "tau_grid": [1.0],
    "bound": {"kind": "TwoAbsorbing", "b": 1e200, "x0": 0.0, "delta": 1.0},
}


@pytest.mark.parametrize(
    "bound, tau, row",
    [
        (HUGE_B_BOUND["bound"], 1.0, "1.00000,1.00000"),
        ({"kind": "StandardVariance", "b": 1e200, "delta": 1.0}, 1.0, "1.00000,1.00000"),
        ({"kind": "NegativeDriftVariance", "b": 1e200, "delta": 1.0}, 1.0, "1.00000,1.00000"),
        # n**2 has no float; ell * ln c underflows to 0
        ({"kind": KOTZING, "ell": 1.0, "c": 2.0, "n": 10**400}, 1.0, "1.00000,1.00000"),
        ({"kind": KOTZING, "ell": 5e-324, "c": 1 + 2**-52, "n": 2}, 10.0, "10.00000,0.00000"),
    ],
    ids=["two_absorbing", "standard", "negative_drift", "kotzing_n", "kotzing_ell"],
)
def test_cli_bounds_evaluates_fields_past_the_float_range(tmp_path, capsys, bound, tau, row):
    spec = write_json(tmp_path / "spec.json", {"bound": bound, "tau_grid": [tau]})
    assert main(["bounds", spec]) == 0
    assert capsys.readouterr().out == f"tau,bound\n{row}\n"


def test_cli_run_checks_a_bound_past_the_float_range(tmp_path, capsys):
    config = base_config(tmp_path, analysis=HUGE_B_BOUND)
    assert main(["run", write_json(tmp_path / "config.json", config)]) == 0
    assert "bound check: ok" in capsys.readouterr().out.splitlines()


def test_cli_bounds_rejects_an_unknown_key(tmp_path, capsys):
    spec = {
        "bound": {"kind": "Additive", "b": 10, "epsilon": 1},
        "tau_grid": [1, 2],
        "typo_grid": [5],
    }
    assert main(["bounds", write_json(tmp_path / "spec.json", spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bounds spec: unknown field(s) typo_grid\n"


def test_cli_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"kind":\n  not json}\n')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad} is not valid JSON" in err
    assert "line 2" in err
    # json.loads raises RecursionError, which is no ValueError, past its depth
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["bounds"], ["run"], ["analyze", str(tmp_path / "samples.csv")]):
        assert main([*argv, str(deep)]) == 2
        assert f"error: {deep}: JSON nested too deeply to read" in capsys.readouterr().err


def test_a_json_file_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_bytes(b'{"kind": "synthetic_fair\xff"}\n')
    for argv in (["bounds"], ["run"], ["analyze", str(tmp_path / "samples.csv")]):
        assert main([*argv, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff"), err


def test_an_empty_output_dir_exits_two_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # "" would otherwise put samples.csv and report.json in the cwd
    monkeypatch.chdir(tmp_path)
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path, output_dir=""))
    assert main(["run", config_path]) == 2
    assert "config.output_dir: must name a directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_cli_config_errors_exit_two(tmp_path, capsys):
    config_path = write_json(
        tmp_path / "config.json", base_config(tmp_path, kind="mystery")
    )
    assert main(["run", config_path]) == 2
    assert "config.kind" in capsys.readouterr().err

    endless = base_config(
        tmp_path,
        kind="rwab",
        params={"horizon": 50, "mu1": 1.0, "mu2": 1.0, "changes": 2},
        cap=None,
    )
    assert main(["run", write_json(tmp_path / "endless.json", endless)]) == 2
    assert "mu1 == mu2" in capsys.readouterr().err

    endless["params"].update(mu1=1e-9, mu2=1e-9)
    assert main(["run", write_json(tmp_path / "near.json", endless)]) == 2
    assert "challenge iterations" in capsys.readouterr().err

    # no trajectory directory is promised for a kind that records none
    bandit = dict(endless, record_trajectories=True)
    bandit["params"] = {"horizon": 60, "mu1": 0.2, "mu2": 0.8, "changes": 2}
    assert main(["run", write_json(tmp_path / "bandit.json", bandit)]) == 2
    assert "config.record_trajectories" in capsys.readouterr().err
    assert not os.path.exists(endless["output_dir"])

    # NaN (json writes it as the bare word NaN), Infinity and an integer too
    # large for a float: exit 2 naming the field, never a traceback or exit 1
    forgetting = base_config(
        tmp_path,
        kind="rlspd_forgetting",
        params={"n": 16, "alpha": 0.5, "beta": 0.5, "A": math.nan, "B": 1.0},
        cap=None,
    )
    biased = base_config(
        tmp_path, kind="synthetic_biased", params={"b": 4, "x0": 2, "p_up": 10**400}
    )
    for name, obj, fragment in (
        ("nan.json", forgetting, "config.params.A"),
        ("inf.json", dict(forgetting, params=dict(forgetting["params"], A=math.inf)), "A"),
        ("huge.json", biased, "config.params.p_up"),
    ):
        assert main(["run", write_json(tmp_path / name, obj)]) == 2
        assert fragment in capsys.readouterr().err
    assert not os.path.exists(forgetting["output_dir"])


def print_after_importing_the_cli(expr):
    """What a fresh interpreter prints for expr after import sys, driftlab.cli."""
    src = os.path.dirname(os.path.dirname(driftlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, driftlab.cli; print({expr})"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy's import alone would add ~11 MB of resident memory to every run
    assert print_after_importing_the_cli("'numpy' in sys.modules") == "False"


def test_importing_the_package_leaves_the_pool_machinery_unloaded():
    # collect imports the process pool only when it starts one, so a serial
    # run, bounds and analyze never load multiprocessing, socket or subprocess
    pool = "('concurrent', 'multiprocessing')"
    loaded = f"[m for m in sorted(sys.modules) if m.split('.')[0] in {pool}]"
    assert print_after_importing_the_cli(loaded) == "[]"


def load_tracing():
    """perfbench/tracing.py, loaded by path: it is not part of the package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def rebound_names(tracing) -> list[str]:
    return [*tracing.WRAPPED, "RngStream", "run_replication", "collect"]


def test_every_name_the_benchmark_rebinds_exists():
    # perfbench/tracing.py times each layer by rebinding these attributes of
    # driftlab.experiment; a renamed or deleted one breaks the benchmark
    names = rebound_names(load_tracing())
    assert [n for n in names if not hasattr(experiment, n)] == []


#: one tiny serial config of every kind, each of which takes a step
TRACED_PARAMS = {
    "synthetic_fair": {"b": 4, "x0": 2},
    "synthetic_biased": {"b": 4, "x0": 0, "p_up": 0.75},
    "synthetic_lazy": {"b": 4, "x0": 4, "delta": 0.5},
    "sat2": {"n": 8, "m": 20},
    "recolour": {"n": 9, "edge_prob": 0.9},
    "rlspd": {"n": 8, "alpha": 0.5, "beta": 0.5},
    "rlspd_forgetting": {"n": 8, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0},
    "rwab": {"horizon": 60, "changes": 2, "mu1": 0.2, "mu2": 0.8},
}


def test_the_tracer_reads_what_every_kernel_returns(tmp_path):
    # the benchmark's traced runs read attributes of each kernel's result:
    # a walk's stopping time, the other kernels' iterations and rounds, and
    # each bilinear run's recorded values when it replays the run
    assert sorted(TRACED_PARAMS) == sorted(KINDS)
    tracing = load_tracing()
    saved = {name: getattr(experiment, name) for name in rebound_names(tracing)}
    try:
        instrumentation = tracing.Instrumentation(experiment)
        for kind, params in TRACED_PARAMS.items():
            obj = base_config(
                tmp_path,
                kind=kind,
                params=params,
                runs=3,
                cap=1000,
                output_dir=str(tmp_path / kind),
                record_trajectories=KINDS[kind].records,
            )
            experiment.run_experiment(ExperimentConfig.from_dict(obj))
        fair = str(tmp_path / "synthetic_fair")
        experiment.analyze_files(
            os.path.join(fair, "samples.csv"), AnalysisBlock(), os.path.join(fair, "trajectories")
        )
        summary = instrumentation.summary()
    finally:
        for name, original in saved.items():
            setattr(experiment, name, original)
    work = {k: v for k, v in summary["counts"].items() if k.endswith(".steps")}
    work["rwab.rounds"] = summary["counts"]["rwab.rounds"]
    kernels = ["bilinear.steps", "recolour.steps", "rwab.rounds", "sat2.steps", "walks.steps"]
    assert sorted(work) == kernels
    assert all(count > 0 for count in work.values()), work
    assert summary["bilinear_accepted"] > 0
    assert summary["replications"] == 3 * len(TRACED_PARAMS)


def test_cli_missing_files_exit_three(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 3
    assert "error:" in capsys.readouterr().err


# -- every accepted config runs to a complete artifact set -------------------


def walk_params(**rate):
    return st.integers(1, 6).flatmap(
        lambda b: st.fixed_dictionaries({"b": st.just(b), "x0": st.integers(0, b), **rate})
    )


def bilinear_params(**others):
    # alpha * n and beta * n must be whole counts strictly inside (0, n)
    return st.integers(2, 8).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "n": st.just(n),
                "alpha": st.integers(1, n - 1).map(lambda a: a / n),
                "beta": st.integers(1, n - 1).map(lambda b: b / n),
                **others,
            }
        )
    )


def rwab_params():
    # one mean from each side of 1/2 keeps every challenge short
    return st.integers(3, 40).flatmap(
        lambda horizon: st.fixed_dictionaries(
            {
                "horizon": st.just(horizon),
                "changes": st.integers(1, horizon - 2),
                "mu1": st.floats(0.0, 0.4),
                "mu2": st.floats(0.6, 1.0),
                # null is the default, as for every optional field
                "accounting": st.sampled_from((*ACCOUNTING_MODES, None)),
            }
        )
    )


# tiny but valid params for every kind; a kind added to the table without
# an entry here fails test_every_kind_has_tiny_params
TINY_PARAMS = {
    "sat2": st.fixed_dictionaries({"n": st.integers(2, 6), "m": st.integers(1, 8)}),
    "recolour": st.fixed_dictionaries(
        {"n": st.integers(3, 7), "edge_prob": st.floats(0.0, 1.0)}
    ),
    "rlspd": bilinear_params(payoff=st.sampled_from((*PAYOFFS, None))),
    "rlspd_forgetting": bilinear_params(A=st.floats(0.1, 2.0), B=st.floats(0.1, 2.0)),
    "rwab": rwab_params(),
    "synthetic_fair": walk_params(),
    "synthetic_biased": walk_params(p_up=st.floats(0.5, 1.0, exclude_min=True)),
    "synthetic_lazy": walk_params(delta=st.floats(0.0, 1.0, exclude_min=True)),
}


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("rlspd", {"n": 4, "alpha": 0.5, "beta": 0.5}, "payoff"),
        ("rwab", {"horizon": 20, "changes": 3, "mu1": 0.2, "mu2": 0.8}, "accounting"),
    ],
)
def test_a_null_param_writes_what_an_omitted_one_does(tmp_path, kind, params, key):
    written = []
    for name, p in (("omitted", params), ("null", dict(params, **{key: None}))):
        out = tmp_path / name
        config_path = tmp_path / f"{name}.json"
        config = {"kind": kind, "params": p, "runs": 3, "master_seed": 5, "output_dir": str(out)}
        config_path.write_text(json.dumps(config))
        assert main(["run", str(config_path)]) in (0, 1)
        written.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
    assert written[0] == written[1]
    assert "report.json" in written[0]


# a config that sets every optional key, per kind
FULL_CONFIGS = {
    "rlspd": {
        "kind": "rlspd",
        "params": {"n": 4, "alpha": 0.5, "beta": 0.5, "payoff": "corrected"},
        "runs": 3,
        "master_seed": 5,
        "output_dir": "out",
        "cap": 50,
        "record_trajectories": True,
        "workers": 2,
        "analysis": {
            "k_list": [0.5, 3.0],
            "tau_grid": [1.0, 5.0],
            "confidence": 0.9,
            "bound": {"kind": "Additive", "b": 10.0, "x0": 0.0, "epsilon": 1.0},
            "histogram_bins": 3,
        },
    },
    "rwab": {
        "kind": "rwab",
        "params": {"horizon": 20, "changes": 3, "mu1": 0.2, "mu2": 0.8, "accounting": "mean_gap"},
        "runs": 3,
        "master_seed": 5,
        "output_dir": "out",
    },
}


def _parsed(obj):
    """The config obj parses to, or the message it is rejected with."""
    try:
        return ExperimentConfig.from_dict(obj)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "kind, path",
    [
        ("rlspd", "cap"),
        ("rlspd", "record_trajectories"),
        ("rlspd", "workers"),
        ("rlspd", "params"),
        ("rlspd", "params.payoff"),
        ("rwab", "params.accounting"),
        ("rlspd", "analysis"),
        ("rlspd", "analysis.k_list"),
        ("rlspd", "analysis.tau_grid"),
        ("rlspd", "analysis.confidence"),
        ("rlspd", "analysis.bound"),
        ("rlspd", "analysis.histogram_bins"),
    ],
)
def test_a_null_optional_key_parses_as_an_omitted_one(kind, path):
    omitted, null = (json.loads(json.dumps(FULL_CONFIGS[kind])) for _ in range(2))
    *outer, key = path.split(".")
    holders = [omitted, null]
    for name in outer:
        holders = [holder[name] for holder in holders]
    del holders[0][key]
    holders[1][key] = None
    assert isinstance(_parsed(FULL_CONFIGS[kind]), ExperimentConfig)
    assert _parsed(null) == _parsed(omitted)


def test_every_kind_has_tiny_params():
    assert set(TINY_PARAMS) == set(KINDS)


@st.composite
def tiny_configs(draw):
    kind = draw(st.sampled_from(sorted(TINY_PARAMS)))
    obj = {
        "kind": kind,
        "params": draw(TINY_PARAMS[kind]),
        "runs": draw(st.integers(1, 3)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "workers": draw(st.integers(1, 2)),
    }
    if KINDS[kind].default_cap is None or draw(st.booleans()):
        obj["cap"] = draw(st.integers(0, 60))
    if KINDS[kind].records:
        obj["record_trajectories"] = draw(st.booleans())
    if draw(st.booleans()):
        obj["analysis"] = {
            "tau_grid": [1.0, 5.0],
            "bound": {"kind": "Additive", "b": 10.0, "x0": 0.0, "epsilon": 1.0},
            "histogram_bins": 3,
        }
    return obj


@settings(max_examples=40, deadline=None)
@given(obj=tiny_configs())
def test_every_valid_tiny_config_writes_its_artifacts(obj):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(dict(obj, output_dir=out), fh)
        assert main(["run", config_path]) in (0, 1)
        assert os.path.isfile(os.path.join(out, "samples.csv"))
        assert os.path.isfile(os.path.join(out, "report.json"))
