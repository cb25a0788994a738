"""driftlab benchmark: end-to-end and per-layer metrics of four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload forgetting --seed 2024 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Each repetition runs in a
fresh interpreter (``rep.py``), so set-up time and peak RSS are per
repetition; the load is a closed loop of one client running one batch job
at a time, at most two worker processes.  Repetitions continue while the
next one should end within ``--seconds`` (at least two run), and each
end-to-end metric is the median over them.

Correctness: at the default seed every artifact's sha256 and the exact
counts must equal ``reference.json``; at any other seed every repetition
must be byte-identical to the first.  A mismatch, a raised error or a
non-zero exit counts as a failed operation, and the command exits 1 after
printing its result.

``--trace 1`` runs one untraced and one traced repetition, one more at the
other worker count (held to the same digests), the RNG micro-run and the
analysis sweep, and reports per-layer metrics and the tracing overhead
instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run also writes ``perfbench/results/<workload>-seed<seed>-trace<t>.json``
with the provenance of the machine and every repetition's raw numbers.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import uuid
from importlib import metadata
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_ROOT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")

RUN_SECONDS = 20
MIN_REPS = 2
REP_TIMEOUT_S = 150
POLL_S = 0.02
ROTATE_S = 0.1

# name -> (unit, bound: share of the parent's median a later change may lose)
END_TO_END = {
    "wall_s": ("s", 0.25),
    "cpu_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}

PER_LAYER = {
    "rng.draws": "count",
    "rng.draws_per_step": "ratio",
    "rng.u64_words_per_s": "words/s",
    "rng.uniform_words_per_s": "words/s",
    "rng.index_words_per_s": "words/s",
    "rng.index_words_per_s.k2": "words/s",
    "rng.index_words_per_s.k3": "words/s",
    "rng.index_words_per_s.k2000": "words/s",
    "rng.est_s": "computed_s",
    "rng.share": "computed_ratio",
    "bilinear.steps": "count",
    "bilinear.run_s": "s",
    "bilinear.steps_per_s": "steps/s",
    "bilinear.accept_ratio": "ratio",
    "bilinear.censored_frac": "ratio",
    "walks.steps": "count",
    "walks.run_s": "s",
    "walks.steps_per_s": "steps/s",
    "sat2.generate_s": "s",
    "sat2.walk_s": "s",
    "sat2.steps": "count",
    "sat2.verify_s": "s",
    "recolour.generate_s": "s",
    "recolour.run_s": "s",
    "recolour.steps": "count",
    "recolour.scans": "count",
    "recolour.scan_share": "computed_ratio",
    "rwab.change_times_s": "s",
    "rwab.run_s": "s",
    "rwab.rounds": "count",
    "experiment.validate_s": "s",
    "experiment.collect_s": "s",
    "experiment.replication_s.p50": "s",
    "experiment.replication_s.p99": "s",
    "experiment.pool_efficiency": "ratio",
    "experiment.read_samples_s": "s",
    "experiment.read_trajectories_s": "s",
    "experiment.bytes_read": "B",
    "experiment.build_report_s": "s",
    "trajectory.samples_csv_s": "s",
    "trajectory.trajectory_csv_s": "s",
    "trajectory.write_s": "s",
    "trajectory.bytes_written": "B",
    "trajectory.files_written": "count",
    "analysis.summary_table_s": "s",
    "analysis.compare_bound_s": "s",
    "analysis.estimate_drift_s": "s",
    "analysis.fit_step_tail_s": "s",
    "analysis.histogram_s": "s",
    "analysis.transitions": "count",
    "analysis.compare_bound_s.n1e4": "s",
    "analysis.compare_bound_s.n1e5": "s",
    "analysis.compare_bound_s.n1e6": "s",
    "analysis.summary_table_s.n1e4": "s",
    "analysis.summary_table_s.n1e5": "s",
    "analysis.summary_table_s.n1e6": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# Running repetitions.


def _children(pid: int) -> list[str]:
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            kids.extend(fh.read().split())
    return kids


def _hwm_kb(pid: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _watch(pid: int, rotate: bool, stop: threading.Event, peak: list) -> None:
    """Poll the largest sum of the peak RSS of a process's live children.

    With ``rotate``, also move the (single-process) repetition to the next
    allowed CPU every ROTATE_S.  On a VM each vCPU sees its own interference
    from other tenants, lasting seconds to minutes; a process that stays on
    one vCPU inherits it whole, while one that visits each in turn sees
    their average, as a two-worker pool does.
    """
    cpus = sorted(os.sched_getaffinity(0))
    polls_per_move = round(ROTATE_S / POLL_S)
    polls = 0
    while not stop.wait(POLL_S):
        polls += 1
        if rotate and polls % polls_per_move == 0:
            try:
                os.sched_setaffinity(pid, {cpus[polls // polls_per_move % len(cpus)]})
            except OSError:
                pass  # the repetition has exited
        total = 0
        try:
            for child in _children(pid):
                total += _hwm_kb(child)
        except (OSError, ValueError):
            continue  # a process exited between the listing and the read
        peak[0] = max(peak[0], total)


def run_rep(spec: dict) -> dict:
    """Run rep.py once; returns its JSON result plus the children's peak RSS."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    # a repetition that forks workers must keep every CPU: they inherit its mask
    rotate = spec.get("workers", 1) == 1 and len(os.sched_getaffinity(0)) > 1
    stop, peak = threading.Event(), [0]
    watcher = threading.Thread(target=_watch, args=(proc.pid, rotate, stop, peak))
    watcher.start()
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"repetition exceeded {REP_TIMEOUT_S}s") from None
    finally:
        stop.set()
        watcher.join()
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["peak_children_kb"] = peak[0]
    return result


def produce_inputs(seed: int, workers: int) -> dict:
    """Write the artifacts reanalyze reads, with the trajectories workload.

    Returns where they are, how long producing them took (import, validation
    and the run itself) and their digests, or the error that stopped it.
    """
    inputs = {"out_dir": os.path.join(OUT_ROOT, f"inputs-{uuid.uuid4().hex[:12]}")}
    spec = {"workload": "trajectories", "seed": seed, "workers": workers, "src": SRC,
            "out_dir": inputs["out_dir"], "trace": False}
    try:
        producer = run_rep(spec)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        inputs["error"] = f"producing inputs: {exc}"
        return inputs
    inputs["production_s"] = producer["import_s"] + producer["validate_s"] + producer["wall_s"]
    inputs["fingerprint"] = {k: producer[k] for k in ("digests", "counts")}
    return inputs


def run_op(
    workload: str, seed: int, workers: int, trace: bool, role: str, inputs: dict | None
) -> dict:
    """One operation: one repetition, reading ``inputs`` when the workload needs them.

    Returns a record with the repetition's result, or the error that stopped it.
    The output directory is removed here, outside every timed region.
    """
    out = os.path.join(OUT_ROOT, f"{workload}-{uuid.uuid4().hex[:12]}")
    record = {"role": role, "workers": workers, "trace": trace}
    spec = {"workload": workload, "seed": seed, "workers": workers, "src": SRC,
            "out_dir": out, "trace": trace}
    production_s = 0.0
    if inputs is not None:
        if "error" in inputs:
            return dict(record, error=inputs["error"])
        spec["inputs"] = inputs["out_dir"]
        production_s = inputs["production_s"]
        record["inputs"] = inputs["fingerprint"]
    try:
        rep = run_rep(spec)
        rep["setup_s"] = rep["import_s"] + rep["validate_s"] + production_s
        rep["peak_rss_mb"] = (rep["peak_self_kb"] + rep["peak_children_kb"]) / 1024
        record["result"] = rep
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        record["error"] = str(exc)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


# ---------------------------------------------------------------------------
# Checks.


def fingerprint(record: dict) -> dict:
    """What must repeat exactly: digests, counts and, when traced, RNG draws."""
    rep = record["result"]
    fp = {"digests": rep["digests"], "counts": rep["counts"]}
    if "inputs" in record:
        fp["inputs"] = record["inputs"]
    if rep["trace"] is not None:
        fp["rng_draws"] = rep["trace"]["counts"].get("rng.draws", 0)
    return fp


def check(ops: list[dict], workload: str, seed: int) -> None:
    """Mark each op ok or not: pinned reference at the default seed, else agreement."""
    expected = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            expected = json.load(fh)[workload]
    for op in ops:
        if "error" in op:
            op["ok"] = False
            continue
        got = fingerprint(op)
        if expected is None:
            expected = {k: v for k, v in got.items() if k != "rng_draws"}
        # untraced ops count no RNG draws, so they skip that entry
        mismatched = [k for k, v in expected.items() if k in got and got[k] != v]
        op["ok"] = not mismatched
        if mismatched:
            op["error"] = f"differs from the reference in {', '.join(mismatched)}"


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(timed: list[dict]) -> dict:
    reps = [op["result"] for op in timed]
    return {name: statistics.median(r[name] for r in reps) for name in END_TO_END}


def per_layer(traced: dict, untraced: dict, micro: dict) -> dict:
    t = traced["trace"]
    spans, counts = t["spans"], t["counts"]

    def span_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def per_s(work: float, seconds: float) -> float:
        return work / seconds if seconds else 0.0

    steps = {
        layer: counts.get(f"{layer}.steps", 0)
        for layer in ("bilinear", "walks", "sat2", "recolour")
    }
    all_steps = sum(steps.values()) + counts.get("rwab.rounds", 0)
    draws = counts.get("rng.draws", 0)
    rng_est_s = draws / micro["rng.u64_words_per_s"]
    # final scans timed one per run; run_recolour makes steps + 1 scans a run
    scans = steps["recolour"] + counts.get("recolour.runs", 0)
    final_scan = spans.get("recolour.final_scan", [0, 0.0, 0.0])
    scan_s = final_scan[1] / final_scan[0] * scans if final_scan[0] else 0.0
    metrics = {
        "rng.draws": draws,
        "rng.draws_per_step": per_s(draws, all_steps),
        **{k: v for k, v in micro.items() if k.startswith("rng.")},
        "rng.est_s": rng_est_s,
        "rng.share": rng_est_s / untraced["wall_s"],
        "bilinear.steps": steps["bilinear"],
        "bilinear.run_s": span_s("bilinear.run"),
        "bilinear.steps_per_s": per_s(steps["bilinear"], span_s("bilinear.run")),
        "bilinear.accept_ratio": per_s(t["bilinear_accepted"], steps["bilinear"]),
        "bilinear.censored_frac": per_s(
            counts.get("bilinear.censored", 0), counts.get("bilinear.runs", 0)
        ),
        "walks.steps": steps["walks"],
        "walks.run_s": span_s("walks.run"),
        "walks.steps_per_s": per_s(steps["walks"], span_s("walks.run")),
        "sat2.generate_s": span_s("sat2.generate"),
        "sat2.walk_s": span_s("sat2.walk"),
        "sat2.steps": steps["sat2"],
        "sat2.verify_s": span_s("sat2.verify"),
        "recolour.generate_s": span_s("recolour.generate"),
        "recolour.run_s": span_s("recolour.run"),
        "recolour.steps": steps["recolour"],
        "recolour.scans": scans,
        "recolour.scan_share": per_s(scan_s, span_s("recolour.run")),
        "rwab.change_times_s": span_s("rwab.change_times"),
        "rwab.run_s": span_s("rwab.run"),
        "rwab.rounds": counts.get("rwab.rounds", 0),
        "experiment.validate_s": traced["validate_s"],
        "experiment.collect_s": span_s("experiment.collect"),
        "experiment.replication_s.p50": t["replication_p50_s"],
        "experiment.replication_s.p99": t["replication_p99_s"],
        "experiment.pool_efficiency": t["pool_efficiency"],
        "experiment.read_samples_s": span_s("experiment.read_samples"),
        "experiment.read_trajectories_s": span_s("experiment.read_trajectories"),
        "experiment.bytes_read": counts.get("experiment.bytes_read", 0),
        "experiment.build_report_s": span_s("experiment.build_report"),
        "trajectory.samples_csv_s": span_s("trajectory.samples_csv"),
        "trajectory.trajectory_csv_s": span_s("trajectory.trajectory_csv"),
        "trajectory.write_s": span_s("trajectory.write"),
        "trajectory.bytes_written": counts.get("trajectory.bytes_written", 0),
        "trajectory.files_written": counts.get("trajectory.files_written", 0),
        "analysis.summary_table_s": span_s("analysis.summary_table"),
        "analysis.compare_bound_s": span_s("analysis.compare_bound"),
        "analysis.estimate_drift_s": span_s("analysis.estimate_drift"),
        "analysis.fit_step_tail_s": span_s("analysis.fit_step_tail"),
        "analysis.histogram_s": span_s("analysis.histogram"),
        "analysis.transitions": counts.get("analysis.transitions", 0),
        **{k: v for k, v in micro.items() if k.startswith("analysis.")},
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    return metrics


# ---------------------------------------------------------------------------
# Provenance.


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding path (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "output_fs_type": _fs_type(OUT_ROOT),
    }


# ---------------------------------------------------------------------------
# One workload, start to finish.


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pin: bool) -> dict:
    workers = WORKLOADS[workload][2]
    # reanalyze's inputs are produced once a run, and their production time
    # is part of every repetition's setup_s
    inputs = produce_inputs(seed, workers) if workload == "reanalyze" else None
    ops = []
    micro = None
    try:
        if trace:
            ops.append(run_op(workload, seed, workers, False, "untraced", inputs))
            ops.append(run_op(workload, seed, workers, True, "traced", inputs))
            # analyze_files takes no worker count; the worker-count independence
            # of its inputs is what the trajectories workload checks
            if inputs is None:
                ops.append(run_op(workload, seed, 3 - workers, False, "other_workers", None))
            micro = run_rep({"micro": True, "seed": seed})
        else:
            started = perf_counter()
            # start another repetition only if it should end inside the window
            while len(ops) < MIN_REPS or (perf_counter() - started) * (1 + 1 / len(ops)) <= seconds:
                ops.append(run_op(workload, seed, workers, False, "timed", inputs))
    finally:
        if inputs is not None:
            shutil.rmtree(inputs["out_dir"], ignore_errors=True)
    if pin:
        write_reference(workload, seed, ops)
    check(ops, workload, seed)
    failed = sum(not op["ok"] for op in ops)
    metrics = {}
    if not failed:
        if trace:
            by_role = {op["role"]: op["result"] for op in ops}
            metrics = per_layer(by_role["traced"], by_role["untraced"], micro)
        else:
            metrics = end_to_end([op for op in ops if op["role"] == "timed"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "ops": ops,
        "micro": micro,
    }


def write_reference(workload: str, seed: int, ops: list[dict]) -> None:
    if seed != DEFAULT_SEED or any("error" in op for op in ops):
        raise SystemExit("--pin needs the default seed and a run without errors")
    traced = next(op for op in ops if op["trace"])
    pinned = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            pinned = json.load(fh)
    pinned[workload] = fingerprint(traced)
    with open(REFERENCE, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report(run: dict) -> None:
    """Human-readable lines for one workload, and its results file."""
    name = run["workload"]
    units = PER_LAYER if run["trace"] else {k: u for k, (u, _) in END_TO_END.items()}
    for metric, value in run["metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {units[metric]}")
    timed = [op for op in run["ops"] if op["role"] == "timed"]
    print(f"{name}  failed_frac = {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} of {run['attempted']} operations; {len(timed)} timed)")
    for op in run["ops"]:
        if not op["ok"]:
            print(f"{name}  FAILED {op['role']}: {op['error']}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{run['seed']}-trace{int(run['trace'])}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance(), **run}, fh, indent=1)
        fh.write("\n")


def benchmark_json() -> dict:
    """The benchmark's contract file, from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": (
                    "higher"
                    if unit.endswith("/s") or name == "experiment.pool_efficiency"
                    else "lower"
                ),
            }
            for name, unit in PER_LAYER.items()
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="store this run's digests and counts as the workload's reference (implies --trace 1)",
    )
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json at the checkout root from this file's tables and exit",
    )
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(SRC, "driftlab", "__init__.py")):
        print(f"no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("driftlab sources do not compile", file=sys.stderr)
        return 2
    trace = bool(args.trace) or args.pin
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(name, args.seed, args.seconds, trace, args.pin) for name in names]
    for run in runs:
        report(run)
    prefix = len(runs) > 1
    summary = {
        "correct": all(run["failed"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (f"{run['workload']}.{k}" if prefix else k): {
                "value": v,
                "unit": PER_LAYER[k] if trace else END_TO_END[k][0],
            }
            for run in runs
            for k, v in run["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
