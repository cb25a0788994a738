"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py '<json spec>'``, as ``run.py`` starts it.
The spec names the workload, seed, worker count, output directory, the
checkout's ``src`` directory, whether to trace, and for ``reanalyze`` the
directory holding its input artifacts.  With ``{"micro": true, ...}`` it
runs the RNG micro-run and the analysis scaling sweep instead.

The last line of standard output is one JSON object: set-up times, the
timed operation's wall and CPU time, this process's peak RSS, the sha256 of
every artifact written, exact counts read back from ``samples.csv``, and,
when traced, the span and count summary from ``tracing``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from functools import partial
from time import perf_counter

from workloads import TRAJECTORIES, WORKLOADS, experiment_dicts


def artifact_digests(out_dir: str) -> dict:
    """sha256 of every file under out_dir by relative path.

    The files of a ``trajectories`` directory fold into one entry, the
    sha256 of their sorted "name sha256" lines, so a digest set stays small.
    """
    digests = {}
    folded: dict[str, list[str]] = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            rel = os.path.relpath(path, out_dir)
            parent = os.path.dirname(rel)
            if os.path.basename(parent) == "trajectories":
                folded.setdefault(parent + "/", []).append(f"{name} {digest}\n")
            else:
                digests[rel] = digest
    for key, lines in folded.items():
        digests[key] = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
    return dict(sorted(digests.items()))


def sample_counts(out_dir: str) -> dict:
    """Sum of the stopping-time column and censored count of each samples.csv."""
    counts = {}
    for dirpath, _, names in os.walk(out_dir):
        if "samples.csv" not in names:
            continue
        with open(os.path.join(dirpath, "samples.csv")) as fh:
            header, *rows = fh.read().splitlines()
        bandit = header.split(",")[2] == "total_regret"
        cells = [row.split(",") for row in rows]
        total = sum(float(c[2]) if bandit else int(c[2]) for c in cells)
        censored = 0 if bandit else sum(c[3] == "true" for c in cells)
        counts[os.path.relpath(dirpath, out_dir)] = {
            "stopping_time_sum": total,
            "censored": censored,
        }
    return dict(sorted(counts.items()))


def run(spec: dict) -> dict:
    t0 = perf_counter()
    import driftlab.experiment as experiment

    import_s = perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(experiment.__file__).startswith(src + os.sep):
        raise RuntimeError(f"driftlab imported from {experiment.__file__}, not {src}")
    instrumentation = None
    if spec["trace"]:
        from tracing import Instrumentation

        instrumentation = Instrumentation(experiment)

    out = spec["out_dir"]
    t1 = perf_counter()
    if spec["workload"] == "reanalyze":
        block = experiment.AnalysisBlock.from_dict(TRAJECTORIES["analysis"])
        (name,) = WORKLOADS["reanalyze"][1]
        inputs = os.path.join(spec["inputs"], name)

        def operation():
            experiment.analyze_files(
                os.path.join(inputs, "samples.csv"),
                block,
                trajectory_dir=os.path.join(inputs, "trajectories"),
                report_path=os.path.join(out, "reanalysis", "report.json"),
            )
    else:
        objs = experiment_dicts(spec["workload"], spec["seed"], out, spec["workers"])
        configs = [experiment.ExperimentConfig.from_dict(obj) for obj in objs.values()]

        def operation():
            for config in configs:
                experiment.run_experiment(config)
    validate_s = perf_counter() - t1

    before = os.times()
    w0 = perf_counter()
    operation()
    wall_s = perf_counter() - w0
    after = os.times()
    cpu_s = sum(after[i] - before[i] for i in range(4))  # user, sys, children's too

    result = {
        "import_s": import_s,
        "validate_s": validate_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": artifact_digests(out),
        "counts": sample_counts(out),
        "trace": None,
    }
    if instrumentation is not None:
        result["trace"] = instrumentation.summary()
    return result


# ---------------------------------------------------------------------------
# Micro-runs for the traced pass.

RNG_WORDS = 200_000
INDEX_KS = (2, 3, 2000)  # recolour/sat2 pick among 2 or 3, forgetting among 2n
SWEEP_SIZES = {"n1e4": 10**4, "n1e5": 10**5, "n1e6": 10**6}


def rng_micro(seed: int) -> dict:
    """Words per second of each draw method on a fixed number of calls."""
    from driftlab.rng import RngStream

    def rate(draw) -> float:
        stream = RngStream(master_seed=seed, stream_id=0)
        method = draw(stream)
        t0 = perf_counter()
        for _ in range(RNG_WORDS):
            method()
        return stream.draw_counter / (perf_counter() - t0)

    rates = {
        "rng.u64_words_per_s": rate(lambda s: s.next_u64),
        "rng.uniform_words_per_s": rate(lambda s: s.next_uniform),
    }
    for k in INDEX_KS:
        rates[f"rng.index_words_per_s.k{k}"] = rate(lambda s, k=k: partial(s.next_index, k))
    per_k = [rates[f"rng.index_words_per_s.k{k}"] for k in INDEX_KS]
    # equal word counts per k, so the combined rate is the harmonic mean
    rates["rng.index_words_per_s"] = len(per_k) / sum(1.0 / r for r in per_k)
    return rates


def analysis_sweep(seed: int) -> dict:
    """Seconds per compare_bound and summary_table call at 10^4..10^6 samples."""
    import numpy as np

    from driftlab.analysis import compare_bound, summary_table
    from driftlab.bounds import BoundSpec
    from driftlab.trajectory import HittingTimeSample

    cap = 3200
    rng = np.random.default_rng(seed)
    times = np.minimum(rng.geometric(1 / 200, size=max(SWEEP_SIZES.values())), cap)
    samples = [
        HittingTimeSample(run_id=i, stopping_time=t, censored=t == cap, seed_used=i)
        for i, t in enumerate(times.tolist())
    ]
    spec = BoundSpec(kind="StandardVariance", b=10, x0=10, delta=0.5)
    grid = [200.0, 400.0, 800.0, 1600.0, 3200.0]
    metrics = {}
    for label, n in SWEEP_SIZES.items():
        subset = samples[:n]
        repeats = max(1, 10**5 // n)
        for name, call in (
            ("compare_bound_s", lambda: compare_bound(subset, spec, grid)),
            ("summary_table_s", lambda: summary_table(subset, [1.0, 2.0])),
        ):
            t0 = perf_counter()
            for _ in range(repeats):
                call()
            metrics[f"analysis.{name}.{label}"] = (perf_counter() - t0) / repeats
    return metrics


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec.get("micro"):
        result = {**rng_micro(spec["seed"]), **analysis_sweep(spec["seed"])}
    else:
        result = run(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
