"""The benchmark's workloads: which experiment configs each one runs.

Every config is a frozen acceptance config (tests/test_acceptance.py,
EXPERIMENTS), or a prefix or scaled copy of one (``FORGETTING_RUNS``,
``TRAJECTORIES``), with its master seed shifted by ``seed - DEFAULT_SEED``, so
the default seed reproduces the acceptance runs and any other seed gives an
unseen but equally sized experiment.  This module imports nothing from
driftlab: the orchestrator reads it without paying for the import that each
repetition times.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 2024

# forgetting at n=1000 averages ~70-90 ms a run on a 2-core Xeon VM, and the
# full 1000 runs take 71-90 s.  Run lengths are heavy-tailed (coefficient of
# variation ~0.7), so a prefix of 200 run ids keeps the seed-to-seed spread of
# one operation's work near 6.5% while it takes ~15 s.
FORGETTING_RUNS = 200

# the other seven acceptance configs; the analysis blocks carry the tail grids
# that the acceptance criteria check
SUITE = {
    "fair": {
        "kind": "synthetic_fair",
        "params": {"b": 20, "x0": 10},
        "runs": 10**4,
        "master_seed": 2024,
        "cap": 10**6,
        "analysis": {
            "tau_grid": [100, 300, 1000],
            "bound": {"kind": "TwoAbsorbing", "b": 20, "x0": 10, "delta": 1.0},
        },
    },
    "biased": {
        "kind": "synthetic_biased",
        "params": {"b": 50, "x0": 0, "p_up": 0.75},
        "runs": 10**4,
        "master_seed": 2024,
        "cap": 10**6,
        "analysis": {
            "tau_grid": [100, 200, 400],
            "bound": {"kind": "Additive", "b": 50, "x0": 0, "epsilon": 0.5},
        },
    },
    "lazy": {
        "kind": "synthetic_lazy",
        "params": {"b": 10, "x0": 10, "delta": 0.5},
        "runs": 10**4,
        "master_seed": 2024,
        "cap": 10**6,
        "analysis": {
            "tau_grid": [200, 400, 800, 1600, 3200],
            "bound": {"kind": "StandardVariance", "b": 10, "x0": 10, "delta": 0.5},
        },
    },
    "sat2": {
        "kind": "sat2",
        "params": {"n": 50, "m": 150},
        "runs": 2000,
        "master_seed": 2024,
        "cap": 6 * 50 * 50,
        "analysis": {
            "tau_grid": [2500, 5000, 7500],
            "bound": {"kind": "StandardVariance", "b": 50, "x0": 0, "delta": 1.0},
        },
    },
    "recolour": {
        "kind": "recolour",
        "params": {"n": 30, "edge_prob": 0.9},
        "runs": 2000,
        "master_seed": 2024,
        "cap": 6 * 30 * 30,
        "analysis": {
            "tau_grid": [900, 1800, 2700],
            "bound": {"kind": "TwoAbsorbing", "b": 30, "x0": 15, "delta": 2 / 3},
        },
    },
    "rwab5": {
        "kind": "rwab",
        "params": {"horizon": 1000, "mu1": 0.2, "mu2": 0.8, "changes": 5},
        "runs": 1000,
        "master_seed": 808,
    },
    "rwab100": {
        "kind": "rwab",
        "params": {"horizon": 1000, "mu1": 0.2, "mu2": 0.8, "changes": 100},
        "runs": 1000,
        "master_seed": 808,
    },
}

FORGETTING = {
    "kind": "rlspd_forgetting",
    "params": {"n": 1000, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0},
    "runs": FORGETTING_RUNS,
    "master_seed": 2024,
}

# the acceptance biased walk (b=50, 10^4 runs) scaled to b=1000 and 10^3
# runs: about 2M transitions and 9 MB of trajectory CSV in a tenth of the
# files.  On a 2-core Xeon VM the kernel time of creating 10^4 small files
# swung between 0.3 and 3.9 s with the host's load, which spread wall_s
# across runs past its bound.  The biased walk's stopping time has a
# coefficient of variation of ~0.04 at b=1000 (the lazy walk's is ~0.8), so
# the work, wall_s and peak_rss_mb hardly move with the seed.  The tail grid
# scales with b as the acceptance one does.
TRAJECTORIES = {
    "kind": "synthetic_biased",
    "params": {"b": 1000, "x0": 0, "p_up": 0.75},
    "runs": 1000,
    "master_seed": 2024,
    "cap": 10**6,
    "record_trajectories": True,
    "analysis": {
        "k_list": [1, 2],
        "tau_grid": [2000, 4000, 8000],
        "bound": {"kind": "Additive", "b": 1000, "x0": 0, "epsilon": 0.5},
        "histogram_bins": 30,
    },
}

# name -> (why, configs by name, workers of the timed operation); reanalyze
# times analyze_files on what the trajectories configs write during set-up
WORKLOADS = {
    "forgetting": (
        "rlspd_forgetting prefix, serial: the RNG draw path and the bilinear "
        "kernel with no I/O",
        {"forgetting": FORGETTING},
        1,
    ),
    "suite_parallel": (
        "seven other acceptance configs at workers=2: many short runs of every "
        "other kernel plus pool start-up and pickling",
        SUITE,
        2,
    ),
    "trajectories": (
        "biased walk recording 10^3 long trajectories, serial: the CSV write "
        "side, drift estimation and a large resident set",
        {"biased": TRAJECTORIES},
        1,
    ),
    "reanalyze": (
        "analyze_files over the trajectories artifacts: the read side and "
        "analysis with no simulation",
        {"biased": TRAJECTORIES},
        1,
    ),
}


def experiment_dicts(workload: str, seed: int, out_dir: str, workers: int) -> dict:
    """Config objects (as ExperimentConfig.from_dict takes them) by name."""
    _, configs, _ = WORKLOADS[workload]
    shift = seed - DEFAULT_SEED
    result = {}
    for name, base in configs.items():
        obj = copy.deepcopy(base)
        obj["master_seed"] = (base["master_seed"] + shift) % 2**64
        obj["output_dir"] = f"{out_dir}/{name}"
        obj["workers"] = workers
        result[name] = obj
    return result
