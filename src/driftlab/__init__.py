"""Simulation laboratory for variance-driven hitting times.

Sequential stochastic processes (randomized local search, a restless
two-armed bandit) next to the closed-form tail bounds they are meant to
obey, plus the statistical tooling to compare the two.
"""

from driftlab.rng import RngStream
from driftlab.trajectory import HittingTimeSample, Trajectory
from driftlab.bounds import BoundSpec, expected_time_upper, tail_probability_upper
from driftlab.experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BoundSpec",
    "ExperimentConfig",
    "HittingTimeSample",
    "RngStream",
    "Trajectory",
    "expected_time_upper",
    "run_experiment",
    "tail_probability_upper",
    "__version__",
]
