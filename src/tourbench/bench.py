"""Repeated-trial experiments, paired comparisons and their summary statistics.

Trial k of an experiment always runs with the seed derived from
(experiment seed, k), never from a shared generator, so results do not
depend on scheduling and a comparison can pair its two arms trial by trial.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Instance, RunResult, check_count, check_integer
from .ga import GaConfig, run_ga
from .hillclimb import HcConfig, run_hc

__all__ = [
    "ComparisonReport",
    "ExperimentStats",
    "TrialRecord",
    "compare",
    "derive_trial_seed",
    "run_experiment",
]

_MASK = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def derive_trial_seed(experiment_seed: int, trial_id: int) -> int:
    """Avalanche mix of (experiment seed, trial id) into a 64-bit trial seed.

    splitmix64 finalizer applied to the seed advanced by (trial_id + 1)
    golden-gamma increments. Frozen: published results reference these seeds,
    so the mapping must never change between releases.
    """
    check_integer("experiment_seed", experiment_seed)
    check_count("trial_id", trial_id, 0)
    z = (int(experiment_seed) + _GOLDEN_GAMMA * (int(trial_id) + 1)) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class TrialRecord:
    """One trial's report row; the field order is the CSV column order."""

    trial_id: int
    seed: int
    tour_length: float
    wall_time_ms: float
    fitness_evaluations: int
    iterations: int

    @classmethod
    def from_result(cls, trial_id: int, seed: int, result: RunResult) -> "TrialRecord":
        r = result
        return cls(
            trial_id, seed, r.best_length, r.wall_time_ms, r.fitness_evaluations, r.iterations
        )


@dataclass(frozen=True)
class ExperimentStats:
    """Per-trial records plus summary statistics of the tour lengths.

    std is the sample standard deviation (ddof=1); a single-trial experiment
    is flagged degenerate and reports std 0. Quartiles use linear
    interpolation.
    """

    trials: tuple[TrialRecord, ...]
    mean: float
    std: float
    min: float
    q1: float
    median: float
    q3: float
    max: float
    degenerate: bool

    @classmethod
    def from_trials(cls, trials: tuple[TrialRecord, ...]) -> "ExperimentStats":
        if not trials:
            raise ValueError("need at least one trial")
        lengths = np.array([t.tour_length for t in trials], dtype=np.float64)
        degenerate = lengths.size < 2
        # A sum of finite lengths, or of their squares, can overflow, so the
        # mean and std run on lengths scaled below 1 by a power of two, which
        # is exact both ways. Quartiles interpolate and cannot overflow.
        e = math.frexp(lengths.max())[1]
        scaled = np.ldexp(lengths, -e)
        std = 0.0 if degenerate else math.ldexp(float(np.std(scaled, ddof=1)), e)
        q1, median, q3 = (float(q) for q in np.quantile(lengths, [0.25, 0.5, 0.75]))
        return cls(
            trials=tuple(trials),
            mean=math.ldexp(float(np.mean(scaled)), e),
            std=std,
            min=float(lengths.min()),
            q1=q1,
            median=median,
            q3=q3,
            max=float(lengths.max()),
            degenerate=degenerate,
        )


SolverConfig = GaConfig | HcConfig


def _solve_once(instance: Instance, config: SolverConfig):
    if isinstance(config, GaConfig):
        return run_ga(instance, config)
    if isinstance(config, HcConfig):
        return run_hc(instance, config)
    raise ConfigurationError(f"unsupported config type {type(config).__name__}")


def _run_trial(
    instance: Instance, config: SolverConfig, experiment_seed: int, trial_id: int
) -> TrialRecord:
    seed = derive_trial_seed(experiment_seed, trial_id)
    result = _solve_once(instance, dataclasses.replace(config, seed=seed))
    return TrialRecord.from_result(trial_id, seed, result)


# What every trial of a pooled experiment shares, set once in each worker
# process by _init_worker: the instance, with its n-by-n table, is sent once
# per worker and the tasks themselves are bare trial ids.
_worker_experiment = None


def _init_worker(instance: Instance, config: SolverConfig, experiment_seed: int) -> None:
    global _worker_experiment
    _worker_experiment = (instance, config, experiment_seed)


def _run_pooled_trial(trial_id: int) -> TrialRecord:
    return _run_trial(*_worker_experiment, trial_id)


def run_experiment(
    instance: Instance,
    config: SolverConfig,
    trials: int,
    experiment_seed: int = 0,
    parallelism: int = 1,
) -> ExperimentStats:
    """Run ``trials`` independent trials of one solver configuration.

    Trial results are identical for any parallelism level; workers only
    change how the fixed per-trial seeds are scheduled. At most one worker
    per trial and per CPU is started, and a single worker runs in-process.
    """
    check_count("trials", trials, 1)
    check_count("parallelism", parallelism, 1)
    # derive_trial_seed checks it as well; here a bad seed fails before a
    # pool starts.
    check_integer("experiment_seed", experiment_seed)
    # The pool forks every worker up front, so cap it by what can be used.
    workers = min(parallelism, trials, os.cpu_count() or 1)
    if workers == 1:
        records = [_run_trial(instance, config, experiment_seed, k) for k in range(trials)]
    else:
        # Imported here: the pool's modules take a tenth of the CLI's import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(instance, config, experiment_seed),
        ) as pool:
            records = list(pool.map(_run_pooled_trial, range(trials)))
    return ExperimentStats.from_trials(tuple(records))


@dataclass(frozen=True)
class ComparisonReport:
    """Two arms run on paired per-trial seeds, plus mean ratio and improvement.

    improvement is (mean_a - mean_b) / mean_a: positive when arm b's tours
    are shorter on average. Both are NaN when mean_a is 0, and JSON reports
    write them as null.
    """

    stats_a: ExperimentStats
    stats_b: ExperimentStats
    mean_ratio: float
    improvement: float


def compare(
    instance: Instance,
    config_a: SolverConfig,
    config_b: SolverConfig,
    trials: int,
    experiment_seed: int = 0,
    parallelism: int = 1,
) -> ComparisonReport:
    """Paired comparison: trial k of both arms uses the same derived seed."""
    stats_a = run_experiment(instance, config_a, trials, experiment_seed, parallelism)
    stats_b = run_experiment(instance, config_b, trials, experiment_seed, parallelism)
    if stats_a.mean == 0.0:
        ratio = improvement = math.nan
    else:
        ratio = stats_b.mean / stats_a.mean
        improvement = (stats_a.mean - stats_b.mean) / stats_a.mean
    return ComparisonReport(stats_a, stats_b, ratio, improvement)
