"""Repeated-trial experiment harness with CSV and JSON reporting.

Trial k of an experiment always runs with the seed derived from
(experiment seed, k), never from a shared generator, so results do not
depend on scheduling and a comparison can pair its two arms trial by trial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .core import ConfigurationError, Instance, RunResult
from .ga import GaConfig, run_ga
from .hillclimb import HcConfig, run_hc

__all__ = [
    "ComparisonReport",
    "ExperimentStats",
    "TrialRecord",
    "compare",
    "derive_trial_seed",
    "format_comparison_csv",
    "format_comparison_json",
    "format_comparison_text",
    "format_stats_json",
    "format_trial_row",
    "format_trials_csv",
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
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")
    z = (int(experiment_seed) + _GOLDEN_GAMMA * (trial_id + 1)) & _MASK
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
        std = 0.0 if degenerate else float(np.std(lengths, ddof=1))
        q1, median, q3 = (float(q) for q in np.quantile(lengths, [0.25, 0.5, 0.75]))
        return cls(
            trials=tuple(trials),
            mean=float(np.mean(lengths)),
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
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1, got {parallelism}")
    # The pool forks every worker up front, so cap it by what can be used.
    workers = min(parallelism, trials, os.cpu_count() or 1)
    if workers == 1:
        records = [_run_trial(instance, config, experiment_seed, k) for k in range(trials)]
    else:
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


CSV_HEADER = ",".join(field.name for field in dataclasses.fields(TrialRecord))


def _trial_dict(record: TrialRecord, reproducible: bool) -> dict:
    """The record's fields in CSV_HEADER order; wall_time_ms is zeroed when reproducible."""
    row = dataclasses.asdict(record)
    if reproducible:
        row["wall_time_ms"] = 0.0
    return row


def _summary_dict(stats: ExperimentStats) -> dict:
    return {
        "mean": stats.mean,
        "std": stats.std,
        "min": stats.min,
        "q1": stats.q1,
        "median": stats.median,
        "q3": stats.q3,
        "max": stats.max,
        "trials": len(stats.trials),
        "degenerate": stats.degenerate,
    }


def _cell(value) -> str:
    """Floats as repr, so they round-trip exactly; booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_row(values) -> str:
    return ",".join(_cell(v) for v in values)


def _footer(summary: dict) -> list[str]:
    return [f"# {key} {_cell(value)}" for key, value in summary.items()]


def format_trial_row(record: TrialRecord, reproducible: bool = False) -> str:
    """One trial as a CSV row under CSV_HEADER, with no line break."""
    return _csv_row(_trial_dict(record, reproducible).values())


def format_trials_csv(stats: ExperimentStats, reproducible: bool = False) -> str:
    """One row per trial, then the summary as a commented footer block.

    Floats are written with repr so they round-trip exactly. With
    ``reproducible`` on, wall_time_ms is zeroed: timing is the one field
    that legitimately differs between repeat runs of the same seeds.
    """
    rows = [format_trial_row(r, reproducible) for r in stats.trials]
    return "\n".join([CSV_HEADER, *rows, *_footer(_summary_dict(stats))]) + "\n"


def _json_text(doc: dict, reproducible: bool) -> str:
    """RFC 8259 JSON of ``doc``, stamped with its creation time unless reproducible.

    A non-finite top-level float (an undefined comparison ratio) is written
    as null; one nested deeper raises instead of producing invalid JSON.
    """
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}
    if not reproducible:
        doc["metadata"] = {"created": datetime.now(timezone.utc).isoformat()}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _stats_doc(stats: ExperimentStats, reproducible: bool) -> dict:
    return {
        "trials": [_trial_dict(r, reproducible) for r in stats.trials],
        "summary": _summary_dict(stats),
    }


def format_stats_json(stats: ExperimentStats, reproducible: bool = False) -> str:
    """Trials and summary; ``reproducible`` zeroes wall times and omits the timestamp."""
    return _json_text(_stats_doc(stats, reproducible), reproducible)


def format_comparison_csv(report: ComparisonReport) -> str:
    """Paired per-trial rows (same seed per row) with both arms' lengths."""
    a, b = report.stats_a, report.stats_b
    rows = [
        _csv_row((ra.trial_id, ra.seed, ra.tour_length, rb.tour_length))
        for ra, rb in zip(a.trials, b.trials)
    ]
    footer = _footer(dict(
        mean_a=a.mean, std_a=a.std, mean_b=b.mean, std_b=b.std,
        mean_ratio=report.mean_ratio, improvement=report.improvement, trials=len(a.trials),
    ))
    return "\n".join(["trial_id,seed,tour_length_a,tour_length_b", *rows, *footer]) + "\n"


def format_comparison_json(report: ComparisonReport, reproducible: bool = False) -> str:
    """Both arms' documents plus mean_ratio and improvement (null when undefined)."""
    doc = {
        "a": _stats_doc(report.stats_a, reproducible),
        "b": _stats_doc(report.stats_b, reproducible),
        "mean_ratio": report.mean_ratio,
        "improvement": report.improvement,
    }
    return _json_text(doc, reproducible)


def format_comparison_text(report: ComparisonReport, label_a: str, label_b: str) -> str:
    """Each arm's mean, std, min and max under its label, then mean_ratio and improvement."""
    arms = (("a", label_a, report.stats_a), ("b", label_b, report.stats_b))
    lines = [
        f"arm {arm}: variant={label} mean={s.mean!r} std={s.std!r} min={s.min!r} max={s.max!r}"
        for arm, label, s in arms
    ]
    lines += [f"mean_ratio {report.mean_ratio!r}", f"improvement {report.improvement!r}"]
    return "\n".join(lines) + "\n"
