import concurrent.futures
import dataclasses
import json
import math
from datetime import datetime

import numpy as np
import pytest

from helpers import make_instance, random_instance
from tourbench import bench
from tourbench.bench import (
    ComparisonReport,
    ExperimentStats,
    TrialRecord,
    compare,
    derive_trial_seed,
    run_experiment,
)
from tourbench.cli import _bench_report, _compare_report
from tourbench.core import ConfigurationError, Instance
from tourbench.ga import GaConfig
from tourbench.hillclimb import HcConfig


class TestDeriveTrialSeed:
    # frozen: published results reference these seeds
    @pytest.mark.parametrize("experiment_seed, trial_id, expected", [
        (0, 0, 16294208416658607535),
        (0, 1, 7960286522194355700),
        (42, 7, 14769051326987775908),
    ])
    def test_frozen_values(self, experiment_seed, trial_id, expected):
        assert derive_trial_seed(experiment_seed, trial_id) == expected

    def test_deterministic(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    def test_distinct_across_trials(self):
        seeds = {derive_trial_seed(0, k) for k in range(10_000)}
        assert len(seeds) == 10_000

    def test_stays_in_64_bit_range(self):
        for k in range(100):
            s = derive_trial_seed(12345, k)
            assert 0 <= s < 1 << 64

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, -1)

    @pytest.mark.parametrize("trial_id", [1.5, 1.0, True])
    def test_rejects_non_integer_trial(self, trial_id):
        with pytest.raises(ConfigurationError, match="trial_id must be an integer"):
            derive_trial_seed(0, trial_id)

    def test_numpy_trial_id_gives_the_same_seed(self):
        assert derive_trial_seed(7, np.int64(3)) == derive_trial_seed(7, 3)

    @pytest.mark.parametrize("experiment_seed", [1.5, 1.0, True])
    def test_rejects_non_integer_seeds(self, experiment_seed):
        with pytest.raises(ConfigurationError, match="experiment_seed must be an integer"):
            derive_trial_seed(experiment_seed, 0)

    def test_negative_seeds_stay_valid(self):
        assert derive_trial_seed(-1, 0) == derive_trial_seed((1 << 64) - 1, 0)


def _records(lengths):
    return tuple(
        TrialRecord(
            trial_id=k,
            seed=derive_trial_seed(0, k),
            tour_length=length,
            wall_time_ms=1.5 * k,
            fitness_evaluations=100 + k,
            iterations=10 + k,
        )
        for k, length in enumerate(lengths)
    )


class TestExperimentStats:
    def test_matches_numpy(self):
        lengths = [5.0, 3.0, 9.0, 1.0, 7.0, 7.0, 2.0]
        stats = ExperimentStats.from_trials(_records(lengths))
        arr = np.array(lengths)
        assert stats.mean == float(np.mean(arr))
        assert stats.std == float(np.std(arr, ddof=1))
        assert stats.min == 1.0
        assert stats.max == 9.0
        assert stats.q1 == float(np.quantile(arr, 0.25))
        assert stats.median == float(np.quantile(arr, 0.5))
        assert stats.q3 == float(np.quantile(arr, 0.75))
        assert not stats.degenerate
        assert len(stats.trials) == 7

    def test_single_trial_is_degenerate(self):
        stats = ExperimentStats.from_trials(_records([4.0]))
        assert stats.degenerate
        assert stats.std == 0.0
        assert stats.mean == stats.min == stats.median == stats.max == 4.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExperimentStats.from_trials(())

    @pytest.mark.parametrize("lengths, mean, std", [
        ([1.6e308, 1.6e308], 1.6e308, 0.0),  # the sum overflows
        ([1e154, 3e154, 2e154], 2e154, 1e154),  # the squares overflow
    ])
    def test_finite_lengths_give_a_finite_summary(self, lengths, mean, std):
        stats = ExperimentStats.from_trials(_records(lengths))
        assert stats.mean == mean
        assert stats.std == std
        assert (stats.q1, stats.median, stats.q3) == tuple(np.quantile(lengths, [0.25, 0.5, 0.75]))

    def test_quartiles_keep_lengths_far_below_the_longest(self):
        stats = ExperimentStats.from_trials(_records([1e-300, 1e-300, 1e-300, 1e300]))
        assert stats.min == stats.q1 == stats.median == 1e-300
        assert stats.mean == 2.5e299


@pytest.fixture
def small_instance():
    return random_instance(np.random.default_rng(83), 6)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that records its arguments and runs in-process."""
    log = {"workers": [], "initargs": [], "items": []}

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            log["workers"].append(max_workers)
            log["initargs"].append(initargs)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            log["items"].extend(items)
            return map(fn, items)

    # The initializer runs in this process; restore the global it sets.
    monkeypatch.setattr(bench, "_worker_experiment", None)
    # run_experiment imports the pool when it starts one, from this module.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return log


def _timeless(stats):
    """The trial records with wall_time_ms, the one field repeat runs may change, zeroed."""
    return [dataclasses.replace(r, wall_time_ms=0.0) for r in stats.trials]


@dataclasses.dataclass(frozen=True)
class OtherConfig:
    """A config with a seed that is neither a GaConfig nor an HcConfig."""

    seed: int = 0


class TestRunExperiment:
    def test_records_are_ordered_with_derived_seeds(self, small_instance):
        stats = run_experiment(small_instance, HcConfig(), trials=5, experiment_seed=9)
        assert [r.trial_id for r in stats.trials] == [0, 1, 2, 3, 4]
        for r in stats.trials:
            assert r.seed == derive_trial_seed(9, r.trial_id)
            assert r.tour_length > 0.0
            assert r.fitness_evaluations > 0

    def test_repeat_runs_match_except_timing(self, small_instance):
        config = GaConfig(population_size=10, max_generations=5, max_stall_generations=5)
        a = run_experiment(small_instance, config, trials=3, experiment_seed=4)
        b = run_experiment(small_instance, config, trials=3, experiment_seed=4)
        assert _timeless(a) == _timeless(b)

    def test_experiment_seed_changes_trial_seeds(self, small_instance):
        a = run_experiment(small_instance, HcConfig(), trials=2, experiment_seed=0)
        b = run_experiment(small_instance, HcConfig(), trials=2, experiment_seed=1)
        assert [r.seed for r in a.trials] != [r.seed for r in b.trials]

    def test_parallel_matches_serial(self, small_instance):
        config = HcConfig(restarts=1, variant="modified")
        serial = run_experiment(small_instance, config, trials=4, parallelism=1)
        pooled = run_experiment(small_instance, config, trials=4, parallelism=2)
        assert _timeless(serial) == _timeless(pooled)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 0},
        {"trials": 2, "parallelism": 0},
        {"trials": 2.5},
        {"trials": 2, "parallelism": 1.5},
        {"trials": 2, "experiment_seed": 1.5},
        {"trials": 2, "experiment_seed": True},
        {"trials": 2, "experiment_seed": 1.5, "parallelism": 2},
    ])
    def test_rejects_bad_counts(self, small_instance, kwargs):
        with pytest.raises(ConfigurationError):
            run_experiment(small_instance, HcConfig(), **kwargs)

    def test_rejects_bad_config(self, small_instance):
        with pytest.raises(ConfigurationError):
            run_experiment(small_instance, HcConfig(restarts=-1), trials=1)
        with pytest.raises(ConfigurationError, match="unsupported config type OtherConfig"):
            run_experiment(small_instance, OtherConfig(), trials=1)

    def test_rejects_single_point_instance(self):
        with pytest.raises(ConfigurationError):
            run_experiment(make_instance([(0, 0)]), HcConfig(), trials=1)

    @pytest.mark.parametrize("parallelism, trials, cpus, expected", [
        (64, 3, 8, [3]),  # no more workers than trials
        (64, 10, 4, [4]),  # nor than CPUs
        (2, 10, 8, [2]),
        (8, 10, 1, []),  # one usable worker runs in-process
        (8, 1, 8, []),
        (8, 10, None, []),  # an unknown CPU count counts as one
    ])
    def test_pool_is_bounded(
        self, small_instance, monkeypatch, recording_pool, parallelism, trials, cpus, expected
    ):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        stats = run_experiment(small_instance, HcConfig(), trials=trials, parallelism=parallelism)
        assert recording_pool["workers"] == expected
        assert len(stats.trials) == trials

    def test_pool_tasks_carry_no_instance(self, small_instance, monkeypatch, recording_pool):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
        config = HcConfig(restarts=1)
        pooled = run_experiment(small_instance, config, trials=5, experiment_seed=3, parallelism=2)
        # The instance goes to each worker once; the tasks are bare trial ids.
        assert recording_pool["initargs"] == [(small_instance, config, 3)]
        assert recording_pool["items"] == [0, 1, 2, 3, 4]
        assert not any(isinstance(item, Instance) for item in recording_pool["items"])
        serial = run_experiment(small_instance, config, trials=5, experiment_seed=3)
        assert _timeless(pooled) == _timeless(serial)


class TestCompare:
    def test_arms_share_per_trial_seeds(self, small_instance):
        report = compare(
            small_instance,
            HcConfig(variant="baseline"),
            HcConfig(variant="modified"),
            trials=4,
            experiment_seed=5,
        )
        seeds_a = [r.seed for r in report.stats_a.trials]
        seeds_b = [r.seed for r in report.stats_b.trials]
        assert seeds_a == seeds_b == [derive_trial_seed(5, k) for k in range(4)]

    def test_ratio_and_improvement_formulas(self, small_instance):
        report = compare(
            small_instance,
            GaConfig(population_size=8, max_generations=3, max_stall_generations=3),
            HcConfig(restarts=2),
            trials=3,
        )
        assert report.mean_ratio == report.stats_b.mean / report.stats_a.mean
        assert report.improvement == (
            (report.stats_a.mean - report.stats_b.mean) / report.stats_a.mean
        )

    def test_identical_arms_give_unit_ratio(self, small_instance):
        config = HcConfig(restarts=1)
        report = compare(small_instance, config, config, trials=3)
        assert report.mean_ratio == 1.0
        assert report.improvement == 0.0

    def test_zero_mean_reports_nan(self):
        # every tour over coincident points has length zero
        inst = make_instance([(5, 5), (5, 5), (5, 5)])
        report = compare(inst, HcConfig(), HcConfig(), trials=2)
        assert report.stats_a.mean == 0.0
        assert math.isnan(report.mean_ratio)
        assert math.isnan(report.improvement)


@pytest.fixture
def small_stats(small_instance):
    return run_experiment(small_instance, HcConfig(restarts=1), trials=3, experiment_seed=2)


class TestFormatTrialsCsv:
    def test_layout(self, small_stats):
        text = _bench_report(small_stats, "csv", reproducible=False)
        lines = text.splitlines()
        assert lines[0] == "trial_id,seed,tour_length,wall_time_ms,fitness_evaluations,iterations"
        assert text.endswith("\n")
        data = lines[1:4]
        footer = lines[4:]
        assert len(data) == 3
        assert all(line.startswith("# ") for line in footer)
        keys = [line.split()[1] for line in footer]
        assert keys == ["mean", "std", "min", "q1", "median", "q3", "max", "trials", "degenerate"]
        assert footer[-2] == "# trials 3"
        assert footer[-1] == "# degenerate false"

    def test_floats_round_trip(self, small_stats):
        lines = _bench_report(small_stats, "csv", reproducible=False).splitlines()
        for record, line in zip(small_stats.trials, lines[1:4]):
            fields = line.split(",")
            assert int(fields[0]) == record.trial_id
            assert int(fields[1]) == record.seed
            assert float(fields[2]) == record.tour_length
            assert float(fields[3]) == record.wall_time_ms
            assert int(fields[4]) == record.fitness_evaluations
            assert int(fields[5]) == record.iterations

    def test_timing_can_be_zeroed(self, small_stats):
        lines = _bench_report(small_stats, "csv", reproducible=True).splitlines()
        for line in lines[1:4]:
            assert line.split(",")[3] == "0.0"


class TestFormatStatsJson:
    def test_document_shape(self, small_stats):
        doc = json.loads(_bench_report(small_stats, "json", reproducible=False))
        assert len(doc["trials"]) == 3
        assert doc["summary"]["mean"] == small_stats.mean
        assert doc["summary"]["std"] == small_stats.std
        assert doc["summary"]["trials"] == 3
        assert doc["summary"]["degenerate"] is False
        first = doc["trials"][0]
        assert first["seed"] == small_stats.trials[0].seed
        assert first["tour_length"] == small_stats.trials[0].tour_length

    def test_metadata_toggle(self, small_stats):
        with_meta = json.loads(_bench_report(small_stats, "json", reproducible=False))
        datetime.fromisoformat(with_meta["metadata"]["created"])
        doc = json.loads(_bench_report(small_stats, "json", reproducible=True))
        assert "metadata" not in doc

    def test_timing_toggle(self, small_stats):
        doc = json.loads(_bench_report(small_stats, "json", reproducible=True))
        assert all(t["wall_time_ms"] == 0.0 for t in doc["trials"])


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


LABELS = ("baseline", "modified")


@pytest.fixture
def small_report(small_instance):
    return compare(
        small_instance,
        HcConfig(variant="baseline"),
        HcConfig(variant="modified"),
        trials=3,
        experiment_seed=6,
    )


class TestFormatComparison:
    def test_csv_layout(self, small_report):
        lines = _compare_report(small_report, "csv", False, LABELS).splitlines()
        assert lines[0] == "trial_id,seed,tour_length_a,tour_length_b"
        assert len(lines) == 1 + 3 + 13
        keys = [line.split()[1] for line in lines[4:]]
        assert keys == [
            "mean_a", "std_a", "min_a", "max_a", "mean_b", "std_b", "min_b", "max_b",
            "variant_a", "variant_b", "mean_ratio", "improvement", "trials",
        ]
        for row, ra, rb in zip(lines[1:4], small_report.stats_a.trials, small_report.stats_b.trials):
            fields = row.split(",")
            assert int(fields[1]) == ra.seed
            assert float(fields[2]) == ra.tour_length
            assert float(fields[3]) == rb.tour_length

    def test_json_layout(self, small_report):
        doc = json.loads(_compare_report(small_report, "json", False, LABELS))
        assert doc["mean_ratio"] == small_report.mean_ratio
        assert doc["improvement"] == small_report.improvement
        assert (doc["variant_a"], doc["variant_b"], doc["trials"]) == (*LABELS, 3)
        assert len(doc["a"]["trials"]) == len(doc["b"]["trials"]) == 3
        assert doc["a"]["summary"]["mean"] == small_report.stats_a.mean
        datetime.fromisoformat(doc["metadata"]["created"])
        bare = json.loads(_compare_report(small_report, "json", True, LABELS))
        assert "metadata" not in bare

    def test_zero_mean_arm_is_valid_json(self):
        inst = make_instance([(0, 0)] * 4)
        report = compare(inst, HcConfig(), HcConfig(variant="modified"), trials=2)
        for reproducible in (False, True):
            text = _compare_report(report, "json", reproducible, LABELS)
            doc = json.loads(text, parse_constant=_reject_constant)
            assert doc["mean_ratio"] is None
            assert doc["improvement"] is None
            assert doc["a"]["summary"]["mean"] == 0.0
        footer = _compare_report(report, "csv", False, LABELS).splitlines()
        assert "# mean_ratio nan" in footer
        assert "# improvement nan" in footer

    def test_report_is_plain_dataclass(self, small_report):
        assert isinstance(small_report, ComparisonReport)
        with pytest.raises(AttributeError):
            small_report.mean_ratio = 2.0
