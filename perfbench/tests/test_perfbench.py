"""Tests of the benchmark itself: metric coverage, the reference gate, seeding, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import speed
import tracing
import workloads
from tourbench import bench, hillclimb

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick_exact(monkeypatch, tmp_path):
    """exact-small shrunk to two units, writing its run record under tmp_path."""
    small = dataclasses.replace(workloads.WORKLOADS["exact-small"], quality_trials=2)
    monkeypatch.setitem(workloads.WORKLOADS, "exact-small", small)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return small


def _main(capsys, *argv):
    code = run.main(["--workload", "exact-small", "--seconds", "0", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(quick_exact, capsys, trace, section):
    code, lines, result = _main(capsys, "--seed", "5", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for metric in DECLARED[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}


def test_perturbed_reference_is_reported_as_a_failure(quick_exact, capsys, monkeypatch):
    reference = copy.deepcopy(workloads.load_reference(quick_exact))
    arm = next(iter(reference[1]["arms"]))
    reference[1]["arms"][arm]["evaluations"] += 1
    monkeypatch.setattr(workloads, "load_reference", lambda w: reference)
    code, _, result = _main(capsys, "--seed", str(workloads.DEFAULT_SEED), "--trace", "0")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_units_match_the_reference_record(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    assert len(reference) == workload.reference_trials
    att48 = workloads.load_att48()
    units = workloads.closed_loop(
        workload, att48, workloads.DEFAULT_SEED, 0.0, reference, min_units=2 if workload.exact else 1
    )
    assert [u.failures for u in units] == [[]] * len(units)
    assert [u.record for u in units] == reference[: len(units)]


def test_same_seed_gives_identical_inputs():
    for k in range(8):
        seed = bench.derive_trial_seed(11, k)
        a, b = workloads.exact_instance(seed, k), workloads.exact_instance(seed, k)
        assert a.points == b.points and a.metric == b.metric
        assert a.n == workloads.EXACT_SIZES[k % 6]
        assert a.metric.kind == workloads.METRIC_KINDS[k % 4]
        other = workloads.exact_instance(bench.derive_trial_seed(12, k), k)
        assert other.points != a.points
    unit_a = workloads.run_unit(workloads.WORKLOADS["exact-small"], None, 11, 3)
    unit_b = workloads.run_unit(workloads.WORKLOADS["exact-small"], None, 11, 3)
    assert unit_a.record == unit_b.record and unit_a.record["seed"] == bench.derive_trial_seed(11, 3)


def test_timings_are_scaled_by_the_host_speed_gauge():
    def units(gauge_s):
        return [workloads.Unit(0, {}, 2.0, 100, [1.0], 0, [], gauge_s=3 * gauge_s, gauges=3)]

    workload = workloads.WORKLOADS["ga-att48"]
    at_reference, _ = run.end_to_end(workload, units(speed.REFERENCE_GAUGE_S), 1.0)
    twice_as_slow, notes = run.end_to_end(workload, units(2 * speed.REFERENCE_GAUGE_S), 1.0)
    assert at_reference["trials_per_s"] == pytest.approx(0.5)
    assert at_reference["setup_s"] == pytest.approx(1.0)
    assert twice_as_slow["trials_per_s"] == pytest.approx(1.0)
    assert twice_as_slow["evals_per_s"] == pytest.approx(100.0)
    assert twice_as_slow["setup_s"] == pytest.approx(0.5)
    assert notes["wall_trials_per_s"] == pytest.approx(0.5) and notes["host_slowdown"] == pytest.approx(2.0)
    assert speed.gauge() > 0.0


def test_self_time_subtracts_the_children():
    spans = [
        tracing.Span(0, "a.outer", 0.0, 10.0, None, 1),
        tracing.Span(1, "b.inner", 1.0, 4.0, 0, 1),
        tracing.Span(2, "b.inner", 3.0, 6.0, 0, 1),  # overlaps the first child
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}
    assert tracing.summarize(spans)["layer_self_ms"] == {"a": 5000.0, "b": 6000.0}


def test_spans_of_one_trial_share_its_id():
    tracer = tracing.Tracer()
    with tracer.span("perfbench.trial", trial=4):
        with tracer.span("ga.run_ga"):
            tracer.add("ga.generation", 0.0, 1.0)
    assert [s.trial for s in tracer.spans] == [4, 4, 4]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.delattr(hillclimb, "steepest_step")
    monkeypatch.setattr(layers, "PROBES", [p for p in layers.PROBES if p[1] is layers.probe_hc_step])
    ctx = layers.Context(seed=0, att48=workloads.load_att48())
    metrics, absent = layers.run_probes(ctx)
    assert metrics == {}
    assert sorted(absent) == [f"hillclimb.step_ms.n{n}" for n in (100, 200, 48)]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ga-att48", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
