"""tourbench's benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ga-att48 --seed 0 --seconds 24 --trace 0

It imports tourbench from ``src/`` of the same checkout, builds every input
from ``--seed``, runs the workload's trial units in one process as a closed
loop with one client for at least ``--seconds``, checks every output, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) of BENCHMARK.json. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every check passed. A full record of the run goes to
``perfbench/out/``.

``--write-reference`` regenerates the reference record of a workload at the
default seed instead of measuring.
"""

from __future__ import annotations

import os

# One core per run: measure the program, not the scheduler. Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Set-ups after the first, spread evenly over the measured loop so that
# setup_s samples the machine at several points of the run, not just one.
EXTRA_SETUPS = 6
# Traced runs compare and replay only the first few units of their slice.
DISPATCH_UNITS = 2
REPLAY_UNITS = 3
NOTE_UNITS = {
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "timed_s": "s",
    "wall_trials_per_s": "1/s",
    "wall_setup_s": "s",
    "gauge_ms": "ms",
    "host_slowdown": "ratio",
    "fail_rate": "fraction",
    "opt_hit_rate": "fraction",
}


def import_program() -> None:
    """Import tourbench from this checkout's src/ and nowhere else."""
    if not (SRC / "tourbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no tourbench sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tourbench

    if not Path(tourbench.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: tourbench was imported from {tourbench.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def set_up(workload, seed: int):
    """One set-up, as a user pays it. Returns (att48, seconds taken).

    A fresh interpreter imports numpy and tourbench; then att48 is loaded with
    its distance table, and the workload's first arm runs once on unit 0 as
    the untimed warm-up trial (on exact-small, after instance 0 is built and
    solved exactly).
    """
    import workloads

    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import tourbench.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    att48 = workloads.load_att48()
    first_arm = dataclasses.replace(workload, arms=workload.arms[:1])
    workloads.run_unit(first_arm, att48, seed, 0)
    return att48, time.perf_counter() - started


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, units, setup_s: float) -> tuple[dict, dict]:
    """(metrics for BENCHMARK.json, notes printed beside them).

    The timings are scaled to the reference host's speed: by how much slower
    than REFERENCE_GAUGE_S the speed gauge ran, on average, between the units.
    The wall-clock figures are printed as notes.
    """
    import speed

    timed_s = sum(u.elapsed_s for u in units)
    trial_ms = [u.elapsed_s * 1e3 for u in units]
    gauge_s = sum(u.gauge_s for u in units) / sum(u.gauges for u in units)
    slowdown = gauge_s / speed.REFERENCE_GAUGE_S
    quality = units[: workload.quality_trials]
    lengths = [x for u in quality for x in u.lengths]
    metrics = {
        "trials_per_s": len(units) / timed_s * slowdown,
        "evals_per_s": sum(u.evaluations for u in units) / timed_s * slowdown,
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": peak_rss_mb(),
        "mean_tour_length": math.fsum(lengths) / len(lengths),
    }
    failed = sum(1 for u in units if u.failures)
    notes = {
        # Printed, not gated: see perfbench/README.md.
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_p90": percentile(trial_ms, 90),
        "trials": len(units),
        "timed_s": timed_s,
        "wall_trials_per_s": len(units) / timed_s,
        "wall_setup_s": setup_s,
        "gauge_ms": gauge_s * 1e3,
        "gauges": sum(u.gauges for u in units),
        "host_slowdown": slowdown,
        "quality_trials": len(quality),
        "fail_rate": failed / len(units),
    }
    if workload.exact:
        runs = sum(len(u.lengths) for u in quality)
        notes["opt_hit_rate"] = sum(u.opt_hits for u in quality) / runs
        notes["opt_hit_runs"] = runs
    return metrics, notes


def replay_climbs(att48, seed: int, workload, units, tracer) -> dict:
    """Replay the first climb of each r0 hill-climb arm through the public climb functions.

    run_hc reaches the steepest-descent step only through private helpers, so
    the step is traced here instead: the start tour is re-derived with
    core.make_rng and core.random_tour exactly as run_hc draws it, and every
    step between two on_visit calls becomes a span.
    """
    import workloads
    from layers import MissingEntryPoint, entry
    from tourbench import bench, core, hillclimb

    try:
        climbs = {
            "baseline": entry(hillclimb, "hill_climb_baseline"),
            "modified": entry(hillclimb, "hill_climb_modified"),
        }
        visited_set = entry(hillclimb, "VisitedSet")
    except MissingEntryPoint as err:
        return {"absent": f"no public entry point {err}"}
    replayed = matched = 0
    for unit in units:
        trial_seed = bench.derive_trial_seed(seed, unit.k)
        for arm in workload.arms:
            config = arm.config
            if not isinstance(config, hillclimb.HcConfig) or config.restarts != 0:
                continue
            start = core.random_tour(att48.n, core.make_rng(trial_seed))
            hook = tracer.visit_hook("hillclimb.steepest_step")
            with tracer.span("hillclimb.replay", trial=unit.k, arm=arm.label):
                if config.variant == "baseline":
                    tour = climbs["baseline"](att48, start, on_visit=hook)[0]
                else:
                    visited = visited_set(config.visited_cap)
                    tour = climbs["modified"](att48, start, visited, on_visit=hook)[0]
            replayed += 1
            matched += workloads.tour_digest(tour) == unit.record["arms"][arm.label]["tour"]
    return {"climbs": replayed, "matched_run_hc": matched}


def dispatch_check(att48, seed: int, workload, units) -> tuple[int, list[str]]:
    """bench.run_experiment at parallelism 1 and 2 must reproduce the benchmark's own records."""
    import workloads
    from tourbench import bench

    checks, failures = 0, []
    for unit in units:
        instance = att48
        if workload.exact:
            instance = workloads.exact_instance(unit.record["seed"], unit.k)
        for arm in workload.arms:
            want = unit.record["arms"].get(arm.label)
            for parallelism in (1, 2):
                stats = bench.run_experiment(instance, arm.config, unit.k + 1, seed, parallelism)
                got = stats.trials[unit.k]
                checks += 1
                if want is None or (
                    got.seed,
                    float.hex(got.tour_length),
                    got.fitness_evaluations,
                    got.iterations,
                ) != (unit.record["seed"], want["length"], want["evaluations"], want["iterations"]):
                    failures.append(f"trial {unit.k} {arm.label}: run_experiment at parallelism "
                                    f"{parallelism} differs from the benchmark's record")
    return checks, failures


def traced_run(workload, att48, seed: int, seconds: float, reference):
    """A slice of units run untraced and traced in turn, the replay and dispatch checks, then the probes.

    Each unit runs once without and once with the tracer, alternating which
    goes first, so both see the same machine and the ratio of their times is
    the tracing overhead. Returns (per-layer values, detail for the record,
    units, dispatch checks, failure reasons).
    """
    import layers
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced = [], []
    busy = 0.0
    while len(plain) < 2 or busy < seconds / 2:
        k = len(plain)
        order = ((plain, None), (traced, tracer)) if k % 2 == 0 else ((traced, tracer), (plain, None))
        for out, unit_tracer in order:
            unit = workloads.run_unit(workload, att48, seed, k, unit_tracer)
            workloads.check_reference(unit, reference)
            out.append(unit)
            busy += unit.elapsed_s
        if plain[-1].record != traced[-1].record:
            traced[-1].failures.append("traced record differs from the untraced one")
    plain_s = sum(u.elapsed_s for u in plain)
    traced_s = sum(u.elapsed_s for u in traced)
    replay = replay_climbs(att48, seed, workload, traced[:REPLAY_UNITS], tracer)
    checks, dispatch_failures = dispatch_check(att48, seed, workload, plain[:DISPATCH_UNITS])

    ctx = layers.Context(seed=seed, att48=att48)
    metrics, absent = layers.run_probes(ctx)
    metrics["trace.trials_per_s_ratio"] = plain_s / traced_s
    summary = tracing.summarize(tracer.spans)
    detail = {
        "absent": absent,
        "tracing_overhead": {
            "units": len(plain),
            "untraced_trials_per_s": len(plain) / plain_s,
            "traced_trials_per_s": len(traced) / traced_s,
        },
        "layer_self_ms": summary["layer_self_ms"],
        "span_summary": summary["spans"],
        "replay": replay,
        "dispatch_checks": checks,
        "spans": tracing.to_json(tracer.spans),
    }
    return metrics, detail, plain + traced, checks, dispatch_failures + ctx.failures


def declared(section: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def with_units(values: dict, section: str, absent: dict | None = None) -> dict:
    """Values keyed as BENCHMARK.json declares them; every declared metric must be measured or absent."""
    units = declared(section)
    absent = absent or {}
    unknown = set(values) - set(units)
    missing = set(units) - set(values) - set(absent)
    if unknown or missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: extra {sorted(unknown)}, missing {sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def write_record(name: str, doc: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one tourbench benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="regenerate the workload's reference record at the default seed, then exit",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.write_reference:
        att48 = workloads.load_att48()
        units = workloads.closed_loop(
            workload, att48, workloads.DEFAULT_SEED, 0.0, None, min_units=workload.reference_trials
        )
        bad = [f"trial {u.k}: {why}" for u in units for why in u.failures]
        if bad:
            print("error: not writing a reference from failing trials:\n" + "\n".join(bad), file=sys.stderr)
            return 1
        print(f"wrote {workloads.write_reference(workload, units)} ({len(units)} trials)")
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference(workload)
    facts = machine_facts()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    att48, first_setup_s = set_up(workload, args.seed)

    if args.trace:
        values, detail, units, checks, other_failures = traced_run(
            workload, att48, args.seed, args.seconds, reference
        )
        metrics = with_units(values, "per_layer", detail["absent"])
        for name, why in detail["absent"].items():
            print(f"absent {name}: {why}")
        for layer, ms in sorted(detail["layer_self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"self_time {layer} {ms:.3f} ms")
        notes = {"trials": len(units), "dispatch_checks": checks}
    else:
        setups = [first_setup_s]
        units = workloads.closed_loop(
            workload,
            att48,
            args.seed,
            args.seconds,
            reference,
            min_units=workload.quality_trials,
            pause=lambda: setups.append(set_up(workload, args.seed)[1]),
            pauses=EXTRA_SETUPS,
        )
        values, notes = end_to_end(workload, units, statistics.median(setups))
        notes["setups"] = len(setups)
        metrics = with_units(values, "end_to_end")
        checks, other_failures, detail = 0, [], {}
    failures = [f"trial {u.k}: {why}" for u in units for why in u.failures] + other_failures
    attempted = len(units) + checks
    failed = sum(1 for u in units if u.failures) + len(other_failures)

    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, value in notes.items():
        print(f"note {name} {value!r} {NOTE_UNITS.get(name, 'count')}")
    if reference is not None:
        compared = sum(1 for u in units if u.k < len(reference))
        print(f"reference compared {compared} trials at seed {args.seed}")
    else:
        print(f"reference not compared: seed {args.seed} is not the default {workloads.DEFAULT_SEED}")
    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)

    write_record(
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": facts,
            "metrics": metrics,
            "notes": notes,
            "failures": failures,
            **detail,
        },
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
