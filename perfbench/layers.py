"""Per-layer probes: timed calls into each module's public functions.

Each probe measures one layer on inputs generated from the run's seed, with
the same configuration on every workload, so a per-layer number means the
same thing whichever workload's traced run reported it. A probe whose public
entry point no longer exists reports its metrics as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import pickle
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from tourbench import bench, cli, core, ga, hillclimb, oracle, tsplib

import workloads


class MissingEntryPoint(LookupError):
    """A public function a probe calls is gone from its module."""


def entry(module, name: str):
    fn = getattr(module, name, None)
    if fn is None:
        raise MissingEntryPoint(f"{module.__name__}.{name}")
    return fn


@dataclass
class Context:
    seed: int
    att48: core.Instance
    failures: list[str] = field(default_factory=list)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, salt])

    def uniform_instance(self, n: int, salt: int) -> core.Instance:
        xs, ys = self.rng(salt).random((2, n))
        instance = core.Instance(f"u{n}", [core.Point(float(x), float(y)) for x, y in zip(xs, ys)])
        instance.distance_table()
        return instance


def per_call(fn, items, reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean seconds per ``fn(item)``."""
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - started) / len(items))
    return statistics.median(samples)


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - started


def probe_core(ctx: Context) -> dict:
    tour_length = entry(core, "tour_length")
    Tour = entry(core, "Tour")
    Instance = entry(core, "Instance")
    att = ctx.att48
    rng = ctx.rng(1)
    orders = [rng.permutation(att.n) for _ in range(300)]
    tours = [Tour(o) for o in orders]
    table_s = []
    for _ in range(5):
        fresh = [Instance("att48", att.points) for _ in range(100)]
        started = time.perf_counter()
        for inst in fresh:
            inst.distance_table()
        table_s.append((time.perf_counter() - started) / len(fresh))
    return {
        "core.tour_length_us": 1e6 * per_call(lambda t: tour_length(att, t), tours),
        "core.tour_init_us": 1e6 * per_call(Tour, orders),
        "core.distance_table_ms": 1e3 * statistics.median(table_s),
    }


def probe_tsplib(ctx: Context) -> dict:
    bundled_instance = entry(tsplib, "bundled_instance")
    return {"tsplib.load_ms": 1e3 * per_call(bundled_instance, ["att48"] * 20)}


def probe_ga_operators(ctx: Context) -> dict:
    crossover_baseline = entry(ga, "crossover_baseline")
    select_parent = entry(ga, "select_parent")
    mutate = entry(ga, "mutate")
    att = ctx.att48
    rng = ctx.rng(2)
    tours = [core.Tour(rng.permutation(att.n)) for _ in range(200)]
    population = [(t, core.tour_length(att, t)) for t in tours]
    pairs = list(zip(tours[:100], tours[100:]))
    return {
        "ga.crossover_us_per_child": 1e6
        * per_call(lambda p: crossover_baseline(p[0], p[1], rng=rng), pairs),
        "ga.select_us_per_draw": 1e6 * per_call(lambda _: select_parent(population, rng), range(200)),
        "ga.mutate_us": 1e6 * per_call(lambda t: mutate(t, 1.0, rng), tours),
    }


def _generation_ms(run_ga, instance, config) -> tuple[core.RunResult, float, list[float]]:
    marks = []
    started = time.perf_counter()
    result = run_ga(instance, config, on_generation=lambda g, best: marks.append(time.perf_counter()))
    elapsed = time.perf_counter() - started
    # The first generation also covers the initial population; leave it out.
    return result, elapsed, [1e3 * (b - a) for a, b in zip(marks, marks[1:])]


def probe_ga_runs(ctx: Context) -> dict:
    """The headline arm of ga-att48 for cost per evaluation; the pop11 arm for generation time."""
    run_ga = entry(ga, "run_ga")
    seed = bench.derive_trial_seed(ctx.seed, 0)
    headline = workloads.WORKLOADS["ga-att48"].arms[1].config
    pop11 = workloads.WORKLOADS["ga-att48-pop11"].arms[0].config
    result, elapsed, _ = _generation_ms(run_ga, ctx.att48, dataclasses.replace(headline, seed=seed))
    _, _, generations = _generation_ms(run_ga, ctx.att48, dataclasses.replace(pop11, seed=seed))
    return {
        "ga.us_per_eval": 1e6 * elapsed / result.fitness_evaluations,
        "ga.evals_per_trial": result.fitness_evaluations,
        "ga.generation_ms_p50": statistics.median(generations),
    }


def probe_hc_runs(ctx: Context) -> dict:
    """One hc-att48 unit, arm by arm, timed with the benchmark's clock."""
    run_hc = entry(hillclimb, "run_hc")
    seed = bench.derive_trial_seed(ctx.seed, 0)
    seconds = {"baseline": 0.0, "modified": 0.0}
    neighbors = {"baseline": 0, "modified": 0}
    steps = runs = 0
    arms = workloads.WORKLOADS["hc-att48"].arms
    for arm in arms:
        result, elapsed = timed(run_hc, ctx.att48, dataclasses.replace(arm.config, seed=seed))
        seconds[arm.config.variant] += elapsed
        neighbors[arm.config.variant] += result.fitness_evaluations
        steps += result.iterations
        runs += result.runs
    # On att48 a random restart never lands on a visited tour, so the early-out
    # path is counted on a 6-city instance, where it does.
    tiny = ctx.uniform_instance(6, 3)
    escapes = run_hc(tiny, hillclimb.HcConfig(variant="modified", restarts=29, seed=seed))
    return {
        "hillclimb.us_per_neighbor.baseline": 1e6 * seconds["baseline"] / neighbors["baseline"],
        "hillclimb.us_per_neighbor.modified": 1e6 * seconds["modified"] / neighbors["modified"],
        "hillclimb.neighbors_per_trial": sum(neighbors.values()) / len(arms),
        "hillclimb.steps_per_climb": steps / runs,
        "hillclimb.early_outs": escapes.early_outs,
    }


def probe_hc_step(ctx: Context) -> dict:
    steepest_step = entry(hillclimb, "steepest_step")
    out = {}
    for n in (48, 100, 200):
        instance = ctx.uniform_instance(n, 4)
        tour = core.Tour(ctx.rng(5).permutation(n))
        out[f"hillclimb.step_ms.n{n}"] = 1e3 * per_call(
            lambda t: steepest_step(instance, t), [tour], reps=3
        )
    return out


def probe_visited(ctx: Context) -> dict:
    VisitedSet = entry(hillclimb, "VisitedSet")
    rng = ctx.rng(6)
    tours = [core.Tour(rng.permutation(48)) for _ in range(4000)]
    stored, absent = tours[:2000], tours[2000:]
    visited = VisitedSet()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in stored:
            visited.add(t)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    probes = [t for pair in zip(stored, absent) for t in pair]
    return {
        "hillclimb.visited_lookup_us": 1e6 * per_call(lambda t: t in visited, probes),
        "hillclimb.visited_bytes_per_entry": grown / len(stored),
    }


def probe_oracle(ctx: Context) -> dict:
    held_karp = entry(oracle, "held_karp")
    brute_force = entry(oracle, "brute_force")
    out = {}
    for n in workloads.EXACT_SIZES:
        instance = ctx.uniform_instance(n, 100 + n)
        samples = []
        for _ in range(3):
            result, elapsed = timed(held_karp, instance)
            samples.append(elapsed)
        out[f"oracle.held_karp_ms.n{n}"] = 1e3 * statistics.median(samples)
        out[f"oracle.held_karp_nodes.n{n}"] = result.nodes_expanded
    instance = ctx.uniform_instance(9, 109)
    out["oracle.brute_force_ms.n9"] = 1e3 * per_call(brute_force, [instance], reps=3)
    return out


def probe_bench(ctx: Context) -> dict:
    run_experiment = entry(bench, "run_experiment")
    run_hc = entry(hillclimb, "run_hc")
    # A cheap solver call, so the harness's own cost is not lost in solver noise.
    tiny = ctx.uniform_instance(8, 7)
    config = hillclimb.HcConfig()
    trials = 40
    overhead = []
    for rep in range(5):
        experiment_seed = ctx.seed + rep
        direct = 0.0
        for k in range(trials):
            seed = bench.derive_trial_seed(experiment_seed, k)
            direct += timed(run_hc, tiny, dataclasses.replace(config, seed=seed))[1]
        _, via = timed(run_experiment, tiny, config, trials, experiment_seed, 1)
        overhead.append((via - direct) / trials)
    pool = [timed(run_experiment, tiny, config, 2, ctx.seed, 2)[1] for _ in range(3)]
    slice_trials = 8
    _, p1 = timed(run_experiment, ctx.att48, config, slice_trials, ctx.seed, 1)
    _, p2 = timed(run_experiment, ctx.att48, config, slice_trials, ctx.seed, 2)
    # What run_experiment pickles for each trial, on att48 as the CLI passes it.
    payload = (tsplib.bundled_instance("att48"), ga.GaConfig(), 0, ctx.seed)
    return {
        "bench.overhead_ms_per_trial": 1e3 * statistics.median(overhead),
        "bench.pool_start_ms": 1e3 * statistics.median(pool),
        "bench.dispatch_ms_per_trial.p2": 1e3 * (p2 - p1 / 2) / slice_trials,
        "bench.payload_bytes_per_trial": len(pickle.dumps(payload)),
    }


def probe_cli(ctx: Context) -> dict:
    main = entry(cli, "main")
    run_hc = entry(hillclimb, "run_hc")
    diffs = []
    for rep in range(5):
        seed = bench.derive_trial_seed(ctx.seed, rep)
        argv = ["solve", "--instance", "att48", "--algorithm", "hc", "--seed", str(seed), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code, via = timed(main, argv)
        _, direct = timed(run_hc, ctx.att48, hillclimb.HcConfig(seed=seed))
        if code != 0 or not out.getvalue():
            ctx.failures.append(f"cli solve exited {code}")
        diffs.append(via - direct)
    return {"cli.solve_overhead_ms": 1e3 * statistics.median(diffs)}


# Each probe with the metrics it reports, so a missing entry point marks them absent.
PROBES = (
    (("core.tour_length_us", "core.tour_init_us", "core.distance_table_ms"), probe_core),
    (("tsplib.load_ms",), probe_tsplib),
    (("ga.crossover_us_per_child", "ga.select_us_per_draw", "ga.mutate_us"), probe_ga_operators),
    (("ga.us_per_eval", "ga.evals_per_trial", "ga.generation_ms_p50"), probe_ga_runs),
    (
        (
            "hillclimb.us_per_neighbor.baseline",
            "hillclimb.us_per_neighbor.modified",
            "hillclimb.neighbors_per_trial",
            "hillclimb.steps_per_climb",
            "hillclimb.early_outs",
        ),
        probe_hc_runs,
    ),
    (tuple(f"hillclimb.step_ms.n{n}" for n in (48, 100, 200)), probe_hc_step),
    (("hillclimb.visited_lookup_us", "hillclimb.visited_bytes_per_entry"), probe_visited),
    (
        tuple(f"oracle.held_karp_ms.n{n}" for n in workloads.EXACT_SIZES)
        + tuple(f"oracle.held_karp_nodes.n{n}" for n in workloads.EXACT_SIZES)
        + ("oracle.brute_force_ms.n9",),
        probe_oracle,
    ),
    (
        (
            "bench.overhead_ms_per_trial",
            "bench.pool_start_ms",
            "bench.dispatch_ms_per_trial.p2",
            "bench.payload_bytes_per_trial",
        ),
        probe_bench,
    ),
    (("cli.solve_overhead_ms",), probe_cli),
)


def run_probes(ctx: Context) -> tuple[dict, dict]:
    """Every probe in turn. Returns (metrics, absent: metric name -> reason)."""
    metrics, absent = {}, {}
    for names, probe in PROBES:
        try:
            metrics.update(probe(ctx))
        except MissingEntryPoint as err:
            absent.update({name: f"no public entry point {err}" for name in names})
    return metrics, absent
