"""The benchmark's workloads: seeded inputs, one closed-loop trial unit, and its checks.

A workload is a fixed list of solver arms. Trial unit k runs every arm once
with the seed ``bench.derive_trial_seed(workload_seed, k)``, so the arms are
paired exactly as ``bench.compare`` pairs them. For ``exact-small`` the unit
also generates instance k and solves it exactly first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
from tourbench import bench, core, ga, hillclimb, oracle, tsplib

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The reference record is kept for this workload seed only.
DEFAULT_SEED = 0
METRIC_KINDS = ("euclidean", "manhattan", "wmanhattan", "wchebyshev")
EXACT_SIZES = tuple(range(9, 15))
BRUTE_FORCE_N = 9
# Speed-gauge time run after each unit, as a share of the unit's own time.
GAUGE_SHARE = 0.1


@dataclass(frozen=True)
class Arm:
    label: str
    config: ga.GaConfig | hillclimb.HcConfig


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    # Every run completes at least this many units; mean_tour_length and
    # opt_hit_rate are taken over exactly these, so they do not depend on speed.
    quality_trials: int
    # Units stored in the reference record at DEFAULT_SEED.
    reference_trials: int
    # Instances are generated per unit and solved exactly; otherwise att48.
    exact: bool = False


def _ga(label: str, **kw) -> Arm:
    return Arm(label, ga.GaConfig(**kw))


def _hc(label: str, **kw) -> Arm:
    return Arm(label, hillclimb.HcConfig(**kw))


_GA_ATT48 = dict(population_size=200, max_generations=30, max_stall_generations=30)
_EXACT_GA = dict(population_size=20, max_generations=15, max_stall_generations=15, mutation_rate=0.1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ga-att48",
            (
                _ga("baseline", crossover_variant="baseline", **_GA_ATT48),
                _ga("reversal_invariant", crossover_variant="reversal_invariant", **_GA_ATT48),
            ),
            quality_trials=12,
            reference_trials=64,
        ),
        Workload(
            "ga-att48-pop11",
            (
                _ga(
                    "reversal_invariant",
                    crossover_variant="reversal_invariant",
                    population_size=11,
                    max_generations=281,
                    max_stall_generations=281,
                    mutation_rate=0.1,
                    elitism=True,
                ),
            ),
            quality_trials=32,
            reference_trials=160,
        ),
        Workload(
            "hc-att48",
            (
                _hc("baseline-r0", variant="baseline", restarts=0),
                _hc("baseline-r1", variant="baseline", restarts=1),
                _hc("modified-r0", variant="modified", restarts=0),
                _hc("modified-r1", variant="modified", restarts=1),
            ),
            quality_trials=36,
            reference_trials=96,
        ),
        Workload(
            "exact-small",
            (
                _ga("ga-baseline", crossover_variant="baseline", **_EXACT_GA),
                _ga("ga-reversal_invariant", crossover_variant="reversal_invariant", **_EXACT_GA),
                _hc("hc-baseline", variant="baseline", restarts=9),
                _hc("hc-modified", variant="modified", restarts=9),
            ),
            quality_trials=72,
            reference_trials=288,
            exact=True,
        ),
    )
}


def load_att48() -> core.Instance:
    """att48 from the package data, with its distance table built."""
    instance = tsplib.bundled_instance("att48")
    instance.distance_table()
    return instance


def exact_instance(trial_seed: int, k: int) -> core.Instance:
    """Instance k of ``exact-small``: n cycles through 9..14, the metric through the four kinds."""
    n = EXACT_SIZES[k % len(EXACT_SIZES)]
    kind = METRIC_KINDS[k % len(METRIC_KINDS)]
    rng = np.random.default_rng([trial_seed, 1])
    xs, ys = rng.random(n), rng.random(n)
    wx, wy = (float(w) for w in rng.uniform(0.5, 2.0, 2))
    metric = core.Metric(kind, wx, wy) if kind.startswith("w") else core.Metric(kind)
    points = [core.Point(float(x), float(y)) for x, y in zip(xs, ys)]
    instance = core.Instance(f"exact-{k}", points, metric)
    instance.distance_table()
    return instance


def tour_digest(tour: core.Tour) -> str:
    return hashlib.sha256(np.asarray(tour.order, dtype=np.int64).tobytes()).hexdigest()[:16]


def result_record(result: core.RunResult) -> dict:
    return {
        "length": float.hex(float(result.best_length)),
        "evaluations": int(result.fitness_evaluations),
        "iterations": int(result.iterations),
        "runs": int(result.runs),
        "early_outs": int(result.early_outs),
        "tour": tour_digest(result.best_tour),
    }


def rounding_band(instance: core.Instance, optimum: float) -> float:
    """How far two sorted sums of n positive edges can differ when the true sums are equal.

    Under the L1 and Chebyshev kinds distinct tours often tie exactly, and
    their float lengths may then differ in the last bits.
    """
    return instance.n * np.finfo(np.float64).eps * optimum


def check_result(instance: core.Instance, result: core.RunResult, optimum: float | None) -> list[str]:
    """Reasons a solver result is invalid; empty when it passes."""
    order = np.asarray(result.best_tour.order)
    if order.shape != (instance.n,) or not np.array_equal(np.sort(order), np.arange(instance.n)):
        return ["tour is not a permutation"]
    fresh = core.tour_length(instance, core.Tour(order))
    reasons = []
    if fresh != result.best_length:
        reasons.append(f"reported length {result.best_length!r} != tour_length {fresh!r}")
    if optimum is not None and result.best_length < optimum - rounding_band(instance, optimum):
        reasons.append(f"length {result.best_length!r} below the optimum {optimum!r}")
    return reasons


@dataclass
class Unit:
    """One trial unit: the record that must repeat, its timing, and its failures."""

    k: int
    record: dict
    elapsed_s: float
    evaluations: int
    lengths: list[float]
    opt_hits: int
    failures: list[str]
    # Time and count of the speed gauges run right after the unit, in closed_loop.
    gauge_s: float = 0.0
    gauges: int = 0


def _no_span(name: str, **attrs):
    return nullcontext()


def solve(instance: core.Instance, config, tracer=None) -> core.RunResult:
    """One public solver call; with a tracer, GA generations become spans via on_generation."""
    if isinstance(config, ga.GaConfig):
        if tracer is None:
            return ga.run_ga(instance, config)
        return ga.run_ga(instance, config, on_generation=tracer.generation_hook())
    return hillclimb.run_hc(instance, config)


def run_unit(workload: Workload, att48: core.Instance, workload_seed: int, k: int, tracer=None) -> Unit:
    """Run trial unit k. Only the solving is timed; the checks run after the clock stops."""
    trial_seed = bench.derive_trial_seed(workload_seed, k)
    span = tracer.span if tracer is not None else _no_span
    failures: list[str] = []
    results: dict[str, core.RunResult] = {}
    instance, hk, bf = att48, None, None
    started = time.perf_counter()
    with span("perfbench.trial", trial=k):
        try:
            if workload.exact:
                with span("core.Instance"):
                    instance = exact_instance(trial_seed, k)
                with span("oracle.held_karp"):
                    hk = oracle.held_karp(instance)
                if instance.n <= BRUTE_FORCE_N:
                    with span("oracle.brute_force"):
                        bf = oracle.brute_force(instance)
            for arm in workload.arms:
                config = dataclasses.replace(arm.config, seed=trial_seed)
                solver = "ga.run_ga" if isinstance(config, ga.GaConfig) else "hillclimb.run_hc"
                with span(solver, arm=arm.label):
                    results[arm.label] = solve(instance, config, tracer)
        except Exception as err:  # a failing trial is counted, not fatal
            failures.append(f"raised {type(err).__name__}: {err}")
    elapsed = time.perf_counter() - started

    optimum = hk.optimal_length if hk is not None else None
    record: dict = {"k": k, "seed": trial_seed}
    if workload.exact:
        record["n"] = instance.n
        record["metric"] = instance.metric.kind
        if hk is not None:
            record["optimum"] = {
                "length": float.hex(hk.optimal_length),
                "nodes": hk.nodes_expanded,
                "tour": tour_digest(hk.optimal_tour),
            }
        if bf is not None and abs(bf.optimal_length - optimum) > rounding_band(instance, optimum):
            failures.append(f"held_karp {optimum!r} and brute_force {bf.optimal_length!r} disagree")
    record["arms"] = {label: result_record(res) for label, res in results.items()}
    for label, res in results.items():
        failures.extend(f"{label}: {why}" for why in check_result(instance, res, optimum))
    lengths = [float(res.best_length) for res in results.values()]
    return Unit(
        k=k,
        record=record,
        elapsed_s=elapsed,
        evaluations=sum(int(res.fitness_evaluations) for res in results.values()),
        lengths=lengths,
        opt_hits=sum(
            1 for x in lengths if optimum is not None and x <= optimum + rounding_band(instance, optimum)
        ),
        failures=failures,
    )


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> list[dict]:
    return json.loads(reference_path(workload).read_text())["units"]


def write_reference(workload: Workload, units: list[Unit]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps({"workload": workload.name, "seed": DEFAULT_SEED})[:-1]
    rows = ",\n".join(json.dumps(u.record, separators=(",", ":")) for u in units)
    path.write_text(f'{head}, "units": [\n{rows}\n]}}\n')
    return path


def check_reference(unit: Unit, reference: list[dict] | None) -> None:
    """At the default seed, a unit the reference covers must repeat it field for field."""
    if reference is not None and unit.k < len(reference) and unit.record != reference[unit.k]:
        unit.failures.append("differs from the reference record")


def closed_loop(
    workload: Workload,
    att48: core.Instance,
    seed: int,
    seconds: float,
    reference: list[dict] | None,
    min_units: int,
    pause=None,
    pauses: int = 0,
) -> list[Unit]:
    """One client: unit k+1 starts only after unit k has returned and been checked.

    Runs until the units have taken ``seconds`` and at least ``min_units`` ran.
    After each unit the speed gauge runs for about GAUGE_SHARE of the unit's
    time, so the gauges sample the host as the units did. ``pause()`` is
    called ``pauses`` times, evenly spaced over ``seconds`` of units; neither
    its time nor the gauges' counts towards ``seconds``.
    """
    units: list[Unit] = []
    busy = 0.0
    paused = 0
    while len(units) < min_units or busy < seconds:
        started = time.perf_counter()
        unit = run_unit(workload, att48, seed, len(units))
        check_reference(unit, reference)
        units.append(unit)
        busy += time.perf_counter() - started
        while unit.gauges == 0 or unit.gauge_s < GAUGE_SHARE * unit.elapsed_s:
            unit.gauge_s += speed.gauge()
            unit.gauges += 1
        if paused < pauses and busy >= seconds * (paused + 1) / pauses:
            pause()
            paused += 1
    return units
