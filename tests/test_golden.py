"""Bit-exact record of solver outputs on a fixed, seeded grid.

Every case below is a deterministic function of its seed, so a refactor
that claims to leave behaviour unchanged must reproduce each recorded
length (as ``float.hex``), counter and tour order exactly. The record in
``golden/record.json`` is regenerated only on purpose, by running this file
as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tourbench.core import Instance, Metric, Point
from tourbench.ga import GaConfig, run_ga
from tourbench.hillclimb import HcConfig, run_hc
from tourbench.oracle import brute_force, held_karp
from tourbench.tsplib import bundled_instance

RECORD = Path(__file__).parent / "golden" / "record.json"

METRIC_KINDS = ("euclidean", "manhattan", "wmanhattan", "wchebyshev")
# Brute force stops at n=10; Held-Karp also runs the larger size. At n=6
# restarts often land on visited tours, so the early-out count is exercised.
SIZES = (6, 9, 13)


def _instance(kind: str, n: int) -> Instance:
    rng = np.random.default_rng([METRIC_KINDS.index(kind), n])
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    wx, wy = (float(w) for w in rng.uniform(0.5, 2.0, size=2))
    metric = Metric(kind, wx, wy) if kind.startswith("w") else Metric(kind)
    points = [Point(float(x), float(y)) for x, y in coords]
    return Instance(f"{kind}-{n}", points, metric)


def _coincident() -> Instance:
    return Instance("coincident", [Point(3.0, 3.0)] * 7)


def _grid_manhattan(n: int) -> Instance:
    # Integer points on a 6-by-6 grid under Manhattan distance: many tours,
    # and many neighbours within a step, tie exactly.
    coords = np.random.default_rng([7, n]).integers(0, 6, size=(n, 2))
    points = [Point(float(x), float(y)) for x, y in coords]
    return Instance(f"grid-manhattan-{n}", points, Metric("manhattan"))


def _solver_entry(result) -> dict:
    return {
        "length": float.hex(result.best_length),
        "evaluations": result.fitness_evaluations,
        "iterations": result.iterations,
        "runs": result.runs,
        "early_outs": result.early_outs,
        "tour": result.best_tour.tolist(),
    }


def _exact_entry(result) -> dict:
    return {
        "length": float.hex(result.optimal_length),
        "nodes_expanded": result.nodes_expanded,
        "tour": result.optimal_tour.tolist(),
    }


def _ga(instance_fn, variant, seed, population, generations, mutation_rate=0.2, elitism=True):
    config = GaConfig(
        population_size=population,
        mutation_rate=mutation_rate,
        max_generations=generations,
        max_stall_generations=generations,
        crossover_variant=variant,
        elitism=elitism,
        seed=seed,
    )
    return lambda: _solver_entry(run_ga(instance_fn(), config))


def _hc(instance_fn, variant, seed, restarts):
    config = HcConfig(restarts=restarts, variant=variant, seed=seed)
    return lambda: _solver_entry(run_hc(instance_fn(), config))


def _cases() -> dict:
    cases = {}
    for k, kind in enumerate(METRIC_KINDS):
        for n in SIZES:
            inst = lambda kind=kind, n=n: _instance(kind, n)  # noqa: E731
            tag = f"{kind}-n{n}"
            seed = 100 * k + n
            for variant in ("baseline", "reversal_invariant"):
                cases[f"ga-{variant}-{tag}"] = _ga(inst, variant, seed, 16, 12)
            for variant in ("baseline", "modified"):
                cases[f"hc-{variant}-{tag}"] = _hc(inst, variant, seed, 30)
            if n <= 10:
                cases[f"brute_force-{tag}"] = lambda inst=inst: _exact_entry(brute_force(inst()))
            cases[f"held_karp-{tag}"] = lambda inst=inst: _exact_entry(held_karp(inst()))
    att48 = lambda: bundled_instance("att48")  # noqa: E731
    euclidean13 = lambda: _instance("euclidean", 13)  # noqa: E731
    for variant in ("baseline", "reversal_invariant"):
        cases[f"ga-{variant}-att48"] = _ga(att48, variant, 48, 24, 6)
        # Every length is zero, so the roulette wheel falls back to uniform
        # draws; the mutation count (in the evaluations) follows the stream.
        cases[f"ga-{variant}-coincident"] = _ga(_coincident, variant, 7, 12, 8, mutation_rate=0.5)
        cases[f"ga-{variant}-no-elitism-euclidean-n13"] = _ga(
            euclidean13, variant, 13, 16, 12, mutation_rate=0.3, elitism=False
        )
        cases[f"ga-{variant}-no-elitism-att48"] = _ga(
            att48, variant, 49, 24, 6, mutation_rate=0.3, elitism=False
        )
    # HC at sizes the cases above do not reach: att48 with and without a
    # restart, and a tie-heavy grid where the first-pair tie-break decides.
    grid30 = lambda: _grid_manhattan(30)  # noqa: E731
    for variant in ("baseline", "modified"):
        for restarts in (0, 1):
            cases[f"hc-{variant}-r{restarts}-att48"] = _hc(att48, variant, 48 + restarts, restarts)
        cases[f"hc-{variant}-grid-manhattan-n30"] = _hc(grid30, variant, 30, 3)
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_record(record, name):
    assert CASES[name]() == record[name]


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    doc = {name: CASES[name]() for name in sorted(CASES)}
    RECORD.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {RECORD}")
