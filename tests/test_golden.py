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
from tourbench.hillclimb import DEFAULT_MAX_STEPS, HcConfig, RunAbortedError, run_hc
from tourbench.oracle import HELD_KARP_MAX, brute_force, held_karp
from tourbench.tsplib import bundled_instance

RECORD = Path(__file__).parent / "golden" / "record.json"

METRIC_KINDS = ("euclidean", "manhattan", "wmanhattan", "wchebyshev")
# Brute force stops at n=10; Held-Karp also runs the larger size. At n=6
# restarts often land on visited tours, so the early-out count is exercised.
SIZES = (6, 9, 13)
BUDGET_CASE = "hc-baseline-budget-euclidean-n13"


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


def _grid_chebyshev(n: int) -> Instance:
    # Points on a 3-by-3 grid (so some coincide) under unit-weight
    # Chebyshev distance: every edge is 0, 1 or 2, many Held-Karp
    # predecessors tie exactly and the smallest-index rule picks the parent.
    coords = np.random.default_rng([3, 3, n]).integers(0, 3, size=(n, 2))
    points = [Point(float(x), float(y)) for x, y in coords]
    return Instance(f"grid-wchebyshev-{n}", points, Metric("wchebyshev", 1.0, 1.0))


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


def _hc_budget(instance_fn, seed, restarts, max_steps, variant="baseline", **kw):
    """A run whose step budget ends some climbs; records ``aborted`` too.

    If the budget ends every climb, the entry records the RunAbortedError's
    best tour, its length and the steps and evaluations of all climbs.
    """
    config = HcConfig(
        restarts=restarts, variant=variant, max_steps_per_run=max_steps, seed=seed, **kw
    )

    def entry():
        try:
            result = run_hc(instance_fn(), config)
        except RunAbortedError as err:
            return {
                "aborted_all": True,
                "length": float.hex(err.best_length),
                "evaluations": err.evaluations,
                "iterations": err.steps,
                "tour": err.best_tour.tolist(),
            }
        return {**_solver_entry(result), "aborted": result.aborted}

    return entry


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
        # Every length is zero, so every member weighs the same on the
        # roulette wheel; the mutation count (in the evaluations) follows
        # the stream.
        cases[f"ga-{variant}-coincident"] = _ga(_coincident, variant, 7, 12, 8, mutation_rate=0.5)
        cases[f"ga-{variant}-no-elitism-euclidean-n13"] = _ga(
            euclidean13, variant, 13, 16, 12, mutation_rate=0.3, elitism=False
        )
        cases[f"ga-{variant}-no-elitism-att48"] = _ga(
            att48, variant, 49, 24, 6, mutation_rate=0.3, elitism=False
        )
        # Every child mutates, and at n = 3 the j == i redraw follows about
        # every third swap; at n = 2 a split takes no draw at all.
        for n in (2, 3):
            cases[f"ga-{variant}-mutate-all-euclidean-n{n}"] = _ga(
                lambda n=n: _instance("euclidean", n), variant, n, 10, 6, mutation_rate=1.0
            )
    # Runs whose draws span several chunks of generations, with j == i
    # redraws among them: 200 generations of 11 are three takes of up to
    # 93 generations (2,200 children), and at n = 3 and rate 1 about every
    # third swap redraws j across the two takes of 5 and 1 generations.
    for variant in ("baseline", "reversal_invariant"):
        cases[f"ga-{variant}-pop11-g200-att48"] = _ga(att48, variant, 11, 11, 200, mutation_rate=0.1)
        cases[f"ga-{variant}-pop200-mutate-all-euclidean-n3"] = _ga(
            lambda: _instance("euclidean", 3), variant, 3, 200, 6, mutation_rate=1.0
        )
    # An odd population of baseline children takes an odd number of 32-bit
    # split draws, so a generation can start with half a random word cached.
    cases["ga-baseline-pop15-euclidean-n13"] = _ga(euclidean13, "baseline", 15, 15, 12)
    # The GA keeps cities, positions and splits in the narrowest unsigned
    # dtype that holds n - 1: uint8 up to n = 256, uint16 from n = 257.
    for n in (256, 257):
        for variant in ("baseline", "reversal_invariant"):
            cases[f"ga-{variant}-euclidean-n{n}"] = _ga(
                lambda n=n: _instance("euclidean", n), variant, n, 8, 4
            )
    # HC at sizes the cases above do not reach: att48 with and without a
    # restart, and a tie-heavy grid where the first-pair tie-break decides.
    grid30 = lambda: _grid_manhattan(30)  # noqa: E731
    for variant in ("baseline", "modified"):
        for restarts in (0, 1):
            cases[f"hc-{variant}-r{restarts}-att48"] = _hc(att48, variant, 48 + restarts, restarts)
        cases[f"hc-{variant}-grid-manhattan-n30"] = _hc(grid30, variant, 30, 3)
    # One climb per variant at n = 100, well above the steepest step's
    # small-n crossover: n = 6/9/13 pin the path below it, while grid-n30,
    # att48 and this case pin the screened path and the hashed visited set.
    euclidean100 = lambda: _instance("euclidean", 100)  # noqa: E731
    for variant in ("baseline", "modified"):
        cases[f"hc-{variant}-r0-euclidean-n100"] = _hc(euclidean100, variant, 100, 0)
    # The smallest climbs: at n = 2 the one neighbour is taken unscreened,
    # and at n = 3 every swap exchanges two cycle neighbours.
    for n in (2, 3):
        for variant in ("baseline", "modified"):
            cases[f"hc-{variant}-euclidean-n{n}"] = _hc(
                lambda n=n: _instance("euclidean", n), variant, n, 4
            )
    # Seven steps end five of the ten climbs (BUDGET_CASE's test checks
    # the mix), so a run carries aborted and finished climbs side by side.
    cases[BUDGET_CASE] = _hc_budget(euclidean13, 13, 9, 7)
    # Modified runs whose visited cap fills during a climb, on uniform and
    # tie-heavy points: a cap of one holds only the first start, and short
    # budgets end climbs partway through or at an escape (every climb, for
    # some cases). The shared set makes later climbs meet stored tours.
    for n in range(7, 12):
        for tag, inst in (("euclidean", lambda n=n: _instance("euclidean", n)),
                          ("grid-manhattan", lambda n=n: _grid_manhattan(n))):
            for cap in (1, 5, 20):
                for max_steps in (1, 3, DEFAULT_MAX_STEPS):
                    budget = "" if max_steps == DEFAULT_MAX_STEPS else f"-budget{max_steps}"
                    cases[f"hc-modified-cap{cap}{budget}-{tag}-n{n}"] = _hc_budget(
                        inst, 10 * n + cap, 30, max_steps, "modified", visited_cap=cap
                    )
    # Modified runs whose climbs part from the path that only bans the step
    # straight back after their first escape: at n = 8 forty restarts crowd
    # the set; on the 3-by-3 Chebyshev grid a cap of 11 drops the fourth
    # climb's local minimum, so the step after its escape may go back there;
    # and a budget of four steps ends some climbs where they would escape.
    cases["hc-modified-r40-euclidean-n8"] = _hc(lambda: _instance("euclidean", 8), "modified", 8, 40)
    cases["hc-modified-cap11-grid-wchebyshev-n9"] = _hc_budget(
        lambda: _grid_chebyshev(9), 9, 10, DEFAULT_MAX_STEPS, "modified", visited_cap=11
    )
    cases["hc-modified-budget4-euclidean-n9"] = _hc_budget(
        lambda: _instance("euclidean", 9), 9, 30, 4, "modified"
    )
    # A two-step budget on a tie-heavy grid, where some climb's step past
    # the budget would go to a tour the set holds.
    cases["hc-modified-budget2-grid-manhattan-n7"] = _hc_budget(
        lambda: _grid_manhattan(7), 107, 40, 2, "modified"
    )
    # Held-Karp at the sizes the grid above does not reach: the smallest
    # instances, where the DP has one or two layers, n = 15 and the largest
    # size it accepts, HELD_KARP_MAX.
    for n in (2, 3, 15, HELD_KARP_MAX):
        cases[f"held_karp-euclidean-n{n}"] = lambda n=n: _exact_entry(
            held_karp(_instance("euclidean", n))
        )
    for n in (12, 16):
        cases[f"held_karp-grid-wchebyshev-n{n}"] = lambda n=n: _exact_entry(
            held_karp(_grid_chebyshev(n))
        )
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


def test_budget_case_mixes_aborted_and_finished_climbs(record):
    assert 0 < record[BUDGET_CASE]["aborted"] < record[BUDGET_CASE]["runs"]


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    doc = {name: CASES[name]() for name in sorted(CASES)}
    RECORD.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {RECORD}")
