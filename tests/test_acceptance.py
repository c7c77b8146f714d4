"""End-to-end acceptance checks over the full solver stack.

Each test records one summary line (printed after the run by conftest) and
then gates on its criterion. Criterion 5 is report-only by design: the
baseline it measures against reconstructs a third-party library's internals,
so its means are tracked but never asserted.

The heavy fixtures run the full att48 experiment grid once per session on
two worker processes: about 36 s for the module on a shared 2-core host,
against about 60 s serially.
"""

import dataclasses
import math

import numpy as np
import pytest

from helpers import make_instance
from tourbench.bench import compare, run_experiment
from tourbench.cli import main
from tourbench.core import Tour, make_rng, neighbors, random_tour, reverse, tour_length
from tourbench.ga import GaConfig, crossover_reversal_invariant
from tourbench.hillclimb import HcConfig, VisitedSet, hill_climb_modified, run_hc
from tourbench.oracle import brute_force, held_karp

TRIALS = 100
WORKERS = 2  # trial results do not depend on it; run_experiment caps it at the CPU count
LOWER_EPS = 1e-12  # relative slack when requiring solver >= oracle
HIT_EPS = 1e-9  # absolute slack when requiring an exact optimum hit

# Published references for the 48-point benchmark instance: the optimal
# permutation, its length under the instance's native rounded metric, and
# the real-valued length this library is expected to reproduce.
OPT_48_1BASED = [
    1, 8, 38, 31, 44, 18, 7, 28, 6, 37, 19, 27, 17, 43, 30, 36, 46, 33,
    20, 47, 21, 32, 39, 48, 5, 42, 24, 10, 45, 35, 4, 26, 2, 29, 34, 41,
    16, 22, 3, 23, 14, 25, 13, 11, 12, 15, 40, 9,
]
KNOWN_OPT_LENGTH = 33523.0
KNOWN_OPT_ROUNDED = 10628

# Reference means for the two att48 genetic-algorithm arms (criterion 5).
REFERENCE_MEAN_BASELINE = 122714.0
REFERENCE_MEAN_MODIFIED = 103278.0

GA_BASE_200 = GaConfig(
    population_size=200,
    mutation_rate=0.0,
    max_generations=30,
    max_stall_generations=30,
    crossover_variant="baseline",
)


@pytest.fixture(scope="module")
def ga_arms(att48):
    modified = dataclasses.replace(GA_BASE_200, crossover_variant="reversal_invariant")
    return compare(att48, GA_BASE_200, modified, TRIALS, experiment_seed=0, parallelism=WORKERS)


@pytest.fixture(scope="module")
def mod11_stats(att48):
    # 11 + 281*11*2 = 6193 evaluations per trial, matching the baseline
    # arm's 200 + 30*200*1 = 6200: the small population gets the same
    # search budget, spent over more generations.
    config = GaConfig(
        population_size=11,
        mutation_rate=0.0,
        max_generations=281,
        max_stall_generations=281,
        crossover_variant="reversal_invariant",
    )
    return run_experiment(att48, config, TRIALS, experiment_seed=0, parallelism=WORKERS)


@pytest.fixture(scope="module")
def hc_r0(att48):
    return compare(
        att48,
        HcConfig(restarts=0, variant="baseline"),
        HcConfig(restarts=0, variant="modified"),
        TRIALS,
        experiment_seed=0,
        parallelism=WORKERS,
    )


@pytest.fixture(scope="module")
def hc_r1(att48):
    return compare(
        att48,
        HcConfig(restarts=1, variant="baseline"),
        HcConfig(restarts=1, variant="modified"),
        TRIALS,
        experiment_seed=0,
        parallelism=WORKERS,
    )


def test_criterion_01_exact_solvers_agree(criteria_report):
    matches = 0
    for k in range(50):
        rng = np.random.default_rng(10_000 + k)
        n = int(rng.integers(5, 11))
        inst = make_instance(rng.uniform(0.0, 1000.0, size=(n, 2)), name=f"c1-{k}")
        if brute_force(inst).optimal_length == held_karp(inst).optimal_length:
            matches += 1
    criteria_report(1, matches == 50, f"held-karp == brute-force (exact) on {matches}/50 instances")
    assert matches == 50


def test_criterion_02_lower_bound_and_hit_rate(criteria_report):
    rng = np.random.default_rng(20260817)
    cases = []
    for k in range(20):
        inst = make_instance(rng.uniform(0.0, 100.0, size=(8, 2)), name=f"c2-{k}")
        cases.append((inst, held_karp(inst).optimal_length))

    def configs(k):
        ga = GaConfig(
            population_size=20, mutation_rate=0.1, max_generations=15,
            max_stall_generations=15, seed=5000 + k,
        )
        yield ga
        yield dataclasses.replace(ga, crossover_variant="reversal_invariant", seed=6000 + k)
        for restarts in (0, 1):
            for variant in ("baseline", "modified"):
                yield HcConfig(restarts=restarts, variant=variant, seed=7000 + k)

    from tourbench.ga import run_ga

    bound_ok = 0
    for k, (inst, opt) in enumerate(cases):
        floor = opt * (1.0 - LOWER_EPS)
        runs = [
            (run_ga(inst, c) if isinstance(c, GaConfig) else run_hc(inst, c))
            for c in configs(k)
        ]
        if all(r.best_length >= floor for r in runs):
            bound_ok += 1

    ga_hits = 0
    hc_hits = 0
    for k, (inst, opt) in enumerate(cases):
        ga = GaConfig(
            population_size=64, mutation_rate=0.2, max_generations=80,
            max_stall_generations=80, crossover_variant="reversal_invariant",
            seed=1000 + k,
        )
        if abs(run_ga(inst, ga).best_length - opt) <= HIT_EPS:
            ga_hits += 1
        hc = HcConfig(restarts=3, variant="modified", seed=2000 + k)
        if abs(run_hc(inst, hc).best_length - opt) <= HIT_EPS:
            hc_hits += 1

    ok = bound_ok == 20 and ga_hits >= 18 and hc_hits >= 18
    criteria_report(
        2, ok,
        f"all configs >= optimum on {bound_ok}/20 instances; "
        f"exact hits ga {ga_hits}/20, hc {hc_hits}/20 (need 18)",
    )
    assert ok


def test_criterion_03_benchmark_anchor(criteria_report, att48, ga_arms, mod11_stats, hc_r0, hc_r1):
    opt_tour = Tour([c - 1 for c in OPT_48_1BASED])
    lib_length = tour_length(att48, opt_tour)
    assert lib_length == pytest.approx(33523.70850743559, rel=1e-12)
    deviation = abs(KNOWN_OPT_LENGTH / lib_length - 1.0)

    # cross-check the permutation itself under the rounded pseudo-Euclidean
    # convention its published length uses: ceil-biased nearest int of
    # sqrt(d^2 / 10)
    def rounded_distance(a, b):
        r = math.sqrt(((a.x - b.x) ** 2 + (a.y - b.y) ** 2) / 10.0)
        t = round(r)
        return t + 1 if t < r else t

    order = list(opt_tour)
    rounded = sum(
        rounded_distance(att48.points[order[i]], att48.points[order[(i + 1) % 48]])
        for i in range(48)
    )

    floor = KNOWN_OPT_LENGTH * 0.995
    best_seen = min(
        ga_arms.stats_a.min, ga_arms.stats_b.min, mod11_stats.min,
        hc_r0.stats_a.min, hc_r0.stats_b.min, hc_r1.stats_a.min, hc_r1.stats_b.min,
    )

    ok = deviation <= 0.005 and rounded == KNOWN_OPT_ROUNDED and best_seen >= floor
    criteria_report(
        3, ok,
        f"known optimum within {deviation:.2e} of library length (gate 0.5%); "
        f"rounded length {rounded}; best-ever {best_seen:.1f} >= floor {floor:.1f}",
    )
    assert deviation <= 0.005
    assert rounded == KNOWN_OPT_ROUNDED
    assert best_seen >= floor


def test_criterion_04_ga_improvement_gate(criteria_report, ga_arms):
    ratio = ga_arms.mean_ratio
    criteria_report(
        4, ratio <= 0.90,
        f"modified/baseline mean ratio {ratio:.4f} (gate 0.90): "
        f"{ga_arms.stats_b.mean:.0f} vs {ga_arms.stats_a.mean:.0f} over {TRIALS} trials",
    )
    assert ratio <= 0.90


def test_criterion_05_ga_absolute_ranges(criteria_report, ga_arms):
    dev_base = ga_arms.stats_a.mean / REFERENCE_MEAN_BASELINE - 1.0
    dev_mod = ga_arms.stats_b.mean / REFERENCE_MEAN_MODIFIED - 1.0
    in_band = abs(dev_base) <= 0.15 and abs(dev_mod) <= 0.15
    criteria_report(
        5, "PASS" if in_band else "WARN",
        f"baseline {ga_arms.stats_a.mean:.0f} ({dev_base:+.1%} of "
        f"{REFERENCE_MEAN_BASELINE:.0f}), modified {ga_arms.stats_b.mean:.0f} "
        f"({dev_mod:+.1%} of {REFERENCE_MEAN_MODIFIED:.0f}); band 15%, report-only",
    )
    # report-only: the reference means come from reconstructed third-party
    # internals, so deviations are tracked but never gate the build


def test_criterion_06_small_population_parity(criteria_report, ga_arms, mod11_stats):
    base_mean = ga_arms.stats_a.mean
    ok = mod11_stats.mean <= base_mean
    criteria_report(
        6, ok,
        f"pop-11 modified mean {mod11_stats.mean:.0f} <= pop-200 baseline mean "
        f"{base_mean:.0f} at matched evaluation budget",
    )
    assert ok


def test_criterion_07_evaluation_accounting(criteria_report, ga_arms):
    pop = GA_BASE_200.population_size
    ratios = []
    for ra, rb in zip(ga_arms.stats_a.trials, ga_arms.stats_b.trials):
        per_gen_a = (ra.fitness_evaluations - pop) / ra.iterations
        per_gen_b = (rb.fitness_evaluations - pop) / rb.iterations
        ratios.append(per_gen_b / per_gen_a)
    lo, hi = min(ratios), max(ratios)
    ok = 1.9 <= lo and hi <= 2.1
    criteria_report(
        7, ok,
        f"per-generation evaluation ratio in [{lo:.3f}, {hi:.3f}] (band 1.9..2.1)",
    )
    assert ok


def test_criterion_08_hc_improvement_gates(criteria_report, hc_r0, hc_r1):
    gap0 = hc_r0.improvement
    r1_ok = hc_r1.stats_b.mean <= hc_r1.stats_a.mean
    ok = gap0 >= 0.01 and r1_ok
    criteria_report(
        8, ok,
        f"restart-0 gap {gap0:.2%} (gate 1%): {hc_r0.stats_b.mean:.0f} vs "
        f"{hc_r0.stats_a.mean:.0f}; restart-1 {hc_r1.stats_b.mean:.0f} <= "
        f"{hc_r1.stats_a.mean:.0f}",
    )
    assert gap0 >= 0.01
    assert r1_ok


def test_criterion_09_local_minimum_certificates(criteria_report):
    certified = 0
    for k in range(100):
        rng = np.random.default_rng(9_000 + k)
        inst = make_instance(rng.uniform(0.0, 100.0, size=(10, 2)), name=f"c9-{k}")
        result = run_hc(inst, HcConfig(seed=k))
        if all(
            tour_length(inst, nb) >= result.best_length
            for nb in neighbors(result.best_tour)
        ):
            certified += 1
    criteria_report(
        9, certified == 100,
        f"{certified}/100 baseline results have no strictly improving transposition",
    )
    assert certified == 100


def test_criterion_10_early_out(criteria_report):
    ok_cases = 0
    for k in range(100):
        rng = np.random.default_rng(50_000 + k)
        n = int(rng.integers(5, 12))
        inst = make_instance(rng.uniform(0.0, 100.0, size=(n, 2)), name=f"c10-{k}")
        start = random_tour(n, rng)
        visited = VisitedSet()
        visited.add(start)
        best, _, steps, _, early = hill_climb_modified(inst, start, visited)
        if early and steps == 0 and best == start:
            ok_cases += 1
    criteria_report(
        10, ok_cases == 100,
        f"{ok_cases}/100 pre-visited starts returned in 0 steps with early_out",
    )
    assert ok_cases == 100


def test_criterion_11_reversal_invariances(criteria_report, att48):
    rng = make_rng(11)
    reverse_equal = sum(
        tour_length(att48, t) == tour_length(att48, reverse(t))
        for t in (random_tour(att48.n, rng) for _ in range(1000))
    )

    mate_equal = 0
    for _ in range(1000):
        p1 = random_tour(att48.n, rng)
        p2 = random_tour(att48.n, rng)
        split = int(rng.integers(1, att48.n))
        child = crossover_reversal_invariant(p1, p2, att48, split=split)
        child_rev = crossover_reversal_invariant(p1, reverse(p2), att48, split=split)
        if tour_length(att48, child) == tour_length(att48, child_rev):
            mate_equal += 1

    ok = reverse_equal == 1000 and mate_equal == 1000
    criteria_report(
        11, ok,
        f"length(t) == length(reverse(t)) {reverse_equal}/1000; crossover mate "
        f"vs reversed mate equal {mate_equal}/1000 (both exact)",
    )
    assert ok


def test_criterion_12_parallel_determinism(criteria_report, tmp_path):
    rng = np.random.default_rng(12)
    coords = rng.uniform(0.0, 100.0, size=(10, 2))
    instance_file = tmp_path / "c12.txt"
    instance_file.write_text("".join(f"{float(x)!r} {float(y)!r}\n" for x, y in coords))

    outputs = []
    for parallelism in ("1", "8"):
        out = tmp_path / f"c12-p{parallelism}.csv"
        code = main([
            "bench", "--instance", str(instance_file), "--algorithm", "hc",
            "--variant", "modified", "--restarts", "1", "--trials", "8",
            "--seed", "17", "--parallelism", parallelism, "--reproducible",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())

    ok = outputs[0] == outputs[1]
    criteria_report(
        12, ok,
        "bench trial table byte-identical at parallelism 1 vs 8"
        if ok else "bench trial tables differ between parallelism 1 and 8",
    )
    assert ok
