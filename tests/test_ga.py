import dataclasses

import numpy as np
import pytest

from helpers import make_instance, random_instance, square_instance
from tourbench.core import ConfigurationError, Tour, make_rng, random_tour, reverse, tour_length
from tourbench.ga import (
    _WEIGHT_FLOOR,
    CROSSOVER_VARIANTS,
    GaConfig,
    crossover_baseline,
    crossover_reversal_invariant,
    init_population,
    mutate,
    run_ga,
    select_parent,
)


class TestGaConfig:
    def test_defaults_validate(self):
        GaConfig()
        assert GaConfig().max_stall_generations == 10

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 1},
        {"mutation_rate": -0.1},
        {"mutation_rate": 1.5},
        {"max_generations": 0},
        {"max_stall_generations": 0},
        {"crossover_variant": "pmx"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GaConfig(**kwargs)

    def test_variant_names(self):
        assert CROSSOVER_VARIANTS == ("baseline", "reversal_invariant")


def test_init_population_sizes_and_lengths():
    inst = square_instance()
    pop = init_population(inst, 12, make_rng(4))
    assert len(pop) == 12
    for tour, length in pop:
        assert length == tour_length(inst, tour)


class TestSelectParent:
    def _draw_counts(self, population, draws, seed=123):
        rng = make_rng(seed)
        counts = {}
        for _ in range(draws):
            t = select_parent(population, rng)
            counts[t.key()] = counts.get(t.key(), 0) + 1
        return counts

    def test_equal_lengths_select_uniformly(self):
        tours = [Tour(np.roll(np.arange(4), k)) for k in range(4)]
        population = [(t, 10.0) for t in tours]
        counts = self._draw_counts(population, 10_000)
        for t in tours:
            assert 2_300 <= counts[t.key()] <= 2_700

    def test_shorter_is_strictly_likelier(self):
        short, long_ = Tour([0, 1, 2]), Tour([0, 2, 1])
        counts = self._draw_counts([(short, 10.0), (long_, 30.0)], 20_000)
        assert counts[short.key()] > counts[long_.key()]

    def test_frequencies_match_weights(self):
        """Draw frequencies track the roulette weights within 2 percent."""
        short, long_ = Tour([0, 1, 2]), Tour([0, 2, 1])
        lengths = (10.0, 30.0)
        counts = self._draw_counts(list(zip((short, long_), lengths)), 100_000)
        longest = max(lengths)
        weights = [(longest - v) + _WEIGHT_FLOOR * longest for v in lengths]
        expected = weights[0] / sum(weights)
        observed = counts[short.key()] / 100_000
        assert abs(observed - expected) <= 0.02

    def test_all_zero_lengths_fall_back_to_uniform(self):
        tours = [Tour(np.roll(np.arange(4), k)) for k in range(4)]
        counts = self._draw_counts([(t, 0.0) for t in tours], 4_000)
        for t in tours:
            assert 800 <= counts[t.key()] <= 1_200


class TestCrossoverBaseline:
    def test_worked_example(self):
        p1 = Tour([0, 1, 2, 3, 4])
        p2 = Tour([4, 3, 2, 1, 0])
        assert crossover_baseline(p1, p2, 2) == [0, 1, 4, 3, 2]

    def test_tail_keeps_mate_order(self):
        p1 = Tour([0, 1, 2, 3, 4])
        p2 = Tour([2, 4, 0, 3, 1])
        assert crossover_baseline(p1, p2, 3) == [0, 1, 2, 4, 3]

    def test_self_cross_is_identity(self):
        p = Tour([3, 0, 4, 1, 2])
        for split in range(1, 5):
            assert crossover_baseline(p, p, split) == p

    def test_random_children_are_valid(self):
        rng = make_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            p1, p2 = random_tour(n, rng), random_tour(n, rng)
            split = int(rng.integers(1, n))
            child = crossover_baseline(p1, p2, split)
            assert sorted(child.tolist()) == list(range(n))
            assert child.tolist()[:split] == p1.tolist()[:split]

    def test_drawn_split_is_deterministic(self):
        p1, p2 = Tour([0, 1, 2, 3, 4]), Tour([4, 2, 0, 1, 3])
        a = crossover_baseline(p1, p2, rng=make_rng(7))
        b = crossover_baseline(p1, p2, rng=make_rng(7))
        assert a == b

    def test_requires_split_or_rng(self):
        with pytest.raises(ValueError):
            crossover_baseline(Tour([0, 1]), Tour([1, 0]))

    @pytest.mark.parametrize("split", [0, 5, -1])
    def test_rejects_bad_split(self, split):
        with pytest.raises(ValueError):
            crossover_baseline(Tour([0, 1, 2, 3, 4]), Tour([4, 3, 2, 1, 0]), split)

    def test_rejects_mismatched_parents(self):
        with pytest.raises(ValueError):
            crossover_baseline(Tour([0, 1, 2]), Tour([0, 1]), 1)


class TestCrossoverReversalInvariant:
    def test_keeps_shorter_candidate(self):
        rng = make_rng(21)
        inst = random_instance(rng, 9)
        reversed_won = 0
        for _ in range(200):
            p1, p2 = random_tour(9, rng), random_tour(9, rng)
            split = int(rng.integers(1, 9))
            child = crossover_reversal_invariant(p1, p2, inst, split=split)
            c1 = crossover_baseline(p1, p2, split)
            c2 = crossover_baseline(p1, reverse(p2), split)
            best = min(tour_length(inst, c1), tour_length(inst, c2))
            assert tour_length(inst, child) == best
            if tour_length(inst, c2) < tour_length(inst, c1):
                reversed_won += 1
        assert reversed_won > 0

    def test_tie_prefers_unreversed_mate(self):
        # Cities 1 and 2 sit on the same point, so the two candidates tie
        # exactly while being different permutations.
        inst = make_instance([(0, 0), (1, 0), (1, 0), (0, 1)])
        p1 = Tour([0, 1, 2, 3])
        p2 = Tour([3, 1, 2, 0])
        c1 = crossover_baseline(p1, p2, 1)
        c2 = crossover_baseline(p1, reverse(p2), 1)
        assert c1 != c2
        assert tour_length(inst, c1) == tour_length(inst, c2)
        assert crossover_reversal_invariant(p1, p2, inst, split=1) == c1

    def test_same_split_lengths_ignore_mate_direction(self):
        rng = make_rng(33)
        inst = random_instance(rng, 10)
        for _ in range(100):
            p1, p2 = random_tour(10, rng), random_tour(10, rng)
            split = int(rng.integers(1, 10))
            a = crossover_reversal_invariant(p1, p2, inst, split=split)
            b = crossover_reversal_invariant(p1, reverse(p2), inst, split=split)
            assert tour_length(inst, a) == tour_length(inst, b)

    def test_drawn_splits_give_valid_child(self):
        rng = make_rng(41)
        inst = random_instance(rng, 8)
        for _ in range(50):
            p1, p2 = random_tour(8, rng), random_tour(8, rng)
            child = crossover_reversal_invariant(p1, p2, inst, rng=rng)
            assert sorted(child.tolist()) == list(range(8))

    def test_requires_split_or_rng(self):
        inst = square_instance()
        with pytest.raises(ValueError):
            crossover_reversal_invariant(Tour([0, 1, 2, 3]), Tour([3, 2, 1, 0]), inst)


class TestMutate:
    def test_zero_rate_returns_same_object(self):
        t = Tour([0, 1, 2, 3])
        assert mutate(t, 0.0, make_rng(1)) is t

    def test_full_rate_swaps_exactly_one_pair(self):
        rng = make_rng(2)
        for _ in range(100):
            t = random_tour(10, rng)
            m = mutate(t, 1.0, rng)
            assert m is not t
            assert sorted(m.tolist()) == list(range(10))
            assert int(np.sum(m.order != t.order)) == 2

    def test_rate_controls_frequency(self):
        rng = make_rng(3)
        t = random_tour(8, rng)
        changed = sum(mutate(t, 0.3, rng) is not t for _ in range(1_000))
        assert 230 <= changed <= 370

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            mutate(Tour([0, 1]), 1.2, make_rng(0))

    def test_rejects_one_point_tour(self):
        # No two distinct positions exist, so the swap draw could never end.
        with pytest.raises(ValueError):
            mutate(Tour([0]), 1.0, make_rng(0))


class TestRunGa:
    def test_solves_square_with_reversal_invariant(self):
        config = GaConfig(population_size=20, max_generations=30,
                          max_stall_generations=30,
                          crossover_variant="reversal_invariant", seed=0)
        result = run_ga(square_instance(), config)
        assert result.best_length == 4.0
        assert result.runs == 1
        assert result.early_outs == 0

    def test_reports_best_tour_consistently(self):
        inst = random_instance(np.random.default_rng(51), 12)
        result = run_ga(inst, GaConfig(population_size=30, max_generations=10, seed=5))
        assert result.best_length == tour_length(inst, result.best_tour)

    def test_best_never_worse_than_initial_population(self):
        inst = random_instance(np.random.default_rng(52), 15)
        config = GaConfig(population_size=25, max_generations=12, seed=6)
        result = run_ga(inst, config)
        initial = init_population(inst, 25, make_rng(6))
        assert result.best_length <= min(length for _, length in initial)

    def test_progress_trace_is_non_increasing(self):
        inst = random_instance(np.random.default_rng(53), 14)
        trace = []
        config = GaConfig(population_size=20, max_generations=15, seed=7)
        result = run_ga(inst, config, on_generation=lambda gen, best: trace.append(best))
        assert len(trace) == result.iterations
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert result.best_length == trace[-1]

    def test_stall_stops_early(self):
        config = GaConfig(population_size=30, max_generations=50,
                          max_stall_generations=2, seed=8)
        result = run_ga(square_instance(), config)
        assert result.iterations < 50

    def test_generation_cap_honored(self):
        inst = random_instance(np.random.default_rng(54), 20)
        config = GaConfig(population_size=10, max_generations=5,
                          max_stall_generations=50, seed=9)
        assert run_ga(inst, config).iterations == 5

    @pytest.mark.parametrize("variant,mutation,per_offspring", [
        ("baseline", 0.0, 1),
        ("reversal_invariant", 0.0, 2),
        ("baseline", 1.0, 2),
        ("reversal_invariant", 1.0, 3),
    ])
    def test_fitness_evaluation_accounting(self, variant, mutation, per_offspring):
        """Evaluations: one per initial member plus a fixed cost per offspring."""
        inst = random_instance(np.random.default_rng(55), 10)
        config = GaConfig(population_size=15, mutation_rate=mutation,
                          max_generations=6, max_stall_generations=50,
                          crossover_variant=variant, seed=10)
        result = run_ga(inst, config)
        expected = 15 + result.iterations * 15 * per_offspring
        assert result.fitness_evaluations == expected

    def test_deterministic_per_seed(self):
        inst = random_instance(np.random.default_rng(56), 12)
        config = GaConfig(population_size=16, max_generations=8, seed=11,
                          crossover_variant="reversal_invariant")
        a = run_ga(inst, config)
        b = run_ga(inst, config)
        assert a.best_tour == b.best_tour
        assert a.best_length == b.best_length
        assert a.fitness_evaluations == b.fitness_evaluations

    def test_elitism_keeps_best(self):
        inst = random_instance(np.random.default_rng(57), 12)
        config = GaConfig(population_size=12, mutation_rate=0.5,
                          max_generations=10, elitism=True, seed=12)
        trace = []
        run_ga(inst, config, on_generation=lambda gen, best: trace.append(best))
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_validates_config_and_instance(self):
        with pytest.raises(ConfigurationError):
            run_ga(square_instance(), GaConfig(population_size=1))
        with pytest.raises(ConfigurationError):
            run_ga(make_instance([(0, 0)]), GaConfig())
