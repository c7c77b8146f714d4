import collections
import dataclasses
import math
import types

import numpy as np
import pytest

from helpers import make_instance, random_instance, reversal_invariant_child, square_instance
from reference import reverse
from tourbench import ga
from tourbench.bench import run_experiment
from tourbench.core import (
    ConfigurationError,
    Metric,
    Tour,
    make_rng,
    random_rows,
    random_tour,
    row_lengths,
    tour_length,
)
from tourbench.ga import (
    _WEIGHT_FLOOR,
    CROSSOVER_VARIANTS,
    GaConfig,
    _Draws,
    _land,
    crossover_baseline,
    mutate,
    run_ga,
    select_parent,
)
from tourbench.tsplib import bundled_instance


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
        {"population_size": 20.5},
        {"max_generations": 2.5},
        {"max_stall_generations": True},
        {"mutation_rate": True},
        {"mutation_rate": "0.1"},
        {"mutation_rate": None},
        {"mutation_rate": float("nan")},
        {"elitism": "no"},
        {"elitism": 1},
        {"seed": 1.5},
        {"seed": 1.0},
        {"seed": True},
        {"seed": "1"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GaConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"mutation_rate": 1},
        {"mutation_rate": np.float64(0.5)},
        {"seed": -1},
        {"seed": np.int64(7)},
        {"seed": (1 << 64) - 1},
    ])
    def test_accepts_numbers(self, kwargs):
        GaConfig(**kwargs)

    def test_variant_names(self):
        assert CROSSOVER_VARIANTS == ("baseline", "reversal_invariant")


class TestSelectParent:
    """Fed M evenly spaced units, each member is picked its weight share of M times, to within one."""

    DRAWS = 1_000

    def _draw_counts(self, population):
        grid = iter((np.arange(self.DRAWS) + 0.5) / self.DRAWS)
        units = types.SimpleNamespace(random=lambda: next(grid))  # its only draw is random()
        counts = collections.Counter(
            select_parent(population, units).key() for _ in range(self.DRAWS)
        )
        return [counts[t.key()] for t, _ in population]

    def test_equal_lengths_select_uniformly(self):
        tours = [Tour(np.roll(np.arange(4), k)) for k in range(4)]
        counts = self._draw_counts([(t, 10.0) for t in tours])
        for count in counts:
            assert abs(count - self.DRAWS / 4) <= 1

    def test_shorter_is_strictly_likelier(self):
        short, long_ = Tour([0, 1, 2]), Tour([0, 2, 1])
        short_count, long_count = self._draw_counts([(short, 10.0), (long_, 30.0)])
        assert short_count > long_count

    def test_frequencies_match_weights(self):
        short, long_ = Tour([0, 1, 2]), Tour([0, 2, 1])
        lengths = (10.0, 30.0)
        counts = self._draw_counts(list(zip((short, long_), lengths)))
        longest = max(lengths)
        weights = [(longest - v) + _WEIGHT_FLOOR * longest for v in lengths]
        for count, weight in zip(counts, weights):
            assert abs(count - self.DRAWS * weight / sum(weights)) <= 1

    def test_all_zero_lengths_fall_back_to_uniform(self):
        tours = [Tour(np.roll(np.arange(4), k)) for k in range(4)]
        counts = self._draw_counts([(t, 0.0) for t in tours])
        for count in counts:
            assert abs(count - self.DRAWS / 4) <= 1


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

    @pytest.mark.parametrize("split", [2.5, True, 2.0])
    def test_rejects_non_integer_split(self, split):
        # 2.5 would run as split 3 and True as split 1.
        with pytest.raises(ValueError, match="split must be an integer"):
            crossover_baseline(Tour([0, 1, 2, 3, 4]), Tour([4, 3, 2, 1, 0]), split)

    def test_accepts_numpy_integer_split(self):
        p1, p2 = Tour([0, 1, 2, 3, 4]), Tour([4, 3, 2, 1, 0])
        assert crossover_baseline(p1, p2, np.int64(2)) == crossover_baseline(p1, p2, 2)


class TestCrossoverReversalInvariant:
    """The offspring path run_ga takes, with both candidates at one split."""

    def test_keeps_shorter_candidate(self):
        rng = make_rng(21)
        inst = random_instance(rng, 9)
        reversed_won = 0
        for _ in range(200):
            p1, p2 = random_tour(9, rng), random_tour(9, rng)
            split = int(rng.integers(1, 9))
            child = reversal_invariant_child(inst, p1, p2, split)
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
        assert reversal_invariant_child(inst, p1, p2, 1) == c1

    def test_same_split_lengths_ignore_mate_direction(self):
        rng = make_rng(33)
        inst = random_instance(rng, 10)
        for _ in range(100):
            p1, p2 = random_tour(10, rng), random_tour(10, rng)
            split = int(rng.integers(1, 10))
            a = reversal_invariant_child(inst, p1, p2, split)
            b = reversal_invariant_child(inst, p1, reverse(p2), split)
            assert tour_length(inst, a) == tour_length(inst, b)


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

    @pytest.mark.parametrize("rate", [True, "0.5", None])
    def test_rejects_non_real_rate(self, rate):
        # True would run at rate 1.0; "0.5" used to escape as a bare TypeError.
        with pytest.raises(ValueError, match="mutation rate must be a real number"):
            mutate(Tour([0, 1, 2, 3, 4]), rate, make_rng(0))

    def test_numpy_rate_compares_in_float64(self):
        # float32(0.1) is 0.10000000149...; in a float32 comparison this draw
        # just below it rounds up to it and would miss.
        rate = np.float32(0.1)
        positions = iter([0, 1])
        rng = types.SimpleNamespace(random=lambda: float(rate) - 1e-12,
                                    integers=lambda n: next(positions))
        assert mutate(Tour([0, 1, 2]), rate, rng).tolist() == [1, 0, 2]

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
        initial = row_lengths(inst, random_rows(inst.n, 25, make_rng(6)))
        assert result.best_length <= min(initial)

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

    def test_rejects_tours_too_long_for_the_wheel(self):
        # Every tour of these nine points is finite (test_core's instance just
        # below overflow), but a wheel summing twenty such lengths is not.
        step = math.ldexp(7.0, 1015)
        inst = make_instance([(step * i, 0.0) for i in range(9)], metric=Metric("manhattan"))
        with pytest.raises(ConfigurationError, match="too long for a roulette wheel of 20"):
            run_ga(inst, GaConfig(population_size=20))

    @pytest.mark.parametrize("field,value", [
        ("population_size", np.int64(5)),
        ("max_generations", np.int64(3)),
        ("max_stall_generations", np.int64(2)),
        ("mutation_rate", np.float64(0.5)),
        ("mutation_rate", np.float32(0.5)),
        ("mutation_rate", np.float32(0.1)),
    ])
    def test_numpy_scalar_fields_run_as_python_numbers(self, field, value):
        inst = random_instance(np.random.default_rng(59), 9)
        fields = dict(population_size=6, mutation_rate=0.3, max_generations=4,
                      max_stall_generations=4, crossover_variant="reversal_invariant", seed=3)
        plain = GaConfig(**{**fields, field: type(fields[field])(value)})
        scalar = GaConfig(**{**fields, field: value})

        def outcome(r):
            return r.best_tour, float.hex(r.best_length), r.fitness_evaluations, r.iterations

        assert outcome(run_ga(inst, scalar)) == outcome(run_ga(inst, plain))
        trials = [
            [(float.hex(t.tour_length), t.fitness_evaluations, t.iterations) for t in stats.trials]
            for stats in (run_experiment(inst, config, 3, 1) for config in (scalar, plain))
        ]
        assert trials[0] == trials[1]
        assert type(getattr(scalar, field)) is type(fields[field])

    def test_validates_config_and_instance(self):
        with pytest.raises(ConfigurationError):
            run_ga(square_instance(), GaConfig(population_size=1))
        with pytest.raises(ConfigurationError):
            run_ga(make_instance([(0, 0)]), GaConfig())


class TestLand:
    def test_matches_searchsorted_over_the_weights(self):
        rng = make_rng(4)
        for lengths in (rng.uniform(1.0, 100.0, 9), np.zeros(5), np.array([3.0, 3.0, 1.0, 3.0])):
            longest = lengths.max()
            weights = (longest - lengths) + (_WEIGHT_FLOOR * longest if longest > 0.0 else 1.0)
            cum = np.cumsum(weights)
            # A unit of 1.0 spins exactly the total, past the last boundary:
            # it lands on the last member.
            units = np.append(rng.random(200), [0.0, 1.0])
            expected = np.searchsorted(cum, units * cum[-1], "right")
            assert expected[-1] == lengths.size
            assert _land(lengths, units).tolist() == np.minimum(expected, lengths.size - 1).tolist()


def _reference_draws(rng, size, n, columns, rate):
    """One generation's draws as per-child Generator calls, in run_ga's order."""
    units, splits, swaps = [], [], []
    for child in range(size):
        units += [rng.random() for _ in range(2)]
        splits += [int(rng.integers(1, n)) for _ in range(columns)]
        if rate > 0.0 and rng.random() < rate:
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            while j == i:
                j = int(rng.integers(n))
            swaps.append((child, i, j))
    return units, splits, swaps


def _decoded(units, splits, swaps):
    """Draws as ``_reference_draws`` lists them; a swap row is (0, 0) or has i != j."""
    i, j = swaps.T
    assert (((i == 0) & (j == 0)) | (i != j)).all()
    hit = np.flatnonzero(i != j)
    return (units.ravel().tolist(), splits.ravel().tolist(),
            list(zip(hit.tolist(), i[hit].tolist(), j[hit].tolist())))


def _assert_same_position(draws, rng):
    """``draws``' Generator stands where ``rng`` does, half-word cache included."""
    assert draws.bits.state == rng.bit_generator.state


class TestGenerationDraws:
    """The chunked raw-word decode takes exactly the draws the Generator calls take."""

    def _assert_matches(self, seed, size, n, columns, rate, primed, generations=3, by_generation=False):
        """Decode ``generations`` generations of ``size`` children; the reference takes one per call.

        The decode takes them all in one ``take`` call, or ``by_generation``
        through ``generations``, as ``run_ga`` does.
        """
        ours, theirs = make_rng(seed), make_rng(seed)
        if primed:
            # One 32-bit draw leaves the high half of its word cached.
            ours.integers(5), theirs.integers(5)
        start = ours.bit_generator.state
        assert start["has_uint32"] == primed
        draws = _Draws(ours, n, columns, rate)
        if by_generation:
            rows = list(draws.generations(size, generations))
        else:
            units, splits, swaps = draws.take(generations * size)
            assert units.shape == (generations * size, 2)
            assert splits.shape == (generations * size, columns)
            assert swaps.shape == (generations * size, 2)
            rows = [
                tuple(part[g * size : (g + 1) * size] for part in (units, splits, swaps))
                for g in range(generations)
            ]
        assert len(rows) == generations
        for units, splits, swaps in rows:
            assert units.shape == swaps.shape == (size, 2) and splits.shape == (size, columns)
            assert _decoded(units, splits, swaps) == _reference_draws(theirs, size, n, columns, rate)
        # Between passes the Generator stands where the reference's does.
        _assert_same_position(draws, theirs)
        return draws, start

    @pytest.mark.parametrize("size", [7, 8])
    @pytest.mark.parametrize("n", [2, 3, 48])
    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("by_generation", [False, True])
    def test_matches_generator_calls(self, size, n, columns, rate, primed, by_generation):
        seed = size * 1000 + n * 10 + columns
        self._assert_matches(seed, size, n, columns, rate, primed, by_generation=by_generation)

    # run_ga decodes about 1,024 children per call: five generations at 200.
    @pytest.mark.parametrize("size,generations", [
        (7, 1), (7, 40), (8, 3), (8, 40), (11, 1), (11, 3), (11, 40), (200, 1), (200, 3), (200, 5),
    ])
    @pytest.mark.parametrize("n", [2, 3, 48])
    # At 0.02 and n = 2 or 3, where j == i often ends a pass, one take mixes
    # passes with a hit (swap slots) and passes without (split slots only).
    @pytest.mark.parametrize("rate", [0.0, 0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("primed", [False, True])
    def test_many_generations_per_call(self, size, generations, n, rate, primed):
        seed = generations * 100_000 + size * 100 + n
        self._assert_matches(seed, size, n, 2, rate, primed, generations)

    def test_odd_baseline_generation_leaves_half_a_word(self):
        # Seven baseline children take seven 32-bit split draws, so the next
        # generation starts with the cache full.
        draws, _ = self._assert_matches(3, 7, 48, 1, 0.0, False, generations=1)
        assert draws.rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    @pytest.mark.parametrize("primed", [False, True])
    def test_lemire_rejections(self, passes, rate, primed):
        # At n = 3 * 2**30 about a quarter of the 32-bit draws are rejected
        # and redrawn, both for the splits and for the swap positions; a
        # rejected split hands the whole chunk to _child.
        n, size, columns = 3 << 30, 64, 2
        draws, start = self._assert_matches(5, size, n, columns, rate, primed, generations=1)
        assert passes == {"takes": 1, "children": size, "child": size}
        fewest = size * (2 + (rate > 0.0)) + (size * columns - primed + 1) // 2
        # Count the words taken by stepping a probe from the start to where
        # the bit generator stands.
        probe = np.random.PCG64()
        probe.state = start
        end = draws.bits.state["state"]
        taken = 0
        while probe.state["state"] != end:
            assert taken < 4 * fewest, "the decode's end is not on the stream"
            probe.random_raw()
            taken += 1
        assert taken > fewest + 4

    @pytest.mark.parametrize("passed", [0, 5])
    @pytest.mark.parametrize("n", [3, 48])
    @pytest.mark.parametrize("primed", [False, True])
    def test_child_makes_the_generator_calls(self, passed, n, primed):
        # _child takes over from the start or after a take of ``passed``
        # children, which hands the stream back where the reference's calls
        # leave it; at n = 3 and rate 1 about every third swap redraws j.
        for seed in range(20):
            ours, theirs = make_rng(seed), make_rng(seed)
            if primed:
                ours.integers(5), theirs.integers(5)
            draws = _Draws(ours, n, 2, 1.0)
            rows = (np.empty((passed + 1, 2)), np.empty((passed + 1, 2), dtype=np.intp),
                    np.zeros((passed + 1, 2), dtype=np.intp))
            if passed:
                for part, taken in zip(rows, draws.take(passed)):
                    part[:passed] = taken
            draws._child([part[passed] for part in rows])
            decoded = _decoded(*rows)
            assert decoded == _reference_draws(theirs, passed + 1, n, 2, 1.0)
            _assert_same_position(draws, theirs)

    @pytest.fixture
    def passes(self, monkeypatch):
        """Counts of ``_Draws``' takes, the children they span, and ``_child`` calls."""
        counts = collections.Counter()
        take, child = _Draws.take, _Draws._child

        def counting_take(draws, count):
            counts["takes"] += 1
            counts["children"] += count
            return take(draws, count)

        def counting_child(draws, row):
            counts["child"] += 1
            return child(draws, row)

        monkeypatch.setattr(_Draws, "take", counting_take)
        monkeypatch.setattr(_Draws, "_child", counting_child)
        return counts

    @pytest.mark.parametrize("n, rate, count", [(3, 1.0, 1_000), (48, 0.1, 1_023)])
    def test_one_pass_per_take(self, passes, n, rate, count):
        # At n = 3 and rate 1 about every third swap redraws j, and no
        # redraw sends the chunk to _child; at n = 48 every child is decoded once.
        _Draws(make_rng(1), n, 2, rate).take(count)
        assert passes == {"takes": 1, "children": count}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("primed", [False, True])
    def test_redraw_chains_take_one_pass_per_generation(self, passes, n, primed):
        # At n = 2 half the j draws equal i, so a hit takes three halves on
        # average and some take ten or more; the pass's spare words cover
        # them. A generation of 2,000 is a take of its own.
        self._assert_matches(21, 2_000, n, 2, 1.0, primed, generations=2, by_generation=True)
        assert passes == {"takes": 2, "children": 4_000}

    @pytest.mark.parametrize("n", [2, 3, 48])
    @pytest.mark.parametrize("rate", [0.5, 1.0])
    @pytest.mark.parametrize("primed", [False, True])
    def test_pass_that_runs_out_of_words(self, passes, n, rate, primed):
        # With no spare words for the hits' halves, a pass runs out partway
        # (at a hit's swap halves, or at a rate word past its draw), and
        # _child draws the whole chunk from where the pass found the stream.
        ours, theirs = make_rng(n), make_rng(n)
        if primed:
            ours.integers(5), theirs.integers(5)
        draws = _Draws(ours, n, 2, rate)
        draws.per_hit = 0.0
        for count in (1, 300):
            passes.clear()
            decoded = _decoded(*draws.take(count))
            assert decoded == _reference_draws(theirs, count, n, 2, rate)
            _assert_same_position(draws, theirs)
            assert passes["child"] in (0, count)
        # 300 children at these rates always outrun a draw with no spare words.
        assert passes == {"takes": 1, "children": 300, "child": 300}

    def test_pop11_trial_takes_one_pass_per_chunk(self, passes):
        # 281 generations of 11 are four chunks of up to 93 generations.
        config = GaConfig(population_size=11, mutation_rate=0.1, max_generations=281,
                          max_stall_generations=281, crossover_variant="reversal_invariant",
                          elitism=True, seed=5)
        run_ga(bundled_instance("att48"), config)
        assert passes == {"takes": 4, "children": 3_091}

    @pytest.mark.parametrize("variant", CROSSOVER_VARIANTS)
    @pytest.mark.parametrize("rate", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("elitism", [False, True])
    def test_chunk_size_changes_no_result(self, monkeypatch, variant, rate, elitism):
        # 1,024 children are 34 generations of 30: the default takes two passes.
        inst = random_instance(np.random.default_rng(58), 16)
        config = GaConfig(population_size=30, mutation_rate=rate, max_generations=40,
                          max_stall_generations=40, crossover_variant=variant,
                          elitism=elitism, seed=13)

        def result(chunk):
            monkeypatch.setattr(ga, "_CHUNK_CHILDREN", chunk)
            r = run_ga(inst, config)
            return r.best_tour, r.best_length, r.fitness_evaluations, r.iterations

        default = result(ga._CHUNK_CHILDREN)
        assert result(1) == default
        assert result(100_000) == default
