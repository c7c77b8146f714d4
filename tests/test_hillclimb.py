import pickle

import numpy as np
import pytest

from helpers import make_instance, random_instance, square_instance
from tourbench.core import (
    ConfigurationError,
    Tour,
    make_rng,
    neighbors,
    random_tour,
    tour_length,
)
from tourbench.hillclimb import (
    DEFAULT_MAX_STEPS,
    DEFAULT_VISITED_CAP,
    HC_VARIANTS,
    HcConfig,
    RunAbortedError,
    VisitedSet,
    hill_climb,
    hill_climb_baseline,
    hill_climb_modified,
    run_hc,
    steepest_step,
)

# A 7-point instance with a start whose plain steepest descent strands on a
# local minimum while the escape variant walks on to the global optimum.
TRAP_COORDS = [(88, 20), (72, 36), (48, 0), (61, 83), (66, 15), (53, 26), (96, 88)]
TRAP_START = [0, 1, 2, 4, 5, 6, 3]
TRAP_LOCAL_LENGTH = 246.0334761948191
TRAP_OPT_LENGTH = 245.28088799785934


@pytest.fixture
def trap():
    return make_instance(TRAP_COORDS, name="trap")


class TestHcConfig:
    def test_defaults_validate(self):
        config = HcConfig()
        assert config.max_steps_per_run == DEFAULT_MAX_STEPS
        assert config.visited_cap == DEFAULT_VISITED_CAP
        assert HC_VARIANTS == ("baseline", "modified")

    @pytest.mark.parametrize("kwargs", [
        {"restarts": -1},
        {"variant": "tabu"},
        {"max_steps_per_run": 0},
        {"visited_cap": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            HcConfig(**kwargs)


class TestVisitedSet:
    def test_add_and_contains(self):
        vs = VisitedSet()
        t = Tour([0, 1, 2])
        assert t not in vs
        assert vs.add(t)
        assert t in vs
        assert len(vs) == 1

    def test_re_adding_keeps_size(self):
        vs = VisitedSet()
        t = Tour([0, 1, 2])
        assert vs.add(t)
        assert vs.add(t)
        assert len(vs) == 1

    def test_cap_drops_new_entries_but_keeps_lookups(self):
        vs = VisitedSet(cap=2)
        a, b, c = Tour([0, 1, 2]), Tour([1, 0, 2]), Tour([2, 1, 0])
        assert vs.add(a)
        assert vs.add(b)
        assert not vs.add(c)
        assert c not in vs
        assert a in vs and b in vs

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            VisitedSet(cap=0)


class TestSteepestStep:
    def test_finds_improvement(self):
        inst = square_instance()
        neighbor, length, _ = steepest_step(inst, Tour([0, 2, 1, 3]))
        # two swaps reach the optimal cycle (one reversed); lex-first wins
        assert length == 4.0
        assert neighbor == [3, 2, 1, 0]

    def test_at_optimum_returns_best_non_improving_neighbor(self):
        """The step itself does not filter on improvement; climbs do."""
        inst = square_instance()
        neighbor, length, _ = steepest_step(inst, Tour([0, 1, 2, 3]))
        # swapping positions 0 and 2 retraces the same cycle, so the best
        # neighbor ties the optimum; first (i, j) pair wins the tie
        assert length == 4.0
        assert neighbor == [2, 1, 0, 3]

    def test_forbidden_moves_are_skipped(self):
        inst = square_instance()
        vs = VisitedSet()
        vs.add(Tour([2, 1, 0, 3]))
        neighbor, length, _ = steepest_step(inst, Tour([0, 1, 2, 3]), forbidden=vs)
        # next tie at the same length comes from swapping positions 1 and 3
        assert length == 4.0
        assert neighbor == [0, 3, 2, 1]

    def test_all_forbidden_returns_none(self):
        inst = make_instance([(0, 0), (1, 0), (0, 1)])
        t = Tour([0, 1, 2])
        vs = VisitedSet()
        for nb in neighbors(t):
            vs.add(nb)
        assert steepest_step(inst, t, forbidden=vs) is None

    def test_matches_neighborhood_scan(self):
        rng = np.random.default_rng(61)
        inst = random_instance(rng, 8)
        for _ in range(10):
            t = random_tour(8, rng)
            neighbor, length, _ = steepest_step(inst, t)
            assert length == tour_length(inst, neighbor)
            assert length == min(tour_length(inst, nb) for nb in neighbors(t))


class TestHillClimbBaseline:
    def test_strands_on_local_minimum(self, trap):
        end, _, steps, _, _ = hill_climb_baseline(trap, Tour(TRAP_START))
        assert steps == 2
        assert tour_length(trap, end) == TRAP_LOCAL_LENGTH
        assert TRAP_LOCAL_LENGTH > TRAP_OPT_LENGTH

    def test_descends_strictly(self, trap):
        lengths = []
        hill_climb_baseline(trap, Tour(TRAP_START), on_visit=lambda t, v: lengths.append(v))
        assert len(lengths) == 3  # start plus two steps
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_result_has_no_improving_neighbor(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            inst = random_instance(rng, 9)
            end, _, _, _, _ = hill_climb_baseline(inst, random_tour(9, rng))
            _, best_neighbor, _ = steepest_step(inst, end)
            assert best_neighbor >= tour_length(inst, end)

    def test_step_budget_aborts(self, trap):
        with pytest.raises(RunAbortedError) as err:
            hill_climb_baseline(trap, Tour(TRAP_START), max_steps=1)
        assert err.value.steps == 1
        assert err.value.best_length < tour_length(trap, Tour(TRAP_START))

    def test_budget_of_exactly_the_climb_does_not_abort(self, trap):
        # the abort check comes after the improvement check
        _, length, steps, _, _ = hill_climb_baseline(trap, Tour(TRAP_START), max_steps=2)
        assert (length, steps) == (TRAP_LOCAL_LENGTH, 2)

    def test_evaluation_count_is_full_neighborhood_per_visit(self, trap):
        _, _, steps, evaluations, _ = hill_climb(trap, Tour(TRAP_START), max_steps=10_000)
        assert evaluations == (steps + 1) * 21  # n(n-1)/2 = 21 for n = 7


class TestHillClimbModified:
    def test_escapes_to_optimum(self, trap):
        best, _, steps, _, early = hill_climb_modified(trap, Tour(TRAP_START), VisitedSet())
        assert not early
        assert steps == 5
        assert tour_length(trap, best) == TRAP_OPT_LENGTH
        assert tour_length(trap, best) < TRAP_LOCAL_LENGTH

    def test_budget_of_exactly_the_climb_does_not_abort(self, trap):
        _, length, steps, _, _ = hill_climb_modified(
            trap, Tour(TRAP_START), VisitedSet(), max_steps=5
        )
        assert (length, steps) == (TRAP_OPT_LENGTH, 5)

    def test_step_budget_abort_reports_best_not_current(self, trap):
        # step 3 is the escape, so the walk is above its best when the budget runs out
        with pytest.raises(RunAbortedError) as err:
            hill_climb_modified(trap, Tour(TRAP_START), VisitedSet(), max_steps=3)
        assert err.value.steps == 3
        assert err.value.best_length == TRAP_LOCAL_LENGTH

    def test_early_out_when_start_already_visited(self, trap):
        vs = VisitedSet()
        start = Tour(TRAP_START)
        vs.add(start)
        best, _, steps, _, early = hill_climb_modified(trap, start, vs)
        assert early
        assert steps == 0
        assert best == start

    def test_never_worse_than_baseline_from_same_start(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            inst = random_instance(rng, 8)
            start = random_tour(8, rng)
            base_end = hill_climb_baseline(inst, start)[0]
            mod_end = hill_climb_modified(inst, start, VisitedSet())[0]
            assert tour_length(inst, mod_end) <= tour_length(inst, base_end)

    def test_marks_every_visited_tour(self, trap):
        vs = VisitedSet()
        seen = []
        hill_climb_modified(trap, Tour(TRAP_START), vs, on_visit=lambda t, v: seen.append(t))
        assert len(seen) >= 2
        for t in seen:
            assert t in vs


class TestEntryPointsAgree:
    """A single climb and run_hc without restarts give the same result from the same seed."""

    @pytest.mark.parametrize("instance_name, seed", [
        ("trap", 0), ("trap", 5), ("trap", 23), ("att48", 0), ("att48", 1),
    ])
    @pytest.mark.parametrize("variant", HC_VARIANTS)
    def test_single_climb_matches_run_hc(self, request, instance_name, seed, variant):
        inst = request.getfixturevalue(instance_name)
        start = random_tour(inst.n, make_rng(seed))
        if variant == "baseline":
            climb = hill_climb_baseline(inst, start)
        else:
            climb = hill_climb_modified(inst, start, VisitedSet())
        result = run_hc(inst, HcConfig(restarts=0, variant=variant, seed=seed))
        assert climb[0] == result.best_tour
        assert climb[1:4] == (result.best_length, result.iterations, result.fitness_evaluations)


class TestRunHc:
    def test_runs_counts_restarts(self, trap):
        result = run_hc(trap, HcConfig(restarts=4, seed=0))
        assert result.runs == 5
        assert result.iterations > 0
        assert result.fitness_evaluations > 0
        assert result.best_length == tour_length(trap, result.best_tour)

    def test_deterministic_per_seed(self, trap):
        config = HcConfig(restarts=3, variant="modified", seed=17)
        a = run_hc(trap, config)
        b = run_hc(trap, config)
        assert a.best_tour == b.best_tour
        assert a.best_length == b.best_length
        assert a.fitness_evaluations == b.fitness_evaluations

    def test_baseline_never_early_outs(self, trap):
        assert run_hc(trap, HcConfig(restarts=10, seed=1)).early_outs == 0

    def test_shared_visited_forces_early_outs(self):
        # 4 points have only 24 permutations; 31 climbs must collide.
        inst = make_instance([(0, 0), (0, 1), (1, 1), (1, 0)])
        result = run_hc(inst, HcConfig(restarts=30, variant="modified", seed=2))
        assert result.early_outs >= 7
        assert result.best_length == 4.0

    def test_counts_aborted_climbs(self):
        # A one-step budget: climbs that need a second step abort, and starts
        # already visited early-out before taking any.
        config = HcConfig(restarts=30, variant="modified", max_steps_per_run=1, seed=0)
        result = run_hc(square_instance(), config)
        assert (result.runs, result.aborted, result.early_outs) == (31, 6, 19)

    def test_all_aborted_raises(self, att48):
        config = HcConfig(restarts=2, max_steps_per_run=1, seed=3)
        with pytest.raises(RunAbortedError) as err:
            run_hc(att48, config)
        assert err.value.best_tour is not None
        assert err.value.best_length > 0.0

    def test_aborted_error_survives_pickling(self):
        # Pooled trials send a worker's error back to the parent pickled.
        err = RunAbortedError(Tour([2, 0, 1]), 12.5, 3, 9)
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert back.best_tour == err.best_tour
        assert (back.best_length, back.steps, back.evaluations) == (12.5, 3, 9)

    def test_validates_config_and_instance(self):
        with pytest.raises(ConfigurationError):
            run_hc(square_instance(), HcConfig(restarts=-1))
        with pytest.raises(ConfigurationError):
            run_hc(make_instance([(0, 0)]), HcConfig())

    def test_modified_beats_or_ties_baseline_on_paired_seed(self, trap):
        for seed in range(5):
            base = run_hc(trap, HcConfig(restarts=0, variant="baseline", seed=seed))
            mod = run_hc(trap, HcConfig(restarts=0, variant="modified", seed=seed))
            assert mod.best_length <= base.best_length
