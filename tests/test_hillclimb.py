import pickle
import tracemalloc

import numpy as np
import pytest

from helpers import make_instance, random_instance, square_instance
from tourbench import hillclimb
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
        {"restarts": 1.5},
        {"restarts": True},
        {"max_steps_per_run": 2.5},
        {"visited_cap": 1e6},
        {"seed": 1.5},
        {"seed": True},
        {"seed": np.float64(3)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            HcConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, np.int64(7), (1 << 64) + 3])
    def test_accepts_integer_seeds(self, seed):
        assert HcConfig(seed=seed).seed == seed


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

    @pytest.mark.parametrize("cap", [2.5, True])
    def test_rejects_non_integer_cap(self, cap):
        with pytest.raises(ValueError, match="must be an integer"):
            VisitedSet(cap=cap)

    def test_holds_one_tour_size(self):
        vs = VisitedSet()
        vs.add(Tour([0, 1, 2]))
        assert Tour([0, 1, 2, 3]) not in vs
        with pytest.raises(ValueError):
            vs.add(Tour([0, 1, 2, 3]))

    def test_full_set_still_rejects_another_size(self):
        vs = VisitedSet(cap=1)
        assert vs.add(Tour([0, 1, 2]))
        with pytest.raises(ValueError):
            vs.add(Tour([0, 1, 2, 3]))

    def test_memory_follows_entries_not_cap(self):
        tracemalloc.start()
        try:
            vs = VisitedSet(cap=10**9)
            vs.add(Tour(np.arange(48)))
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used < 64 * 1024

    def test_memory_per_entry_stays_near_the_keys(self):
        # An entry holds its tour's bytes, one city index each (two above 256
        # cities), plus a set slot and its share of the filter. Keeping a
        # second copy of every key, or 16-byte slots for every eight entries,
        # goes past the allowance at n = 300.
        for n in (48, 300):
            rng = np.random.default_rng(n)
            tours = [random_tour(n, rng) for _ in range(4097)]
            allowance = n * np.min_scalar_type(n - 1).itemsize + 320
            tracemalloc.start()
            try:
                vs = VisitedSet()
                vs.add(tours[0])
                first = tracemalloc.get_traced_memory()[0]
                worst = 0.0
                for size in range(2, len(tours) + 1):
                    vs.add(tours[size - 1])
                    if size >= 200:
                        growth = tracemalloc.get_traced_memory()[0] - first
                        worst = max(worst, growth / (size - 1))
            finally:
                tracemalloc.stop()
            assert len(vs) == 4097
            assert worst <= allowance, (n, worst)

    def test_filter_doubling_holds_little_beyond_the_new_filter(self):
        # The 65,537th tour doubles the filter to 8 MiB. Hashing all stored
        # tours at once would gather 8n bytes per tour on top of it.
        rng = np.random.default_rng(53)
        rows = rng.permuted(np.tile(np.arange(48), (65_537, 1)), axis=1)
        vs = VisitedSet()
        for row in rows[:-1]:
            vs.add(Tour(row))
        assert len(vs) == 65_536
        last = Tour(rows[-1])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vs.add(last)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        new_filter = 8 * 1024 * 1024
        assert len(vs) == 65_537 and last in vs
        assert rise <= new_filter + 2 * 1024 * 1024, rise

    def test_stores_tours_over_256_cities(self):
        # Cities 256 apart share a low byte, so keys cut to one byte per city
        # would take the swap of cities 5 and 261 for the tour itself.
        n = 300
        rng = np.random.default_rng(43)
        t = random_tour(n, rng)
        order = t.tolist()

        def swapped(i, j):
            nb = list(order)
            nb[i], nb[j] = nb[j], nb[i]
            return tuple(nb)

        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        keys = {swapped(*pairs[k]) for k in rng.choice(len(pairs), size=5, replace=False)}
        vs = VisitedSet()
        for tour in [t, *map(Tour, keys)]:
            assert vs.add(tour)
        assert len(vs) == 6
        assert t in vs and all(Tour(key) in vs for key in keys)
        assert Tour(swapped(order.index(5), order.index(261))) not in vs
        assert vs.allowed(t.order).tolist() == [swapped(i, j) not in keys for i, j in pairs]

    def test_allowed_masks_stored_neighbors_in_pair_order(self):
        # 40 unrelated tours stay below the first filter doubling; 600 pass four.
        for unrelated in (40, 600):
            rng = np.random.default_rng(17)
            t = random_tour(9, rng)
            nbrs = list(neighbors(t))
            vs = VisitedSet()
            for k in rng.choice(len(nbrs), size=12, replace=False):
                vs.add(nbrs[k])
            for _ in range(unrelated):
                vs.add(random_tour(9, rng))
            assert vs.allowed(t.order).tolist() == [nb not in vs for nb in nbrs]


class TestVisitedSetCollisions:
    """Every permutation hashes alike, so only the stored-key check keeps the set exact."""

    @pytest.fixture(autouse=True)
    def one_hash(self, monkeypatch):
        monkeypatch.setattr(
            "tourbench.hillclimb._zobrist_table", lambda n: np.zeros((n, n), dtype=np.uint64)
        )

    def test_add_contains_and_len_stay_exact(self):
        rng = np.random.default_rng(23)
        stored = [random_tour(7, rng) for _ in range(60)]  # past two table doublings
        keys = {tuple(t) for t in stored}
        vs = VisitedSet()
        for t in stored:
            assert vs.add(t)
        assert len(vs) == len(keys)
        for t in stored:
            assert vs.add(t)
        assert len(vs) == len(keys)
        for _ in range(200):
            t = random_tour(7, rng)
            assert (t in vs) == (tuple(t) in keys)

    def test_neighbor_mask_stays_exact(self):
        for unrelated in (30, 600):  # the second passes four filter doublings
            rng = np.random.default_rng(29)
            t = random_tour(8, rng)
            nbrs = list(neighbors(t))
            keys = {tuple(nbrs[k]) for k in rng.choice(len(nbrs), size=10, replace=False)}
            keys |= {tuple(random_tour(8, rng)) for _ in range(unrelated)}
            vs = VisitedSet()
            for key in keys:
                vs.add(Tour(key))
            assert vs.allowed(t.order).tolist() == [tuple(nb) not in keys for nb in nbrs]

    def test_modified_runs_are_unchanged(self, monkeypatch):
        instance = random_instance(np.random.default_rng(37), 20)
        config = HcConfig(variant="modified", restarts=3, seed=5)
        colliding = run_hc(instance, config)
        monkeypatch.undo()
        hashed = run_hc(instance, config)
        assert colliding.best_tour == hashed.best_tour
        assert float.hex(colliding.best_length) == float.hex(hashed.best_length)
        assert (colliding.fitness_evaluations, colliding.iterations, colliding.early_outs) == (
            hashed.fitness_evaluations, hashed.iterations, hashed.early_outs
        )


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

    def test_rejects_tour_of_another_size(self):
        inst = random_instance(np.random.default_rng(3), 16)
        with pytest.raises(ValueError, match="for an instance of 16 points"):
            steepest_step(inst, Tour(np.arange(17)))

    def test_empty_visited_set_forbids_nothing(self, att48):
        t = random_tour(48, np.random.default_rng(71))
        tour, length, evaluated = steepest_step(att48, t, VisitedSet())
        free_tour, free_length, free_evaluated = steepest_step(att48, t)
        assert tour == free_tour
        assert float.hex(length) == float.hex(free_length)
        assert evaluated == free_evaluated == 1128

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


@pytest.mark.parametrize("max_steps", [2.5, True, 0, -4, "3", None])
@pytest.mark.parametrize("climb", [
    lambda inst, start, max_steps: hill_climb_baseline(inst, start, max_steps),
    lambda inst, start, max_steps: hill_climb_modified(inst, start, VisitedSet(), max_steps),
], ids=["baseline", "modified"])
def test_climbs_reject_bad_step_budgets(att48, climb, max_steps):
    with pytest.raises(ConfigurationError, match="max_steps must be"):
        climb(att48, random_tour(48, np.random.default_rng(5)), max_steps)


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


def test_shared_set_marks_every_stored_tour(att48, monkeypatch):
    # The climb stores each tour under the hash its step computed, not a
    # fresh one: after three climbs that pass two filter doublings, every
    # stored key's own hash must hit a set filter entry, and the mask must
    # equal set membership along the last climb.
    sets, paths = [], []

    def kept(cap):
        sets.append(VisitedSet(cap))
        return sets[-1]

    def traced(instance, start, visited, max_steps):
        paths.append([])
        return hill_climb(instance, start, visited, max_steps, lambda t, _: paths[-1].append(t))

    monkeypatch.setattr(hillclimb, "VisitedSet", kept)
    monkeypatch.setattr(hillclimb, "hill_climb", traced)
    run_hc(att48, HcConfig(variant="modified", restarts=2, seed=11))
    (vs,) = sets
    assert len(paths) == 3 and vs._filter.size >= hillclimb._FIRST_BITS << 2
    keys = np.frombuffer(b"".join(vs._seen), vs._dtype).reshape(len(vs), att48.n)
    assert vs._filter[vs._hashes(keys) & np.uint64(vs._filter.size - 1)].all()
    for t in paths[-1]:
        assert vs.allowed(t.order).tolist() == [nb not in vs for nb in neighbors(t)]


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
