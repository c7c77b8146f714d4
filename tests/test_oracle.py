import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import make_instance, random_instance, square_instance
from reference import held_karp_by_subset
from tourbench.core import ConfigurationError, Metric, Tour, tour_length
from tourbench.oracle import (
    BRUTE_FORCE_MAX,
    HELD_KARP_MAX,
    ExactResult,
    _pinned_tours,
    brute_force,
    held_karp,
)


def pinned_tours_by_permutations(n):
    """Reference enumeration: one tuple per order, reflections skipped."""
    rest = [p for p in itertools.permutations(range(1, n)) if p[0] <= p[-1]]
    return np.array([(0,) + p for p in rest], dtype=np.int64)


def tie_heavy_instances():
    # Integer points on small grids (so some coincide) under L1 and
    # Chebyshev distance, where many predecessors tie exactly.
    rng = np.random.default_rng(2024)
    for k in range(16):
        n = int(rng.integers(2, 12))
        side = int(rng.integers(2, 5))
        metric = Metric("manhattan") if k % 2 else Metric("wchebyshev", 1.0, 1.0)
        yield make_instance(rng.integers(0, side, size=(n, 2)), metric=metric, name=f"tie{k}")


@pytest.mark.parametrize("solver", [brute_force, held_karp])
class TestBothSolvers:
    def test_square(self, solver):
        res = solver(square_instance())
        assert res.optimal_length == 4.0
        assert res.optimal_tour == [0, 1, 2, 3]

    def test_two_points(self, solver):
        inst = make_instance([(0, 0), (3, 4)])
        res = solver(inst)
        assert res.optimal_tour == [0, 1]
        assert res.optimal_length == 10.0

    def test_line_instance(self, solver):
        # Optimal is sweeping the line and coming back: twice the span.
        inst = make_instance([(0, 0), (5, 0), (1, 0), (4, 0), (2, 0)])
        assert solver(inst).optimal_length == 10.0

    def test_length_matches_tour(self, solver):
        """Reported length is the library evaluation of the reported tour."""
        inst = random_instance(np.random.default_rng(23), 8)
        res = solver(inst)
        assert res.optimal_length == tour_length(inst, res.optimal_tour)

    def test_canonical_orientation(self, solver):
        rng = np.random.default_rng(29)
        for _ in range(5):
            res = solver(random_instance(rng, 7))
            assert res.optimal_tour[0] == 0
            assert res.optimal_tour[1] < res.optimal_tour[len(res.optimal_tour) - 1]

    def test_rejects_single_point(self, solver):
        with pytest.raises(ValueError):
            solver(make_instance([(0, 0)]))

    def test_beats_every_enumerated_tour(self, solver):
        inst = random_instance(np.random.default_rng(31), 6)
        res = solver(inst)
        for perm in itertools.permutations(range(1, 6)):
            t = Tour(np.array((0,) + perm, dtype=np.int64))
            assert res.optimal_length <= tour_length(inst, t)


class TestBruteForce:
    def test_size_limit(self):
        inst = random_instance(np.random.default_rng(1), BRUTE_FORCE_MAX + 1)
        with pytest.raises(ConfigurationError, match="brute_force handles at most 10 points"):
            brute_force(inst)

    def test_nodes_expanded_counts_distinct_tours(self):
        # (n-1)!/2 tours once rotations and reflections are removed
        for n in range(3, BRUTE_FORCE_MAX + 1):
            inst = random_instance(np.random.default_rng(2), n)
            assert brute_force(inst).nodes_expanded == math.factorial(n - 1) // 2

    @pytest.mark.parametrize("n", range(2, BRUTE_FORCE_MAX + 1))
    def test_enumerates_the_permutation_reference_in_order(self, n):
        tours = _pinned_tours(n)
        assert tours.dtype == np.int8
        np.testing.assert_array_equal(tours, pinned_tours_by_permutations(n))

    def test_memory_stays_near_the_edge_arrays(self):
        # Four float64 arrays of one entry per edge: a tuple per tour plus an
        # int64 copy of them went past it. The next test's bound is tighter.
        n = BRUTE_FORCE_MAX
        inst = random_instance(np.random.default_rng(10), n)
        edges = math.factorial(n - 1) // 2 * n * 8
        tracemalloc.start()
        try:
            brute_force(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * edges

    def test_memory_stays_near_the_tours_and_lengths(self):
        # The int8 tours and their float64 lengths, plus one row_lengths
        # block of temporaries: about 1.1 times their sum at n = 10. Growing
        # all (n-1)! orders before dropping the reflections took twice the
        # tours again. One float64 per edge of every tour would be 8 times
        # the tours.
        n = BRUTE_FORCE_MAX
        inst = random_instance(np.random.default_rng(10), n)
        count = math.factorial(n - 1) // 2
        tracemalloc.start()
        try:
            brute_force(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * count * n + 8 * count

    def test_tie_break_is_lexicographic(self):
        # A duplicated point makes swapping cities 1 and 2 an exact tie.
        inst = make_instance([(0, 0), (1, 0), (1, 0), (0, 1)])
        res = brute_force(inst)
        ties = []
        for perm in itertools.permutations(range(1, 4)):
            if perm[0] < perm[-1]:
                t = Tour(np.array((0,) + perm, dtype=np.int64))
                if tour_length(inst, t) == res.optimal_length:
                    ties.append(t.tolist())
        assert len(ties) > 1
        assert res.optimal_tour == min(ties)


class TestHeldKarp:
    def test_size_limit(self):
        with pytest.raises(ConfigurationError, match="held_karp handles at most 18 points"):
            held_karp(random_instance(np.random.default_rng(3), HELD_KARP_MAX + 1))

    def test_handles_sizes_beyond_brute_force(self):
        inst = random_instance(np.random.default_rng(4), 13)
        res = held_karp(inst)
        assert isinstance(res, ExactResult)
        assert res.optimal_length > 0.0
        assert sorted(res.optimal_tour.tolist()) == list(range(13))

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(37)
        for k in range(12):
            inst = random_instance(rng, int(rng.integers(4, 11)), name=f"agree{k}")
            bf = brute_force(inst)
            hk = held_karp(inst)
            assert hk.optimal_length == bf.optimal_length
            assert hk.optimal_tour == bf.optimal_tour

    def test_duplicate_points_still_agree(self):
        inst = make_instance([(0, 0), (1, 1), (0, 0), (1, 0), (1, 1), (2, 0)])
        assert held_karp(inst).optimal_length == brute_force(inst).optimal_length

    def test_memory_stays_near_the_tables(self):
        # The DP keeps one float64 cost entry for every end city of every
        # subset that holds city 0, 2^(n-1) subsets, and no parent table;
        # each subset-size pass adds only O(C(n-1, s-1) * n). The traced
        # peak is about 1.75 times the table at n = 16. Building every
        # candidate of a size at once, an (m, n, n) array, goes well past 2x.
        n = 16
        inst = random_instance(np.random.default_rng(16), n)
        tables = (1 << (n - 1)) * n * 8
        tracemalloc.start()
        try:
            held_karp(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * tables

    @pytest.mark.parametrize(
        "inst",
        [random_instance(np.random.default_rng([5, n]), n) for n in (2, 3, 4, 7, 11)]
        + list(tie_heavy_instances()),
        ids=lambda inst: f"{inst.name}-n{inst.n}",
    )
    def test_matches_subset_by_subset_reference(self, inst):
        res, ref = held_karp(inst), held_karp_by_subset(inst)
        assert float.hex(res.optimal_length) == float.hex(ref.optimal_length)
        assert res.optimal_tour == ref.optimal_tour
        assert res.nodes_expanded == ref.nodes_expanded
