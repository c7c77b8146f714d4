"""Property tests of crossover, the tour-length kernel and the solvers.

Requires hypothesis (it is in the ``test`` extra); without it this module
fails to import instead of being skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reversal_invariant_child
from reference import neighbors, reference_step, reverse
from tourbench.core import (
    _BLOCK,
    Instance,
    Metric,
    Point,
    Tour,
    random_rows,
    row_lengths,
    tour_length,
)
from tourbench.ga import (
    CROSSOVER_VARIANTS,
    GaConfig,
    _crossover_rows,
    crossover_baseline,
    run_ga,
)
from tourbench.hillclimb import (
    HC_VARIANTS,
    HcConfig,
    VisitedSet,
    hill_climb,
    run_hc,
    steepest_step,
)
from tourbench.oracle import held_karp
from tourbench.tsplib import bundled_instance

METRICS = (
    Metric("euclidean"),
    Metric("manhattan"),
    Metric("wmanhattan", 1.5, 0.5),
    Metric("wchebyshev", 0.7, 2.0),
)


@st.composite
def parents(draw, max_n=24, n=None):
    """Two tours over the same n points and a split in 1..n-1."""
    if n is None:
        n = draw(st.integers(2, max_n))
    p1 = draw(st.permutations(range(n)))
    p2 = draw(st.permutations(range(n)))
    return p1, p2, draw(st.integers(1, n - 1))


@st.composite
def instances(draw, n, metric=None):
    seed = draw(st.integers(0, 2**32 - 1))
    coords = np.random.default_rng(seed).uniform(-50.0, 50.0, size=(n, 2))
    points = [Point(float(x), float(y)) for x, y in coords]
    if metric is None:
        metric = draw(st.sampled_from(METRICS))
    return Instance("prop", points, metric)


def reference_child(p1, p2, split):
    """Baseline crossover written out plainly."""
    head = list(p1[:split])
    return head + [city for city in p2 if city not in head]


@settings(deadline=None)
@given(parents())
def test_crossover_child_is_prefix_then_mate_order(case):
    p1, p2, split = case
    child = crossover_baseline(Tour(p1), Tour(p2), split).tolist()
    assert sorted(child) == list(range(len(p1)))
    assert child[:split] == list(p1[:split])
    assert child == reference_child(p1, p2, split)


@settings(deadline=None)
@given(st.data())
def test_batched_crossover_matches_reference_row_by_row(data):
    n = data.draw(st.integers(2, 12))
    cases = data.draw(st.lists(parents(n=n), min_size=1, max_size=6))
    p1 = np.array([c[0] for c in cases])
    p2 = np.array([c[1] for c in cases])
    splits = np.array([c[2] for c in cases])
    children, flipped = _crossover_rows(p1, p2, np.stack([splits, splits], 1))
    for child, child_flipped, (a, b, split) in zip(children.tolist(), flipped.tolist(), cases):
        assert child == reference_child(a, b, split)
        assert child_flipped == reference_child(a, b[::-1], split)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_batched_crossover_keeps_the_parents_dtype(data):
    # run_ga breeds uint8 rows up to n = 256 and uint16 rows from n = 257,
    # while crossover_baseline passes int64 ones. Each column has its own split.
    n = data.draw(st.sampled_from([2, 255, 256, 257]) | st.integers(2, 12))
    dtype = data.draw(
        st.sampled_from([np.uint8, np.uint16, np.int64]).filter(lambda d: np.iinfo(d).max >= n - 1)
    )
    cases = data.draw(st.lists(parents(n=n), min_size=1, max_size=4))
    flips = [data.draw(st.integers(1, n - 1)) for _ in cases]
    p1 = np.array([c[0] for c in cases], dtype=dtype)
    p2 = np.array([c[1] for c in cases], dtype=dtype)
    splits = np.array([[c[2], flip] for c, flip in zip(cases, flips)], dtype=dtype)
    children = _crossover_rows(p1, p2, splits)
    assert children.dtype == dtype
    for child, child_flipped, (a, b, split), flip in zip(*children.tolist(), cases, flips):
        assert child == reference_child(a, b, split)
        assert child_flipped == reference_child(a, b[::-1], flip)


@settings(deadline=None)
@given(st.data())
def test_reversal_invariant_ignores_mate_direction(data):
    p1, p2, split = data.draw(parents(max_n=16))
    instance = data.draw(instances(len(p1)))
    a = reversal_invariant_child(instance, Tour(p1), Tour(p2), split)
    b = reversal_invariant_child(instance, Tour(p1), reverse(Tour(p2)), split)
    assert tour_length(instance, a) == tour_length(instance, b)


@settings(deadline=None)
@given(st.data())
def test_row_lengths_invariant_under_reversal_and_rotation(data):
    n = data.draw(st.integers(2, 30))
    tour = np.array(data.draw(st.permutations(range(n))))
    instance = data.draw(instances(n))
    shift = data.draw(st.integers(0, n - 1))
    rows = np.stack([tour, tour[::-1], np.roll(tour, shift), np.roll(tour[::-1], shift)])
    lengths = row_lengths(instance, rows)
    assert lengths.tolist() == [lengths[0]] * 4


def sequential_lengths(instance, rows):
    """Each row's sorted edges, the wrap-around edge included, added one at a time."""
    table = instance.distance_table()
    edges = np.sort(table[rows, np.roll(rows, -1, axis=1)], axis=1)
    lengths = []
    for row in edges.tolist():
        total = 0.0
        for edge in row:
            total += edge
        lengths.append(total)
    return lengths


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_row_lengths_add_each_rows_sorted_edges_in_order(data):
    # Batches on both sides of row_lengths' block boundaries, a lone row
    # among them; 257 and 300 points do not fit uint8 rows.
    n = data.draw(st.one_of(st.sampled_from((2, 3, 9, 48, 257, 300)), st.integers(2, 300)))
    step = max(2, _BLOCK // n)
    k = data.draw(st.sampled_from((0, 1, 2, step - 1, step, step + 1, 2 * step + 1)))
    fits = [d for d in (np.uint8, np.uint16, np.int64) if n - 1 <= np.iinfo(d).max]
    dtype = data.draw(st.sampled_from(fits))
    instance = data.draw(instances(n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rows = random_rows(n, k, np.random.default_rng(seed)).astype(dtype)
    lengths = row_lengths(instance, rows)
    assert lengths.dtype == np.float64
    assert lengths.tolist() == sequential_lengths(instance, rows)


def test_a_lone_row_is_added_in_order():
    # numpy sums an (n, 1) column pairwise, and for this tour that gives a
    # different float from adding its sorted edges one at a time.
    instance = bundled_instance("att48")
    row = random_rows(48, 1, np.random.default_rng(4))
    edges = np.sort(instance.distance_table()[row, np.roll(row, -1, axis=1)], axis=1)
    (length,) = sequential_lengths(instance, row)
    assert np.add.reduce(edges.T.copy(), axis=0)[0] != length
    assert row_lengths(instance, row)[0] == length
    assert tour_length(instance, Tour(row[0])) == length


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
@settings(deadline=None, max_examples=50)
@given(st.data())
def test_solvers_report_their_tour_and_never_beat_the_optimum(metric, data):
    n = data.draw(st.integers(4, 9))
    instance = data.draw(instances(n, metric))
    seed = data.draw(st.integers(0, 2**64 - 1))
    results = [
        run_hc(instance, HcConfig(restarts=2, variant=variant, seed=seed))
        for variant in HC_VARIANTS
    ] + [
        run_ga(instance, GaConfig(
            population_size=10,
            mutation_rate=0.2,
            max_generations=5,
            max_stall_generations=5,
            crossover_variant=variant,
            seed=seed,
        ))
        for variant in CROSSOVER_VARIANTS
    ]
    # Summation order differs between solvers, so allow n rounding steps below.
    floor = held_karp(instance).optimal_length * (1 - n * np.finfo(float).eps)
    for result in results:
        assert result.best_length == tour_length(instance, result.best_tour)
        assert result.best_length >= floor


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_steepest_step_matches_full_scan(metric, data):
    # Small sizes, from 2 and 3 points, where every swap shares an edge, and
    # larger ones; integer grid points tie exactly and often, and coincident
    # ones give zero-length edges.
    n = data.draw(st.one_of(st.integers(2, 15), st.integers(16, 32)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    tour = Tour(rng.permutation(n))
    visited = None
    forbidden = set()
    share = data.draw(st.sampled_from([None, 0.0, 0.2, 0.9, 1.0]))
    if share is not None:
        visited = VisitedSet()
        for nb in neighbors(tour):
            if rng.random() < share:
                forbidden.add(tuple(nb))
        forbidden |= {tuple(rng.permutation(n)) for _ in range(5)}
        for key in forbidden:
            visited.add(Tour(key))
    for _ in range(3):
        found = steepest_step(instance, tour, visited)
        expected = reference_step(instance, tour, forbidden)
        if found is None:
            assert expected is None
            return
        assert (found[0].tolist(), float.hex(found[1]), found[2]) == expected
        tour = found[0]
        if visited is not None:
            visited.add(tour)
            forbidden.add(tuple(tour))


def reference_climb(instance, start, visited):
    """hill_climb written out plainly over reference_step, with a set of tuples or None."""
    length = tour_length(instance, start)
    if visited is not None:
        if tuple(start) in visited:
            return start.tolist(), float.hex(length), 0, 0, True
        visited.add(tuple(start))
    tour, best = start.tolist(), (start.tolist(), length)
    steps = evaluations = 0
    spent, trigger = visited is None, -np.inf
    while True:
        found = reference_step(instance, Tour(tour), visited if visited is not None else set())
        if found is None:
            break
        neighbor, neighbor_length, evaluated = found[0], float.fromhex(found[1]), found[2]
        evaluations += evaluated
        if neighbor_length >= length:
            if spent:
                break
            spent, trigger = True, length
        tour, length = neighbor, neighbor_length
        steps += 1
        if visited is not None:
            visited.add(tuple(tour))
        if length < best[1]:
            best = (tour, length)
        if spent and length < trigger:
            spent = False
    return best[0], float.hex(best[1]), steps, evaluations, False


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
@settings(deadline=None, max_examples=6)
@given(st.data())
def test_hill_climb_matches_reference_climb(metric, data):
    # Two climbs sharing one set, at the exact-small benchmark's sizes and
    # larger ones; the second may start where the first did, which is an
    # early-out. Integer grid points tie exactly and often.
    n = data.draw(st.one_of(st.integers(9, 14), st.integers(16, 30)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    modified = data.draw(st.sampled_from(HC_VARIANTS)) == "modified"
    visited, expected_visited = (VisitedSet(), set()) if modified else (None, None)
    first = Tour(rng.permutation(n))
    for start in (first, data.draw(st.sampled_from([first, Tour(rng.permutation(n))]))):
        best, length, steps, evaluations, early = hill_climb(instance, start, visited)
        expected = reference_climb(instance, start, expected_visited)
        assert (best.tolist(), float.hex(length), steps, evaluations, early) == expected
    if modified:
        assert len(visited) == len(expected_visited)
        assert all(Tour(key) in visited for key in expected_visited)
