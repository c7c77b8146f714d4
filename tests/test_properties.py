"""Property tests of crossover, the tour-length kernel and the solvers.

Requires hypothesis (it is in the ``test`` extra); without it this module
fails to import instead of being skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reversal_invariant_child
from reference import held_karp_by_subset, neighbors, reference_step, reverse
from tourbench.core import (
    _BLOCK,
    Instance,
    Metric,
    Point,
    Tour,
    make_rng,
    random_rows,
    random_tour,
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
    DEFAULT_MAX_STEPS,
    DEFAULT_VISITED_CAP,
    HC_VARIANTS,
    _NO_PAIRS,
    HcConfig,
    RunAbortedError,
    VisitedSet,
    _descend,
    _path_neighbors,
    _step,
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
@settings(deadline=None, max_examples=60)
@given(st.data())
def test_held_karp_matches_the_parent_pointer_reference(metric, data):
    # Integer grid points, duplicates included, make many candidates tie
    # exactly: walking the tour back by equality must pick the smallest
    # tying k, as the reference's stored parents do.
    n = data.draw(st.integers(2, 9))
    side = data.draw(st.integers(1, 4))
    cell = st.integers(0, side - 1)
    coords = data.draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    res, ref = held_karp(instance), held_karp_by_subset(instance)
    assert float.hex(res.optimal_length) == float.hex(ref.optimal_length)
    assert res.optimal_tour == ref.optimal_tour
    assert res.nodes_expanded == ref.nodes_expanded


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


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_block_step_matches_full_scan_on_every_row(metric, data):
    # The one steepest step on a block of rows, from 2 points, where the one
    # neighbour goes unscreened, to 14; integer grid points tie exactly and
    # often, so rows of one block may keep different numbers of candidates.
    # Above two points some rows may not take some pairs, each row its own,
    # as flat indices into (k, n(n-1)/2); every row keeps one pair at least.
    n = data.draw(st.integers(2, 14))
    k = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    orders = random_rows(n, k, rng)
    pairs = n * (n - 1) // 2
    share = 0.0 if n == 2 else data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    banned = [
        np.flatnonzero(rng.random(pairs) < share)[: pairs - 1] if rng.random() < 0.7 else _NO_PAIRS
        for _ in range(k)
    ]
    stored = np.concatenate([r * pairs + b for r, b in enumerate(banned)]).astype(np.intp)
    dmax = float(instance.distance_table().max())
    rows, lengths, picked = _step(instance, orders, row_lengths(instance, orders), dmax, stored)
    assert rows.shape == (k, n) and lengths.shape == picked.shape == (k,)
    for order, row, length, pick, ban in zip(orders, rows, lengths, picked, banned):
        around = list(neighbors(Tour(order)))
        forbidden = {tuple(around[b]) for b in ban.tolist()}
        expected = reference_step(instance, Tour(order), forbidden)
        assert (row.tolist(), float.hex(float(length)), pairs - len(forbidden)) == expected
        assert around[pick].tolist() == row.tolist()


def reference_climb(instance, start, visited, cap=DEFAULT_VISITED_CAP, max_steps=DEFAULT_MAX_STEPS):
    """hill_climb written out plainly over reference_step, with a set of tuples or None.

    The set takes no tour once it holds ``cap``. Returns the best tour as a
    list, its length as float.hex, the steps, the evaluations, whether the
    climb was an early-out and whether it aborted: the step after
    ``max_steps`` would have moved it.
    """

    def store(tour):
        if len(visited) < cap:
            visited.add(tuple(tour))

    length = tour_length(instance, start)
    if visited is not None:
        if tuple(start) in visited:
            return start.tolist(), float.hex(length), 0, 0, True, False
        store(start)
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
        if steps == max_steps:
            return best[0], float.hex(best[1]), steps, evaluations, False, True
        tour, length = neighbor, neighbor_length
        steps += 1
        if visited is not None:
            store(tour)
        if length < best[1]:
            best = (tour, length)
        if spent and length < trigger:
            spent = False
    return best[0], float.hex(best[1]), steps, evaluations, False, False


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
        assert (best.tolist(), float.hex(length), steps, evaluations, early, False) == expected
    if modified:
        assert len(visited) == len(expected_visited)
        assert all(Tour(key) in visited for key in expected_visited)


def sequential_baseline(instance, config):
    """run_hc's baseline written out as one climb after another over steepest_step.

    Returns the best tour as a list, its length as float.hex, the steps and
    evaluations over all climbs, and how many climbs ran out of steps.
    """
    rng = make_rng(config.seed)
    starts = [random_tour(instance.n, rng) for _ in range(config.restarts + 1)]
    best = None
    total_steps = total_evaluations = aborted = 0
    for tour in starts:
        length = tour_length(instance, tour)
        steps = 0
        while True:
            neighbor, neighbor_length, evaluated = steepest_step(instance, tour)
            total_evaluations += evaluated
            if neighbor_length >= length:
                break
            if steps == config.max_steps_per_run:
                aborted += 1
                break
            tour, length = neighbor, neighbor_length
            steps += 1
        total_steps += steps
        if best is None or length < best[1]:
            best = (tour, length)
    return best[0].tolist(), float.hex(best[1]), total_steps, total_evaluations, aborted


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_batched_baseline_matches_climbs_one_at_a_time(metric, data):
    # From 2 points, where the one neighbour goes unscreened, to the
    # exact-small benchmark's 14; integer grid points tie exactly and often.
    # Small step budgets end some or all of the climbs.
    n = data.draw(st.integers(2, 14))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    config = HcConfig(
        restarts=data.draw(st.integers(0, 12)),
        max_steps_per_run=data.draw(st.sampled_from([1, 2, 5, DEFAULT_MAX_STEPS])),
        seed=data.draw(st.integers(0, 2**64 - 1)),
    )
    tour, length, steps, evaluations, aborted = sequential_baseline(instance, config)
    if aborted == config.restarts + 1:
        with pytest.raises(RunAbortedError) as err:
            run_hc(instance, config)
        found = err.value
        assert (found.best_tour.tolist(), float.hex(found.best_length)) == (tour, length)
        assert (found.steps, found.evaluations) == (steps, evaluations)
        return
    result = run_hc(instance, config)
    assert (result.best_tour.tolist(), float.hex(result.best_length)) == (tour, length)
    assert (result.iterations, result.fitness_evaluations, result.aborted) == (
        steps, evaluations, aborted
    )


@pytest.mark.parametrize("metric", METRICS[:2], ids=lambda m: m.kind)
@settings(deadline=None, max_examples=50)
@given(st.data())
def test_modified_run_matches_reference_climbs(metric, data):
    # run_hc's modified climbs descend as one block and then take up the
    # shared set; one reference climb after another over a capped set of
    # tuples must give the same run. Small caps drop tours partway through
    # a descent, short budgets end climbs, and at small n later climbs meet
    # tours that earlier ones stored. Integer grid points tie exactly.
    n = data.draw(st.integers(3, 11))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords], metric)
    config = HcConfig(
        restarts=data.draw(st.integers(0, 40)),
        variant="modified",
        max_steps_per_run=data.draw(st.sampled_from([1, 3, DEFAULT_MAX_STEPS])),
        seed=data.draw(st.integers(0, 2**64 - 1)),
        visited_cap=data.draw(st.sampled_from([1, 5, 20, DEFAULT_VISITED_CAP])),
    )
    rng, visited = make_rng(config.seed), set()
    best, steps, evaluations, early_outs, aborted = None, 0, 0, 0, 0
    for _ in range(config.restarts + 1):
        start = random_tour(n, rng)
        climb = reference_climb(
            instance, start, visited, config.visited_cap, config.max_steps_per_run
        )
        steps, evaluations = steps + climb[2], evaluations + climb[3]
        early_outs, aborted = early_outs + climb[4], aborted + climb[5]
        if best is None or float.fromhex(climb[1]) < float.fromhex(best[1]):
            best = climb[:2]
    if aborted == config.restarts + 1:
        with pytest.raises(RunAbortedError) as err:
            run_hc(instance, config)
        found = err.value
        assert (found.best_tour.tolist(), float.hex(found.best_length)) == best
        assert (found.steps, found.evaluations) == (steps, evaluations)
        return
    result = run_hc(instance, config)
    assert (result.best_tour.tolist(), float.hex(result.best_length)) == best
    assert (result.iterations, result.fitness_evaluations) == (steps, evaluations)
    assert (result.early_outs, result.aborted) == (early_outs, aborted)


def reference_escape_path(instance, start, max_steps):
    """The modified climb's rule written out over reference_step, with no set but the last tour.

    Each step takes the first shortest neighbour but the tour the climb just
    left; a step that does not improve escapes once, and the allowance is
    restored strictly below the length that spent it. Returns the tours as
    lists, their lengths, and the neighbour the step after ``max_steps``
    would have taken, or None if the climb stopped before it (at two points
    it stops where the tour it left is the only neighbour).
    """
    path, lengths = [start.tolist()], [tour_length(instance, start)]
    spent, trigger = False, -np.inf
    while True:
        back = {tuple(path[-2])} if len(path) > 1 else set()
        found = reference_step(instance, Tour(path[-1]), back)
        if found is None:
            return path, lengths, None
        neighbor, length = found[0], float.fromhex(found[1])
        if not length < lengths[-1]:
            if spent:
                return path, lengths, None
            spent, trigger = True, lengths[-1]
        if len(path) - 1 == max_steps:
            return path, lengths, neighbor
        path.append(neighbor)
        lengths.append(length)
        if spent and length < trigger:
            spent = False


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_no_descent_tour_neighbors_an_earlier_one_but_its_predecessor(data):
    # On a steepest descent t_s is shorter than t_{u+1}, the shortest
    # neighbour of t_u, for u < s - 1, so only t_{s-1} is its neighbour:
    # the modified climb counts on this to take up a descent's path.
    n = data.draw(st.integers(3, 14))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords])
    starts = random_rows(n, data.draw(st.integers(1, 6)), rng)
    paths = [[row] for row in starts]

    def record(live, rows, lengths):
        for r, row in zip(live.tolist(), rows):
            paths[r].append(row)

    _descend(instance, starts.copy(), row_lengths(instance, starts), DEFAULT_MAX_STEPS, record)
    for path in paths:
        differ = (np.array(path)[:, None, :] != np.array(path)[None, :, :]).sum(axis=2)
        s, u = np.tril_indices(len(path), k=-1)
        assert (differ[s, u] == 2).tolist() == (s - u == 1).tolist()


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_escape_path_follows_the_rule_and_counts_its_earlier_neighbours(data):
    # With escapes, a path that only bans the step straight back can come
    # back next to an earlier tour: x_u neighbours x_v, v < u - 1, only if
    # u - v is odd (each step is one transposition) and x_u is no shorter
    # than x_{v+1}, the first shortest neighbour of x_v but x_{v-1}, unless
    # x_u is x_{v-1} again. The modified climb counts its path's neighbours
    # on this; the paths themselves must follow the reference rule.
    n = data.draw(st.integers(2, 14))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        coords = rng.uniform(-50.0, 50.0, size=(n, 2))
    instance = Instance("prop", [Point(float(x), float(y)) for x, y in coords])
    starts = random_rows(n, data.draw(st.integers(4, 12)), rng)
    # a short budget ends some paths at an escape; the full one runs each to its end
    for max_steps in (data.draw(st.sampled_from([1, 3, 5])), DEFAULT_MAX_STEPS):
        paths = [[(row, length)] for row, length in zip(starts, row_lengths(instance, starts))]

        def record(live, rows, lengths):
            for r, row, length in zip(live.tolist(), rows, lengths.tolist()):
                paths[r].append((row, length))

        _, aborted = _descend(
            instance, starts.copy(), row_lengths(instance, starts), max_steps, record, escape=True
        )
        for path, ran_out in zip(paths, aborted.tolist()):
            check_escape_path(instance, path, max_steps, ran_out)


def check_escape_path(instance, path, max_steps, ran_out):
    """One row's (tour, length) path from ``_descend`` with escapes, and its abort flag."""
    rows, lengths = np.array([row for row, _ in path]), np.array([ln for _, ln in path])
    expected = reference_escape_path(instance, Tour(rows[0]), max_steps)
    assert rows.tolist() == expected[0]
    assert [float.hex(ln) for ln in lengths.tolist()] == [float.hex(ln) for ln in expected[1]]
    assert ran_out == (expected[2] is not None)
    differ = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    s, u = np.tril_indices(len(path), k=-1)
    far = (differ[s, u] == 2) & (s - u > 1)
    for later, earlier in zip(s[far].tolist(), u[far].tolist()):
        assert (later - earlier) % 2 == 1
        revisit = earlier > 0 and not differ[later, earlier - 1]
        assert lengths[later] >= lengths[earlier + 1] or revisit
    # up to its first revisit, the path's earlier neighbours are the ones counted
    fresh = next((a for a in range(len(path)) if (differ[a, :a] == 0).any()), len(path))
    inside = far & (s < fresh)
    counted = np.bincount(s[inside], minlength=fresh).tolist()
    assert _path_neighbors(rows[:fresh], lengths[:fresh].tolist()) == counted
