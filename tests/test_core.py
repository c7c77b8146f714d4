import math
import pickle
import tracemalloc

import numpy as np
import pytest

from helpers import make_instance, square_instance
from reference import distance, neighbors, reverse
from tourbench.core import (
    ConfigurationError,
    Instance,
    Metric,
    Point,
    Tour,
    check_count,
    make_rng,
    random_rows,
    random_tour,
    row_lengths,
    tour_length,
)
from tourbench.oracle import brute_force, held_karp


def test_configuration_error_is_value_error():
    assert issubclass(ConfigurationError, ValueError)


class TestCheckCount:
    @pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2)])
    def test_accepts_integers(self, value):
        check_count("restarts", value, 0)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2), np.bool_(True), "2"])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ConfigurationError, match="restarts must be an integer"):
            check_count("restarts", value, 0)

    def test_names_the_minimum(self):
        with pytest.raises(ConfigurationError, match="^restarts must be >= 0, got -1$"):
            check_count("restarts", -1, 0)


class TestPoint:
    def test_holds_coordinates(self):
        p = Point(1.5, -2.0)
        assert p.x == 1.5
        assert p.y == -2.0

    def test_is_frozen(self):
        with pytest.raises(Exception):
            Point(0.0, 0.0).x = 1.0

    @pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValueError):
            Point(x, y)


class TestMetric:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown metric kind 'cosine'"):
            Metric("cosine")

    @pytest.mark.parametrize(
        "wx,wy", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (True, 1.0), ("2", 1.0)]
    )
    def test_rejects_bad_weights(self, wx, wy):
        with pytest.raises(ConfigurationError):
            Metric("wmanhattan", wx, wy)

    def test_distance_values(self):
        xs, ys = np.array([0.0, 3.0]), np.array([0.0, 4.0])
        assert Metric("euclidean").pairwise(xs, ys)[0, 1] == 5.0
        assert Metric("manhattan").pairwise(xs, ys)[0, 1] == 7.0
        assert Metric("wmanhattan", 2.0, 0.5).pairwise(xs, ys)[0, 1] == 8.0
        assert Metric("wchebyshev", 2.0, 1.0).pairwise(xs, ys)[0, 1] == 6.0

    def test_distance_is_symmetric(self):
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-50, 50, size=(2, 20))
        for m in (Metric("euclidean"), Metric("manhattan"),
                  Metric("wmanhattan", 2.0, 0.5), Metric("wchebyshev", 0.3, 4.0)):
            table = m.pairwise(xs, ys)
            assert np.array_equal(table, table.T)

    def test_pairwise_matches_scalar_exactly(self):
        """The distance table and the scalar reference agree bit for bit."""
        rng = np.random.default_rng(7)
        coords = rng.uniform(-100, 100, size=(12, 2))
        pts = [Point(float(x), float(y)) for x, y in coords]
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        for m in (Metric("euclidean"), Metric("manhattan"),
                  Metric("wmanhattan", 2.0, 0.5), Metric("wchebyshev", 0.3, 4.0)):
            table = m.pairwise(xs, ys)
            for i in range(12):
                for j in range(12):
                    assert table[i, j] == distance(m, pts[i], pts[j])

    def test_parse(self):
        assert Metric.parse("euclidean") == Metric("euclidean")
        assert Metric.parse("MANHATTAN") == Metric("manhattan")
        assert Metric.parse("wmanhattan:2,0.5") == Metric("wmanhattan", 2.0, 0.5)
        assert Metric.parse("wchebyshev:1.5,3") == Metric("wchebyshev", 1.5, 3.0)

    @pytest.mark.parametrize("text", [
        "euclidean:1,2",       # unweighted kind with weights
        "wmanhattan",          # weighted kind without weights
        "wmanhattan:1",        # one weight only
        "wchebyshev:a,b",      # non-numeric weights
        "wmanhattan:0,1",      # zero weight
        "galactic",            # unknown kind
        "bogus",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigurationError):
            Metric.parse(text)


class TestInstance:
    def test_basic(self):
        inst = square_instance()
        assert inst.n == 4
        assert inst.metric == Metric("euclidean")
        assert inst.distance_table()[0, 1] == 1.0
        assert inst.distance_table()[0, 2] == math.sqrt(2.0)

    def test_defaults_to_euclidean(self):
        inst = Instance("x", (Point(0, 0), Point(1, 0)))
        assert inst.metric.kind == "euclidean"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance("empty", ())

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError, match="at least two points"):
            Instance("one", (Point(0, 0),))

    @pytest.mark.parametrize("metric", ["manhattan", 1.0])
    def test_rejects_a_metric_that_is_not_a_metric(self, metric):
        with pytest.raises(ConfigurationError, match=f"metric must be a Metric, got {metric!r}"):
            Instance("x", (Point(0, 0), Point(1, 0)), metric)

    def test_distance_table_cached_and_read_only(self):
        inst = square_instance()
        table = inst.distance_table()
        assert table is inst.distance_table()
        assert not table.flags.writeable
        assert np.array_equal(table, table.T)
        assert np.all(np.diag(table) == 0.0)

    @pytest.mark.parametrize("metric", [
        Metric("euclidean"), Metric("manhattan"),
        Metric("wmanhattan", 1.0, 1.0), Metric("wchebyshev", 1.0, 1.0),
    ])
    def test_rejects_non_finite_distances(self, metric):
        # Both coordinates are finite, but their difference overflows float64.
        with pytest.raises(ValueError, match="non-finite"):
            make_instance([(1e308, 0.0), (-1e308, 0.0)], metric=metric)

    def test_rejects_tour_lengths_that_overflow(self):
        # Every distance is finite, but a closed tour sums past float64.
        points = [(0.0, 0.0), (1e308, 0.0), (5e307, 0.0), (2e307, 0.0)]
        with pytest.raises(ValueError, match="tours too long for float64"):
            make_instance(points, metric=Metric("manhattan"))

    def test_accepts_tour_lengths_just_below_overflow(self):
        # Nine points on a line, spaced by a float whose multiples up to 504
        # are exact: the longest tour, 9 times the span, is 0.984 of the
        # largest float, so it stays finite and the optimum is exactly twice
        # the span. A tenth point as far out as the span tips it over.
        step = math.ldexp(7.0, 1015)
        points = [(step * i, 0.0) for i in range(9)]
        inst = make_instance(points, metric=Metric("manhattan"))
        assert tour_length(inst, Tour([0, 8, 1, 7, 2, 6, 3, 5, 4])) == 40 * step
        for solver in (brute_force, held_karp):
            assert solver(inst).optimal_length == 16 * step
        with pytest.raises(ValueError, match="tours too long"):
            make_instance(points + [(8 * step, 1.0)], metric=Metric("manhattan"))


class TestTour:
    def test_construction_and_access(self):
        t = Tour([2, 0, 1])
        assert len(t) == 3
        assert t[0] == 2
        assert list(t) == [2, 0, 1]
        assert t.tolist() == [2, 0, 1]
        assert t.order.dtype == np.int64

    @pytest.mark.parametrize("order", [[], [[0, 1]], [0, 0], [0, 2], [-1, 0], [1, 2]])
    def test_rejects_non_permutations(self, order):
        with pytest.raises(ValueError):
            Tour(order)

    @pytest.mark.parametrize(
        "order",
        [[0.9, 1.2, 2.7], [0.0, 2.0, 1.0], np.array([0.0, 2.0, 1.0]), ["0", "1", "2"], [True, False]],
    )
    def test_rejects_non_integer_orders(self, order):
        with pytest.raises(ValueError, match="must hold integers"):
            Tour(order)

    def test_accepts_unsigned_orders(self):
        assert Tour(np.array([1, 0, 2], dtype=np.uint8)).tolist() == [1, 0, 2]

    def test_rejects_single_index(self):
        with pytest.raises(ValueError, match="at least two points"):
            Tour([0])

    def test_order_is_read_only(self):
        t = Tour([0, 1, 2])
        with pytest.raises(ValueError):
            t.order[0] = 1

    def test_equality_and_hash(self):
        a, b, c = Tour([0, 1, 2]), Tour([0, 1, 2]), Tour([0, 2, 1])
        assert a == b
        assert a != c
        assert a == [0, 1, 2]
        assert hash(a) == hash(b)
        assert a.key() == b.key()
        assert a.key() != c.key()

    @pytest.mark.parametrize("order,other", [
        ([0, 1], [0.0, 1.0]),
        ([1, 0], [True, False]),
        ([0, 1, 2], np.array([0.0, 1.0, 2.0])),
    ])
    def test_never_equals_an_order_construction_rejects(self, order, other):
        assert not Tour(order) == other

    def test_pickle_round_trip(self):
        t = Tour([3, 1, 0, 2])
        u = pickle.loads(pickle.dumps(t))
        assert u == t
        assert not u.order.flags.writeable


class TestTourLength:
    def test_square_perimeter(self):
        inst = square_instance()
        assert tour_length(inst, Tour([0, 1, 2, 3])) == 4.0

    def test_counts_wraparound_edge(self):
        inst = make_instance([(0, 0), (1, 0), (2, 0)])
        # edges 1 + 1 + wrap-around 2
        assert tour_length(inst, Tour([0, 1, 2])) == 4.0

    def test_matches_sorted_edge_sum(self):
        rng = np.random.default_rng(11)
        inst = make_instance(rng.uniform(0, 100, size=(9, 2)))
        t = random_tour(9, rng)
        table = inst.distance_table()
        edges = sorted(table[t[k], t[(k + 1) % 9]] for k in range(9))
        total = 0.0
        for e in edges:
            total += e
        assert tour_length(inst, t) == total

    def test_row_lengths_match_sorted_edge_sums(self):
        """Each row of the batch kernel equals the scalar sorted-edge sum."""
        rng = np.random.default_rng(13)
        inst = make_instance(rng.uniform(-10, 10, size=(15, 2)))
        rows = np.array([rng.permutation(15) for _ in range(20)])
        lengths = row_lengths(inst, rows)
        table = inst.distance_table()
        assert lengths.shape == (20,)
        for row, length in zip(rows, lengths):
            total = 0.0
            for e in sorted(table[row[k], row[(k + 1) % 15]] for k in range(15)):
                total += e
            assert length == total

    def test_row_lengths_own_their_memory(self):
        # A view of the last column of the (k, n) sums, or of one block's
        # sums, would keep them alive. At n = 48, 400 rows take three blocks.
        rng = np.random.default_rng(23)
        inst = make_instance(rng.uniform(0, 1000, size=(48, 2)))
        for k in (1, 30, 400):
            lengths = row_lengths(inst, random_rows(48, k, rng))
            assert lengths.base is None

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_row_lengths_memory_stays_near_the_output(self, dtype):
        # Past the float64 output, the batch holds one block's few temporaries
        # of at most _BLOCK entries each, about 200 KiB whatever k is. Per-edge
        # arrays of the whole batch took 15 MB here.
        rng = np.random.default_rng(29)
        inst = make_instance(rng.uniform(0, 1000, size=(48, 2)))
        rows = random_rows(48, 20_000, rng).astype(dtype)
        tracemalloc.start()
        try:
            lengths = row_lengths(inst, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < lengths.nbytes + 2**20

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 5)])
    def test_row_lengths_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError):
            row_lengths(square_instance(), np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32])
    def test_row_lengths_of_narrow_rows_match_int64(self, dtype):
        """Edges are gathered at city * n + successor; 47 * 48 does not fit a uint8."""
        rng = np.random.default_rng(19)
        inst = make_instance(rng.uniform(0, 1000, size=(48, 2)))
        rows = random_rows(48, 30, rng)
        np.testing.assert_array_equal(
            row_lengths(inst, rows.astype(dtype)), row_lengths(inst, rows)
        )

    def test_row_lengths_rejects_a_city_past_the_table(self):
        # City 3 starts the edge (3, 1), at flat index 3 * 3 + 1, past the 9 entries.
        inst = make_instance([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(IndexError):
            row_lengths(inst, np.array([[0, 3, 1]]))

    def test_tour_length_rejects_a_negative_city(self):
        # row_lengths would wrap -1 around the raveled table and give 8.0;
        # the checked entry point refuses the order before any edge is read.
        inst = make_instance([(0, 0), (3, 0), (0, 4)])
        with pytest.raises(ValueError, match="exactly once"):
            tour_length(inst, Tour([0, -1, 1]))

    def test_reversal_and_rotation_are_exact(self):
        """Same cycle, same float, regardless of traversal."""
        rng = np.random.default_rng(17)
        inst = make_instance(rng.uniform(0, 1000, size=(20, 2)))
        for _ in range(50):
            t = random_tour(20, rng)
            L = tour_length(inst, t)
            assert tour_length(inst, reverse(t)) == L
            rotated = Tour(np.roll(t.order, 7))
            assert tour_length(inst, rotated) == L

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            tour_length(square_instance(), Tour([0, 1, 2]))


def test_reverse_is_involution():
    t = Tour([4, 0, 3, 1, 2])
    assert reverse(reverse(t)) == t
    assert reverse(t) == [2, 1, 3, 0, 4]


class TestNeighbors:
    def test_count_and_order(self):
        t = Tour([0, 1, 2, 3])
        ns = list(neighbors(t))
        assert len(ns) == 6  # n(n-1)/2
        # lexicographic (i, j) position order
        assert ns[0] == [1, 0, 2, 3]
        assert ns[1] == [2, 1, 0, 3]
        assert ns[-1] == [0, 1, 3, 2]

    def test_each_differs_in_two_positions(self):
        t = Tour([3, 0, 2, 4, 1])
        for nb in neighbors(t):
            assert int(np.sum(nb.order != t.order)) == 2


class TestRandomTour:
    def test_is_permutation(self):
        rng = np.random.default_rng(5)
        t = random_tour(30, rng)
        assert sorted(t.tolist()) == list(range(30))

    def test_deterministic_per_seed(self):
        a = random_tour(12, make_rng(99))
        b = random_tour(12, make_rng(99))
        assert a == b

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_tour(1, make_rng(0))


@pytest.mark.parametrize("n, size", [(48, 200), (2, 5), (14, 20), (300, 3)])
def test_random_rows_matches_a_permutation_per_row(n, size):
    # random_rows shuffles all rows in one Generator.permuted call; that it
    # takes the draws of one permutation call per row is how numpy implements
    # permuted, not a documented contract, so check it, final state included.
    ours, theirs = make_rng(n * 1000 + size), make_rng(n * 1000 + size)
    rows = random_rows(n, size, ours)
    expected = np.array([theirs.permutation(n) for _ in range(size)])
    assert rows.dtype == np.int64
    assert np.array_equal(rows, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_make_rng_wraps_negative_seeds():
    a = make_rng(-1).integers(1 << 62)
    b = make_rng((1 << 64) - 1).integers(1 << 62)
    assert a == b


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
def test_make_rng_rejects_non_integer_seeds(seed):
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        make_rng(seed)
