"""Property tests of crossover, the tour-length kernel and the solvers.

Optional: skipped when hypothesis is not installed (it is in the ``test``
extra).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tourbench.core import Instance, Metric, Point, Tour, reverse, row_lengths, tour_length  # noqa: E402
from tourbench.ga import (  # noqa: E402
    CROSSOVER_VARIANTS,
    GaConfig,
    _crossover_rows,
    crossover_baseline,
    crossover_reversal_invariant,
    run_ga,
)
from tourbench.hillclimb import HC_VARIANTS, HcConfig, run_hc  # noqa: E402
from tourbench.oracle import held_karp  # noqa: E402

METRICS = (
    Metric.euclidean(),
    Metric.manhattan(),
    Metric.weighted_manhattan(1.5, 0.5),
    Metric.weighted_chebyshev(0.7, 2.0),
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
    children = _crossover_rows(p1, p2, splits)
    for child, (a, b, split) in zip(children.tolist(), cases):
        assert child == reference_child(a, b, split)


@settings(deadline=None)
@given(st.data())
def test_reversal_invariant_ignores_mate_direction(data):
    p1, p2, split = data.draw(parents(max_n=16))
    instance = data.draw(instances(len(p1)))
    a = crossover_reversal_invariant(Tour(p1), Tour(p2), instance, split=split)
    b = crossover_reversal_invariant(Tour(p1), reverse(Tour(p2)), instance, split=split)
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
