"""Generational genetic algorithm over tours, with two crossover strategies.

The baseline crossover keeps a prefix of the first parent and fills in the
remaining cities in the order the second parent visits them. The
reversal-invariant variant breeds one candidate from the mate and one from
the reversed mate (each at its own uniformly drawn split) and keeps the
shorter child, so a mate's direction of travel no longer matters; it costs
exactly two length evaluations per offspring instead of one.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    ConfigurationError,
    Instance,
    RunResult,
    Tour,
    check_count,
    check_integer,
    make_rng,
    random_rows,
    row_lengths,
)

__all__ = [
    "CROSSOVER_VARIANTS",
    "GaConfig",
    "crossover_baseline",
    "mutate",
    "run_ga",
    "select_parent",
]

CROSSOVER_VARIANTS = ("baseline", "reversal_invariant")

# Relative weight floor added to every member, as a fraction of the longest
# length in the generation. Keeps selection pressure gentle: the longest tour
# still draws with weight floor * longest rather than dropping to zero.
_WEIGHT_FLOOR = 0.5

# numpy's decode of PCG64's 64-bit words: ``random()`` is the top 53 bits
# times 2**-53, and a 32-bit draw is a word's low half (the high half stays
# cached for the next 32-bit draw).
_UNIT = 2.0**-53
_LOW32 = 0xFFFFFFFF


def _check_rate(name: str, rate: object) -> None:
    """Raise ConfigurationError unless ``rate`` is a real number in [0, 1]; bools are not."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {rate!r}")
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 200
    mutation_rate: float = 0.0
    max_generations: int = 30
    max_stall_generations: int = 10
    crossover_variant: str = "baseline"
    elitism: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("population_size", self.population_size, 2)
        _check_rate("mutation_rate", self.mutation_rate)
        check_count("max_generations", self.max_generations, 1)
        check_count("max_stall_generations", self.max_stall_generations, 1)
        if self.crossover_variant not in CROSSOVER_VARIANTS:
            raise ConfigurationError(
                f"crossover_variant must be one of {CROSSOVER_VARIANTS}, "
                f"got {self.crossover_variant!r}"
            )
        if not isinstance(self.elitism, bool):
            raise ConfigurationError(f"elitism must be a bool, got {self.elitism!r}")
        check_integer("seed", self.seed)


class _RouletteWheel:
    """Cumulative selection weights for one fixed population.

    Weight of a member is (longest length - own length) plus a floor
    proportional to the longest length, so shorter tours are strictly
    favored while every member keeps a real chance. When every length is
    zero (duplicate points) the floor is 1, so every member weighs the same.
    A draw is split in two so a generation can take all of its draws first:
    ``spin`` takes one number from the rng (``_generation_draws`` decodes
    the same numbers from raw words), ``land`` maps a batch of spins to
    members.
    """

    __slots__ = ("cum", "total")

    def __init__(self, lengths: np.ndarray) -> None:
        longest = float(lengths.max())
        weights = (longest - lengths) + (_WEIGHT_FLOOR * longest if longest > 0.0 else 1.0)
        self.cum = np.cumsum(weights)
        self.total = float(self.cum[-1])

    def spin(self, rng: np.random.Generator) -> float:
        return rng.random() * self.total

    def land(self, spins: list[float]) -> np.ndarray:
        k = np.searchsorted(self.cum, spins, side="right")
        return np.minimum(k, self.cum.size - 1)


def select_parent(
    population: list[tuple[Tour, float]], rng: np.random.Generator
) -> Tour:
    """Roulette-wheel pick over length-based weights; shorter is likelier."""
    lengths = np.array([length for _, length in population], dtype=np.float64)
    wheel = _RouletteWheel(lengths)
    return population[int(wheel.land([wheel.spin(rng)])[0])][0]


def _draw_swap(n: int, rate: float, rng: np.random.Generator) -> tuple[int, int] | None:
    """Mutation draws for one child: the rate draw, then two distinct positions."""
    if rate <= 0.0 or rng.random() >= rate:
        return None
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    while j == i:
        j = int(rng.integers(n))
    return i, j


def _bounded(word, span: int, has: int, cached: int) -> tuple[int, int, int]:
    """numpy's ``integers(span)`` on PCG64 words, for ``span`` up to 2**32.

    Lemire's multiply-shift on ``next_uint32`` (Lemire 2019, "Fast random
    integer generation in an interval"), redrawn while the low half of the
    product is below 2**32 mod ``span``; ``span == 1`` takes no draw.
    ``word`` yields the next raw word, and ``(has, cached)`` is the half-word
    cache, returned updated with the value.
    """
    if span == 1:
        return 0, has, cached
    threshold = (1 << 32) % span
    while True:
        if has:
            has, m = 0, cached * span
        else:
            w = word()
            has, cached, m = 1, w >> 32, (w & _LOW32) * span
        if m & _LOW32 >= threshold:
            return m >> 32, has, cached


def _generation_draws(
    rng: np.random.Generator, wheel: _RouletteWheel, n: int, columns: int, rate: float
) -> tuple[list[float], list[int], list[tuple[int, int, int]]]:
    """Every random draw of one generation, decoded from raw PCG64 words.

    Child by child, in the order of per-child ``Generator`` calls: two
    roulette spins (``random() * total``), ``columns`` splits
    (``integers(1, n)``), then the mutation rate draw (``random()``, none
    at rate 0) and, when it hits, ``i``, ``j`` and the ``j == i`` redraws
    (``integers(n)``). The numbers and the final ``bit_generator.state``,
    half-word cache included, equal those calls'. One block holds the
    fewest words the generation can take (no mutation, no rejection); any
    further word is drawn when needed.

    Returns the spins, the splits (``columns`` per child) and the swaps as
    ``(child, i, j)``.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    has, cached = state["has_uint32"], state["uinteger"]
    size, total = wheel.cum.size, wheel.total
    span = n - 1
    halves = size * columns * (span > 1)
    k = size * (2 + (rate > 0.0)) + max(0, halves - has + 1) // 2
    # The block, then one word per call once it is used up.
    word = chain(bitgen.random_raw(k).tolist(), iter(bitgen.random_raw, None)).__next__
    spins, splits, swaps = [], [], []
    spin, split = spins.append, splits.append
    for child in range(size):
        spin((word() >> 11) * _UNIT * total)
        spin((word() >> 11) * _UNIT * total)
        for _ in range(columns):
            s, has, cached = _bounded(word, span, has, cached)
            split(s + 1)
        if rate > 0.0 and (word() >> 11) * _UNIT < rate:
            i, has, cached = _bounded(word, n, has, cached)
            j, has, cached = _bounded(word, n, has, cached)
            while j == i:
                j, has, cached = _bounded(word, n, has, cached)
            swaps.append((child, i, j))
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, cached
    bitgen.state = state
    return spins, splits, swaps


def _crossover_rows(p1: np.ndarray, p2: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Baseline crossover of each row pair of two (k, n) parent arrays.

    The child keeps ``p1`` before the split. The cities of ``p2`` that
    ``p1`` has from the split on fill the rest, in ``p2``'s order: each
    row's tail takes exactly n - split of them, so one mask assignment in
    row-major order places every row's tail.
    """
    k, n = p1.shape
    rows = np.arange(k)[:, None]
    where_in_p1 = np.empty_like(p1)
    where_in_p1[rows, p1] = np.arange(n)
    child = p1.copy()
    child[np.arange(n) >= splits[:, None]] = p2[where_in_p1[rows, p2] >= splits[:, None]]
    return child


def _offspring(
    instance: Instance, p1: np.ndarray, p2: np.ndarray, splits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Children of (k, n) parent rows and their lengths.

    ``splits`` is (k, 1) for baseline crossover. With a second column the
    crossover is reversal-invariant: a second child is bred from the
    reversed mate at that split, and the shorter of the two is kept, the tie
    going to the unreversed mate's child. Costs one length evaluation per
    child per column.
    """
    children = _crossover_rows(p1, p2, splits[:, 0])
    lengths = row_lengths(instance, children)
    if splits.shape[1] == 2:
        flipped = _crossover_rows(p1, p2[:, ::-1], splits[:, 1])
        flipped_lengths = row_lengths(instance, flipped)
        shorter = flipped_lengths < lengths
        children = np.where(shorter[:, None], flipped, children)
        lengths = np.where(shorter, flipped_lengths, lengths)
    return children, lengths


def crossover_baseline(
    p1: Tour, p2: Tour, split: int | None = None, rng: np.random.Generator | None = None
) -> Tour:
    """Prefix of ``p1`` up to ``split``, then the missing cities in ``p2`` order.

    When ``split`` is None it is drawn uniformly from 1..n-1 using ``rng``.
    """
    n = len(p1)
    if len(p2) != n:
        raise ValueError(f"parents must have equal length, got {n} and {len(p2)}")
    if split is None:
        if rng is None:
            raise ValueError("provide either a split position or an rng")
        split = int(rng.integers(1, n))
    else:
        check_integer("split", split)
        if not 1 <= split <= n - 1:
            raise ValueError(f"split must be in 1..{n - 1}, got {split}")
    return Tour(_crossover_rows(p1.order[None, :], p2.order[None, :], np.array([split]))[0])


def mutate(tour: Tour, rate: float, rng: np.random.Generator) -> Tour:
    """With probability ``rate``, swap one uniformly random position pair.

    Returns the input object itself when no swap was applied, so callers can
    skip re-evaluation with an identity check.
    """
    _check_rate("mutation rate", rate)
    swap = _draw_swap(len(tour), rate, rng)
    if swap is None:
        return tour
    i, j = swap
    arr = tour.order.copy()
    arr[i], arr[j] = arr[j], arr[i]
    return Tour(arr)


def run_ga(instance: Instance, config: GaConfig, on_generation=None) -> RunResult:
    """Evolve a population and return the best tour ever observed.

    Stops after ``max_generations`` generations, or sooner once the best-ever
    length has not improved for ``max_stall_generations`` consecutive
    generations. ``on_generation(generation, best_length)`` is called after
    each generation when provided.

    fitness_evaluations counts every tour-length computation: one per initial
    member, one per baseline offspring (two for reversal-invariant), plus one
    re-evaluation whenever mutation actually changed an offspring.

    Raises ConfigurationError when the roulette wheel's total could
    overflow: every weight is at most (1 + floor) times n times the longest
    distance, and the wheel sums one per member.
    """
    n, size, rate = instance.n, config.population_size, config.mutation_rate
    longest = float(instance.distance_table().max())
    if not math.isfinite((1.0 + _WEIGHT_FLOOR) * size * n * longest * (1.0 + 1e-6)):
        raise ConfigurationError(
            f"instance {instance.name!r} has tours too long for a roulette wheel of {size}: "
            f"{1.0 + _WEIGHT_FLOOR} times {size} times {n} times its longest "
            f"{instance.metric.kind} distance {longest!r} is not finite"
        )
    rng = make_rng(config.seed)
    started = time.perf_counter()
    columns = 2 if config.crossover_variant == "reversal_invariant" else 1

    population = random_rows(n, size, rng)
    lengths = row_lengths(instance, population)
    evaluations = size
    best = int(np.argmin(lengths))
    best_row, best_length = population[best], float(lengths[best])
    generations = 0
    stall = 0
    while generations < config.max_generations and stall < config.max_stall_generations:
        # Every draw of the generation first, in the per-offspring order, so
        # the results do not depend on how the array work is batched.
        wheel = _RouletteWheel(lengths)
        spins, splits, swaps = _generation_draws(rng, wheel, n, columns, rate)
        parents = wheel.land(spins).reshape(size, 2)
        offspring, offspring_lengths = _offspring(
            instance,
            population[parents[:, 0]],
            population[parents[:, 1]],
            np.array(splits).reshape(size, columns),
        )
        evaluations += size * columns
        if swaps:
            rows, i, j = np.array(swaps).T
            offspring[rows, i], offspring[rows, j] = offspring[rows, j], offspring[rows, i]
            offspring_lengths[rows] = row_lengths(instance, offspring[rows])
            evaluations += rows.size
        if config.elitism:
            incumbent = int(np.argmin(lengths))
            worst = int(np.argmax(offspring_lengths))
            offspring[worst] = population[incumbent]
            offspring_lengths[worst] = lengths[incumbent]
        population, lengths = offspring, offspring_lengths
        generations += 1
        gen = int(np.argmin(lengths))
        if lengths[gen] < best_length:
            best_row, best_length = population[gen], float(lengths[gen])
            stall = 0
        else:
            stall += 1
        if on_generation is not None:
            on_generation(generations, best_length)
    return RunResult(
        best_tour=Tour(best_row),
        best_length=best_length,
        iterations=generations,
        fitness_evaluations=evaluations,
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        runs=1,
    )
