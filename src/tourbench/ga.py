"""Generational genetic algorithm over tours, with two crossover strategies.

The baseline crossover keeps a prefix of the first parent and fills in the
remaining cities in the order the second parent visits them. The
reversal-invariant variant breeds one candidate from the mate and one from
the reversed mate (each at its own uniformly drawn split) and keeps the
shorter child, so a mate's direction of travel no longer matters; it costs
exactly two length evaluations per offspring instead of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    Instance,
    RunResult,
    Tour,
    make_rng,
    random_rows,
    row_lengths,
)

__all__ = [
    "CROSSOVER_VARIANTS",
    "GaConfig",
    "crossover_baseline",
    "crossover_reversal_invariant",
    "init_population",
    "mutate",
    "run_ga",
    "select_parent",
]

CROSSOVER_VARIANTS = ("baseline", "reversal_invariant")

# Relative weight floor added to every member, as a fraction of the longest
# length in the generation. Keeps selection pressure gentle: the longest tour
# still draws with weight floor * longest rather than dropping to zero.
_WEIGHT_FLOOR = 0.5


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
        if self.population_size < 2:
            raise ConfigurationError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.max_generations < 1:
            raise ConfigurationError(f"max_generations must be >= 1, got {self.max_generations}")
        if self.max_stall_generations < 1:
            raise ConfigurationError(
                f"max_stall_generations must be >= 1, got {self.max_stall_generations}"
            )
        if self.crossover_variant not in CROSSOVER_VARIANTS:
            raise ConfigurationError(
                f"crossover_variant must be one of {CROSSOVER_VARIANTS}, "
                f"got {self.crossover_variant!r}"
            )


def init_population(
    instance: Instance, size: int, rng: np.random.Generator
) -> list[tuple[Tour, float]]:
    """Random members paired with their lengths."""
    rows = random_rows(instance.n, size, rng)
    return [(Tour(row), float(length)) for row, length in zip(rows, row_lengths(instance, rows))]


class _RouletteWheel:
    """Cumulative selection weights for one fixed population.

    Weight of a member is (longest length - own length) plus a floor
    proportional to the longest length, so shorter tours are strictly
    favored while every member keeps a real chance. A draw is split in two
    so a generation can take all of its scalar draws first: ``spin`` takes
    one number from the rng, ``land`` maps a batch of spins to members.
    """

    __slots__ = ("cum", "total")

    def __init__(self, lengths: np.ndarray) -> None:
        longest = float(lengths.max())
        weights = (longest - lengths) + _WEIGHT_FLOOR * longest
        self.cum = np.cumsum(weights)
        self.total = float(self.cum[-1])

    def spin(self, rng: np.random.Generator) -> float:
        if self.total <= 0.0:
            # All lengths zero (duplicate points): fall back to uniform.
            return int(rng.integers(self.cum.size))
        return rng.random() * self.total

    def land(self, spins: list[float]) -> np.ndarray:
        if self.total <= 0.0:
            return np.array(spins, dtype=np.int64)
        k = np.searchsorted(self.cum, spins, side="right")
        return np.minimum(k, self.cum.size - 1)


def select_parent(
    population: list[tuple[Tour, float]], rng: np.random.Generator
) -> Tour:
    """Roulette-wheel pick over length-based weights; shorter is likelier."""
    lengths = np.array([length for _, length in population], dtype=np.float64)
    wheel = _RouletteWheel(lengths)
    return population[int(wheel.land([wheel.spin(rng)])[0])][0]


def _draw_split(n: int, rng: np.random.Generator) -> int:
    return int(rng.integers(1, n))


def _draw_swap(n: int, rate: float, rng: np.random.Generator) -> tuple[int, int] | None:
    """Mutation draws for one child: the rate draw, then two distinct positions."""
    if rate <= 0.0 or rng.random() >= rate:
        return None
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    while j == i:
        j = int(rng.integers(n))
    return i, j


def _check_parents(p1: Tour, p2: Tour, split: int | None) -> None:
    n = len(p1)
    if len(p2) != n:
        raise ValueError(f"parents must have equal length, got {n} and {len(p2)}")
    if split is not None and not 1 <= split <= n - 1:
        raise ValueError(f"split must be in 1..{n - 1}, got {split}")


def _crossover_rows(p1: np.ndarray, p2: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Baseline crossover of each row pair of two (k, n) parent arrays.

    Every city of ``p2`` goes to one position of the child. A city inside
    ``p1``'s prefix goes where ``p1`` has it; the others fill the positions
    from the split on, in ``p2``'s order, placed by a running count.
    """
    k, n = p1.shape
    rows = np.arange(k)[:, None]
    where_in_p1 = np.empty_like(p1)
    where_in_p1[rows, p1] = np.arange(n)
    dest = where_in_p1[rows, p2]
    tail = dest >= splits[:, None]
    dest = np.where(tail, splits[:, None] + np.cumsum(tail, axis=1) - 1, dest)
    child = np.empty_like(p1)
    child[rows, dest] = p2
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
    _check_parents(p1, p2, split)
    if split is None:
        if rng is None:
            raise ValueError("provide either a split position or an rng")
        split = _draw_split(len(p1), rng)
    return Tour(_crossover_rows(p1.order[None, :], p2.order[None, :], np.array([split]))[0])


def crossover_reversal_invariant(
    p1: Tour,
    p2: Tour,
    instance: Instance,
    split: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tour:
    """Reversal-invariant crossover: breed against the mate and its reverse.

    An explicit ``split`` applies to both candidates, which makes the result
    a deterministic function of the parents and exactly as long for a mate
    as for the reversed mate. With ``split`` unset each candidate draws its
    own split from ``rng``, the same policy run_ga uses.
    """
    _check_parents(p1, p2, split)
    if split is None:
        if rng is None:
            raise ValueError("provide either a split position or an rng")
        splits = [_draw_split(len(p1), rng), _draw_split(len(p1), rng)]
    else:
        splits = [split, split]
    children, _ = _offspring(instance, p1.order[None, :], p2.order[None, :], np.array([splits]))
    return Tour(children[0])


def mutate(tour: Tour, rate: float, rng: np.random.Generator) -> Tour:
    """With probability ``rate``, swap one uniformly random position pair.

    Returns the input object itself when no swap was applied, so callers can
    skip re-evaluation with an identity check.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
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
    """
    rng = make_rng(config.seed)
    started = time.perf_counter()
    n, size, rate = instance.n, config.population_size, config.mutation_rate
    columns = 2 if config.crossover_variant == "reversal_invariant" else 1

    population = random_rows(n, size, rng)
    lengths = row_lengths(instance, population)
    evaluations = size
    best = int(np.argmin(lengths))
    best_row, best_length = population[best], float(lengths[best])
    generations = 0
    stall = 0
    while generations < config.max_generations and stall < config.max_stall_generations:
        # Every scalar draw of the generation, in the per-offspring order
        # (two parents, the splits, the mutation), so the stream, and with
        # it every result, does not depend on how the rest is batched.
        wheel = _RouletteWheel(lengths)
        spins, splits, swaps = [], [], []
        for k in range(size):
            spins.append(wheel.spin(rng))
            spins.append(wheel.spin(rng))
            for _ in range(columns):
                splits.append(_draw_split(n, rng))
            swap = _draw_swap(n, rate, rng)
            if swap is not None:
                swaps.append((k, *swap))
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
