"""Generational genetic algorithm over tours, with two crossover strategies.

The baseline crossover keeps a prefix of the first parent and fills in the
remaining cities in the order the second parent visits them. The
reversal-invariant variant breeds one candidate from the mate and one from
the reversed mate (each at its own uniformly drawn split) and keeps the
shorter child, so a mate's direction of travel no longer matters; it costs
exactly two length evaluations per offspring instead of one.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from collections.abc import Iterator
from dataclasses import dataclass

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

# Children whose draws run_ga decodes in one pass: whole generations, at
# least one. After a child that rejects or redraws, the next pass spans
# twice the run of children before it, and at least _MIN_WINDOW: a pass
# decodes every child in its window however early one stops it, so passes
# that spanned every child left would decode most of them again after each
# stop (190,000 children for take(1000) at n = 3 and rate 1, against 6,800).
_CHUNK_CHILDREN = 1024
_MIN_WINDOW = 16


def _check_rate(name: str, rate: object) -> None:
    """Raise ConfigurationError unless ``rate`` is a real number in [0, 1]; bools are not."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {rate!r}")
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")


def _narrow(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds n - 1: any city, position or split of n points."""
    return np.min_scalar_type(n - 1)


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
        # numpy scalars pass the checks; keep Python numbers, so every path compares in float64.
        for name, kind in (("population_size", int), ("mutation_rate", float),
                           ("max_generations", int), ("max_stall_generations", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))


def _land(lengths: np.ndarray, units: np.ndarray | float) -> np.ndarray:
    """Members a roulette wheel over ``lengths`` lands on for unit floats ``units``.

    Weight of a member is (longest length - own length) plus a floor
    proportional to the longest length, so shorter tours are strictly
    favored while every member keeps a real chance. When every length is
    zero (duplicate points) the floor is 1, so every member weighs the same.
    A spin is a unit float times the weights' total, so a generation can
    take all of its unit draws first.
    """
    longest = float(lengths.max())
    weights = (longest - lengths) + (_WEIGHT_FLOOR * longest if longest > 0.0 else 1.0)
    cum = np.cumsum(weights)
    # Searching all but the last sum lands a spin of the whole total on the last member.
    return np.searchsorted(cum[:-1], units * float(cum[-1]), side="right")


def select_parent(
    population: list[tuple[Tour, float]], rng: np.random.Generator
) -> Tour:
    """Roulette-wheel pick over length-based weights; shorter is likelier."""
    lengths = np.array([length for _, length in population], dtype=np.float64)
    return population[int(_land(lengths, rng.random()))][0]


def _draw_swap(n: int, rate: float, rng: np.random.Generator) -> tuple[int, int] | None:
    """Mutation draws for one child: the rate draw, then two distinct positions."""
    if rate <= 0.0 or rng.random() >= rate:
        return None
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    while j == i:
        j = int(rng.integers(n))
    return i, j


class _Draws:
    """Every random draw of ``run_ga``'s generations, decoded from raw PCG64 words.

    Child by child, in the order of per-child ``Generator`` calls: two
    roulette spins (``random()``), ``columns`` splits (``integers(1, n)``),
    then the mutation rate draw (``random()``, none at rate 0) and, when it
    hits, ``i``, ``j`` and the ``j == i`` redraws (``integers(n)``). The
    numbers, the words taken and the half-word cache equal those calls'.
    Each child has one row in each of ``take``'s arrays, and a child the
    rate draw missed has the swap (0, 0), which changes nothing.

    The Generator holds the stream between passes: each pass reads the
    half-word cache from ``bit_generator.state``, draws with ``random_raw``
    the most words its children can take, and hands back the words they did
    not take and the cache they leave, so between passes the Generator
    stands where per-child calls would. ``take`` decodes many children per
    pass.
    Without rejections and mutation hits, every draw's word has a
    closed-form position: each child takes ``full`` whole words plus the
    32-bit halves it starts fresh, and a half starts a fresh word exactly
    when it follows an even number of halves from an empty cache. A hit
    takes one more word and keeps the parity, so one walk over the rate
    words places every hit; all acceptance tests are then one array
    expression. The first child with a Lemire rejection or ``j == i`` is
    drawn by ``_child`` with the Generator's own calls, and the next pass
    starts after it.
    """

    def __init__(self, rng: np.random.Generator, n: int, columns: int, rate: float) -> None:
        self.rng, self.bits = rng, rng.bit_generator
        self.n, self.columns, self.rate = n, columns, rate
        self.halves = columns if n > 2 else 0  # 32-bit split draws per child
        self.full = 2 + (rate > 0.0)  # whole words per child without a hit
        # The span and Lemire's rejection limit of each half slot: the splits, i and j.
        self.spans = np.array([n - 1] * self.halves + [n, n], dtype=np.uint64)
        self.limits = (1 << 32) % self.spans

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` children's draws, one row per child.

        Returns the spins as unit floats, (count, 2); the splits,
        (count, columns), in ``_narrow(n)``; and the swap positions,
        (count, 2): a hit always has j != i, and a child the rate draw
        missed has (0, 0).
        """
        rows = (np.empty((count, 2)), np.empty((count, self.columns), dtype=_narrow(self.n)),
                np.zeros((count, 2), dtype=np.intp))
        done, window = 0, count
        while done < count:
            window = min(window, count - done)
            good = self._prefix([part[done : done + window] for part in rows])
            done += good
            if good < window:
                self._child([part[done] for part in rows])
                done += 1
            window = max(2 * good, _MIN_WINDOW)
        return rows

    def generations(self, size: int, limit: int) -> Iterator[tuple[np.ndarray, ...]]:
        """Up to ``limit`` generations of ``size`` children, decoded a chunk at a time.

        Yields each generation's rows of ``take``: unit spins, (size, 2);
        splits, (size, columns); and swap positions, (size, 2).
        """
        per_pass = max(1, _CHUNK_CHILDREN // size)
        for first in range(0, limit, per_pass):
            count = min(per_pass, limit - first)
            yield from zip(*(part.reshape(count, size, -1) for part in self.take(count * size)))

    def _prefix(self, rows: list[np.ndarray]) -> int:
        """Decode children into ``rows`` up to the first that rejects or redraws; return how many.

        The pass draws the most words its children can take, and then steps
        the bit generator back over the words they did not take: PCG64's
        period is 2**128, so advancing by 2**128 - k steps back k words. The
        step empties the half-word cache, so the pass writes its cache after.
        """
        rate, full, halves = self.rate, self.full, self.halves
        units, splits, swaps = rows
        count = len(units)
        state = self.bits.state
        has, cached = state["has_uint32"], state["uinteger"]
        k = np.arange(count)
        # The most words the children can take without a rejection: the
        # whole words, and a fresh word for every other half, i and j only
        # at a nonzero rate.
        need = count * full + (count * (halves + 2 * (rate > 0.0)) + 1 - has) // 2
        words = self.bits.random_raw(need)
        hits = []
        if rate > 0.0:
            # Child k's rate word, if no child before it hits; each hit moves it one on.
            rate_at = k * full + 2 + ((k + 1) * halves + 1 - has) // 2
            below = ((words[: rate_at[-1] + count] >> 11) * _UNIT < rate).tolist()
            for child, at in enumerate(rate_at.tolist()):
                if below[at + len(hits)]:
                    hits.append(child)
        hits = np.array(hits, dtype=np.intp)
        # One row of half slots per child, in draw order: its splits, then,
        # in a pass with a hit, the swap's i and j, present only when the
        # child hits. A present half is a fresh word's low half when an even
        # number of halves lies between it and an empty cache; otherwise it
        # is the high half of the latest fresh word, whose position only
        # grows along the rows.
        width = halves + 2 if hits.size else halves
        present = np.ones((count, width), dtype=bool)
        if hits.size:
            present[:, halves:] = False
            present[hits, halves:] = True
        fresh = present & ((np.cumsum(present) + has) % 2 == 1).reshape(count, width)
        before = np.zeros(count * width + 1, dtype=np.intp)
        np.cumsum(fresh, out=before[1:])
        # A fresh half's word: the child's whole words and fresh halves before
        # it, past the two spins, and past the rate word for i and j.
        at = k[:, None] * full + 2 + (np.arange(width) >= halves)
        at += before[:-1].reshape(count, width)
        source = np.maximum.accumulate(np.where(fresh, at, -1).ravel()).reshape(count, width)
        word = words[source]
        value = np.where(fresh, word & _LOW32, word >> 32)
        value[source < 0] = cached
        # Lemire's multiply-shift on every half at once; absent halves pass.
        product = value * self.spans[:width]
        draw = product >> 32
        ok = ((product & _LOW32 >= self.limits[:width]) | ~present).all(axis=1)
        if hits.size:
            ok &= (draw[:, -2] != draw[:, -1]) | ~present[:, -1]
        bad = np.flatnonzero(~ok)
        done = int(bad[0]) if bad.size else count

        spin = k[:done] * full
        if width:  # at n = 2 a pass without a hit has no half slots
            spin += before[: done * width : width]
        units[:done] = (words[spin[:, None] + np.arange(2)] >> 11) * _UNIT
        splits[:done] = draw[:done, :halves] + 1 if halves else 1
        kept = hits[hits < done]
        if kept.size:
            swaps[kept] = draw[kept, halves:]
        used = done * full + int(before[done * width])
        if before[done * width]:
            cached = int(word.flat[done * width - 1] >> 32)
        self.bits.advance((1 << 128) - (need - used))
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = (has + done * halves + 2 * kept.size) % 2, cached
        self.bits.state = state
        return done

    def _child(self, row: list[np.ndarray]) -> None:
        """Draw one child into ``row`` with per-child Generator calls, redraws included."""
        rng, n = self.rng, self.n
        units, splits, swap = row
        rng.random(out=units)
        splits[:] = rng.integers(1, n, size=self.columns)
        drawn = _draw_swap(n, self.rate, rng)
        if drawn is not None:
            swap[:] = drawn


@functools.lru_cache(maxsize=4)
def _crossover_constants(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shape constants of ``_crossover_rows`` for k rows of n cities.

    Returns each row's offset into the raveled (k, n) array, (k, 1) in intp,
    and the positions 0 .. n-1 tiled k times, (k * n,) in ``_narrow(n)``.
    A run breeds the same shape every generation, so it builds them once.
    """
    offsets = np.arange(0, k * n, n)[:, None]
    ranks = np.tile(np.arange(n, dtype=_narrow(n)), k)
    offsets.setflags(write=False)
    ranks.setflags(write=False)
    return offsets, ranks


def _crossover_rows(p1: np.ndarray, p2: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Children of each row pair of two (k, n) parent arrays, (columns, k, n).

    ``splits`` is (k, columns). Column 0 is baseline crossover: the child
    keeps ``p1`` before the split, and the cities of ``p2`` that ``p1`` has
    from the split on fill the rest, in ``p2``'s order. Each row's tail
    takes exactly n - split of them, so one mask assignment in row-major
    order places every row's tail. Column 1 breeds from the reversed mate:
    its tail holds the cities the same mask selects at its own split, in
    reverse order, so they are written right to left into the reversed view
    of the child.

    The children have the parents' dtype, which may be any integer dtype;
    ``run_ga`` passes rows and splits in ``_narrow(n)``. Each city's
    position in its first parent is kept in ``_narrow(n)``, so with narrow
    splits the tail masks and the masks that pick the mates' cities are each
    one narrow compare over every column.
    """
    k, n = p1.shape
    # Flat indices into one (k, n) array: faster than (rows, cols) pairs.
    offsets, ranks = _crossover_constants(k, n)
    where_in_p1 = np.empty(k * n, dtype=ranks.dtype)
    where_in_p1[(p1 + offsets).ravel()] = ranks
    pos = where_in_p1[p2 + offsets]
    cut = splits.T[:, :, None]
    tails = ranks[:n] >= cut
    picks = pos >= cut
    children = np.array([p1] * splits.shape[1])
    children[0][tails[0]] = np.compress(picks[0].ravel(), p2)
    if splits.shape[1] == 2:
        children[1][:, ::-1][tails[1][:, ::-1]] = np.compress(picks[1].ravel(), p2)
    return children


def _offspring(
    instance: Instance, p1: np.ndarray, p2: np.ndarray, splits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Children of (k, n) parent rows and their lengths.

    ``splits`` is (k, 1) for baseline crossover. With a second column the
    crossover is reversal-invariant: a second child is bred from the
    reversed mate at that split, and the shorter of the two is kept, the tie
    going to the unreversed mate's child. Both columns are evaluated in one
    ``row_lengths`` call, one length evaluation per child per column.
    """
    children = _crossover_rows(p1, p2, splits)
    lengths = row_lengths(instance, children.reshape(-1, p1.shape[1])).reshape(splits.shape[::-1])
    if splits.shape[1] == 1:
        return children[0], lengths[0]
    shorter = lengths[1] < lengths[0]
    np.copyto(children[0], children[1], where=shorter[:, None])
    np.copyto(lengths[0], lengths[1], where=shorter)
    return children[0], lengths[0]


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
    return Tour(_crossover_rows(p1.order[None, :], p2.order[None, :], np.array([[split]]))[0, 0])


def mutate(tour: Tour, rate: float, rng: np.random.Generator) -> Tour:
    """With probability ``rate``, swap one uniformly random position pair.

    Returns the input object itself when no swap was applied, so callers can
    skip re-evaluation with an identity check.
    """
    _check_rate("mutation rate", rate)
    swap = _draw_swap(len(tour), float(rate), rng)
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

    population = random_rows(n, size, rng).astype(_narrow(n))
    # Every draw comes from here, in the per-offspring order, so the results
    # do not depend on how the array work is batched.
    draws = _Draws(rng, n, columns, rate).generations(size, config.max_generations)
    lengths = row_lengths(instance, population)
    evaluations = size
    gen = int(np.argmin(lengths))  # the population's shortest member
    best_row, best_length = population[gen], float(lengths[gen])
    generations = 0
    stall = 0
    while generations < config.max_generations and stall < config.max_stall_generations:
        units, splits, swaps = next(draws)
        parents = _land(lengths, units)
        p1, p2 = population.take(parents.T, axis=0)
        offspring, offspring_lengths = _offspring(instance, p1, p2, splits)
        evaluations += size * columns
        i, j = swaps.T
        rows = (i != j).nonzero()[0]
        if rows.size:
            i, j = i[rows], j[rows]
            offspring[rows, i], offspring[rows, j] = offspring[rows, j], offspring[rows, i]
            offspring_lengths[rows] = row_lengths(instance, offspring[rows])
            evaluations += rows.size
        if config.elitism:
            worst = int(np.argmax(offspring_lengths))
            offspring[worst] = population[gen]
            offspring_lengths[worst] = lengths[gen]
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
