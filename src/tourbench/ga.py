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
# least one.
_CHUNK_CHILDREN = 1024


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

    The Generator holds the stream between chunks: ``take`` decodes a chunk
    in one pass, which reads the half-word cache from
    ``bit_generator.state``, draws its words with ``random_raw``, and hands
    back the words its children did not take and the cache they leave, so
    between chunks the Generator stands where per-child calls would.

    A 32-bit draw starts a fresh word exactly when an even number of halves
    lies between it and an empty cache, so every word a child takes follows
    from T, the number of halves taken before it: ``full`` whole words per
    child, plus the fresh words of the halves. Between two mutation hits
    each child takes ``halves`` halves, so the rate words of children two
    apart lie ``2 * full + halves`` words apart (of adjacent children, half
    that when ``halves`` is even), and one ``bytes.find`` per lane of rate
    tests laid out by residue finds the next hit. At each hit the walk
    decodes i, j, their rejections and the ``j == i`` redraws from the
    pass's words, as Python ints, and moves T on by the halves they take.
    One array expression then decodes every child's spins and splits from
    T. If a split is one that Lemire's draw rejects (below n / 2**32 a
    draw), or a child's words run past the pass's draw, ``_child`` draws
    the whole chunk again with the Generator's own calls.
    """

    def __init__(self, rng: np.random.Generator, n: int, columns: int, rate: float) -> None:
        self.rng, self.bits = rng, rng.bit_generator
        self.n, self.columns, self.rate = n, columns, rate
        self.halves = columns if n > 2 else 0  # 32-bit split draws per child
        self.full = 2 + (rate > 0.0)  # whole words per child
        # Lemire's rejection limits of a split (span n - 1) and of i and j (span n).
        self.split_limit, self.swap_limit = (1 << 32) % (n - 1), (1 << 32) % n
        # The halves a hit takes on average: i, then j until it differs from
        # i, each drawn again while Lemire's draw rejects it.
        self.per_hit = (1 + n / (n - 1)) / (1 - self.swap_limit / (1 << 32))

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` children's draws, one row per child, decoded in one pass.

        Returns the spins as unit floats, (count, 2); the splits,
        (count, columns), in ``_narrow(n)``; and the swap positions,
        (count, 2): a hit always has j != i, and a child the rate draw
        missed has (0, 0).

        The pass draws the words its children take without a hit, and room
        for the hits' swap halves: ``per_hit`` halves for each of the h
        expected hits, for 8 * sqrt(h) more and for eight more (at n = 2 and
        rate 1, 17 standard deviations past the mean of 1,024 children's
        halves). It then steps the bit generator back over the words its
        children did not take: PCG64's period is 2**128, so advancing by
        2**128 - k steps back k words. The step empties the half-word cache,
        so the pass writes its cache after. If the children's words run past
        the draw, or a split is rejected, the bit generator is set back to
        where the pass found it and ``_child`` draws every child instead.
        """
        full, halves = self.full, self.halves
        units, splits, swaps = rows = (
            np.empty((count, 2)), np.empty((count, self.columns), dtype=_narrow(self.n)),
            np.zeros((count, 2), dtype=np.intp),
        )
        state = self.bits.state
        has, cached = state["has_uint32"], state["uinteger"]
        expected = count * self.rate  # the pass's mean number of hits
        spare = int(self.per_hit * (expected + 8 * math.sqrt(expected) + 8)) if expected else 0
        words = self.bits.random_raw(count * full + (count * halves + spare + 1 - has) // 2)
        walked = self._walk(words, count, has, cached) if expected else ([], [], [], [])
        if walked is None:
            return self._redraw(rows, state)
        hit, drawn, last, pairs = walked
        hit = np.array(hit, dtype=np.intp)
        # T: each child's halves, and each hit's swap halves after its child.
        taken = np.arange(count + 1) * halves
        if hit.size:
            extra = np.zeros(count + 1, dtype=np.intp)
            extra[hit + 1] = drawn
            taken += np.cumsum(extra)
        # One row of slots per child: its split halves, then its hit's last
        # fresh word. A fresh half is the low half of its word, and any
        # other half the high half of the latest fresh word, whose position
        # only grows along the rows; before the first, it is the cached half.
        whole = np.arange(count) * full
        t = taken[:-1, None] + np.arange(halves)
        fresh = (t + has) % 2 == 0
        at = np.full((count, halves + 1), -1, dtype=np.intp)
        at[:, :halves] = np.where(fresh, whole[:, None] + 2 + (t + 1 - has) // 2, -1)
        at[hit, halves] = last
        source = np.maximum.accumulate(at.ravel()).reshape(count, halves + 1)
        word = words[source[:, :halves]]
        value = np.where(fresh, word & _LOW32, word >> 32)
        value[source[:, :halves] < 0] = cached
        # Lemire's multiply-shift on every split at once.
        product = value * (self.n - 1)
        if (product & _LOW32 < self.split_limit).any():
            return self._redraw(rows, state)

        spin = whole + (taken[:-1] + 1 - has) // 2
        units[:] = (words[spin[:, None] + np.arange(2)] >> 11) * _UNIT
        splits[:] = (product >> 32) + 1 if halves else 1
        if hit.size:
            swaps[hit] = pairs
        if source[-1, -1] >= 0:
            cached = int(words[source[-1, -1]] >> 32)
        used = count * full + (int(taken[-1]) + 1 - has) // 2
        self.bits.advance((1 << 128) - (len(words) - used))
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = (has + int(taken[-1])) % 2, cached
        self.bits.state = state
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

    def _walk(self, words: np.ndarray, count: int, has: int, cached: int) -> tuple | None:
        """Find a pass's mutation hits among ``count`` children and decode their swaps.

        Returns four lists: the hit children; the halves each hit takes for
        i, j and their redraws; the word of each hit's last fresh half; and
        each hit's (i, j). Returns None if the children's words run past
        ``words``.
        """
        full, halves, n, limit = self.full, self.halves, self.n, self.swap_limit
        # Without a hit, the rate words of children ``every`` apart lie
        # ``stride`` words apart: with an odd number of halves a child's
        # fresh words alternate between two counts.
        every = 1 + halves % 2
        stride = every * (2 * full + halves) // 2
        tests = ((words >> 11) * _UNIT < self.rate).view(np.uint8)
        lanes = [tests[r::stride].tobytes() for r in range(stride)]
        hit, drawn, last, pairs = [], [], [], []
        child = t = 0  # the next child to test, and the halves taken before it

        def rate_word(k: int) -> int:
            """Child ``child + k``'s rate word, if no child from ``child`` on hits before it."""
            return (child + k) * full + 2 + (t + (k + 1) * halves + 1 - has) // 2

        while True:
            first = count
            for k in range(every):
                start, lane = divmod(rate_word(k), stride)
                found = lanes[lane].find(1, start)
                if 0 <= found and child + k + every * (found - start) < first:
                    first = child + k + every * (found - start)
            if first == count:
                # No hit before ``count``, unless the words ran out first.
                if child == count or rate_word(count - 1 - child) < len(words):
                    return hit, drawn, last, pairs
                return None
            # The hit's halves follow its splits and its rate word.
            t += (first + 1 - child) * halves
            before, ready = t, (t + has) % 2
            q = first * full + 3 + (t + 1 - has) // 2  # its next fresh word
            if ready and halves:
                cached = int(words[q - 2]) >> 32
            i = None
            while True:
                if ready:
                    x, ready = cached, 0
                elif q < len(words):
                    word = int(words[q])
                    x, cached, ready, q = word & _LOW32, word >> 32, 1, q + 1
                else:
                    return None
                t += 1
                product = x * n
                if product & _LOW32 < limit:
                    continue  # Lemire's rejection
                if i is None:
                    i = product >> 32
                elif product >> 32 != i:
                    break
            hit.append(first)
            drawn.append(t - before)
            last.append(q - 1)
            pairs.append((i, product >> 32))
            child = first + 1

    def _redraw(self, rows: tuple[np.ndarray, ...], state: dict) -> tuple[np.ndarray, ...]:
        """Set the bit generator back to ``state`` and draw every child of ``rows`` with ``_child``."""
        self.bits.state = state
        for row in zip(*rows):
            self._child(row)
        return rows

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
