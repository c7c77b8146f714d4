"""Exact small-instance solvers used as ground truth by tests and the CLI."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Instance, Tour, row_lengths, tour_length

__all__ = ["BRUTE_FORCE_MAX", "HELD_KARP_MAX", "ExactResult", "brute_force", "held_karp"]

BRUTE_FORCE_MAX = 10
HELD_KARP_MAX = 18


@dataclass(frozen=True)
class ExactResult:
    """An optimal tour together with how much search produced it."""

    optimal_tour: Tour
    optimal_length: float
    nodes_expanded: int


def _check_size(instance: Instance, limit: int, solver: str) -> None:
    if instance.n > limit:
        raise ConfigurationError(f"{solver} handles at most {limit} points, got {instance.n}")


def _pinned_tours(n: int) -> np.ndarray:
    """The (n-1)!/2 tours brute_force evaluates, in lexicographic order.

    One int8 array, grown one size at a time: the orders of cities 1..s
    after the pinned 0 are, for each first city f in ascending order, f
    followed by ``p + (p >= f)`` for every order p of 1..s-1. At the last
    size only the orders whose last city is above f are built, since the
    others are reflections; that last city is p's last plus one when p's
    last is at least f, and p's last otherwise, so it is above f exactly
    when p's last is at least f.
    """
    tours = np.array([[0, 1]], dtype=np.int8)
    for s in range(2, n):
        tails = tours[:, 1:]
        final = s == n - 1
        firsts = range(1, s + 1)
        counts = [np.count_nonzero(tails[:, -1] >= f) if final else len(tails) for f in firsts]
        tours = np.zeros((sum(counts), s + 1), dtype=np.int8)
        for f, end, count in zip(firsts, itertools.accumulate(counts), counts):
            part = tails[tails[:, -1] >= f] if final else tails
            block = tours[end - count : end]
            block[:, 1] = f
            np.add(part, part >= f, out=block[:, 2:], dtype=np.int8)
    return tours


def brute_force(instance: Instance) -> ExactResult:
    """Exact optimum by enumerating all (n-1)!/2 distinct closed tours.

    Position 0 is pinned to city 0 and reflections are skipped by requiring
    the second city to be no larger than the last (they are the same city
    only at n = 2), so each cyclic tour is evaluated exactly once. Ties keep
    the lexicographically smallest order.

    The tours come from _pinned_tours as one int8 array, and row_lengths
    evaluates them in one batch: at n = 10, 181,440 rows in about 25 ms (3 ms
    at n = 9) on a 2-core shared Xeon. The traced peak, 3.4 MiB at n = 10
    (0.58 MiB at n = 9), is the int8 tours, their float64 lengths and one
    row_lengths block of temporaries; growing the tours peaks at 3.0 MiB.
    """
    _check_size(instance, BRUTE_FORCE_MAX, "brute_force")
    tours = _pinned_tours(instance.n)
    lengths = row_lengths(instance, tours)
    best = int(np.argmin(lengths))  # first minimum = lexicographically smallest
    return ExactResult(Tour(tours[best]), float(lengths[best]), len(tours))


def _extend_layer(cost: np.ndarray, masks: np.ndarray, table: np.ndarray, s: int) -> int:
    """Extend the paths over every subset in ``masks``, all of size s, by one city, in place.

    ``best`` takes the minimum over the last city k of the candidates, two
    (m, n) array passes per k: the addition and the elementwise minimum.
    Only cities that can end a path over the subsets are tried: k = 0 at
    s = 1, where the one subset is {0}, and k = 1 .. n-1 otherwise, since
    no path over two or more cities ends at 0. Then every free (M, j) is
    written in one scatter, through two flat int64 indices per free entry:
    its place in ``best`` and its target's place in ``cost``.

    Returns the number of finite ``cost`` entries read, the layer's nodes:
    each subset holds one at s = 1 and s - 1 otherwise, one per k in M.
    """
    n = table.shape[0]
    rows = masks >> 1
    best = np.full((masks.size, n), np.inf)
    cand = np.empty_like(best)
    for k in (0,) if s == 1 else range(1, n):
        np.add(cost[rows, k][:, None], table[k], out=cand)
        np.minimum(best, cand, out=best)
    del cand  # freed before the scatter allocates its own temporaries
    # Every free (M, j) in one scatter: the target (M | 1 << j, j) sits at
    # flat index ((M >> 1) + (1 << (j - 1))) * n + j of cost. Column 0 is
    # never free, since every M holds city 0. Each target has one writer and
    # holds inf until it is written, so an inf best changes nothing.
    free = np.flatnonzero((masks[:, None] & (1 << np.arange(n))) == 0)
    step = np.arange(n, dtype=np.int64)
    step[1:] += n << np.arange(n - 1)
    cost.put(np.add.outer(rows * n, step).take(free), best.take(free))
    return masks.size * max(1, s - 1)


def held_karp(instance: Instance) -> ExactResult:
    """Exact optimum via dynamic programming over city subsets anchored at 0.

    For a subset M of the cities that holds city 0, written as a bit mask,
    and an end city j in M, the DP keeps the length of the shortest path
    that starts at 0, visits exactly M and ends at j. A path over s + 1
    cities extends one over s, so the subsets are filled one size at a
    time, s = 1 .. n-1. In the pass for size s, every subset M of that size
    is one row; the minimum over the last city k = 0 .. n-1 of
    ``cost(M, k) + table[k, j]`` is taken for each j, and the result for
    each j outside M goes to ``cost(M | 1 << j, j)``, all of them in one
    scatter. That is n - 1 array passes of n steps and one write each:
    O(n^2) Python-level iterations, not one per subset.

    The result does not depend on the order of the subsets within a pass,
    and it is exact: each entry (T, j) has one writer, the subset T without
    j, and each candidate is the single float addition above, so the
    minimum is one of them bit for bit. No parent is stored: the tour is
    walked back from its last city, and the predecessor of (M, j) is the
    first k, in ascending order, whose ``cost(M without j, k) + table[k, j]``
    equals ``cost(M, j)``. That sum is the addition that produced the entry,
    so the equality is exact, and among equal candidates the smallest k is
    the predecessor.

    nodes_expanded counts the finite entries that were extended. Memory is
    a float64 ``cost`` table of 2^(n-1) rows (one per subset that holds 0)
    by n, plus O(C(n-1, s-1) * n) for the pass of size s: at n = 16 the
    traced peak is about 7.0 MiB, against 4.0 MiB of table.

    The reconstructed tour is oriented so its second city is smaller than its
    last, then re-evaluated with tour_length, so the result is bit-identical
    to brute_force whenever the optimum is unique.
    """
    _check_size(instance, HELD_KARP_MAX, "held_karp")
    n = instance.n
    table = instance.distance_table()
    full = 1 << n
    # Every subset holds city 0, so row M >> 1 stores odd mask M.
    cost = np.full((full >> 1, n), np.inf)
    cost[0, 0] = 0.0
    odd = np.arange(1, full, 2, dtype=np.int64)
    size = np.ones_like(odd)
    for c in range(1, n):
        size += (odd >> c) & 1
    expanded = 0
    for s in range(1, n):
        expanded += _extend_layer(cost, odd[size == s], table, s)

    closing = cost[-1, 1:] + table[1:, 0]
    mask, cur = full - 1, 1 + int(np.argmin(closing))
    path = []
    while cur != 0:
        path.append(cur)
        prev = mask ^ (1 << cur)
        # argmax of the equality is its first True: the smallest tying k.
        cur = int(np.argmax(cost[prev >> 1] + table[:, cur] == cost[mask >> 1, cur]))
        mask = prev
    order = [0] + path[::-1]
    if order[1] > order[-1]:
        order = [0] + order[:0:-1]
    t = Tour(order)
    return ExactResult(t, tour_length(instance, t), expanded)
