"""Exact small-instance solvers used as ground truth by tests and the CLI."""

from __future__ import annotations

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
    followed by ``p + (p >= f)`` for every order p of 1..s-1. One mask then
    drops the reflections.
    """
    tours = np.array([[0, 1]], dtype=np.int8)
    for s in range(2, n):
        first = np.arange(1, s + 1, dtype=np.int8)[:, None, None]
        tails = tours[:, 1:]
        grown = np.zeros((s, len(tours), s + 1), dtype=np.int8)
        grown[:, :, 1:2] = first
        np.add(tails, tails >= first, out=grown[:, :, 2:], dtype=np.int8)
        tours = grown.reshape(-1, s + 1)
    return tours[tours[:, 1] <= tours[:, -1]]


def brute_force(instance: Instance) -> ExactResult:
    """Exact optimum by enumerating all (n-1)!/2 distinct closed tours.

    Position 0 is pinned to city 0 and reflections are skipped by requiring
    the second city to be no larger than the last (they are the same city
    only at n = 2), so each cyclic tour is evaluated exactly once. Ties keep
    the lexicographically smallest order.

    The tours come from _pinned_tours as one int8 array, and row_lengths
    evaluates them in one batch: at n = 10, 181,440 rows in about 33 ms (4 ms
    at n = 9) on a 2-core shared Xeon. The traced peak, 7.3 MiB at n = 10
    (0.75 MiB at n = 9), is set by growing the int8 tours; row_lengths adds
    the float64 lengths and one block of temporaries.
    """
    _check_size(instance, BRUTE_FORCE_MAX, "brute_force")
    tours = _pinned_tours(instance.n)
    lengths = row_lengths(instance, tours)
    best = int(np.argmin(lengths))  # first minimum = lexicographically smallest
    return ExactResult(Tour(tours[best]), float(lengths[best]), len(tours))


def _extend_layer(cost: np.ndarray, parent: np.ndarray, masks: np.ndarray, table: np.ndarray) -> int:
    """Extend the paths over every subset in ``masks`` by one city, in place.

    The running minimum over k fills ``best`` and ``pick``, one (m, n) array
    step per k. Then every free (M, j) is written in one scatter, through
    two flat int64 indices per free entry: its place in ``best`` and
    ``pick``, and its target's place in ``cost`` and ``parent``.

    Returns the number of finite ``cost`` entries read: the layer's nodes.
    """
    n = table.shape[0]
    rows = masks >> 1
    best = np.full((masks.size, n), np.inf)
    pick = np.zeros(best.shape, dtype=np.int8)
    cand = np.empty_like(best)
    better = np.empty(best.shape, dtype=bool)
    nodes = 0
    for k in range(n):
        col = cost[rows, k]
        finite = int(np.count_nonzero(col < np.inf))
        if not finite:  # k is in none of the subsets
            continue
        nodes += finite
        np.add(col[:, None], table[k], out=cand)
        np.less(cand, best, out=better)
        np.copyto(best, cand, where=better)
        np.copyto(pick, k, where=better)
    del cand, better  # freed before the scatter allocates its own temporaries
    # Every free (M, j) in one scatter: the target (M | 1 << j, j) sits at
    # flat index ((M >> 1) + (1 << (j - 1))) * n + j of cost and parent.
    # Column 0 is never free, since every M holds city 0.
    free = np.flatnonzero((masks[:, None] & (1 << np.arange(n))) == 0)
    step = np.arange(n, dtype=np.int64)
    step[1:] += n << np.arange(n - 1)
    targets = np.add.outer(rows * n, step).take(free)
    vals = best.take(free)
    improved = vals < cost.take(targets)
    targets = targets[improved]
    cost.put(targets, vals[improved])
    parent.put(targets, pick.take(free)[improved])
    return nodes


def held_karp(instance: Instance) -> ExactResult:
    """Exact optimum via dynamic programming over city subsets anchored at 0.

    For a subset M of the cities that holds city 0, written as a bit mask,
    and an end city j in M, the DP keeps the length of the shortest path
    that starts at 0, visits exactly M and ends at j. A path over s + 1
    cities extends one over s, so the subsets are filled one size at a
    time, s = 1 .. n-1. In the pass for size s, every subset M of that size
    is one row; a running minimum over the last city k = 0 .. n-1 of
    ``cost(M, k) + table[k, j]`` is kept for each j together with its k, and
    the result for each j outside M goes to ``cost(M | 1 << j, j)``, all of
    them in one scatter. That is n - 1 array passes of n steps and one write
    each: O(n^2) Python-level iterations, not one per subset.

    The result does not depend on the order of the subsets within a pass,
    and it is exact:

    - each entry (T, j) has one writer, the subset T without j;
    - each candidate is the single float addition above;
    - the minimum is replaced only on a strict ``<``, so among equal
      candidates the smallest k becomes the parent.

    nodes_expanded counts the finite entries that were extended. Memory is
    a float64 ``cost`` and an int8 ``parent`` table of 2^(n-1) rows (one per
    subset that holds 0) by n, plus O(C(n-1, s-1) * n) for the pass of size s:
    at n = 16 the traced peak is about 7.7 MiB, against 4.5 MiB of tables.

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
    parent = np.full(cost.shape, -1, dtype=np.int8)
    cost[0, 0] = 0.0
    odd = np.arange(1, full, 2, dtype=np.int64)
    size = np.ones_like(odd)
    for c in range(1, n):
        size += (odd >> c) & 1
    expanded = 0
    for s in range(1, n):
        expanded += _extend_layer(cost, parent, odd[size == s], table)

    closing = cost[-1, 1:] + table[1:, 0]
    last = 1 + int(np.argmin(closing))
    path = []
    mask, cur = full - 1, last
    while cur != 0:
        path.append(cur)
        prev = int(parent[mask >> 1, cur])
        mask ^= 1 << cur
        cur = prev
    order = [0] + path[::-1]
    if order[1] > order[-1]:
        order = [0] + order[:0:-1]
    t = Tour(order)
    return ExactResult(t, tour_length(instance, t), expanded)
