"""Exact small-instance solvers used as ground truth by tests and the CLI."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Instance, Tour, row_lengths, tour_length

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
        raise ValueError(f"{solver} handles at most {limit} points, got {instance.n}")


def brute_force(instance: Instance) -> ExactResult:
    """Exact optimum by enumerating all (n-1)!/2 distinct closed tours.

    Position 0 is pinned to city 0 and reflections are skipped by requiring
    the second city to be no larger than the last (they are the same city
    only at n = 2), so each cyclic tour is evaluated exactly once. Ties keep
    the lexicographically smallest order.
    """
    _check_size(instance, BRUTE_FORCE_MAX, "brute_force")
    n = instance.n
    rest = [p for p in itertools.permutations(range(1, n)) if p[0] <= p[-1]]
    tours = np.zeros((len(rest), n), dtype=np.int64)
    tours[:, 1:] = np.array(rest, dtype=np.int64)
    lengths = row_lengths(instance, tours)
    best = int(np.argmin(lengths))  # first minimum = lexicographically smallest
    return ExactResult(Tour(tours[best]), float(lengths[best]), len(rest))


def held_karp(instance: Instance) -> ExactResult:
    """Exact optimum via dynamic programming over city subsets anchored at 0.

    The reconstructed tour is oriented so its second city is smaller than its
    last, then re-evaluated with tour_length, so the result is bit-identical
    to brute_force whenever the optimum is unique.
    """
    _check_size(instance, HELD_KARP_MAX, "held_karp")
    n = instance.n
    table = instance.distance_table()
    full = 1 << n
    cost = np.full((full, n), np.inf)
    parent = np.full((full, n), -1, dtype=np.int8)
    cost[1, 0] = 0.0
    cities = np.arange(n)
    bits = np.int64(1) << cities
    expanded = 0
    for mask in range(1, full):
        if not mask & 1:
            continue
        row = cost[mask]
        ks = np.flatnonzero(np.isfinite(row))
        if ks.size == 0:
            continue
        in_mask = (mask >> cities) & 1
        js = cities[in_mask == 0]
        if js.size == 0:
            continue
        expanded += int(ks.size)
        cand = row[ks][:, None] + table[np.ix_(ks, js)]
        pick = np.argmin(cand, axis=0)
        vals = cand[pick, np.arange(js.size)]
        targets = mask | bits[js]
        better = vals < cost[targets, js]
        cost[targets[better], js[better]] = vals[better]
        parent[targets[better], js[better]] = ks[pick[better]].astype(np.int8)

    closing = cost[full - 1, 1:] + table[1:, 0]
    last = 1 + int(np.argmin(closing))
    path = []
    mask, cur = full - 1, last
    while cur != 0:
        path.append(cur)
        prev = int(parent[mask, cur])
        mask ^= 1 << cur
        cur = prev
    order = [0] + path[::-1]
    if order[1] > order[-1]:
        order = [0] + order[:0:-1]
    t = Tour(order)
    return ExactResult(t, tour_length(instance, t), expanded)
