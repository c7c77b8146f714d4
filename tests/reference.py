"""Plain scalar references that the tests hold the array code to.

The library defines each metric once (``Metric.pairwise``) and the
transposition neighbourhood once (``hillclimb._pairs``); these are the
same things written out one point, one swap and one tour at a time.
Held-Karp is written out one subset at a time, with explicit parent
pointers where the library walks the tour back by equality.
"""

import math

import numpy as np

from tourbench.core import Tour, tour_length
from tourbench.oracle import ExactResult


def distance(metric, a, b):
    """The distance from point ``a`` to point ``b``, operation for operation as ``pairwise``."""
    dx = a.x - b.x
    dy = a.y - b.y
    if metric.kind == "euclidean":
        return math.sqrt(dx * dx + dy * dy)
    if metric.kind == "manhattan":
        return abs(dx) + abs(dy)
    if metric.kind == "wmanhattan":
        return metric.wx * abs(dx) + metric.wy * abs(dy)
    return max(metric.wx * abs(dx), metric.wy * abs(dy))


def neighbors(tour):
    """All transposition neighbours, in lexicographic ``(i, j)`` position order."""
    order = tour.order.copy()
    n = order.size
    for i in range(n - 1):
        for j in range(i + 1, n):
            order[[i, j]] = order[[j, i]]
            yield Tour(order)
            order[[i, j]] = order[[j, i]]


def reverse(tour):
    """The same cycle walked in the opposite direction."""
    return Tour(tour.order[::-1])


def reference_step(instance, tour, forbidden=frozenset()):
    """steepest_step written out plainly: every allowed neighbour, first minimum.

    ``forbidden`` holds tours as tuples. Returns the neighbour as a list, its
    length as ``float.hex`` and the count of neighbours evaluated, or None
    when every neighbour is forbidden.
    """
    best, evaluated = None, 0
    for nb in neighbors(tour):
        if tuple(nb) in forbidden:
            continue
        evaluated += 1
        length = tour_length(instance, nb)
        if best is None or length < best[1]:
            best = (nb, length)
    return None if best is None else (best[0].tolist(), float.hex(best[1]), evaluated)


def held_karp_by_subset(instance):
    """Reference Held-Karp: one pass per subset, in increasing mask order.

    Each entry keeps its parent, the smallest predecessor k among equal
    candidates (np.argmin's first minimum), and the tour is walked back
    through the parents, then oriented and re-evaluated as held_karp does it.
    """
    n = instance.n
    table = instance.distance_table()
    full = 1 << n
    cost = np.full((full, n), np.inf)
    parent = np.full((full, n), -1, dtype=np.int64)
    cost[1, 0] = 0.0
    cities = np.arange(n)
    nodes = 0
    for mask in range(1, full - 1, 2):
        ks = np.flatnonzero(np.isfinite(cost[mask]))
        js = cities[((mask >> cities) & 1) == 0]
        nodes += ks.size
        cand = cost[mask, ks][:, None] + table[np.ix_(ks, js)]
        pick = np.argmin(cand, axis=0)
        targets = mask | (1 << js)
        cost[targets, js] = cand[pick, np.arange(js.size)]
        parent[targets, js] = ks[pick]
    mask, cur = full - 1, 1 + int(np.argmin(cost[full - 1, 1:] + table[1:, 0]))
    path = []
    while cur != 0:
        path.append(cur)
        mask, cur = mask ^ (1 << cur), int(parent[mask, cur])
    order = [0] + path[::-1]
    if order[1] > order[-1]:
        order = [0] + order[:0:-1]
    return ExactResult(Tour(order), tour_length(instance, Tour(order)), nodes)
