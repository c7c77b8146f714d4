"""Plain scalar references that the tests hold the array code to.

The library defines each metric once (``Metric.pairwise``) and the
transposition neighbourhood once (``hillclimb._pairs``); these are the
same things written out one point, one swap and one tour at a time.
"""

import math

from tourbench.core import Tour, tour_length


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
