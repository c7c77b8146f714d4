"""A gauge of the host's speed, independent of tourbench.

A shared host runs the same code up to 2x slower for seconds to minutes at a
time, as other tenants load its cores and caches. ``gauge()`` times a fixed
piece of work that calls no tourbench code: an interpreter loop over small
lists and dicts, and small-array numpy indexing, the mix the solvers spend
their time in. The benchmark runs it between trial units; its mean time
over a run, against ``REFERENCE_GAUGE_S``, says how much slower than the
reference host the run's host was, and the end-to-end timings are scaled
back by that factor. A change to tourbench cannot move the gauge, so it moves
those metrics in full.
"""

from __future__ import annotations

import time

import numpy as np

# About the fastest gauge() time on the reference host: a 2-core shared Intel Xeon,
# Python 3.11.7, numpy 2.4.6. Only ratios to it are reported, so its exact
# value cancels when two commits are compared on one machine.
REFERENCE_GAUGE_S = 0.0025

_N = 48
_POINTS = np.stack([np.arange(_N) * 7 % 31, np.arange(_N) * 11 % 29], axis=1).astype(float)
_DIST = np.sqrt(((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1))


def _work() -> float:
    order = list(range(_N))
    total = 0.0
    for i in range(120):
        step = i % (_N - 1) + 1
        order = order[step:] + order[:step]
        order[i % _N], order[(i * 5) % _N] = order[(i * 5) % _N], order[i % _N]
        perm = np.asarray(order)
        total += float(_DIST[perm, np.roll(perm, -1)].sum())
        position = {city: j for j, city in enumerate(order)}
        total += sum(position[c] for c in order[::3])
    return total


_EXPECTED = _work()


def gauge() -> float:
    """Seconds the fixed piece of work takes now."""
    started = time.perf_counter()
    out = _work()
    elapsed = time.perf_counter() - started
    if out != _EXPECTED:
        raise RuntimeError("speed gauge computed a different result")
    return elapsed
