"""Steepest-descent hill climbing on the transposition graph, with restarts.

The baseline variant walks to the nearest local minimum and stops. The
modified variant holds one allowance for a non-improving move: at a local
minimum it may step to the best not-yet-visited neighbor anyway, and the
allowance is restored once the walk gets strictly below the length of the
minimum that consumed it. A visited set shared across the whole invocation
forbids revisiting any permutation and lets restarts that land on
already-seen ground return immediately.

A steepest step counts every allowed neighbor as evaluated but measures
few of them in full. From ``_SCREEN_MIN_N`` points on it screens each swap
by its length change, computed from the at most four edges the swap touches
(Bentley 1992, "Fast algorithms for geometric traveling salesman
problems"), and builds and measures with ``row_lengths`` only the
neighbors whose screened change lies within a rigorous rounding band of
the smallest. Below that size, where the screen costs more than it saves,
every allowed neighbor is measured. Either way the step returns the first
exact minimum in pair order, the one a full scan would return.

A climb walks on int64 order rows, and each step hands the visited set
the Zobrist hash of the row it chose. A ``Tour`` is built only for what the
climb hands out: its best, RunAbortedError and the ``on_visit`` hook.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ConfigurationError,
    Instance,
    RunResult,
    Tour,
    check_count,
    check_integer,
    make_rng,
    random_tour,
    row_lengths,
    tour_length,
)

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_VISITED_CAP",
    "HC_VARIANTS",
    "HcConfig",
    "RunAbortedError",
    "VisitedSet",
    "hill_climb",
    "hill_climb_baseline",
    "hill_climb_modified",
    "run_hc",
    "steepest_step",
]

HC_VARIANTS = ("baseline", "modified")
DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_VISITED_CAP = 10_000_000

class RunAbortedError(RuntimeError):
    """A climb exceeded its step budget; carries the best tour seen so far."""

    def __init__(self, best_tour: Tour, best_length: float, steps: int, evaluations: int) -> None:
        super().__init__(f"step budget exhausted after {steps} steps (best {best_length})")
        self.best_tour = best_tour
        self.best_length = best_length
        self.steps = steps
        self.evaluations = evaluations

    def __reduce__(self):
        # Pooled trials pickle their errors; the default would rebuild from the message alone.
        return type(self), (self.best_tour, self.best_length, self.steps, self.evaluations)


# The visited filter starts with this many entries and doubles while the
# stored tours times _FILTER_RATIO exceed its size, so at most one entry in
# _FILTER_RATIO is set and a neighbor of an unvisited tour rarely reaches
# the set lookup.
_FIRST_BITS = 4096
_FILTER_RATIO = 64
# A doubling rehashes the stored tours this many Zobrist words (1 MiB) at a
# time, so its transient memory does not grow with the set.
_REHASH_WORDS = 1 << 17
_NONE_STORED = (np.empty(0, dtype=np.intp), None)  # no stored neighbor, no hashes


def _zobrist_table(n: int) -> np.ndarray:
    """One random 64-bit word per (position, city); a tour hashes to the XOR of its n words.

    The words are fixed per n. Only speed depends on them: the hashes only
    pre-screen lookups in the exact set of stored tours.
    """
    return np.random.PCG64(n).random_raw((n, n))


class VisitedSet:
    """Exact membership over permutations of one size, with a hard entry cap.

    Stored tours are the bytes of their city indices, uint8 (uint16 above
    256 cities), in one Python set, so membership never depends on hashing.

    A bool filter (Bloom 1970, "Space/time trade-offs in hash coding with
    allowable errors", with one hash) is set at the low bits of each stored
    tour's 64-bit Zobrist hash (Zobrist 1970): the XOR of one random word per
    (position, city). A swap trades four of those words, so ``allowed``
    hashes all n(n-1)/2 neighbors of a tour in one array expression without
    building them, and builds and looks up in the set only the neighbors
    whose filter entry is set. A hash collision thus costs a lookup but
    never forbids an unvisited tour. The filter starts at ``_FIRST_BITS``
    entries and doubles while stored tours times ``_FILTER_RATIO`` exceed
    its size; it is never sized by ``cap``, and each doubling rehashes the
    set's own bytes, ``_REHASH_WORDS`` hash words at a time. An entry costs
    n bytes (2n above 256 cities) plus at most about 245 B for the bytes
    object, its set slot and its share of the filter.

    The first ``add`` fixes the tour size; adding a tour of another size
    raises ValueError, and such a tour is never ``in`` the set.

    Once the cap is reached further adds are dropped (add returns False) but
    lookups keep working for everything stored before that, so a long run
    degrades to allowing revisits instead of exhausting memory.
    """

    __slots__ = ("cap", "_seen", "_words", "_dtype", "_filter")

    def __init__(self, cap: int = DEFAULT_VISITED_CAP) -> None:
        check_count("cap", cap, 1)
        self.cap = cap
        self._seen: set[bytes] = set()
        self._words: np.ndarray | None = None  # (n, n) Zobrist words, made by the first add
        self._dtype: np.dtype | None = None  # of the stored city indices
        self._filter = np.zeros(_FIRST_BITS, dtype=bool)

    def _hashes(self, rows: np.ndarray) -> np.ndarray:
        """Zobrist hash of each tour along the last axis of ``rows``."""
        n = self._words.shape[0]
        return np.bitwise_xor.reduce(self._words[np.arange(n), rows], axis=-1)

    def add(self, tour: Tour) -> bool:
        order = tour.order
        if self._words is None:
            self._words = _zobrist_table(order.size)
            self._dtype = np.min_scalar_type(order.size - 1)
        elif order.size != self._words.shape[0]:
            raise ValueError(
                f"this set holds tours over {self._words.shape[0]} points, got {order.size}"
            )
        return self._store(order, self._hashes(order))

    def _store(self, order: np.ndarray, key_hash: np.uint64) -> bool:
        """``add`` for a tour row of this set's size whose Zobrist hash is ``key_hash``."""
        if len(self._seen) >= self.cap:
            return False
        key = order.astype(self._dtype).tobytes()
        if key not in self._seen:
            self._seen.add(key)
            if len(self._seen) * _FILTER_RATIO > self._filter.size:
                self._filter = np.zeros(2 * self._filter.size, dtype=bool)
                mask = np.uint64(self._filter.size - 1)
                n = order.size
                keys = iter(self._seen)
                while chunk := b"".join(itertools.islice(keys, max(1, _REHASH_WORDS // n))):
                    rows = np.frombuffer(chunk, self._dtype).reshape(-1, n)
                    self._filter[self._hashes(rows) & mask] = True
            else:
                self._filter[int(key_hash) & (self._filter.size - 1)] = True
        return True

    def __contains__(self, tour: Tour) -> bool:
        # A tour of another size has keys of another length, never stored.
        return self._dtype is not None and tour.order.astype(self._dtype).tobytes() in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def allowed(self, order: np.ndarray) -> np.ndarray:
        """Mask over the transposition neighbors of ``order``, in pair order.

        True where the neighbor is not stored.
        """
        allowed = np.ones(_pairs(order.size).flat.size, dtype=bool)
        allowed[self._forbidden(order)[0]] = False
        return allowed

    def _forbidden(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Pair indices of the stored neighbors of ``order``, and every neighbor's hash.

        Both are in pair order; the hashes are None before a tour of that size is stored.
        """
        if self._words is None or order.size != self._words.shape[0]:
            return _NONE_STORED
        # Swapping positions i and j trades words[i, t_i] and words[j, t_j]
        # for words[i, t_j] and words[j, t_i].
        words = self._words.take(order, axis=1)  # words[p, q] = words[p, t_q]
        own = words.diagonal()
        trade = words ^ own.reshape(-1, 1)
        hashes = (trade ^ trade.T).ravel()[_pairs(order.size).flat] ^ np.bitwise_xor.reduce(own)
        query = np.flatnonzero(self._filter.take(hashes & np.uint64(self._filter.size - 1)))
        rows = _neighbor_rows(order.astype(self._dtype), query)
        stored = np.array([row.tobytes() in self._seen for row in rows], dtype=bool)
        return query[stored], hashes


@dataclass(frozen=True)
class HcConfig:
    restarts: int = 0
    variant: str = "baseline"
    max_steps_per_run: int = DEFAULT_MAX_STEPS
    seed: int = 0
    visited_cap: int = DEFAULT_VISITED_CAP

    def __post_init__(self) -> None:
        check_count("restarts", self.restarts, 0)
        if self.variant not in HC_VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {HC_VARIANTS}, got {self.variant!r}"
            )
        check_count("max_steps_per_run", self.max_steps_per_run, 1)
        check_count("visited_cap", self.visited_cap, 1)
        check_integer("seed", self.seed)


# From this many points on the steepest step screens swaps by their length
# change; below it, every allowed neighbor is measured in full. Timed per
# step from random tours on uniform instances, with and without a visited
# set, the screen takes 1.15-1.26 of the full scan's time at n = 9,
# 0.94-1.07 at n = 12, 0.77-0.84 at n = 16 and 0.41-0.63 at n = 20, so
# the two cross near n = 13. The cut stays at 16 until the benchmark's
# exact-small workload (n = 9..14) shows a lower one no slower end to end:
# with the step's earlier per-call costs, screening at every size slowed it
# from 41.3 to 38.7 trials/s in the median, in 5 of 5 alternating pairs.
_SCREEN_MIN_N = 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class _Pairs(NamedTuple):
    """The transposition neighborhood over n positions, in lexicographic pair order."""

    i: np.ndarray  # first swapped position
    j: np.ndarray  # second swapped position, i < j
    flat: np.ndarray  # i * n + j, into an n-by-n array
    adjacent: np.ndarray  # indices of the pairs that are neighbors on the cycle


@functools.cache
def _pairs(n: int) -> _Pairs:
    i, j = np.triu_indices(n, k=1)
    adjacent = np.flatnonzero((j - i == 1) | (j - i == n - 1))
    return _Pairs(i, j, i * n + j, adjacent)


def _neighbor_rows(order: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """The transposition neighbors of ``order`` at the pair indices ``picked``, as rows."""
    n = order.size
    pairs = _pairs(n)
    i, j = pairs.i[picked], pairs.j[picked]
    rows = np.empty((i.size, n), dtype=order.dtype)
    rows[:] = order
    starts = np.arange(0, rows.size, n)  # flat index of each row's first position
    rows.ravel()[starts + i] = order[j]
    rows.ravel()[starts + j] = order[i]
    return rows


def _screen(
    table: np.ndarray, order: np.ndarray, length: float, dmax: float
) -> tuple[np.ndarray, float]:
    """Length change of every transposition of ``order``, in pair order, and its band.

    Swapping positions i < j replaces the edges at positions i-1, i, j-1 and
    j. With ins[p, q] the cost of the city at position q between the two
    neighbors of position p, the change is ins[i, j] - ins[i, i] +
    ins[j, i] - ins[j, j]. That counts the edge between two swapped cycle
    neighbors (j = i + 1, or the pair (0, n-1)) as removed twice although it
    stays, so it is added back twice for them.

    Every neighbor whose ``row_lengths`` length is the exact minimum has a
    change within the returned band of the smallest change. The band adds
    two error bounds, for u the unit roundoff, L = ``length`` the tour's
    ``row_lengths`` length and dmax the table's longest edge:

    - A length is a sum of n non-negative edges, so it is within
      gamma_{n-1} = (n-1)u / (1 - (n-1)u) of the edges' true sum (Higham
      2002, "Accuracy and Stability of Numerical Algorithms", ch. 4), and
      every neighbor's true sum is at most L + 4 dmax. Two minimal-length
      candidates thus differ in true sum by at most 2 gamma_{n-1} (L + 4 dmax).
    - A change passes through at most eight roundings of values below
      6 dmax, so it is within 48 u dmax of the true change; it counts once
      for each of the two changes compared.

    The band is twice their sum, which absorbs the rounding of L and of the
    band itself.
    """
    n = order.size
    _, _, flat, adjacent = _pairs(n)
    between = table.take(order, axis=0).take(order, axis=1)  # between[p, q] = d(t_p, t_q)
    ins = np.empty_like(between)  # ins[p, q] = d(t_{p-1}, t_q) + d(t_{p+1}, t_q)
    np.add(between[:-2], between[2:], out=ins[1:-1])
    np.add(between[-1], between[1], out=ins[0])
    np.add(between[-2], between[0], out=ins[-1])
    here = ins.diagonal()  # the two edges at each position
    gain = ins - here.reshape(-1, 1)
    deltas = (gain + gain.T).ravel()[flat]
    deltas[adjacent] += 2.0 * between.ravel()[flat[adjacent]]
    u = _UNIT_ROUNDOFF
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    band = 2 * (2 * gamma * (length + 4 * dmax) + 2 * 48 * u * dmax)
    return deltas, band


def _step(
    instance: Instance, order: np.ndarray, length: float, dmax: float, visited: VisitedSet | None
) -> tuple[np.ndarray, float, int, np.uint64 | None] | None:
    """``steepest_step`` on the row ``order`` of ``row_lengths`` length ``length``.

    ``dmax`` is the table's longest edge. Returns the chosen row, its length,
    the evaluated count and the row's Zobrist hash in ``visited`` (None
    without a stored tour), or None when every neighbor is stored.
    """
    n = order.size
    pairs = _pairs(n)
    stored, hashes = _NONE_STORED if visited is None else visited._forbidden(order)
    evaluated = pairs.flat.size - stored.size
    if evaluated == 0:
        return None
    if n >= _SCREEN_MIN_N:
        deltas, band = _screen(instance.distance_table(), order, length, dmax)
        deltas[stored] = np.inf
        picked = np.flatnonzero(deltas <= deltas.min() + band)
    else:
        picked = np.delete(np.arange(pairs.flat.size), stored)
    rows = _neighbor_rows(order, picked)
    lengths = row_lengths(instance, rows)
    m = int(np.argmin(lengths))  # first minimum = lexicographically first pair
    return rows[m], float(lengths[m]), evaluated, None if hashes is None else hashes[picked[m]]


def steepest_step(
    instance: Instance, tour: Tour, forbidden: VisitedSet | None = None
) -> tuple[Tour, float, int] | None:
    """Shortest transposition neighbor, its length, and how many neighbors were evaluated.

    Ties go to the first pair in lexicographic (i, j) order. Neighbors in
    ``forbidden`` are skipped; None means every neighbor was forbidden.
    Every allowed neighbor counts as evaluated; see the module docstring for
    the screen that decides which of them are measured in full. This is one
    step of ``hill_climb``, which takes it on rows and builds no Tour.
    """
    length = tour_length(instance, tour)  # rejects a tour of another size
    found = _step(instance, tour.order, length, float(instance.distance_table().max()), forbidden)
    return None if found is None else (Tour(found[0]), found[1], found[2])


def hill_climb(
    instance: Instance,
    start: Tour,
    visited: VisitedSet | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """One steepest-descent climb from ``start``.

    Returns (best tour seen, its length, steps taken, neighbor evaluations,
    early_out). With ``visited`` None this is the baseline: the escape
    allowance starts spent, so the climb stops at the first local minimum.
    Otherwise every visited permutation is added to ``visited``, which the
    caller may share across restarts, no permutation is revisited, and
    early_out is True (with no work done) when ``start`` was already in it.
    ``on_visit``, if given, is called with each tour the climb visits and its
    length, ``start`` included.
    Raises ConfigurationError unless ``max_steps`` is an integer of at least
    1, and RunAbortedError if the next step would exceed it.
    """
    check_count("max_steps", max_steps, 1)
    current = start.order
    current_length = tour_length(instance, start)
    if visited is not None:
        if start in visited:
            return start, current_length, 0, 0, True
        visited.add(start)
    if on_visit is not None:
        on_visit(start, current_length)
    best, best_length = current, current_length
    dmax = float(instance.distance_table().max())
    steps = 0
    evaluations = 0
    allowance_spent = visited is None
    trigger_length = -np.inf  # set when the allowance is spent; the baseline never re-arms
    while True:
        found = _step(instance, current, current_length, dmax, visited)
        if found is None:
            break  # every neighbor already visited
        neighbor, neighbor_length, evaluated, neighbor_hash = found
        evaluations += evaluated
        if neighbor_length < current_length:
            pass
        elif not allowance_spent:
            allowance_spent = True
            trigger_length = current_length
        else:
            break
        if steps >= max_steps:
            raise RunAbortedError(Tour(best), best_length, steps, evaluations)
        current, current_length = neighbor, neighbor_length
        steps += 1
        if visited is not None:
            visited._store(current, neighbor_hash)
        if on_visit is not None:
            on_visit(Tour(current), current_length)
        if current_length < best_length:
            best, best_length = current, current_length
        if allowance_spent and current_length < trigger_length:
            allowance_spent = False
    return Tour(best), best_length, steps, evaluations, False


def hill_climb_baseline(
    instance: Instance,
    start: Tour,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """Plain steepest descent to a local minimum: ``hill_climb`` with no visited set."""
    return hill_climb(instance, start, None, max_steps, on_visit=on_visit)


def hill_climb_modified(
    instance: Instance,
    start: Tour,
    visited: VisitedSet,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """Escape-and-memoization climb: ``hill_climb`` recording into ``visited``."""
    return hill_climb(instance, start, visited, max_steps, on_visit)


def run_hc(instance: Instance, config: HcConfig) -> RunResult:
    """Run 1 + restarts climbs from random starts and keep the best result.

    The modified variant threads one shared VisitedSet through all climbs.
    A climb that exhausts its step budget contributes its best-so-far tour
    and counts in ``aborted``; RunAbortedError propagates only if every
    climb aborts.

    fitness_evaluations counts neighbor evaluations only (start tours and
    early-outs are not neighbor evaluations).
    """
    rng = make_rng(config.seed)
    started = time.perf_counter()
    visited = VisitedSet(config.visited_cap) if config.variant == "modified" else None
    best_tour: Tour | None = None
    best_length = np.inf
    total_steps = 0
    total_evaluations = 0
    early_outs = 0
    aborted = 0
    runs = config.restarts + 1
    for _ in range(runs):
        start = random_tour(instance.n, rng)
        try:
            tour, length, steps, evaluations, early = hill_climb(
                instance, start, visited, config.max_steps_per_run
            )
        except RunAbortedError as err:
            aborted += 1
            tour, length = err.best_tour, err.best_length
            steps, evaluations = err.steps, err.evaluations
            early = False
        total_steps += steps
        total_evaluations += evaluations
        early_outs += int(early)
        if length < best_length:
            best_tour, best_length = tour, length
    if aborted == runs:
        raise RunAbortedError(best_tour, float(best_length), total_steps, total_evaluations)
    return RunResult(
        best_tour=best_tour,
        best_length=float(best_length),
        iterations=total_steps,
        fitness_evaluations=total_evaluations,
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        runs=runs,
        early_outs=early_outs,
        aborted=aborted,
    )
