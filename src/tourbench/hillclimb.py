"""Steepest-descent hill climbing on the transposition graph, with restarts.

The baseline variant walks to the nearest local minimum and stops. The
modified variant holds one allowance for a non-improving move: at a local
minimum it may step to the best not-yet-visited neighbor anyway, and the
allowance is restored once the walk gets strictly below the length of the
minimum that consumed it. A visited set shared across the whole invocation
forbids revisiting any permutation and lets restarts that land on
already-seen ground return immediately.

A steepest step counts every allowed neighbor as evaluated but measures
few of them in full. It screens each swap by its length change, computed
from the at most four edges the swap touches (Bentley 1992, "Fast
algorithms for geometric traveling salesman problems"), and builds and
measures with ``row_lengths`` only the neighbors whose screened change lies
within a rigorous rounding band of the smallest. The step returns the first
exact minimum in pair order, the one a full scan would return.

The one steepest step takes a (k, n) block of rows: it screens every row,
builds all their surviving candidates in one scatter, measures them in one
``row_lengths`` call and takes each row's first exact minimum. ``run_hc``
draws and climbs its starts a block at a time, and both variants descend a
block in lockstep, a row that does not improve dropping out. Each step goes
to the first shortest neighbor and is strictly shorter, so for u < s - 1 a
path's t_s, shorter than t_{u+1}, the shortest neighbor of t_u, is no
neighbor of t_u. Each modified climb in turn thus takes the longest prefix
of its descent that avoids the set, counts its stored neighbors exactly
with one ``_forbidden`` against the set as it was before the climb, plus
each predecessor the set stored, and then steps on one masked step at a time.

Climbs walk on int64 order rows. A ``Tour`` is built only for what a climb
hands out: its best, RunAbortedError and the ``on_visit`` hook.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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
_HASH_WORDS = 1 << 13  # _forbidden hashes about this many words (64 KiB) of rows at a time
_NO_PAIRS = np.empty(0, dtype=np.intp)  # no stored neighbor


def _zobrist_table(n: int) -> np.ndarray:
    """One random 64-bit word per (city, position); a tour hashes to the XOR of its n words.

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
    tour's 64-bit Zobrist hash (Zobrist 1970): the XOR of one random word
    per (city, position). A swap trades four of those words, so
    ``_forbidden`` hashes all n(n-1)/2 neighbors of each tour of a block in
    array expressions without building them, and builds and looks up in the
    set only the neighbors whose filter entry is set. A hash collision thus
    costs a lookup but never forbids an unvisited tour. The filter starts at
    ``_FIRST_BITS`` entries and doubles while stored tours times
    ``_FILTER_RATIO`` exceed its size; it is never sized by ``cap``, and
    each doubling rehashes the set's own bytes, ``_REHASH_WORDS`` hash words
    at a time. An entry costs n bytes (2n above 256 cities) plus at most
    about 245 B for the bytes object, its set slot and its share of the
    filter.

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
        self._words: np.ndarray | None = None  # (city, position) words, made by the first add
        self._dtype: np.dtype | None = None  # of the stored city indices
        self._filter = np.zeros(_FIRST_BITS, dtype=bool)

    def _hashes(self, rows: np.ndarray) -> np.ndarray:
        """Zobrist hash of each tour along the last axis of ``rows``."""
        n = self._words.shape[0]
        return np.bitwise_xor.reduce(self._words[rows, np.arange(n)], axis=-1)

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

    def _forbidden(self, orders: np.ndarray) -> np.ndarray:
        """The stored neighbors of each row of the (k, n) block ``orders``.

        They come as flat indices into (k, n(n-1)/2), in row and pair order,
        so a one-row block gives pair indices; rows hash in small chunks.
        """
        k, n = orders.shape
        if self._words is None or n != self._words.shape[0]:
            return _NO_PAIRS
        flat = _pairs(n).flat
        mask = np.uint64(self._filter.size - 1)
        chunk = max(1, _HASH_WORDS // (n * n))
        query = [_NO_PAIRS]
        for first in range(0, k, chunk):
            # Swapping positions i and j trades words[t_i, i] and words[t_j, j]
            # for words[t_j, i] and words[t_i, j]; words[r, q, p] = words[t_q, p] in row r.
            block = orders[first : first + chunk]
            words = self._words.take(block, axis=0)
            own = words.diagonal(axis1=1, axis2=2)
            trade = words ^ own[:, None, :]  # symmetric once added to its transpose
            swapped = (trade ^ trade.transpose(0, 2, 1)).reshape(block.shape[0], n * n)
            hashes = swapped.take(flat, axis=1) ^ np.bitwise_xor.reduce(own, axis=1)[:, None]
            query.append(np.flatnonzero(self._filter.take(hashes & mask)) + first * flat.size)
        query = np.concatenate(query)
        rows = _neighbor_rows(orders.astype(self._dtype), *np.divmod(query, flat.size))
        return query[[row.tobytes() in self._seen for row in rows]]


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


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# run_hc draws and climbs its starts in blocks of about this many distances
# in a (k, n + 2, n) screen, so a pass's temporaries stay within 128 KiB; per
# row, the screen costs 2-3x as much past 256 KiB (13 rows at n = 48).
_DESCENT_ENTRIES = 1 << 14


class _Pairs(NamedTuple):
    """The transposition neighborhood over n positions, in lexicographic pair order."""

    i: np.ndarray  # first swapped position
    j: np.ndarray  # second swapped position, i < j
    flat: np.ndarray  # i * n + j, into an n-by-n array
    adjacent: np.ndarray  # indices of the pairs that are neighbors on the cycle
    around: np.ndarray  # positions n-1, 0, 1, ..., n-1, 0: each position between its two neighbors


@functools.cache
def _pairs(n: int) -> _Pairs:
    i, j = np.triu_indices(n, k=1)
    adjacent = np.flatnonzero((j - i == 1) | (j - i == n - 1))
    around = np.arange(-1, n + 1) % n
    return _Pairs(i, j, i * n + j, adjacent, around)


def _neighbor_rows(orders: np.ndarray, owner: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Row ``orders[owner[c]]`` with the pair at index ``picked[c]`` swapped, for each c."""
    n = orders.shape[1]
    pairs = _pairs(n)
    rows = orders.take(owner, axis=0)
    starts = np.arange(0, rows.size, n)  # flat index of each row's first position
    at_i, at_j = starts + pairs.i[picked], starts + pairs.j[picked]
    flat = rows.ravel()
    flat[at_i], flat[at_j] = flat[at_j], flat[at_i]
    return rows


_adjacent_held: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # by n, for the most rows asked


def _adjacent_at(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the cycle-neighbor pairs (i, j) in k rows of changes, and of d(t_i, t_j).

    The second indexes k (n + 2, n) blocks whose row p + 1 holds the
    distances from the city at position p, as ``_screen`` builds them. The
    indices for k rows begin those for more rows, so one pair of arrays per
    n is kept, rebuilt only for more rows than it holds, and sliced.
    """
    pairs = _pairs(n)
    size = k * pairs.adjacent.size
    held = _adjacent_held.get(n)
    if held is None or held[0].size < size:
        rows = np.arange(k)[:, None]
        i, j = pairs.i[pairs.adjacent], pairs.j[pairs.adjacent]
        held = _adjacent_held[n] = (
            (rows * pairs.flat.size + pairs.adjacent).ravel(),
            (rows * ((n + 2) * n) + (i + 1) * n + j).ravel(),
        )
    return held[0][:size], held[1][:size]


def _screen(
    table: np.ndarray, orders: np.ndarray, length: float, dmax: float
) -> tuple[np.ndarray, float]:
    """Length change of every transposition of each row of ``orders``, in pair order, and a band.

    ``orders`` is a (k, n) block of tours, n >= 3, and ``length`` the
    longest of their ``row_lengths`` lengths; the changes come back as a
    (k, n(n-1)/2) array.

    Swapping positions i < j replaces the edges at positions i-1, i, j-1 and
    j. With ins[p, q] the cost of the city at position q between the two
    neighbors of position p, the change is ins[i, j] - ins[i, i] +
    ins[j, i] - ins[j, j]. That counts the edge between two swapped cycle
    neighbors (j = i + 1, or the pair (0, n-1)) as removed twice although it
    stays, so it is added back twice for them.

    Every neighbor whose ``row_lengths`` length is the exact minimum of its
    row has a change within the returned band of the row's smallest change.
    The band adds two error bounds, for u the unit roundoff, L = ``length``
    and dmax the table's longest edge:

    - A length is a sum of n non-negative edges, so it is within
      gamma_{n-1} = (n-1)u / (1 - (n-1)u) of the edges' true sum (Higham
      2002, "Accuracy and Stability of Numerical Algorithms", ch. 4), and
      every neighbor's true sum is at most L + 4 dmax. Two minimal-length
      candidates thus differ in true sum by at most 2 gamma_{n-1} (L + 4 dmax).
    - A change passes through at most eight roundings of values below
      6 dmax, so it is within 48 u dmax of the true change; it counts once
      for each of the two changes compared.

    The band is twice their sum, which absorbs the rounding of L and of the
    band itself. It is summed term by term, so it stays finite when L is
    near float64's limit. ``Instance`` keeps n dmax finite, and the changes
    stay within 4 dmax, or 2 dmax at three points; at two points the one
    change can overflow, so the climbs do not screen there.
    """
    k, n = orders.shape
    pairs = _pairs(n)
    # between[r, p + 1, q] = d(t_p, t_q) in row r, for p = -1 .. n, wrapping around
    if k == 1:  # two contiguous takes cost less than one flat take of an index block
        between = table.take(orders.take(pairs.around, axis=1), axis=0).take(orders[0], axis=2)
    else:
        between = table.take(orders.take(pairs.around, axis=1)[:, :, None] * n + orders[:, None, :])
    ins = between[:, :-2] + between[:, 2:]  # ins[r, p, q] = d(t_{p-1}, t_q) + d(t_{p+1}, t_q)
    here = ins.reshape(k, n * n)[:, :: n + 1, None]  # the two edges at each position
    gain = ins - here
    deltas = (gain + gain.transpose(0, 2, 1)).reshape(k, n * n).take(pairs.flat, axis=1)
    into_deltas, into_between = _adjacent_at(n, k)
    deltas.ravel()[into_deltas] += 2.0 * between.ravel()[into_between]
    u = _UNIT_ROUNDOFF
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    band = 4 * gamma * length + (16 * gamma + 4 * 48 * u) * dmax
    return deltas, band


def _step(
    instance: Instance, orders: np.ndarray, lengths: np.ndarray, dmax: float, stored: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's chosen neighbor row and its length for a steepest step of ``orders``.

    ``orders`` is a (k, n) block with ``row_lengths`` lengths ``lengths``,
    and ``dmax`` the table's longest edge. ``stored`` holds pair indices row
    0 may not take, leaving it one at least; only one-row blocks pass any.
    """
    k, n = orders.shape
    if n == 2:  # the one neighbor; the screen could overflow
        keep = np.ones((k, 1), dtype=bool)
    else:
        deltas, band = _screen(instance.distance_table(), orders, max(lengths.tolist()), dmax)
        if stored.size:
            deltas[0][stored] = np.inf
        # a lone row's minimum is the whole array's, which numpy finds faster
        smallest = deltas.min() if k == 1 else np.minimum.reduce(deltas, axis=1, keepdims=True)
        keep = deltas <= smallest + band
    survivors = keep.ravel().nonzero()[0]
    if k == 1:  # every survivor is row 0's; no divmod needed
        owner, picked = np.zeros(survivors.size, dtype=np.intp), survivors
    else:
        owner, picked = np.divmod(survivors, keep.shape[1])
    candidates = _neighbor_rows(orders, owner, picked)
    measured = row_lengths(instance, candidates)
    if owner.size == k:  # one candidate per row, as is usual off ties
        return candidates, measured
    # each row's first minimum in pair order: the head of its run, stably sorted
    chosen = np.lexsort((measured, owner))[owner.searchsorted(np.arange(k))]
    return candidates[chosen], measured[chosen]


def _descend(
    instance: Instance,
    tours: np.ndarray,
    lengths: np.ndarray,
    max_steps: int,
    record: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain steepest descent from every row of ``tours`` at once, in place.

    ``tours`` is a (k, n) int64 block of start rows and ``lengths`` their
    ``row_lengths`` lengths; both end holding each climb's last, and so
    best, tour. Each pass takes ``_step`` on every live row, and a row that
    does not improve drops out. Every live row has taken the same number of
    steps, so a climb's evaluations are n(n-1)/2 per step plus one for the
    step that ended it.

    Returns each row's steps and whether it aborted: at ``max_steps`` steps
    the rows that would step again stop there. ``record``, if given, is
    called after each pass with the stepping rows' indices into ``tours``
    and the rows and lengths they stepped to.
    """
    k = tours.shape[0]
    dmax = float(instance.distance_table().max())
    steps, aborted = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=bool)
    live = np.arange(k)
    current, current_lengths = tours, lengths  # the live rows
    for step in itertools.count():
        following, best = _step(instance, current, current_lengths, dmax, _NO_PAIRS)
        better = best < current_lengths
        if step == max_steps:  # the rows that would step again abort instead
            aborted[live] = better
            better[:] = False
        if np.count_nonzero(better) < better.size:
            done = ~better
            stop = live[done]
            tours[stop], lengths[stop], steps[stop] = current[done], current_lengths[done], step
            if not np.count_nonzero(better):
                return steps, aborted
            live, following, best = live[better], following[better], best[better]
        current, current_lengths = following, best
        if record is not None:
            record(live, current, best)


def _memoised(
    instance: Instance,
    visited: VisitedSet,
    starts: np.ndarray,
    lengths: np.ndarray,
    max_steps: int,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> Iterator[tuple[np.ndarray, float, int, int, bool, bool]]:
    """Modified climbs from each row of the block ``starts`` in turn, sharing ``visited``.

    ``lengths`` are the rows' ``row_lengths`` lengths. The block descends
    in one ``_descend``, and each climb keeps the prefix of its path that
    the module docstring explains before it steps on alone. Yields, for
    each climb, the best row, its length, the steps, the evaluations,
    whether the start was already stored (an early-out, with no work done)
    and whether the step after ``max_steps`` would have moved the climb (an
    abort, which keeps the best row before it).
    """
    neighborhood = _pairs(starts.shape[1]).flat.size
    dmax = float(instance.distance_table().max())
    paths = [[(row, length)] for row, length in zip(starts, lengths.tolist())]

    def record(live, following, best):
        for r, *step in zip(live.tolist(), following, best.tolist()):
            paths[r].append(step)

    _descend(instance, starts.copy(), lengths.copy(), max_steps, record)
    for path in paths:  # each row of a climb's descent and its length
        rows, lengths = zip(*path)
        rows = np.array(rows)
        start = Tour(rows[0])
        if start in visited:
            yield rows[0], lengths[0], 0, 0, True, False
            continue
        # the prefix ends before the first tour the set held before the climb
        keys, seen = [] if visited._dtype is None else rows[1:].astype(visited._dtype), visited._seen
        steps = next((s for s, key in enumerate(keys) if key.tobytes() in seen), len(rows) - 1)
        stored = visited._forbidden(rows[:steps])  # the prefix's rows stepped from
        prefix = rows[1 : steps + 1]
        kept = [visited.add(start)]
        kept += [visited._store(row, h) for row, h in zip(prefix, visited._hashes(prefix))]
        # each prefix row's predecessor counts if stored: all of kept but the last two
        evaluations = steps * neighborhood - stored.size
        evaluations -= sum(kept[:-2])
        if on_visit is not None:
            for row, length in zip(rows[: steps + 1], lengths):
                on_visit(Tour(row), length)
        current_length = best_length = lengths[steps]  # the climb goes on as a one-row block
        best, rows, lengths = rows[steps], rows[steps : steps + 1], np.array([best_length])
        allowance_spent, trigger_length, aborted = False, -np.inf, False  # trigger set when spent
        while True:
            stored = visited._forbidden(rows)
            if stored.size == neighborhood:
                break  # every neighbor already visited
            neighbor, neighbor_lengths = _step(instance, rows, lengths, dmax, stored)
            neighbor_length = float(neighbor_lengths[0])
            evaluations += neighborhood - stored.size
            if not neighbor_length < current_length:
                if allowance_spent:
                    break
                allowance_spent, trigger_length = True, current_length
            if steps >= max_steps:
                aborted = True
                break
            rows, lengths, current_length = neighbor, neighbor_lengths, neighbor_length
            steps += 1
            visited._store(rows[0], visited._hashes(rows[0]))
            if on_visit is not None:
                on_visit(Tour(rows[0]), current_length)
            if current_length < best_length:
                best, best_length = rows[0], current_length
            if allowance_spent and current_length < trigger_length:
                allowance_spent = False
        yield best, best_length, steps, evaluations, False, aborted


def steepest_step(
    instance: Instance, tour: Tour, forbidden: VisitedSet | None = None
) -> tuple[Tour, float, int] | None:
    """Shortest transposition neighbor, its length, and how many neighbors were evaluated.

    Ties go to the first pair in lexicographic (i, j) order. Neighbors in
    ``forbidden`` are skipped; None means every neighbor was forbidden.
    Every allowed neighbor counts as evaluated; see the module docstring for
    the screen that decides which of them are measured in full. The climbs
    take this same step on blocks of rows and build no Tour.
    """
    length = tour_length(instance, tour)  # rejects a tour of another size
    stored = _NO_PAIRS if forbidden is None else forbidden._forbidden(tour.order[None])
    evaluated = _pairs(tour.order.size).flat.size - stored.size
    if evaluated == 0:
        return None
    dmax = float(instance.distance_table().max())
    rows, lengths = _step(instance, tour.order[None], np.array([length]), dmax, stored)
    return Tour(rows[0]), float(lengths[0]), evaluated


def hill_climb(
    instance: Instance,
    start: Tour,
    visited: VisitedSet | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """One steepest-descent climb from ``start``.

    Returns (best tour seen, its length, steps taken, neighbor evaluations,
    early_out). With ``visited`` None this is the baseline, the batched
    descent of ``run_hc`` on one row: the climb stops at the first local
    minimum. Otherwise every visited permutation is added to ``visited``,
    which the caller may share across restarts, one non-improving step is
    allowed at a local minimum and re-armed once the walk gets strictly
    below it, no permutation is revisited, and early_out is True (with no
    work done) when ``start`` was already in it; this is ``run_hc``'s
    modified climb on one row, which takes up its descent's path at once.
    ``on_visit``, if given, is called with each tour the climb visits and its
    length, ``start`` included: after each step, but for the modified climb
    only once the descent's path is taken up, for the tours along it.
    Raises ConfigurationError unless ``max_steps`` is an integer of at least
    1, and RunAbortedError if the next step would exceed it.
    """
    check_count("max_steps", max_steps, 1)
    tours, lengths = start.order.reshape(1, -1).copy(), np.array([tour_length(instance, start)])
    if visited is not None and start in visited:
        return start, float(lengths[0]), 0, 0, True
    if visited is not None:
        ((best, length, steps, evaluations, _, aborted),) = _memoised(
            instance, visited, tours, lengths, max_steps, on_visit
        )
    else:
        record = None
        if on_visit is not None:
            on_visit(start, float(lengths[0]))
            record = lambda _, rows, ls: on_visit(Tour(rows[0]), float(ls[0]))  # noqa: E731
        (steps,), (aborted,) = _descend(instance, tours, lengths, max_steps, record)
        best, length, steps = tours[0], float(lengths[0]), int(steps)
        evaluations = (steps + 1) * _pairs(start.order.size).flat.size
    if aborted:
        raise RunAbortedError(Tour(best), length, steps, evaluations)
    return Tour(best), length, steps, evaluations, False


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

    Each climb's start takes one ``random_tour``'s draws, in climb order.
    Starts are drawn a block at a time as they climb, so memory does not
    grow with restarts. Both variants descend each block in one batched
    steepest descent. The modified variant then finishes the block's
    climbs one after another, threading one shared VisitedSet through all
    climbs.
    A climb that exhausts its step budget contributes its best-so-far tour
    and counts in ``aborted``; RunAbortedError propagates only if every
    climb aborts. Ties between climbs go to the earliest.

    fitness_evaluations counts neighbor evaluations only (start tours and
    early-outs are not neighbor evaluations).
    """
    rng = make_rng(config.seed)
    started = time.perf_counter()
    runs = config.restarts + 1
    best_tour, best_length = None, np.inf
    total_steps = total_evaluations = early_outs = aborted = 0
    block = max(1, _DESCENT_ENTRIES // ((instance.n + 2) * instance.n))
    visited = None if config.variant == "baseline" else VisitedSet(config.visited_cap)
    for first in range(0, runs, block):
        starts = random_rows(instance.n, min(block, runs - first), rng)
        lengths = row_lengths(instance, starts)
        if visited is None:
            steps, ran_out = _descend(instance, starts, lengths, config.max_steps_per_run)
            total_steps += int(steps.sum())
            total_evaluations += int((steps + 1).sum()) * _pairs(instance.n).flat.size
            aborted += int(np.count_nonzero(ran_out))
            best = int(np.argmin(lengths))  # the first of the shortest
            if lengths[best] < best_length:
                best_tour, best_length = Tour(starts[best]), float(lengths[best])
        else:
            climbs = _memoised(instance, visited, starts, lengths, config.max_steps_per_run)
            for row, length, steps, evaluations, early, ran_out in climbs:
                total_steps += steps
                total_evaluations += evaluations
                early_outs += early
                aborted += ran_out
                if length < best_length:
                    best_tour, best_length = Tour(row), length
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
