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

The one steepest step takes a (k, n) block of rows, each with its own
pairs it may not take: it screens every row, builds all their surviving
candidates in one scatter, measures them in one ``row_lengths`` call and
takes each row's first exact minimum. ``run_hc`` draws and climbs its
starts a block at a time, and both variants climb a block in lockstep. A
baseline row drops out at the first step that does not improve. A modified
row climbs by the modified rule but sees no visited set: it escapes once at
a local minimum, re-arms strictly below the length that spent its
allowance, never steps straight back to the tour it just left, and stops
at a step that does not improve with its allowance spent.

Each modified climb in turn then walks over the shared set from the start
x_0 of its path x_0 .. x_L. From x_u the walk takes the path's step while
it is still on the path, the set kept x_{u-1} and x_{u+1} is not stored:
the set then masks x_{u-1}, as the path did, and otherwise only neighbors
the path did not step to, so the first shortest neighbor left is the
path's. Such a step counts the stored neighbors of x_u exactly: those
stored before the climb, with one ``_forbidden`` over the path, plus
x_{u-1} and the earlier path rows next to x_u, which ``_path_neighbors``
finds by a length and a parity test. Where the path stopped, the walk stops
too, since its pick is no shorter. Every other step is one masked step, and
from the first one the walk steps on alone.

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

    def _keys(self, rows: np.ndarray) -> list[bytes]:
        """The stored form of each tour row of ``rows``; the first call fixes the tour size."""
        n = rows.shape[1]
        if self._words is None:
            self._words = _zobrist_table(n)
            self._dtype = np.min_scalar_type(n - 1)
        elif n != self._words.shape[0]:
            raise ValueError(f"this set holds tours over {self._words.shape[0]} points, got {n}")
        return [row.tobytes() for row in rows.astype(self._dtype)]

    def add(self, tour: Tour) -> bool:
        (key,) = self._keys(tour.order[None])
        return self._store(key, self._hashes(tour.order))

    def _store(self, key: bytes, key_hash: np.uint64) -> bool:
        """``add`` for a tour whose ``_keys`` form is ``key`` and Zobrist hash ``key_hash``."""
        if len(self._seen) >= self.cap:
            return False
        if key not in self._seen:
            self._seen.add(key)
            if len(self._seen) * _FILTER_RATIO > self._filter.size:
                self._filter = np.zeros(2 * self._filter.size, dtype=bool)
                mask = np.uint64(self._filter.size - 1)
                n = self._words.shape[0]
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
        if not self._seen or n != self._words.shape[0]:
            return _NO_PAIRS
        flat = _pairs(n).flat
        mask = np.uint64(self._filter.size - 1)
        chunk = max(1, _HASH_WORDS // (n * n))
        query = []
        for first in range(0, k, chunk):
            # Swapping positions i and j trades words[t_i, i] and words[t_j, j]
            # for words[t_j, i] and words[t_i, j]; words[r, q, p] = words[t_q, p] in row r.
            block = orders[first : first + chunk]
            words = self._words.take(block, axis=0)
            own = words.diagonal(axis1=1, axis2=2)
            trade = words ^ own[:, None, :]  # symmetric once added to its transpose
            swapped = (trade ^ trade.transpose(0, 2, 1)).reshape(block.shape[0], n * n)
            hashes = swapped.take(flat, axis=1) ^ np.bitwise_xor.reduce(own, axis=1)[:, None]
            hits = np.flatnonzero(self._filter.take(hashes & mask))
            if hits.size:
                query.append(hits + first * flat.size)
        if not query:  # no neighbor reaches the set
            return _NO_PAIRS
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's chosen neighbor row, its length and its pair index, for a steepest step.

    ``orders`` is a (k, n) block with ``row_lengths`` lengths ``lengths``,
    and ``dmax`` the table's longest edge. ``stored`` holds flat indices
    into (k, n(n-1)/2) of the pairs each row may not take, leaving every
    row one at least, as ``VisitedSet._forbidden`` returns them; at n = 2
    none may be passed.
    """
    k, n = orders.shape
    if n == 2:  # the one neighbor; the screen could overflow
        keep = np.ones((k, 1), dtype=bool)
    else:
        deltas, band = _screen(instance.distance_table(), orders, max(lengths.tolist()), dmax)
        if stored.size:
            deltas.ravel()[stored] = np.inf
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
        return candidates, measured, picked
    # each row's first minimum in pair order: the head of its run, stably sorted
    chosen = np.lexsort((measured, owner))[owner.searchsorted(np.arange(k))]
    return candidates[chosen], measured[chosen], picked[chosen]


def _descend(
    instance: Instance,
    tours: np.ndarray,
    lengths: np.ndarray,
    max_steps: int,
    record: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
    escape: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Steepest descent from every row of ``tours`` at once, in place.

    ``tours`` is a (k, n) int64 block of start rows and ``lengths`` their
    ``row_lengths`` lengths; both end holding each climb's last tour. Each
    pass takes ``_step`` on every live row. Without ``escape`` a row that
    does not improve drops out, so its last tour is its best, and a climb's
    evaluations are n(n-1)/2 per step plus one for the step that ended it.

    With ``escape`` each row climbs as a modified climb that sees no visited
    set but the tour it just left: a row that does not improve escapes once,
    its allowance is restored once it gets strictly below the length that
    spent it, and it stops at a step that does not improve with the
    allowance spent. From the second pass on each row's step masks the pair
    it took last, whose swap leads straight back. At n = 2 that is the one
    neighbor, the tour reversed and so as long: a row escapes to it and then
    stops. While every live row improves and none has spent its allowance,
    a pass keeps no escape state.

    Returns each row's steps and whether it aborted: at ``max_steps`` steps
    the rows that would step again stop there. ``record``, if given, is
    called after each pass with the stepping rows' indices into ``tours``
    and the rows and lengths they stepped to.
    """
    k, n = tours.shape
    dmax = float(instance.distance_table().max())
    steps, aborted = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=bool)
    live = np.arange(k)
    current, current_lengths = tours, lengths  # the live rows
    ban, spending = _NO_PAIRS, False
    if escape:  # whether each live row is spent, and at what length
        spent, trigger = np.zeros(k, dtype=bool), np.zeros(k)
        offsets = np.arange(k) * _pairs(n).flat.size
    for step in itertools.count():
        following, best, picked = _step(instance, current, current_lengths, dmax, ban)
        better = moving = best < current_lengths
        watch = escape and (spending or np.count_nonzero(better) < better.size)
        if watch:
            moving = better | ~spent  # a row that does not improve escapes once
        if step == max_steps:  # the rows that would step again abort instead
            aborted[live] = moving
            moving = np.zeros_like(moving)
        if np.count_nonzero(moving) < moving.size:
            done = ~moving
            stop = live[done]
            tours[stop], lengths[stop], steps[stop] = current[done], current_lengths[done], step
            if not np.count_nonzero(moving):
                return steps, aborted
            live, following, best = live[moving], following[moving], best[moving]
            if watch:  # with escape, only a watched pass stops rows before max_steps
                picked, better, spent = picked[moving], better[moving], spent[moving]
                current_lengths, trigger = current_lengths[moving], trigger[moving]
        if watch:
            trigger = np.where(better, trigger, current_lengths)
            spent = (spent | ~better) & ~(best < trigger)
            spending = bool(np.count_nonzero(spent))
        if escape and n > 2:  # the pair each row took leads straight back
            ban = offsets[: live.size] + picked
        current, current_lengths = following, best
        if record is not None:
            record(live, current, best)


def _path_neighbors(rows: np.ndarray, lengths: list[float]) -> list[int]:
    """For each row u of a modified climb's path, how many rows v < u - 1 of it are its neighbors.

    ``rows`` are the path's tours and ``lengths`` their lengths, and no tour
    is on it twice. Each step takes the first shortest neighbor but the row
    it came from, so a neighbor of x_v other than x_{v-1} is no shorter
    than x_{v+1}; and a transposition changes a permutation's parity, so
    x_u and x_v are neighbors only if u - v is odd. Only the rows that pass
    both tests are compared, and on a strict descent none does.
    """
    counts = [0] * len(lengths)
    lowest = np.inf  # of x_1 .. x_{u-2}
    for u in range(3, len(lengths)):
        lowest = min(lowest, lengths[u - 2])
        if lengths[u] >= lowest:
            earlier = [v for v in range(u - 3, -1, -2) if lengths[v + 1] <= lengths[u]]
            differ = np.count_nonzero(rows[earlier] != rows[u], axis=1)
            counts[u] = int(np.count_nonzero(differ == 2))
    return counts


def _memoised(
    instance: Instance,
    visited: VisitedSet,
    starts: np.ndarray,
    lengths: np.ndarray,
    max_steps: int,
    on_visit: Callable[[Tour, float], None] | None = None,
) -> Iterator[tuple[np.ndarray, float, int, int, bool, bool]]:
    """Modified climbs from each row of the block ``starts`` in turn, sharing ``visited``.

    ``lengths`` are the rows' ``row_lengths`` lengths. The whole block
    climbs in one ``_descend`` with ``escape``, which sees no visited set
    but bans each row's step straight back. Each climb in turn then walks
    over the set from its path's start x_0, one step at a time.

    At x_u the walk takes the path's step while it is still on the path,
    the set kept x_{u-1} and x_{u+1} is not stored: the set then masks
    x_{u-1}, as the path did, and otherwise only neighbors the path did not
    step to, so the first shortest neighbor left is the path's. That step
    counts the stored neighbors of x_u exactly: those stored before the
    climb, found with one ``_forbidden`` over the path rows up to the first
    one stored, plus x_{u-1} and the earlier path rows that
    ``_path_neighbors`` finds next to x_u. At the last row of a path that
    stopped, the walk stops too, since its pick is no shorter. Every other
    step, the one after an aborted path's last row included, is one masked
    step, and the walk stays off its path from there.

    Yields, for each climb, the best row, its length, the steps, the
    evaluations, whether the start was already stored (an early-out, with
    no work done) and whether the step after ``max_steps`` would have moved
    the climb (an abort, which keeps the best row before it).
    """
    neighborhood = _pairs(starts.shape[1]).flat.size
    dmax = float(instance.distance_table().max())
    seen = visited._seen
    paths = [[(row, length)] for row, length in zip(starts, lengths.tolist())]

    def record(live, following, best):
        for r, *step in zip(live.tolist(), following, best.tolist()):
            paths[r].append(step)

    _, ran_out = _descend(instance, starts.copy(), lengths.copy(), max_steps, record, True)
    for path, stopped in zip(paths, (~ran_out).tolist()):
        rows, lengths = zip(*path)
        rows = np.array(rows)
        keys = visited._keys(rows)
        if keys[0] in seen:
            yield rows[0], lengths[0], 0, 0, True, False
            continue
        # No path step reaches past the first path row stored before the climb.
        end = next((u for u in range(1, len(keys)) if keys[u] in seen), len(keys))
        held = np.bincount(visited._forbidden(rows[:end]) // neighborhood, minlength=end).tolist()
        own = _path_neighbors(rows[:end], lengths[:end])
        hashes = visited._hashes(rows[:end])
        row, length, key, key_hash = rows[:1], lengths[0], keys[0], hashes[0]
        steps = evaluations = 0
        on_path, aborted, spent, trigger, best_length = True, False, False, -np.inf, np.inf
        while True:
            visited._store(key, key_hash)
            if on_visit is not None:
                on_visit(Tour(row[0]), length)
            if length < best_length:
                best, best_length = row, length
            u = steps  # the walk is at x_u while on its path
            on_path = on_path and (u == 0 or keys[u - 1] in seen)
            last = u + 1 == len(keys)
            if on_path and (stopped if last else keys[u + 1] not in seen):
                evaluations += neighborhood - held[u] - own[u] - (u > 0)
                if last:
                    break  # the path stopped here, and so does the walk
                following, following_length = rows[u + 1 : u + 2], lengths[u + 1]
            else:
                on_path = False
                stored = visited._forbidden(row)
                if stored.size == neighborhood:
                    break  # every neighbor already visited
                following, following_lengths, _ = _step(
                    instance, row, np.array([length]), dmax, stored
                )
                following_length = float(following_lengths[0])
                evaluations += neighborhood - stored.size
            better = following_length < length
            if spent and not better:
                break
            if steps >= max_steps:
                aborted = True
                break
            trigger = trigger if better else length
            spent = (spent or not better) and not following_length < trigger
            row, length = following, following_length
            steps += 1
            if on_path:
                key, key_hash = keys[steps], hashes[steps]
            else:
                (key,) = visited._keys(row)
                key_hash = visited._hashes(row[0])
        yield best[0], best_length, steps, evaluations, False, aborted


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
    rows, lengths, _ = _step(instance, tour.order[None], np.array([length]), dmax, stored)
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
    modified climb on one row, its lockstep path walked over the set.
    ``on_visit``, if given, is called with each tour the climb visits and its
    length: with ``start``, then after each step.
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
    grow with restarts. Both variants climb each block in one batched
    lockstep climb, the modified variant by its rule with no visited set.
    The modified variant then walks the block's climbs over the set one
    after another, threading one shared VisitedSet through all climbs.
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
