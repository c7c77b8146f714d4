"""Steepest-descent hill climbing on the transposition graph, with restarts.

The baseline variant walks to the nearest local minimum and stops. The
modified variant holds one allowance for a non-improving move: at a local
minimum it may step to the best not-yet-visited neighbor anyway, and the
allowance is restored once the walk gets strictly below the length of the
minimum that consumed it. A visited set shared across the whole invocation
forbids revisiting any permutation and lets restarts that land on
already-seen ground return immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigurationError,
    Instance,
    RunResult,
    Tour,
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
    "VisitHook",
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

# Called with each tour a climb visits and its length, start included.
VisitHook = Callable[[Tour, float], None]


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


class VisitedSet:
    """Exact membership over permutations, with a hard entry cap.

    A permutation is stored as the raw bytes of its int64 order array, the
    one key format behind add, ``in`` and allowed.

    Once the cap is reached further adds are dropped (add returns False) but
    lookups keep working for everything stored before that, so a long run
    degrades to allowing revisits instead of exhausting memory.
    """

    __slots__ = ("_seen", "cap")

    def __init__(self, cap: int = DEFAULT_VISITED_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be positive, got {cap}")
        self._seen: set[bytes] = set()
        self.cap = cap

    def add(self, tour: Tour) -> bool:
        if len(self._seen) >= self.cap:
            return False
        self._seen.add(tour.order.tobytes())
        return True

    def __contains__(self, tour: Tour) -> bool:
        return tour.order.tobytes() in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def allowed(self, rows: np.ndarray) -> np.ndarray:
        """Mask over (k, n) int64 tour orders, in row order: True where a row is not in the set."""
        seen = self._seen
        return np.fromiter(
            (row.tobytes() not in seen for row in rows), dtype=bool, count=rows.shape[0]
        )


@dataclass(frozen=True)
class HcConfig:
    restarts: int = 0
    variant: str = "baseline"
    max_steps_per_run: int = DEFAULT_MAX_STEPS
    seed: int = 0
    visited_cap: int = DEFAULT_VISITED_CAP

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ConfigurationError(f"restarts must be >= 0, got {self.restarts}")
        if self.variant not in HC_VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {HC_VARIANTS}, got {self.variant!r}"
            )
        if self.max_steps_per_run < 1:
            raise ConfigurationError(
                f"max_steps_per_run must be >= 1, got {self.max_steps_per_run}"
            )
        if self.visited_cap < 1:
            raise ConfigurationError(f"visited_cap must be >= 1, got {self.visited_cap}")


_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = _PAIR_CACHE.get(n)
    if pairs is None:
        pairs = np.triu_indices(n, k=1)
        _PAIR_CACHE[n] = pairs
    return pairs


def _neighbor_orders(tour: Tour) -> np.ndarray:
    """All transposition neighbors as rows, in lexicographic (i, j) pair order."""
    order = tour.order
    n = order.size
    i, j = _pair_indices(n)
    rows = np.tile(order, (i.size, 1))
    arange = np.arange(i.size)
    rows[arange, i] = order[j]
    rows[arange, j] = order[i]
    return rows


def steepest_step(
    instance: Instance, tour: Tour, forbidden: VisitedSet | None = None
) -> tuple[Tour, float, int] | None:
    """Shortest transposition neighbor, its length, and how many neighbors were evaluated.

    Ties go to the first pair in lexicographic (i, j) order. Neighbors in
    ``forbidden`` are skipped; None means every neighbor was forbidden.
    """
    rows = _neighbor_orders(tour)
    if forbidden is not None and len(forbidden) > 0:
        allowed = forbidden.allowed(rows)
        if not allowed.any():
            return None
        keep = np.flatnonzero(allowed)
        rows = rows[keep]
    lengths = row_lengths(instance, rows)
    k = int(np.argmin(lengths))  # first minimum = lexicographically first pair
    return Tour(rows[k]), float(lengths[k]), int(rows.shape[0])


def hill_climb(
    instance: Instance,
    start: Tour,
    visited: VisitedSet | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: VisitHook | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """One steepest-descent climb from ``start``.

    Returns (best tour seen, its length, steps taken, neighbor evaluations,
    early_out). With ``visited`` None this is the baseline: the escape
    allowance starts spent, so the climb stops at the first local minimum.
    Otherwise every visited permutation is added to ``visited``, which the
    caller may share across restarts, no permutation is revisited, and
    early_out is True (with no work done) when ``start`` was already in it.
    Raises RunAbortedError if the next step would exceed ``max_steps``.
    """
    current = start
    current_length = tour_length(instance, start)
    if visited is not None:
        if start in visited:
            return start, current_length, 0, 0, True
        visited.add(start)
    best, best_length = current, current_length
    if on_visit is not None:
        on_visit(current, current_length)
    steps = 0
    evaluations = 0
    allowance_spent = visited is None
    trigger_length = -np.inf  # set when the allowance is spent; the baseline never re-arms
    while True:
        found = steepest_step(instance, current, visited)
        if found is None:
            break  # every neighbor already visited
        neighbor, neighbor_length, evaluated = found
        evaluations += evaluated
        if neighbor_length < current_length:
            pass
        elif not allowance_spent:
            allowance_spent = True
            trigger_length = current_length
        else:
            break
        if steps >= max_steps:
            raise RunAbortedError(best, best_length, steps, evaluations)
        current, current_length = neighbor, neighbor_length
        steps += 1
        if visited is not None:
            visited.add(current)
        if on_visit is not None:
            on_visit(current, current_length)
        if current_length < best_length:
            best, best_length = current, current_length
        if allowance_spent and current_length < trigger_length:
            allowance_spent = False
    return best, best_length, steps, evaluations, False


def hill_climb_baseline(
    instance: Instance,
    start: Tour,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: VisitHook | None = None,
) -> tuple[Tour, float, int, int, bool]:
    """Plain steepest descent to a local minimum: ``hill_climb`` with no visited set."""
    return hill_climb(instance, start, None, max_steps, on_visit=on_visit)


def hill_climb_modified(
    instance: Instance,
    start: Tour,
    visited: VisitedSet,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_visit: VisitHook | None = None,
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
