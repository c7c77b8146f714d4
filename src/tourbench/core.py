"""Tours, metrics, and tour-length evaluation for planar TSP instances.

Candidate solutions are permutations of the point indices, read as closed
tours. Local-search moves swap two positions of the permutation, so the
neighborhood helpers here define the transposition graph used by the
hill climbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ConfigurationError",
    "Instance",
    "Metric",
    "Point",
    "RunResult",
    "Tour",
    "make_rng",
    "neighbors",
    "random_rows",
    "random_tour",
    "reverse",
    "row_lengths",
    "tour_length",
    "transpose",
]


class ConfigurationError(ValueError):
    """Raised for invalid solver or experiment settings, before any work runs."""


@dataclass(frozen=True)
class Point:
    """A location in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


_METRIC_KINDS = ("euclidean", "manhattan", "wmanhattan", "wchebyshev")


@dataclass(frozen=True)
class Metric:
    """A distance function between points.

    ``wx`` and ``wy`` scale the per-axis differences for the weighted kinds
    and must be positive; the unweighted kinds ignore them.
    """

    kind: str = "euclidean"
    wx: float = 1.0
    wy: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}, expected one of {_METRIC_KINDS}")
        for label, w in (("wx", self.wx), ("wy", self.wy)):
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"metric weight {label} must be positive and finite, got {w}")

    @classmethod
    def parse(cls, text: str) -> "Metric":
        """Parse a metric string such as ``euclidean`` or ``wmanhattan:2,0.5``."""
        name, sep, args = text.partition(":")
        name = name.strip().lower()
        if name in ("euclidean", "manhattan"):
            if sep:
                raise ValueError(f"metric {name!r} takes no weights")
            return cls(name)
        if name in ("wmanhattan", "wchebyshev"):
            parts = args.split(",") if sep else []
            if len(parts) != 2:
                raise ValueError(f"metric {name!r} needs weights, e.g. {name}:1.5,2")
            try:
                wx, wy = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"could not parse metric weights from {args!r}") from None
            return cls(name, wx, wy)
        raise ValueError(f"unknown metric {text!r}")

    def distance(self, a: Point, b: Point) -> float:
        # Scalar reference for pairwise(): the tests check the table against
        # it entry by entry, so it must mirror pairwise() operation for
        # operation. Evaluation itself reads the table.
        dx = a.x - b.x
        dy = a.y - b.y
        if self.kind == "euclidean":
            return math.sqrt(dx * dx + dy * dy)
        if self.kind == "manhattan":
            return abs(dx) + abs(dy)
        if self.kind == "wmanhattan":
            return self.wx * abs(dx) + self.wy * abs(dy)
        return max(self.wx * abs(dx), self.wy * abs(dy))

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Full distance table for coordinate vectors ``xs`` and ``ys``."""
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        if self.kind == "euclidean":
            return np.sqrt(dx * dx + dy * dy)
        if self.kind == "manhattan":
            return np.abs(dx) + np.abs(dy)
        if self.kind == "wmanhattan":
            return self.wx * np.abs(dx) + self.wy * np.abs(dy)
        return np.maximum(self.wx * np.abs(dx), self.wy * np.abs(dy))


class Instance:
    """A named set of points with a metric.

    The read-only n-by-n distance table is built once, on construction, and
    every evaluation reads it. Fewer than two points raise ConfigurationError,
    and points so far apart that a distance overflows to a non-finite value
    are rejected with ValueError.
    """

    def __init__(self, name: str, points: Sequence[Point], metric: Metric | None = None) -> None:
        self.name = str(name)
        self.points = tuple(points)
        if self.n < 2:
            raise ConfigurationError(f"an instance needs at least two points, got {self.n}")
        self.metric = metric if metric is not None else Metric()
        xs = np.array([p.x for p in self.points], dtype=np.float64)
        ys = np.array([p.y for p in self.points], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            table = self.metric.pairwise(xs, ys)
        if not np.isfinite(table).all():
            raise ValueError(
                f"instance {self.name!r} has a non-finite {self.metric.kind} distance; "
                "the points are too far apart for float64"
            )
        table.setflags(write=False)
        self._table = table

    @property
    def n(self) -> int:
        return len(self.points)

    def distance_table(self) -> np.ndarray:
        """The read-only n-by-n distance table."""
        return self._table

    def __repr__(self) -> str:
        return f"Instance({self.name!r}, n={self.n}, metric={self.metric.kind})"


class Tour:
    """A closed tour: a permutation of the point indices ``0 .. n-1``, n >= 2.

    The order array is validated on construction and kept read-only;
    operations that change a tour return a new one.
    """

    __slots__ = ("order",)

    def __init__(self, order: Sequence[int] | np.ndarray) -> None:
        arr = np.array(order, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("tour order must be a 1-d index sequence over at least two points")
        n = arr.size
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"tour order must use each index in 0..{n - 1} exactly once")
        if np.bincount(arr, minlength=n).max() != 1:
            raise ValueError(f"tour order must use each index in 0..{n - 1} exactly once")
        arr.setflags(write=False)
        self.order = arr

    def __len__(self) -> int:
        return int(self.order.size)

    def __getitem__(self, i: int) -> int:
        return int(self.order[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tour):
            return np.array_equal(self.order, other.order)
        if isinstance(other, (list, tuple, np.ndarray)):
            return np.array_equal(self.order, np.asarray(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Tour({self.tolist()})"

    def tolist(self) -> list[int]:
        return self.order.tolist()

    def key(self) -> bytes:
        """Hashable identity of the permutation."""
        return self.order.tobytes()

    def __getstate__(self) -> bytes:
        return self.key()

    def __setstate__(self, state: bytes) -> None:
        arr = np.frombuffer(state, dtype=np.int64).copy()
        arr.setflags(write=False)
        self.order = arr


def row_lengths(instance: Instance, rows: np.ndarray) -> np.ndarray:
    """Closed-tour lengths of the k tours stored as the rows of a (k, n) array.

    Each row's edges, the wrap-around edge included, are sorted ascending
    before accumulating, so any two tours over the same edge set get the
    identical float. In particular a tour, its reversal, and its rotations
    all evaluate bit-for-bit equal. Every tour length in the library comes
    from here.
    """
    if rows.ndim != 2 or rows.shape[1] != instance.n:
        raise ValueError(f"tours of shape {rows.shape} for an instance of {instance.n} points")
    nxt = np.empty_like(rows)
    nxt[:, :-1] = rows[:, 1:]
    nxt[:, -1] = rows[:, 0]
    edges = instance.distance_table()[rows, nxt]
    edges.sort(axis=1)
    # np.cumsum is a sequential scan; np.sum pairs terms and may differ.
    return np.cumsum(edges, axis=1)[:, -1]


def tour_length(instance: Instance, tour: Tour) -> float:
    """Length of the closed tour: consecutive edges plus the wrap-around edge.

    See row_lengths for the summation order.
    """
    return float(row_lengths(instance, tour.order[None, :])[0])


def reverse(tour: Tour) -> Tour:
    """The same cycle walked in the opposite direction."""
    return Tour(tour.order[::-1])


def transpose(tour: Tour, i: int, j: int) -> Tour:
    """New tour with positions ``i`` and ``j`` swapped (``0 <= i < j < n``)."""
    n = len(tour)
    if not (0 <= i < j <= n - 1):
        raise ValueError(f"positions must satisfy 0 <= i < j <= {n - 1}, got ({i}, {j})")
    arr = tour.order.copy()
    arr[i], arr[j] = arr[j], arr[i]
    return Tour(arr)


def neighbors(tour: Tour) -> Iterator[Tour]:
    """All transposition neighbors, in lexicographic ``(i, j)`` position order."""
    n = len(tour)
    return (transpose(tour, i, j) for i in range(n - 1) for j in range(i + 1, n))


def random_rows(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniformly random tours over ``n`` points as a (size, n) array."""
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    return np.array([rng.permutation(n) for _ in range(size)])


def random_tour(n: int, rng: np.random.Generator) -> Tour:
    """Uniformly random tour over ``n`` points."""
    return Tour(random_rows(n, 1, rng)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Generator for a 64-bit seed; negative seeds wrap modulo 2**64."""
    return np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)


@dataclass
class RunResult:
    """Outcome of one solver invocation."""

    best_tour: Tour
    best_length: float
    iterations: int
    fitness_evaluations: int
    wall_time_ms: float
    runs: int = 1
    early_outs: int = 0
    aborted: int = 0
