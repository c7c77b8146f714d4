"""Tours, metrics, and tour-length evaluation for planar TSP instances.

Candidate solutions are permutations of the point indices, read as closed
tours.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    "check_count",
    "check_integer",
    "make_rng",
    "random_rows",
    "random_tour",
    "row_lengths",
    "tour_length",
]


class ConfigurationError(ValueError):
    """Raised for invalid solver or experiment settings, before any work runs."""


def check_integer(name: str, value: object) -> None:
    """Raise ConfigurationError unless ``value`` is an integer.

    numpy integers count; bools and floats, even whole ones, do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value: object, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer of at least ``minimum``."""
    check_integer(name, value)
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


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
    and must be positive; the unweighted kinds ignore them. An unknown kind
    or a bad weight raises ConfigurationError, here and in ``parse``.
    """

    kind: str = "euclidean"
    wx: float = 1.0
    wy: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _METRIC_KINDS:
            raise ConfigurationError(
                f"unknown metric kind {self.kind!r}, expected one of {_METRIC_KINDS}"
            )
        for label, w in (("wx", self.wx), ("wy", self.wy)):
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise ConfigurationError(f"metric weight {label} must be a real number, got {w!r}")
            if not (math.isfinite(w) and w > 0.0):
                raise ConfigurationError(
                    f"metric weight {label} must be positive and finite, got {w}"
                )

    @classmethod
    def parse(cls, text: str) -> "Metric":
        """Parse a metric string such as ``euclidean`` or ``wmanhattan:2,0.5``."""
        name, sep, args = text.partition(":")
        name = name.strip().lower()
        if name in ("euclidean", "manhattan"):
            if sep:
                raise ConfigurationError(f"metric {name!r} takes no weights")
            return cls(name)
        if name in ("wmanhattan", "wchebyshev"):
            parts = args.split(",") if sep else []
            if len(parts) != 2:
                raise ConfigurationError(f"metric {name!r} needs weights, e.g. {name}:1.5,2")
            try:
                wx, wy = float(parts[0]), float(parts[1])
            except ValueError:
                raise ConfigurationError(f"could not parse metric weights from {args!r}") from None
            return cls(name, wx, wy)
        raise ConfigurationError(f"unknown metric {text!r}")

    @property
    def spec(self) -> str:
        """The string ``parse`` reads back, such as ``euclidean`` or ``wmanhattan:2.0,0.5``."""
        if self.kind in ("euclidean", "manhattan"):
            return self.kind
        return f"{self.kind}:{float(self.wx)!r},{float(self.wy)!r}"

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
    every evaluation reads it. Fewer than two points, or a metric that is
    not a Metric, raise ConfigurationError.
    Points so far apart that a distance overflows to a non-finite value, or
    that n times the longest distance does (so a tour length could), are
    rejected with ValueError.
    """

    def __init__(self, name: str, points: Sequence[Point], metric: Metric | None = None) -> None:
        self.name = str(name)
        self.points = tuple(points)
        if self.n < 2:
            raise ConfigurationError(f"an instance needs at least two points, got {self.n}")
        self.metric = metric if metric is not None else Metric()
        if not isinstance(self.metric, Metric):
            raise ConfigurationError(f"metric must be a Metric, got {metric!r}")
        xs = np.array([p.x for p in self.points], dtype=np.float64)
        ys = np.array([p.y for p in self.points], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            table = self.metric.pairwise(xs, ys)
        if not np.isfinite(table).all():
            raise ValueError(
                f"instance {self.name!r} has a non-finite {self.metric.kind} distance; "
                "the points are too far apart for float64"
            )
        # A tour length sums n edges; the margin covers the sum's rounding.
        longest = float(table.max())
        if not math.isfinite(self.n * longest * (1.0 + 1e-6)):
            raise ValueError(
                f"instance {self.name!r} has tours too long for float64: {self.n} times its "
                f"longest {self.metric.kind} distance {longest!r} is not finite"
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
    operations that change a tour return a new one. Its entries must be
    integers: bools, floats (even whole ones) and strings are rejected.
    """

    __slots__ = ("order",)

    def __init__(self, order: Sequence[int] | np.ndarray) -> None:
        arr = np.asarray(order)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"tour order must hold integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
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
            arr = np.asarray(other)
            return arr.dtype.kind in "iu" and np.array_equal(self.order, arr)
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


# Edges per row_lengths block: about 64 KiB for each float64 or intp temporary.
_BLOCK = 8192


@functools.cache
def _successor(n: int) -> np.ndarray:
    """Position p + 1 mod n for each position p of an n-point tour."""
    successor = np.roll(np.arange(n, dtype=np.intp), -1)
    successor.setflags(write=False)
    return successor


def row_lengths(instance: Instance, rows: np.ndarray) -> np.ndarray:
    """Closed-tour lengths of the k tours stored as the rows of a (k, n) array.

    Each row's edges, the wrap-around edge included, are sorted ascending
    and added one at a time, smallest first, so any two tours over the same
    edge set get the identical float. In particular a tour, its reversal,
    and its rotations all evaluate bit-for-bit equal. Every tour length in
    the library comes from here.

    The batch runs in blocks of max(2, _BLOCK // n) rows, so no temporary
    holds more than max(_BLOCK, 2n) edges, whatever k is. A block of two or
    more rows is summed down the columns of its transposed (n, rows) copy:
    numpy pairs terms only along the axis that is contiguous in memory, so
    there each row's edges are added one at a time, the same sequential
    order as np.cumsum along the row and faster. A lone row keeps np.cumsum,
    because its column would be the contiguous axis and would be summed
    pairwise.

    Rows may have any integer dtype, such as brute_force's int8. The entries
    must be cities 0..n-1 and are not checked: a negative one can wrap
    around the raveled table and give a finite length that is no tour's,
    while one of n or more raises IndexError. Tour and tour_length are the
    checked entry points.
    """
    n = instance.n
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"tours of shape {rows.shape} for an instance of {n} points")
    table = instance.distance_table()
    successor = _successor(n)
    step = max(2, _BLOCK // n)
    lengths = np.empty(len(rows))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        # Edge (a, b) sits at a * n + b of the raveled table. The index is
        # intp, because rows of a narrow dtype times n would wrap.
        flat = np.multiply(block, n, dtype=np.intp)
        flat += block.take(successor, axis=1)
        edges = table.take(flat)
        edges.sort(axis=1)
        if len(edges) == 1:
            # For exactness: np.add.reduce would pair the terms of one row,
            # while cumsum scans them in order.
            lengths[start] = edges.cumsum()[-1]
        else:
            np.add.reduce(edges.T.copy(), axis=0, out=lengths[start : start + step])
    return lengths


def tour_length(instance: Instance, tour: Tour) -> float:
    """Length of the closed tour: consecutive edges plus the wrap-around edge.

    See row_lengths for the summation order.
    """
    return float(row_lengths(instance, tour.order[None, :])[0])


def random_rows(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniformly random tours over ``n`` points as a (size, n) array."""
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    # numpy's permuted shuffles row by row with the draws a per-row
    # permutation loop takes; tests/test_core.py checks this.
    return rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)


def random_tour(n: int, rng: np.random.Generator) -> Tour:
    """Uniformly random tour over ``n`` points."""
    return Tour(random_rows(n, 1, rng)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Generator for an integer seed; negative seeds wrap modulo 2**64."""
    check_integer("seed", seed)
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
