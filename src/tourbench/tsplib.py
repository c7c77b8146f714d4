"""Readers and writers for TSPLIB point files and bare coordinate lists."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import Instance, Metric, Point

__all__ = [
    "ParseError",
    "TsplibHeader",
    "bundled_instance",
    "bundled_names",
    "detect_format",
    "format_tsplib",
    "load_instance",
    "parse_coord_list",
    "parse_instance_text",
    "parse_tsplib",
]


class ParseError(ValueError):
    """Instance text that cannot be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TsplibHeader:
    """Metadata read from a TSPLIB file.

    ``edge_weight_type`` is recorded for reporting only; evaluation always
    uses the metric the caller selected (Euclidean by default).
    """

    name: str | None = None
    type: str | None = None
    comment: str | None = None
    dimension: int | None = None
    edge_weight_type: str | None = None


def _make_instance(name: str, points: list[Point], metric: Metric | None) -> Instance:
    try:
        return Instance(name, points, metric=metric)
    except ValueError as err:  # e.g. distances that overflow float64
        raise ParseError(str(err)) from None


def parse_tsplib(text: str, metric: Metric | None = None) -> tuple[Instance, TsplibHeader]:
    """Parse TSPLIB NODE_COORD_SECTION data into an instance.

    Raises ParseError (with the offending line number) for a missing or
    malformed DIMENSION, bad coordinate rows, duplicate or out-of-range node
    indices, and row counts that disagree with DIMENSION; and without a line
    number for points so far apart that a distance is not finite.
    """
    lines = text.splitlines()
    name = type_ = comment = edge_weight_type = None
    dimension = None
    dim_line = 0
    section_line = None
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper().rstrip(" :")
        if upper == "NODE_COORD_SECTION":
            section_line = idx
            break
        if upper == "EOF":
            raise ParseError("file ended before NODE_COORD_SECTION", idx)
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'KEY : value' or a section marker, got {line!r}", idx)
        key = key.strip().upper()
        value = value.strip()
        if key == "NAME":
            name = value
        elif key == "TYPE":
            type_ = value
        elif key == "COMMENT":
            comment = value if comment is None else comment + "\n" + value
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise ParseError(f"DIMENSION must be an integer, got {value!r}", idx) from None
            dim_line = idx
        elif key == "EDGE_WEIGHT_TYPE":
            edge_weight_type = value
        # Unknown header keys are tolerated and ignored.
    if section_line is None:
        raise ParseError("no NODE_COORD_SECTION found", max(1, len(lines)))
    if dimension is None:
        raise ParseError("NODE_COORD_SECTION appears before DIMENSION", section_line)
    if dimension < 2:
        raise ParseError(f"DIMENSION must be at least 2, got {dimension}", dim_line)

    # Keyed by node index, so memory follows the rows read, not DIMENSION.
    coords: dict[int, Point] = {}
    last_line = section_line
    for idx, raw in enumerate(lines[section_line:], start=section_line + 1):
        line = raw.strip()
        last_line = idx
        if not line:
            continue
        if line.upper() == "EOF":
            break
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'index x y', got {line!r}", idx)
        try:
            k = int(parts[0])
        except ValueError:
            raise ParseError(f"node index must be an integer, got {parts[0]!r}", idx) from None
        if not 1 <= k <= dimension:
            raise ParseError(f"node index {k} outside 1..{dimension}", idx)
        if k in coords:
            raise ParseError(f"duplicate node index {k}", idx)
        try:
            coords[k] = Point(float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"could not parse coordinates from {line!r}", idx) from None
    if len(coords) != dimension:
        raise ParseError(
            f"NODE_COORD_SECTION has {len(coords)} points but DIMENSION says {dimension}", last_line
        )
    header = TsplibHeader(name, type_, comment, dimension, edge_weight_type)
    points = [coords[k] for k in range(1, dimension + 1)]
    return _make_instance(name or "unnamed", points, metric), header


def parse_coord_list(text: str, name: str = "coords", metric: Metric | None = None) -> Instance:
    """Parse one point per line, ``x y`` or ``x,y``; ``#`` starts a comment."""
    points: list[Point] = []
    last = 1
    for idx, raw in enumerate(text.splitlines(), start=1):
        last = idx
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"expected 'x y' per line, got {raw.strip()!r}", idx)
        try:
            points.append(Point(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"could not parse coordinates from {raw.strip()!r}", idx) from None
    if len(points) < 2:
        raise ParseError(f"need at least two points, got {len(points)}", last)
    return _make_instance(name, points, metric)


def _format_coordinate(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


def format_tsplib(instance: Instance, comment: str | None = None) -> str:
    """Serialize an instance so parse_tsplib, given the same metric, reads it back unchanged.

    The metric is not written: ``EDGE_WEIGHT_TYPE`` is always ``EUC_2D``.
    Integer-valued coordinates are written without a decimal point; others
    use repr so the float round-trips exactly. Each line of ``comment`` gets
    its own ``COMMENT`` line, which parse_tsplib joins back with ``"\n"``.
    A name that holds a line break raises ValueError.
    """
    if "".join(instance.name.splitlines()) != instance.name:
        raise ValueError(f"instance name {instance.name!r} holds a line break")
    out = [f"NAME : {instance.name}"]
    if comment is not None:
        out.extend(f"COMMENT : {line}" for line in comment.splitlines() or [""])
    out.append("TYPE : TSP")
    out.append(f"DIMENSION : {instance.n}")
    out.append("EDGE_WEIGHT_TYPE : EUC_2D")
    out.append("NODE_COORD_SECTION")
    for k, p in enumerate(instance.points, start=1):
        out.append(f"{k} {_format_coordinate(p.x)} {_format_coordinate(p.y)}")
    out.append("EOF")
    return "\n".join(out) + "\n"


_HEADER_LINE = re.compile(r"^[A-Za-z_]+\s*:")


def detect_format(text: str) -> str:
    """Classify instance text as ``"tsplib"`` or a bare ``"coords"`` list."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "NODE_COORD_SECTION" in line.upper() or _HEADER_LINE.match(line):
            return "tsplib"
        return "coords"
    return "coords"


def parse_instance_text(text: str, name: str = "coords", metric: Metric | None = None) -> Instance:
    """Parse instance text in either supported format, detected automatically."""
    if detect_format(text) == "tsplib":
        instance, _ = parse_tsplib(text, metric=metric)
        return instance
    return parse_coord_list(text, name=name, metric=metric)


def bundled_names() -> list[str]:
    """Names of the instances shipped inside the package."""
    root = resources.files("tourbench.data")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".tsp"))


def bundled_instance(name: str, metric: Metric | None = None) -> Instance:
    """Load a bundled instance such as ``att48`` by name."""
    path = resources.files("tourbench.data") / f"{name}.tsp"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled instance named {name!r}; have {bundled_names()}")
    instance, _ = parse_tsplib(path.read_text(), metric=metric)
    return instance


def load_instance(path: str | Path, metric: Metric | None = None) -> Instance:
    """Load an instance from a file path, detecting the format from content."""
    p = Path(path)
    text = p.read_text()
    return parse_instance_text(text, name=p.stem, metric=metric)
