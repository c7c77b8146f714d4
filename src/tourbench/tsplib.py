"""Readers for TSPLIB point files and bare coordinate lists."""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

from .core import ConfigurationError, Instance, Metric, Point

__all__ = [
    "ParseError",
    "bundled_instance",
    "bundled_names",
    "decode_utf8",
    "detect_format",
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


def _make_instance(name: str, points: list[Point], metric: Metric | None) -> Instance:
    try:
        return Instance(name, points, metric=metric)
    except ConfigurationError:  # a caller's mistake, such as a metric that is not a Metric
        raise
    except ValueError as err:  # e.g. distances that overflow float64
        raise ParseError(str(err)) from None


def _point(x: str, y: str, line: str, idx: int) -> Point:
    """The point at (x, y); ParseError at line ``idx`` unless both are finite numbers."""
    try:
        xy = float(x), float(y)
    except ValueError:
        raise ParseError(f"could not parse coordinates from {line!r}", idx) from None
    try:
        return Point(*xy)
    except ValueError as err:  # inf, nan or a number too large for a float
        raise ParseError(str(err), idx) from None


def parse_tsplib(text: str, metric: Metric | None = None) -> Instance:
    """Parse TSPLIB NODE_COORD_SECTION data into an instance.

    Only the ``NAME`` and ``DIMENSION`` header keys are read; every other key,
    ``EDGE_WEIGHT_TYPE`` included, is skipped, and evaluation uses ``metric``
    (Euclidean by default). Raises ParseError (with the offending line
    number) for a missing or malformed DIMENSION, bad coordinate rows,
    duplicate or out-of-range node indices, and row counts that disagree with
    DIMENSION; and without a line number for points so far apart that a
    distance is not finite.
    """
    lines = text.splitlines()
    name = dimension = None
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
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise ParseError(f"DIMENSION must be an integer, got {value!r}", idx) from None
            dim_line = idx
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
        coords[k] = _point(parts[1], parts[2], line, idx)
    if len(coords) != dimension:
        raise ParseError(
            f"NODE_COORD_SECTION has {len(coords)} points but DIMENSION says {dimension}", last_line
        )
    points = [coords[k] for k in range(1, dimension + 1)]
    return _make_instance(name or "unnamed", points, metric)


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
        points.append(_point(parts[0], parts[1], raw.strip(), idx))
    if len(points) < 2:
        raise ParseError(f"need at least two points, got {len(points)}", last)
    return _make_instance(name, points, metric)


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
        return parse_tsplib(text, metric=metric)
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
    return parse_tsplib(decode_utf8(path.read_bytes(), str(path)), metric=metric)


def load_instance(path: str | Path, metric: Metric | None = None) -> Instance:
    """Load an instance from a UTF-8 file path, detecting the format from content.

    Raises ParseError, naming the file and the line, for bytes that are not
    UTF-8.
    """
    p = Path(path)
    return parse_instance_text(decode_utf8(p.read_bytes(), str(p)), name=p.stem, metric=metric)


def decode_utf8(data: bytes, source: str) -> str:
    """``data`` as UTF-8 text, less one leading byte-order mark.

    Bytes that are not UTF-8 raise ParseError naming ``source``, the offset
    in ``data`` and the line as the parsers number it (by ``splitlines``,
    so a lone carriage return ends a line too).
    """
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        # The bad byte stands where the "x" does, on the last line.
        line = len((data[: err.start].decode("utf-8") + "x").splitlines())
        message = f"{source} is not UTF-8 text: {err.reason} at byte {err.start}"
        raise ParseError(message, line) from None
