"""Byte-exact record of the CLI's reports on a fixed instance.

Each case is one CLI run on a fixed 6-point instance: ``bench`` and
``compare`` with ``--reproducible``, ``oracle``, which reports no timing,
and ``solve`` in every format, whose one ``wall_time_ms`` value is masked
as ``W`` because ``solve`` has no ``--reproducible``. Its stdout is stored
verbatim in ``golden/reports.json``, and a refactor of the report
renderers in ``tourbench.cli`` must reproduce every byte. The ``solve``
cases are checked in ``test_cli.py``, beside the other ``solve`` tests, and
the rest here. The record is regenerated only on purpose, by running this
file as a script:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from tourbench.cli import EXIT_OK, main

RECORD = Path(__file__).parent / "golden" / "reports.json"

HEXAGON = "0 0\n3.5 1\n5 4.25\n2 6\n-1.5 4\n1 2.75\n"

SOLVER = {
    "hc": ["--algorithm", "hc", "--restarts", "3", "--seed", "11"],
    "ga": [
        "--algorithm", "ga", "--population", "8", "--generations", "10", "--stall", "10",
        "--elitism", "--seed", "12",
    ],
}
_HC = [*SOLVER["hc"], "--trials", "4", "--reproducible"]
_GA = [*SOLVER["ga"], "--trials", "4", "--reproducible"]

CASES = {
    "bench-hc-csv": ["bench", *_HC, "--variant", "modified", "--format", "csv"],
    "bench-hc-json": ["bench", *_HC, "--variant", "modified", "--format", "json"],
    "bench-ga-csv": ["bench", *_GA, "--variant", "modified", "--format", "csv"],
    "bench-ga-json": ["bench", *_GA, "--format", "json"],
    "compare-hc-text": ["compare", *_HC, "--format", "text"],
    "compare-hc-csv": ["compare", *_HC, "--format", "csv"],
    "compare-hc-json": ["compare", *_HC, "--format", "json"],
    "compare-ga-text": ["compare", *_GA, "--population-b", "6", "--format", "text"],
    "compare-ga-csv": ["compare", *_GA, "--population-b", "6", "--format", "csv"],
    "compare-ga-json": ["compare", *_GA, "--population-b", "6", "--format", "json"],
    "oracle-held-karp-text": ["oracle", "--format", "text"],
    "oracle-brute-force-json": ["oracle", "--solver", "brute-force", "--format", "json"],
    **{
        f"solve-{algorithm}-{variant}-{fmt}": [
            "solve", *SOLVER[algorithm], "--variant", variant, "--format", fmt,
        ]
        for algorithm in ("ga", "hc")
        for variant in ("baseline", "modified")
        for fmt in ("text", "csv", "json")
    },
}


def _mask_wall_time(out: str) -> str:
    """The one wall_time_ms value, as text, JSON or the CSV row's fourth cell, read as W."""
    out, k = re.subn(r'(wall_time_ms"?:? )[^\s,]+', r"\1W", out)
    out, j = re.subn(r"^(\d+,\d+,[^,]+,)[^,]+", r"\1W", out, flags=re.M)
    assert k + j == 1
    return out


def output(name: str) -> str:
    """The case's stdout, with solve's wall time masked."""
    argv = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hexagon.txt"
        path.write_text(HEXAGON)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--instance", str(path)])
    assert code == EXIT_OK
    return _mask_wall_time(out.getvalue()) if argv[0] == "solve" else out.getvalue()


def read_record() -> dict:
    return json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def record():
    return read_record()


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(name for name in CASES if CASES[name][0] != "solve"))
def test_matches_record(record, name):
    assert output(name) == record[name]


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    doc = {name: output(name) for name in sorted(CASES)}
    RECORD.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {RECORD}")
