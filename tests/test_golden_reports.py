"""Byte-exact record of the CLI's reproducible reports on a fixed instance.

Each case is one CLI run on a fixed 6-point instance: ``bench`` and
``compare`` with ``--reproducible``, and ``oracle``, which reports no
timing. Its stdout is stored verbatim in ``golden/reports.json``, and a
refactor of the report renderers in ``tourbench.cli`` must reproduce
every byte. The record is regenerated only on purpose, by running this
file as a script:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from tourbench.cli import EXIT_OK, main

RECORD = Path(__file__).parent / "golden" / "reports.json"

HEXAGON = "0 0\n3.5 1\n5 4.25\n2 6\n-1.5 4\n1 2.75\n"

_HC = ["--algorithm", "hc", "--restarts", "3", "--trials", "4", "--seed", "11", "--reproducible"]
_GA = [
    "--algorithm", "ga", "--population", "8", "--generations", "10", "--stall", "10",
    "--elitism", "--trials", "4", "--seed", "12", "--reproducible",
]

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
}


def _stdout(argv: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hexagon.txt"
        path.write_text(HEXAGON)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--instance", str(path)])
    assert code == EXIT_OK
    return out.getvalue()


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_record(record, name):
    assert _stdout(CASES[name]) == record[name]


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    doc = {name: _stdout(CASES[name]) for name in sorted(CASES)}
    RECORD.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {RECORD}")
