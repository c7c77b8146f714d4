import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tourbench
from test_golden_reports import CASES, HEXAGON, output, read_record
from tourbench.cli import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    _cell,
    _solver_config,
    build_parser,
    main,
)
from tourbench.core import Metric
from tourbench.ga import GaConfig
from tourbench.hillclimb import HcConfig

SQUARE_TEXT = "0 0\n0 1\n1 1\n1 0\n"
TSPLIB_SQUARE = "NAME : square\nDIMENSION : 4\nNODE_COORD_SECTION\n1 0 0\n2 0 1\n3 1 1\n4 1 0\nEOF\n"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A text stdin over ``data`` in a locale that is not UTF-8."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_text_output(self, capsys, square_file):
        code, out, err = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc", "--seed", "3",
        ])
        assert code == EXIT_OK
        assert err == ""
        lines = out.splitlines()
        assert lines[:7] == [
            "instance square", "n 4", "metric euclidean",
            "algorithm hc", "variant baseline", "seed 3", "length 4.0",
        ]
        assert lines[7].startswith("tour ")
        assert lines[8].startswith("iterations ")
        assert lines[11:] == ["runs 1", "early_outs 0", "aborted 0"]

    def test_json_output(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--variant", "modified", "--restarts", "2", "--format", "json",
        ])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["instance"] == "square"
        assert doc["algorithm"] == "hc"
        assert doc["variant"] == "modified"
        assert doc["length"] == 4.0
        assert sorted(doc["tour"]) == [0, 1, 2, 3]
        assert doc["runs"] == 3

    def test_csv_output(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--seed", "9", "--format", "csv",
        ])
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == "trial_id,seed,tour_length,wall_time_ms,fitness_evaluations,iterations"
        fields = row.split(",")
        assert fields[0] == "0"
        assert fields[1] == "9"
        assert float(fields[2]) == 4.0

    def test_ga_deterministic_per_seed(self, capsys, square_file):
        argv = [
            "solve", "--instance", square_file, "--algorithm", "ga",
            "--population", "12", "--generations", "6", "--stall", "6",
            "--variant", "modified", "--seed", "7", "--format", "json",
        ]
        _, out_a, _ = run_cli(capsys, argv)
        _, out_b, _ = run_cli(capsys, argv)
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["length"] == b["length"]
        assert a["tour"] == b["tour"]
        assert a["fitness_evaluations"] == b["fitness_evaluations"]

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(SQUARE_TEXT.encode()))
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", "-", "--algorithm", "hc",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[:3] == ["instance stdin", "n 4", "metric euclidean"]

    @pytest.mark.parametrize("text", [SQUARE_TEXT, TSPLIB_SQUARE], ids=["coords", "tsplib"])
    def test_reads_stdin_after_a_byte_order_mark(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", _stdin(b"\xef\xbb\xbf" + text.encode()))
        code, out, err = run_cli(capsys, ["oracle", "--instance", "-", "--format", "json"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["optimal_length"] == 4.0

    @pytest.mark.parametrize("data,offset", [
        (b"0 0\n1 1\n2 \xff\n", 10),
        (b"0 0 # \xff\n1 1\n", 6),
        (b"\xef\xbb\xbf0 0\n1 \xff\n", 9),  # counted from the file's first byte
    ])
    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch, data, offset):
        # Decoded as UTF-8 whatever the locale: a bad byte in a coordinate
        # and one in a comment are the same parse error.
        monkeypatch.setattr("sys.stdin", _stdin(data))
        code, _, err = run_cli(capsys, ["oracle", "--instance", "-"])
        assert code == EXIT_PARSE
        line = data.count(b"\n", 0, offset) + 1
        reason = f"stdin is not UTF-8 text: invalid start byte at byte {offset}"
        assert err == f"error: line {line}: {reason}\n"

    def test_bundled_instance_by_name(self, capsys):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", "att48", "--algorithm", "hc", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[:3] == ["instance att48", "n 48", "metric euclidean"]

    def test_metric_flag(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--metric", "manhattan",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[2] == "metric manhattan"

    def test_metric_weights_are_reported(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 0\n3 0\n3 4\n")
        lines = {}
        for weights in ("2,0.5", "1,1"):
            code, out, _ = run_cli(capsys, [
                "oracle", "--instance", str(path), "--metric", f"wmanhattan:{weights}",
            ])
            assert code == EXIT_OK
            lines[weights] = out.splitlines()
        assert lines["2,0.5"][2] == "metric wmanhattan:2.0,0.5"
        assert lines["1,1"][2] == "metric wmanhattan:1.0,1.0"
        assert lines["2,0.5"][4] != lines["1,1"][4]

    @pytest.mark.parametrize("metric", [
        "euclidean", "manhattan", "wmanhattan:2,0.5", "wchebyshev:0.1,3e-05",
    ])
    def test_reported_metric_parses_back(self, capsys, square_file, metric):
        code, out, _ = run_cli(capsys, [
            "oracle", "--instance", square_file, "--metric", metric, "--format", "json",
        ])
        assert code == EXIT_OK
        assert Metric.parse(json.loads(out)["metric"]) == Metric.parse(metric)

    def test_out_writes_file(self, capsys, square_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--format", "json", "--out", str(target),
        ])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["length"] == 4.0


@pytest.mark.parametrize("algorithm, variant, fmt", itertools.product(
    ("ga", "hc"), ("baseline", "modified"), ("text", "csv", "json"),
))
def test_solve_output_matches_pin(algorithm, variant, fmt):
    # The pinned bytes are the solve cases of tests/golden/reports.json.
    name = f"solve-{algorithm}-{variant}-{fmt}"
    assert output(name) == read_record()[name]


@pytest.mark.parametrize("name", [
    "solve-ga-modified-text", "solve-hc-baseline-text",
    "oracle-held-karp-text", "oracle-brute-force-json",
])
def test_text_lines_are_the_json_document(capsys, tmp_path, name):
    path = tmp_path / "hexagon.txt"
    path.write_text(HEXAGON)
    argv = [*CASES[name], "--instance", str(path)]
    _, text, _ = run_cli(capsys, [*argv, "--format", "text"])
    _, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    doc = json.loads(out)
    lines = text.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == list(doc)
    for line, (key, value) in zip(lines, doc.items()):
        if key != "wall_time_ms":  # two runs, two wall times
            assert line == f"{key} {_cell(value)}"


class TestSolverDefaults:
    @pytest.mark.parametrize("command", ["solve", "bench", "compare"])
    @pytest.mark.parametrize("algorithm, config", [("ga", GaConfig()), ("hc", HcConfig())])
    def test_flag_defaults_are_config_defaults(self, command, algorithm, config):
        args = build_parser().parse_args(
            [command, "--instance", "att48", "--algorithm", algorithm]
        )
        assert _solver_config(args, args.variant) == config


class TestErrors:
    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "--instance", "no_such_instance"])
        assert code == EXIT_CONFIG
        assert "no instance file" in err
        assert "att48" in err  # lists what is bundled

    def test_unparseable_instance(self, capsys, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("this is not\na point set\n")
        code, _, err = run_cli(capsys, ["solve", "--instance", str(path)])
        assert code == EXIT_PARSE
        assert err.startswith("error: line ")

    @pytest.mark.parametrize("command", ["solve", "bench", "compare", "oracle"])
    def test_instance_file_that_is_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.tsp"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(capsys, [command, "--instance", str(path)])
        assert code == EXIT_PARSE
        assert err == f"error: line 1: {path} is not UTF-8 text: invalid start byte at byte 0\n"

    def test_bad_metric(self, capsys, square_file):
        code, _, err = run_cli(capsys, [
            "solve", "--instance", square_file, "--metric", "wmanhattan",
        ])
        assert code == EXIT_CONFIG
        assert "weights" in err

    def test_bad_solver_config(self, capsys, square_file):
        code, _, err = run_cli(capsys, [
            "solve", "--instance", square_file, "--population", "0",
        ])
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")

    @pytest.mark.parametrize("metric", [
        "euclidean", "manhattan", "wmanhattan:1,1", "wchebyshev:1,1",
    ])
    def test_non_finite_distances_are_parse_errors(self, capsys, tmp_path, metric):
        path = tmp_path / "far.txt"
        path.write_text("1e308 0\n-1e308 0\n")
        code, _, err = run_cli(capsys, [
            "solve", "--instance", str(path), "--metric", metric,
        ])
        assert code == EXIT_PARSE
        assert "non-finite" in err

    def test_tours_too_long_for_the_wheel(self, capsys, tmp_path):
        step = math.ldexp(7.0, 1015)
        path = tmp_path / "far.txt"
        path.write_text("".join(f"{step * i!r} 0\n" for i in range(9)))
        code, _, err = run_cli(capsys, [
            "solve", "--instance", str(path), "--metric", "manhattan", "--population", "20",
        ])
        assert code == EXIT_CONFIG
        assert "too long for a roulette wheel" in err

    def test_out_to_directory_is_a_usage_error(self, capsys, square_file, tmp_path):
        code, _, err = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")

    def test_step_budget_abort(self, capsys):
        code, _, err = run_cli(capsys, [
            "solve", "--instance", "att48", "--algorithm", "hc", "--max-steps", "1",
        ])
        assert code == EXIT_ABORTED
        assert "step budget exhausted" in err

    def test_json_reports_aborted_climbs(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc", "--variant", "modified",
            "--restarts", "30", "--max-steps", "1", "--format", "json",
        ])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["runs"], doc["early_outs"], doc["aborted"]) == (31, 19, 6)

    def test_text_reports_aborted_climbs(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc", "--variant", "modified",
            "--restarts", "30", "--max-steps", "1",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[-3:] == ["runs 31", "early_outs 19", "aborted 6"]

    def test_argparse_rejects_unknown_arguments(self, square_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--instance", square_file, "--frobnicate"])
        assert err.value.code == 2

    def test_argparse_requires_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestBench:
    def test_csv_reproducible_bytes(self, capsys, square_file, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "bench", "--instance", square_file, "--algorithm", "hc",
            "--trials", "3", "--seed", "11", "--reproducible",
        ]
        assert main(argv + ["--out", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("trial_id,")
        assert lines[-1] == "# degenerate false"

    def test_json_reproducible_omits_metadata(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "bench", "--instance", square_file, "--algorithm", "hc",
            "--trials", "2", "--format", "json", "--reproducible",
        ])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "metadata" not in doc
        assert all(t["wall_time_ms"] == 0.0 for t in doc["trials"])

    def test_json_default_has_metadata(self, capsys, square_file):
        _, out, _ = run_cli(capsys, [
            "bench", "--instance", square_file, "--algorithm", "hc",
            "--trials", "2", "--format", "json",
        ])
        assert "created" in json.loads(out)["metadata"]

    def test_finite_tours_give_a_finite_json_summary(self, capsys, tmp_path):
        # Each tour is 1.6e308 long, so the sum of two overflows float64.
        path = tmp_path / "far.txt"
        path.write_text("0 0\n8e307 0\n")
        code, out, _ = run_cli(capsys, [
            "bench", "--instance", str(path), "--metric", "manhattan", "--algorithm", "hc",
            "--trials", "2", "--reproducible", "--format", "json",
        ])
        assert code == EXIT_OK
        summary = json.loads(out, parse_constant=_reject_constant)["summary"]
        assert summary["mean"] == summary["max"] == 1.6e308
        assert summary["std"] == 0.0

    def test_parallelism_does_not_change_results(self, capsys, square_file):
        argv = [
            "bench", "--instance", square_file, "--algorithm", "hc",
            "--variant", "modified", "--trials", "4", "--seed", "2", "--reproducible",
        ]
        _, serial, _ = run_cli(capsys, argv + ["--parallelism", "1"])
        _, pooled, _ = run_cli(capsys, argv + ["--parallelism", "2"])
        assert serial == pooled

    def test_pooled_step_budget_abort(self, capsys):
        # Starts at most two workers; each trial's abort must reach the parent intact.
        code, _, err = run_cli(capsys, [
            "bench", "--instance", "att48", "--algorithm", "hc", "--max-steps", "1",
            "--trials", "2", "--parallelism", "2",
        ])
        assert code == EXIT_ABORTED
        assert "step budget exhausted" in err

    def test_bad_trials(self, capsys, square_file):
        code, _, err = run_cli(capsys, [
            "bench", "--instance", square_file, "--trials", "0",
        ])
        assert code == EXIT_CONFIG
        assert "trials" in err


class TestCompare:
    def test_text_output(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "compare", "--instance", square_file, "--algorithm", "hc",
            "--trials", "2",
        ])
        assert code == EXIT_OK
        keys = [line.split(" ", 1)[0] for line in out.splitlines()]
        assert keys == [
            "mean_a", "std_a", "min_a", "max_a", "mean_b", "std_b", "min_b", "max_b",
            "variant_a", "variant_b", "mean_ratio", "improvement", "trials",
        ]
        assert out.splitlines()[8:10] == ["variant_a baseline", "variant_b modified"]

    def test_csv_reproducible_bytes(self, capsys, square_file):
        argv = [
            "compare", "--instance", square_file, "--algorithm", "hc",
            "--trials", "3", "--seed", "4", "--format", "csv", "--reproducible",
        ]
        _, out_a, _ = run_cli(capsys, argv)
        _, out_b, _ = run_cli(capsys, argv)
        assert out_a == out_b
        assert out_a.splitlines()[0] == "trial_id,seed,tour_length_a,tour_length_b"

    def test_ga_population_override(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "compare", "--instance", square_file, "--algorithm", "ga",
            "--population", "8", "--population-b", "6", "--generations", "3",
            "--stall", "3", "--trials", "2", "--format", "json", "--reproducible",
        ])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["a"]["trials"]) == len(doc["b"]["trials"]) == 2
        assert doc["a"]["trials"][0]["seed"] == doc["b"]["trials"][0]["seed"]

    def test_zero_mean_arm(self, capsys, tmp_path):
        # every tour over coincident points has length zero, so the ratio is undefined
        path = tmp_path / "origin.txt"
        path.write_text("0 0\n" * 4)
        argv = ["compare", "--instance", str(path), "--algorithm", "hc", "--trials", "2"]
        code, text, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert text.splitlines()[10:12] == ["mean_ratio nan", "improvement nan"]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["mean_ratio"] is None
        assert doc["improvement"] is None

    @pytest.mark.parametrize("flag", ["--population-a", "--population-b"])
    def test_zero_arm_population_is_rejected(self, capsys, square_file, flag):
        code, _, err = run_cli(capsys, [
            "compare", "--instance", square_file, "--algorithm", "ga",
            "--population", "8", flag, "0", "--generations", "2", "--trials", "1",
        ])
        assert code == EXIT_CONFIG
        assert "population_size" in err


class TestOracle:
    def test_text_output(self, capsys, square_file):
        code, out, _ = run_cli(capsys, ["oracle", "--instance", square_file])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[:3] == ["instance square", "n 4", "metric euclidean"]
        assert lines[3] == "solver held-karp"
        assert lines[4] == "optimal_length 4.0"
        assert lines[5] == "optimal_tour 0 1 2 3"

    def test_brute_force_json(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "oracle", "--instance", square_file,
            "--solver", "brute-force", "--format", "json",
        ])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["optimal_length"] == 4.0
        assert doc["optimal_tour"] == [0, 1, 2, 3]
        assert doc["nodes_expanded"] == 3  # (4-1)!/2 candidate tours

    def test_too_large_instance(self, capsys):
        code, _, err = run_cli(capsys, ["oracle", "--instance", "att48"])
        assert code == EXIT_CONFIG
        assert "48" in err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_report_is_utf8_whatever_the_locale(self, tmp_path, to_file):
        # Under the C locale, with UTF-8 mode off, stdout's encoding is
        # ASCII; the report is still written as UTF-8, to stdout and --out.
        path = tmp_path / "cafe.tsp"
        path.write_bytes(TSPLIB_SQUARE.replace("square", "café").encode())
        src = str(Path(tourbench.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "o.txt"
        argv = [sys.executable, "-m", "tourbench.cli", "oracle", "--instance", str(path)]
        done = subprocess.run(argv + (["--out", str(out)] if to_file else []),
                              env=env, capture_output=True, check=False)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        report = out.read_bytes() if to_file else done.stdout
        assert report.decode().splitlines()[0] == "instance café"
