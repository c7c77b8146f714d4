import io
import json

import pytest

from tourbench.cli import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    _solver_config,
    build_parser,
    main,
)
from tourbench.ga import GaConfig
from tourbench.hillclimb import HcConfig

SQUARE_TEXT = "0 0\n0 1\n1 1\n1 0\n"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


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
        assert lines[0] == "instance square n=4 metric=euclidean"
        assert lines[1] == "algorithm hc variant=baseline seed=3"
        assert lines[2] == "length 4.0"
        assert lines[3].startswith("tour ")
        assert lines[4].startswith("iterations ")

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
        monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_TEXT))
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", "-", "--algorithm", "hc",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "instance stdin n=4 metric=euclidean"

    def test_bundled_instance_by_name(self, capsys):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", "att48", "--algorithm", "hc", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "instance att48 n=48 metric=euclidean"

    def test_metric_flag(self, capsys, square_file):
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--metric", "manhattan",
        ])
        assert code == EXIT_OK
        assert "metric=manhattan" in out.splitlines()[0]

    def test_out_writes_file(self, capsys, square_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, [
            "solve", "--instance", square_file, "--algorithm", "hc",
            "--format", "json", "--out", str(target),
        ])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["length"] == 4.0


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
        lines = out.splitlines()
        assert lines[0].startswith("arm a: variant=baseline")
        assert lines[1].startswith("arm b: variant=modified")
        assert lines[2].startswith("mean_ratio ")
        assert lines[3].startswith("improvement ")

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
        assert text.splitlines()[2:] == ["mean_ratio nan", "improvement nan"]
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
        assert lines[1] == "solver held-karp"
        assert lines[2] == "optimal_length 4.0"
        assert lines[3] == "optimal_tour 0 1 2 3"

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
