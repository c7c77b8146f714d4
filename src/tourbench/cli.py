"""Command-line interface: solve, bench, compare, and oracle subcommands.

Each command builds its report once, as ordered dicts, and one of three
renderers prints it: ``_json``, ``_text`` (``key value`` lines) or ``_csv``
(a table plus a ``# key value`` footer).

Exit codes: 0 success, 2 usage, configuration or file error, 3 instance
parse error (including a file that is not UTF-8 and distances too large to
be finite), 4 run aborted (step budget exhausted on every run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .bench import ComparisonReport, ExperimentStats, TrialRecord, compare, run_experiment
from .core import ConfigurationError, Instance, Metric
from .ga import GaConfig, run_ga
from .hillclimb import HcConfig, RunAbortedError, run_hc
from .oracle import brute_force, held_karp
from .tsplib import (
    ParseError,
    bundled_instance,
    bundled_names,
    decode_utf8,
    load_instance,
    parse_instance_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ABORTED = 4

_GA_DEFAULTS = GaConfig()
_HC_DEFAULTS = HcConfig()


def _load_instance(args: argparse.Namespace) -> Instance:
    metric = Metric.parse(args.metric)
    source = args.instance
    if source == "-":
        text = decode_utf8(sys.stdin.buffer.read(), "stdin")
        return parse_instance_text(text, name="stdin", metric=metric)
    if Path(source).is_file():
        return load_instance(source, metric=metric)
    if source in bundled_names():
        return bundled_instance(source, metric=metric)
    raise ConfigurationError(
        f"no instance file at {source!r} and no bundled instance by that name "
        f"(bundled: {', '.join(bundled_names())})"
    )


def _ga_variant(cli_variant: str) -> str:
    """The GA crossover behind the CLI's shared baseline/modified naming."""
    return "reversal_invariant" if cli_variant == "modified" else "baseline"


def _solver_config(args: argparse.Namespace, variant: str, population: int | None = None):
    """The run's solver config; ``population`` None means ``--population``."""
    if args.algorithm == "ga":
        return GaConfig(
            population_size=args.population if population is None else population,
            mutation_rate=args.mutation_rate,
            max_generations=args.generations,
            max_stall_generations=args.stall,
            crossover_variant=_ga_variant(variant),
            elitism=args.elitism,
            seed=args.seed,
        )
    return HcConfig(
        restarts=args.restarts,
        variant=variant,
        max_steps_per_run=args.max_steps,
        seed=args.seed,
    )


def _cell(value) -> str:
    """Floats as repr, so they round-trip exactly; booleans as true/false.

    A list is its items' cells, separated by spaces.
    """
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _json(doc: dict, stamp: bool) -> str:
    """RFC 8259 JSON of ``doc``, plus a ``metadata.created`` timestamp when ``stamp``.

    A non-finite top-level float (an undefined comparison ratio) is written
    as null; one nested deeper raises instead of producing invalid JSON.
    """
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}
    if stamp:
        doc["metadata"] = {"created": datetime.now(timezone.utc).isoformat()}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _text(doc: dict) -> str:
    """One ``key value`` line per field."""
    return "".join(f"{key} {_cell(value)}\n" for key, value in doc.items())


def _csv(rows: list[dict], footer: dict) -> str:
    """A header of the rows' keys, one line per row, then ``# key value`` lines."""
    lines = [",".join(rows[0]), *(",".join(map(_cell, row.values())) for row in rows)]
    lines += [f"# {key} {_cell(value)}" for key, value in footer.items()]
    return "\n".join(lines) + "\n"


def _trial(record: TrialRecord, reproducible: bool) -> dict:
    """The record's fields in order; ``reproducible`` zeroes wall_time_ms."""
    row = dataclasses.asdict(record)
    if reproducible:
        row["wall_time_ms"] = 0.0
    return row


def _experiment(stats: ExperimentStats, reproducible: bool) -> dict:
    s = stats
    summary = {
        "mean": s.mean, "std": s.std, "min": s.min, "q1": s.q1, "median": s.median,
        "q3": s.q3, "max": s.max, "trials": len(s.trials), "degenerate": s.degenerate,
    }
    return {"trials": [_trial(r, reproducible) for r in s.trials], "summary": summary}


def _about(instance: Instance) -> dict:
    """The fields that open the solve and oracle documents."""
    return {"instance": instance.name, "n": instance.n, "metric": instance.metric.spec}


def _bench_report(stats: ExperimentStats, fmt: str, reproducible: bool) -> str:
    doc = _experiment(stats, reproducible)
    if fmt == "json":
        return _json(doc, stamp=not reproducible)
    return _csv(doc["trials"], doc["summary"])


def _compare_report(
    report: ComparisonReport, fmt: str, reproducible: bool, labels: tuple[str, str]
) -> str:
    arms = {"a": _experiment(report.stats_a, reproducible),
            "b": _experiment(report.stats_b, reproducible)}
    fields = {
        "variant_a": labels[0], "variant_b": labels[1], "mean_ratio": report.mean_ratio,
        "improvement": report.improvement, "trials": len(report.stats_a.trials),
    }
    if fmt == "json":
        return _json({**arms, **fields}, stamp=not reproducible)
    per_arm = {
        f"{key}_{arm}": doc["summary"][key]
        for arm, doc in arms.items() for key in ("mean", "std", "min", "max")
    }
    if fmt == "text":
        return _text({**per_arm, **fields})
    rows = [
        {"trial_id": ta["trial_id"], "seed": ta["seed"],
         "tour_length_a": ta["tour_length"], "tour_length_b": tb["tour_length"]}
        for ta, tb in zip(arms["a"]["trials"], arms["b"]["trials"])
    ]
    return _csv(rows, {**per_arm, **fields})


def _cmd_solve(args: argparse.Namespace) -> str:
    instance = _load_instance(args)
    config = _solver_config(args, args.variant)
    r = run_ga(instance, config) if args.algorithm == "ga" else run_hc(instance, config)
    if args.format == "csv":
        return _csv([_trial(TrialRecord.from_result(0, args.seed, r), False)], {})
    doc = {
        **_about(instance), "algorithm": args.algorithm, "variant": args.variant,
        "seed": args.seed, "length": r.best_length, "tour": r.best_tour.tolist(),
        "iterations": r.iterations, "fitness_evaluations": r.fitness_evaluations,
        "wall_time_ms": r.wall_time_ms, "runs": r.runs, "early_outs": r.early_outs,
        "aborted": r.aborted,
    }
    return _json(doc, stamp=False) if args.format == "json" else _text(doc)


def _cmd_bench(args: argparse.Namespace) -> str:
    stats = run_experiment(
        _load_instance(args),
        _solver_config(args, args.variant),
        args.trials,
        experiment_seed=args.seed,
        parallelism=args.parallelism,
    )
    return _bench_report(stats, args.format, args.reproducible)


def _cmd_compare(args: argparse.Namespace) -> str:
    report = compare(
        _load_instance(args),
        _solver_config(args, args.variant_a, args.population_a),
        _solver_config(args, args.variant_b, args.population_b),
        args.trials,
        experiment_seed=args.seed,
        parallelism=args.parallelism,
    )
    labels = (args.variant_a, args.variant_b)
    return _compare_report(report, args.format, args.reproducible, labels)


def _cmd_oracle(args: argparse.Namespace) -> str:
    instance = _load_instance(args)
    result = (held_karp if args.solver == "held-karp" else brute_force)(instance)
    doc = {
        **_about(instance),
        "solver": args.solver,
        "optimal_length": result.optimal_length,
        "optimal_tour": result.optimal_tour.tolist(),
        "nodes_expanded": result.nodes_expanded,
    }
    return _json(doc, stamp=False) if args.format == "json" else _text(doc)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instance",
        required=True,
        help="instance file path, '-' for stdin, or a bundled name such as att48",
    )
    parser.add_argument(
        "--metric",
        default="euclidean",
        help="euclidean | manhattan | wmanhattan:WX,WY | wchebyshev:WX,WY",
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _add_solver(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", choices=("ga", "hc"), default="ga")
    parser.add_argument(
        "--variant",
        choices=("baseline", "modified"),
        default="baseline",
        help="ga: crossover strategy; hc: escape-and-memoization strategy",
    )
    parser.add_argument("--population", type=int, default=_GA_DEFAULTS.population_size)
    parser.add_argument("--generations", type=int, default=_GA_DEFAULTS.max_generations)
    parser.add_argument("--stall", type=int, default=_GA_DEFAULTS.max_stall_generations, help="stop after this many generations without improvement")
    parser.add_argument("--mutation-rate", type=float, default=_GA_DEFAULTS.mutation_rate)
    parser.add_argument("--elitism", action="store_true")
    parser.add_argument("--restarts", type=int, default=_HC_DEFAULTS.restarts)
    parser.add_argument("--max-steps", type=int, default=_HC_DEFAULTS.max_steps_per_run, help="per-run step budget (hc)")


def _add_experiment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--parallelism", type=int, default=1)
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="zero wall times and omit timestamps so identical seeds give identical bytes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourbench",
        description="TSP solvers and benchmark experiments over point-set instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver invocation")
    _add_common(p_solve)
    _add_solver(p_solve)
    p_solve.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run repeated trials of one configuration")
    _add_common(p_bench)
    _add_solver(p_bench)
    _add_experiment(p_bench)
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="run two arms on paired per-trial seeds")
    _add_common(p_cmp)
    _add_solver(p_cmp)
    _add_experiment(p_cmp)
    p_cmp.add_argument("--variant-a", choices=("baseline", "modified"), default="baseline")
    p_cmp.add_argument("--variant-b", choices=("baseline", "modified"), default="modified")
    p_cmp.add_argument("--population-a", type=int, default=None)
    p_cmp.add_argument("--population-b", type=int, default=None)
    p_cmp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_cmp.set_defaults(func=_cmd_compare)

    p_oracle = sub.add_parser("oracle", help="exact optimum for small instances")
    _add_common(p_oracle)
    p_oracle.add_argument("--solver", choices=("held-karp", "brute-force"), default="held-karp")
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def _write(text: str, out: str | None) -> None:
    """Write a report's UTF-8 bytes to ``out``, or to stdout for None or '-', whatever the locale.

    A text stream with no byte buffer under it, such as ``io.StringIO``,
    takes the text itself.
    """
    if out is not None and out != "-":
        Path(out).write_bytes(text.encode())
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.write(text.encode())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write(args.func(args), args.out)
        return EXIT_OK
    except (ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RunAbortedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    raise SystemExit(main())
