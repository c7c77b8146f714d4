"""Command-line interface: solve, bench, compare, and oracle subcommands.

Exit codes: 0 success, 2 usage, configuration or file error, 3 instance
parse error (including distances too large to be finite), 4 run aborted
(step budget exhausted on every run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    CSV_HEADER,
    TrialRecord,
    compare,
    format_comparison_csv,
    format_comparison_json,
    format_comparison_text,
    format_stats_json,
    format_trial_row,
    format_trials_csv,
    run_experiment,
)
from .core import ConfigurationError, Instance, Metric
from .ga import GaConfig, run_ga
from .hillclimb import HcConfig, RunAbortedError, run_hc
from .oracle import brute_force, held_karp
from .tsplib import ParseError, bundled_instance, bundled_names, load_instance, parse_instance_text

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
        return parse_instance_text(sys.stdin.read(), name="stdin", metric=metric)
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


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    config = _solver_config(args, args.variant)
    result = run_ga(instance, config) if args.algorithm == "ga" else run_hc(instance, config)
    if args.format == "json":
        doc = {
            "instance": instance.name,
            "algorithm": args.algorithm,
            "variant": args.variant,
            "seed": args.seed,
            "length": result.best_length,
            "tour": result.best_tour.tolist(),
            "iterations": result.iterations,
            "fitness_evaluations": result.fitness_evaluations,
            "wall_time_ms": result.wall_time_ms,
            "runs": result.runs,
            "early_outs": result.early_outs,
            "aborted": result.aborted,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        row = format_trial_row(TrialRecord.from_result(0, args.seed, result))
        _emit(CSV_HEADER + "\n" + row + "\n", args.out)
    else:
        lines = [
            f"instance {instance.name} n={instance.n} metric={instance.metric.kind}",
            f"algorithm {args.algorithm} variant={args.variant} seed={args.seed}",
            f"length {result.best_length!r}",
            "tour " + " ".join(str(c) for c in result.best_tour),
            f"iterations {result.iterations} fitness_evaluations {result.fitness_evaluations} "
            f"wall_time_ms {result.wall_time_ms:.3f}",
        ]
        if args.algorithm == "hc":
            lines.append(
                f"runs {result.runs} early_outs {result.early_outs} aborted {result.aborted}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    config = _solver_config(args, args.variant)
    stats = run_experiment(
        instance, config, args.trials, experiment_seed=args.seed, parallelism=args.parallelism
    )
    if args.format == "json":
        text = format_stats_json(stats, args.reproducible)
    else:
        text = format_trials_csv(stats, args.reproducible)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    report = compare(
        instance,
        _solver_config(args, args.variant_a, args.population_a),
        _solver_config(args, args.variant_b, args.population_b),
        args.trials,
        experiment_seed=args.seed,
        parallelism=args.parallelism,
    )
    if args.format == "json":
        text = format_comparison_json(report, args.reproducible)
    elif args.format == "csv":
        text = format_comparison_csv(report)
    else:
        text = format_comparison_text(report, args.variant_a, args.variant_b)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    solver = held_karp if args.solver == "held-karp" else brute_force
    result = solver(instance)
    if args.format == "json":
        doc = {
            "instance": instance.name,
            "solver": args.solver,
            "optimal_length": result.optimal_length,
            "optimal_tour": result.optimal_tour.tolist(),
            "nodes_expanded": result.nodes_expanded,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"instance {instance.name} n={instance.n} metric={instance.metric.kind}",
            f"solver {args.solver}",
            f"optimal_length {result.optimal_length!r}",
            "optimal_tour " + " ".join(str(c) for c in result.optimal_tour),
            f"nodes_expanded {result.nodes_expanded}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RunAbortedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ABORTED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
