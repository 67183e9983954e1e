"""
Experiment drivers. Subcommands: approx-error | batch-ratio | influence-time
| bench | simulate. Every run writes plot-ready CSV files plus a key-value
manifest (flags, seed, versions) into --out-dir and is deterministic under
--seed (bench timings excepted).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .agents import (
    best_response_check,
    closed_form_mixture,
    generate_world,
    independent_test_set,
    quadratic_peak,
    report_stream,
    build_population,
    simulate_population,
)
from .dataio import builtin_schema, load_csv, read_schema, write_results
from .errors import DomainError, InfluenceMarketError, InvalidValue
from .influence import approximation_errors, crossover_dimension, timing_comparison
from .mechanism import MechanismConfig, run_mechanism
from .mixture import (
    MixtureParams,
    correction_exclusive,
    correction_inclusive,
    truthful_threshold,
)


def _number_list(text: str, convert, flag: str) -> list:
    """Comma-separated numbers of a list-valued flag, each through ``convert``."""
    try:
        return [convert(item) for item in text.split(",")]
    except ValueError:
        raise InvalidValue(
            f"{flag} must be a comma-separated list of numbers, got {text!r}"
        ) from None


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument(
        "--dataset",
        default="linear-generated",
        help="'linear-generated', a builtin schema name, or a CSV path (with --schema)",
    )
    parser.add_argument("--data-file", type=Path, default=None, help="CSV for builtin schemas")
    parser.add_argument("--schema", type=Path, default=None, help="key-value schema file")
    parser.add_argument("--ridge", type=float, default=0.0)


def _check_dataset_flags(args) -> None:
    """Reject a --data-file or --schema that the run would ignore: beside
    generated data, or a --data-file beside --schema (the CSV is --dataset)."""
    if args.dataset == "linear-generated":
        for flag, value in (("--data-file", args.data_file), ("--schema", args.schema)):
            if value is not None:
                raise DomainError(
                    f"{flag} would be ignored: --dataset linear-generated draws its data"
                )
    elif args.schema is not None and args.data_file is not None:
        raise DomainError("--data-file would be ignored: with --schema the CSV is --dataset")


def _check_generated(args) -> None:
    """Reject dataset flags on a command that always draws its data."""
    if args.dataset != "linear-generated":
        raise DomainError(
            f"{args.command} draws its data; --dataset {args.dataset!r} would be ignored"
        )
    _check_dataset_flags(args)


def _resolve_dataset(args, n_train, n_test, seed):
    """Train/test split for the requested dataset.

    linear-generated draws fresh data from a random linear world; file-backed
    datasets are shuffled then split.
    """
    _check_dataset_flags(args)
    if args.dataset == "linear-generated":
        world = generate_world(seed)
        profiles = build_population(n_train, 1.0)
        train = report_stream(profiles, world, seed + 1)
        test = independent_test_set(world, n_test, seed + 2)
        return train, test
    if args.schema is not None:
        schema = read_schema(args.schema)
        path = Path(args.dataset)
    else:
        schema = builtin_schema(args.dataset)
        if args.data_file is None:
            raise InfluenceMarketError(
                f"builtin dataset {args.dataset!r} needs --data-file pointing at the CSV"
            )
        path = args.data_file
    full = load_csv(path, schema)
    if len(full) < n_train + n_test:
        raise InfluenceMarketError(
            f"{path} has {len(full)} usable rows, need n_train + n_test = {n_train + n_test}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(full))
    return full.subset(order[:n_train]), full.subset(order[n_train : n_train + n_test])


def _write_manifest(args, out_dir: Path) -> None:
    manifest = {"command": args.command, "version": __version__, "numpy": np.__version__}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func"):
            continue
        manifest[key] = str(value)
    write_results(manifest, out_dir / "run_manifest.txt", fmt="key-value-summary")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"--trials must be at least 1, got {trials}")


def cmd_approx_error(args) -> int:
    _check_trials(args.trials)
    if args.n_train < 3:
        raise InfluenceMarketError("n_train must be at least d + 2")
    reports = {"first": [], "second": []}
    for trial in range(args.trials):
        train, test = _resolve_dataset(args, args.n_train, args.n_test, args.seed + trial)
        if args.n_train < train.dimension + 2:
            raise InfluenceMarketError(f"n_train must be at least d + 2 = {train.dimension + 2}")
        for order, report in approximation_errors(train, test, ridge=args.ridge).items():
            reports[order].append(report)
    rows = [
        {
            "dataset": args.dataset,
            "order": order,
            "l1": float(np.mean([r.l1 for r in reports[order]])),
            "relative_l1": float(np.mean([r.relative_l1 for r in reports[order]])),
            "l2": float(np.mean([r.l2 for r in reports[order]])),
            "n_train": args.n_train,
            "n_test": args.n_test,
            "trials": args.trials,
        }
        for order in reports
    ]
    write_results(rows, args.out_dir / "approx_error.csv")
    _write_manifest(args, args.out_dir)
    for row in rows:
        print(
            f"{row['dataset']} {row['order']}: L1={row['l1']:.3e} "
            f"RelL1={row['relative_l1']:.3e} L2={row['l2']:.3e}"
        )
    return 0


def _mechanism_run_sums(world, q, n, b, seed, n_test, ridge):
    """Summed raw influence of one stream under the inclusive and the exclusive
    mode, on the same stream and test set, and the inclusive run's total drop
    in test risk."""
    profiles = build_population(n, 1.0)
    stream = report_stream(profiles, world, seed)
    test = independent_test_set(world, n_test, seed + 10_000)
    config = MechanismConfig(
        batch_size=b,
        mode="inclusive",
        init_count=q,
        init_x_bounds=world.x_bounds,
        init_y_bounds=world.heuristic_y_bounds,
        influence_method="exact",
        ridge=ridge,
    )
    inclusive = run_mechanism(stream, test, config, seed=seed + 20_000)
    exclusive = run_mechanism(stream, test, replace(config, mode="exclusive"), seed=seed + 20_000)
    return inclusive.sum_raw, exclusive.sum_raw, inclusive.initial_risk - inclusive.final_risk


def cmd_batch_ratio(args) -> int:
    _check_generated(args)
    _check_trials(args.trials)
    batch_sizes = _number_list(args.batch_sizes, int, "--batch-sizes")
    rows = []
    for b in batch_sizes:
        inc_sums, exc_sums, deltas = [], [], []
        for trial in range(args.trials):
            world = generate_world(args.seed + 1000 * trial)
            s_inc, s_exc, delta = _mechanism_run_sums(
                world, args.init_count, args.n, b, args.seed + trial, args.n_test, args.ridge
            )
            inc_sums.append(s_inc)
            exc_sums.append(s_exc)
            deltas.append(delta)
        params = MixtureParams(init_count=args.init_count, n_collected=args.n, batch_size=b)
        mean_delta = float(np.mean(deltas))
        rows.append(
            {
                "batch_size": b,
                "ratio_inclusive": float(np.mean(inc_sums)) / mean_delta,
                "ratio_exclusive": float(np.mean(exc_sums)) / mean_delta,
                "theory_inclusive": correction_inclusive(params),
                "theory_exclusive": correction_exclusive(params),
                "mean_risk_change": mean_delta,
                "trials": args.trials,
            }
        )
    write_results(rows, args.out_dir / "batch_ratio.csv")
    _write_manifest(args, args.out_dir)
    for row in rows:
        print(
            f"b={row['batch_size']}: inc {row['ratio_inclusive']:.4f} "
            f"(theory {row['theory_inclusive']:.4f}) exc {row['ratio_exclusive']:.4f} "
            f"(theory {row['theory_exclusive']:.4f})"
        )
    return 0


def cmd_influence_time(args) -> int:
    _check_generated(args)
    _check_trials(args.trials)
    n = args.n_batches * args.batch_size
    traces = []
    for trial in range(args.trials):
        world = generate_world(args.seed + 1000 * trial)
        profiles = build_population(n, 1.0)
        stream = report_stream(profiles, world, args.seed + trial)
        test = independent_test_set(world, args.n_test, args.seed + trial + 10_000)
        config = MechanismConfig(
            batch_size=args.batch_size,
            mode="inclusive",
            init_count=args.init_count,
            init_x_bounds=world.x_bounds,
            init_y_bounds=world.heuristic_y_bounds,
            influence_method="exact",
            ridge=args.ridge,
        )
        ledger = run_mechanism(stream, test, config, seed=args.seed + trial + 20_000)
        traces.append(ledger.batch_mean_influences())
    means = np.mean(np.asarray(traces), axis=0)
    rows = [
        {"batch_index": k + 1, "mean_influence": float(means[k])}
        for k in range(len(means))
    ]
    write_results(rows, args.out_dir / "influence_time.csv")
    _write_manifest(args, args.out_dir)
    print(
        f"batch 1 mean influence {means[0]:.3e}, batch {len(means)} "
        f"mean influence {means[-1]:.3e}"
    )
    return 0


def cmd_bench(args) -> int:
    _check_generated(args)
    dims = _number_list(args.dims, int, "--dims")
    rows = timing_comparison([args.n_train], dims, args.n_test, seed=args.seed)
    write_results(rows, args.out_dir / "bench.csv")
    _write_manifest(args, args.out_dir)
    d_star = crossover_dimension(rows)
    if d_star is None:
        print("approximation never overtook the exact refit on this grid")
    else:
        print(f"approximation overtakes exact refit at dimension {d_star}")
    return 0


def cmd_simulate(args) -> int:
    _check_generated(args)
    grid = _number_list(args.deviation_grid, float, "--deviation-grid")
    if not all(map(math.isfinite, grid)) or len(set(grid)) < 3:
        raise DomainError(
            f"--deviation-grid needs at least 3 distinct finite deviations, "
            f"got {args.deviation_grid!r}"
        )
    world = generate_world(args.seed)
    config = MechanismConfig(
        batch_size=args.batch_size,
        mode=args.mode,
        init_count=args.init_count,
        init_x_bounds=world.x_bounds,
        init_y_bounds=world.heuristic_y_bounds,
        effort_cost=args.effort_cost,
        payment_scale=args.alpha,
        influence_method=args.influence_method,
        ridge=args.ridge,
    )
    result = simulate_population(
        n_agents=args.n_agents,
        p_truthful=args.p_truthful,
        world=world,
        mechanism_config=config,
        test_mode=args.test_mode,
        seed=args.seed,
        n_test=args.n_test,
    )
    result.ledger.to_csv(args.out_dir / "ledger.csv")
    summary = result.ledger.summary()
    for strategy, mean in sorted(result.mean_payments.items()):
        summary[f"mean_payment.{strategy}"] = mean
    summary["empirical_truthful_fraction"] = result.empirical_truthful_fraction
    params = closed_form_mixture(
        world, args.init_count, args.n_agents, args.batch_size, args.p_truthful
    )
    summary["truthful_threshold"] = truthful_threshold(params)
    write_results(summary, args.out_dir / "simulation_summary.txt", fmt="key-value-summary")

    table = best_response_check(
        world,
        n_others=args.n_others,
        deviation_grid=grid,
        seed=args.seed + 1,
        n_trials=args.br_trials,
        n_test=args.n_test,
    )
    write_results(table, args.out_dir / "best_response.csv")
    _write_manifest(args, args.out_dir)
    for strategy, mean in sorted(result.mean_payments.items()):
        print(f"mean payment ({strategy}): {mean:+.4e}")
    print(f"best-response quadratic peak at deviation {quadratic_peak(table):+.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influence-market",
        description="Influence-priced data acquisition experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx-error", help="error of influence approximations vs exact")
    _add_common(p)
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_approx_error)

    p = sub.add_parser("batch-ratio", help="summed influence / risk change vs batch size")
    _add_common(p)
    p.add_argument("--init-count", type=int, default=500)
    p.add_argument("--n", type=int, default=1500)
    p.add_argument("--batch-sizes", default="1,5,10,25,50,100,300")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--n-test", type=int, default=200)
    p.set_defaults(func=cmd_batch_ratio)

    p = sub.add_parser("influence-time", help="mean influence per batch over a run")
    _add_common(p)
    p.add_argument("--init-count", type=int, default=500)
    p.add_argument("--n-batches", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--n-test", type=int, default=200)
    p.set_defaults(func=cmd_influence_time)

    p = sub.add_parser("bench", help="exact-refit vs approximation wall-clock times")
    _add_common(p)
    p.add_argument("--dims", default="1,2,5,10,20,50")
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=200)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="population simulation and best-response probe")
    _add_common(p)
    p.add_argument("--n-agents", type=int, default=600)
    p.add_argument("--p-truthful", type=float, default=0.5)
    p.add_argument("--test-mode", choices=("independent", "from-reports"), default="independent")
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=25)
    p.add_argument("--mode", choices=("inclusive", "exclusive"), default="inclusive")
    p.add_argument("--init-count", type=int, default=50)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--effort-cost", type=float, default=0.0)
    p.add_argument("--influence-method", choices=("exact", "first-order", "second-order"),
                   default="exact")
    p.add_argument("--n-others", type=int, default=50)
    p.add_argument("--deviation-grid", default="-2,-1,-0.5,-0.25,0,0.25,0.5,1,2")
    p.add_argument("--br-trials", type=int, default=200)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args)
    except InfluenceMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
