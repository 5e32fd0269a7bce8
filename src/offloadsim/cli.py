"""Command-line front end: single scenarios, figure sweeps, oracle checks.

    offloadsim run --scenario dt-default --out run.csv
    offloadsim sweep --sweep fig2a --out fig2a.csv
    offloadsim oracle-check --scenario ds-default --seeds 50

Scenario and sweep arguments take a JSON path or the name of a bundled file
(``dt-default``, ``ds-default``, ``fig2a`` ... ``fig9b``).  Exit codes: 0 on
success, 1 when an oracle check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import config
from .config import ConfigError
from .engine import run_trip
from .metrics import (
    AggregateResult,
    ScenarioSpec,
    SweepSpec,
    derive_run_seed,
    render_csv,
    run_scenario,
    run_sweep,
)
from .oracle import DEFAULT_DT, compare_runs, run_trip_stepped
from .prediction import realize_route


def _resolve_input(arg: str) -> str:
    """Accept a filesystem path or the bare name of a bundled file."""
    if Path(arg).exists():
        return arg
    stem = arg[:-5] if arg.endswith(".json") else arg
    for candidate in (
        f"scenario_{stem.replace('-', '_')}",
        stem.replace("-", "_"),
        stem,
    ):
        for finder in (config.bundled_scenario_path, config.bundled_recipe_path):
            try:
                path = finder(candidate)
            except (FileNotFoundError, ConfigError):
                continue
            if path.exists():
                return str(path)
    raise ConfigError(f"no such scenario or sweep file: {arg}")


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """Apply command-line overrides; a value the model rejects is a ConfigError."""
    try:
        if args.policy:
            spec = replace(spec, policies=tuple(config.parse_policy(p)
                                                for p in args.policy.split(",")))
        if args.runs is not None:
            spec = replace(spec, runs=args.runs)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        errors = spec.errors
        if args.time_error is not None:
            errors = replace(errors, time_error=args.time_error)
        if args.thr_error is not None:
            errors = replace(errors, throughput_error=args.thr_error)
        return replace(spec, errors=errors)
    except ValueError as exc:
        raise ConfigError(f"override: {exc}") from exc


def _print_summary(results: Sequence[AggregateResult]) -> None:
    header = f"{'scenario':<34} {'policy':<14} {'offload %':>12} {'delay s':>12} {'energy J':>12} {'miss':>5}"
    print(header)
    print("-" * len(header))
    for res in results:
        for p in res.policies:
            off = res.summaries[p]["offload_pct"]
            dly = res.summaries[p]["transfer_delay_s"]
            enr = res.summaries[p]["energy_j"]
            print(
                f"{res.scenario_id:<34} {p.cli_name:<14} "
                f"{off.mean:>7.2f}±{off.ci95:<4.2f} "
                f"{dly.mean:>7.2f}±{dly.ci95:<4.2f} "
                f"{enr.mean:>7.1f}±{enr.ci95:<4.1f} "
                f"{res.infeasible[p]:>5d}"
            )


def _write_output(results, metrics, out: Optional[str]) -> None:
    text = render_csv(results, metrics)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = config.load_experiment(_resolve_input(args.scenario))
    if isinstance(spec, SweepSpec):
        spec = replace(spec, base=_apply_overrides(spec.base, args))
        results = run_sweep(spec)
        metrics = spec.metrics
    else:
        spec = _apply_overrides(spec, args)
        results = [run_scenario(spec)]
        metrics = spec.metrics
    _print_summary(results)
    _write_output(results, metrics, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = config.load_sweep(_resolve_input(args.sweep))
    sweep = replace(sweep, base=_apply_overrides(sweep.base, args))
    results = run_sweep(sweep)
    _print_summary(results)
    _write_output(results, sweep.metrics, args.out)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    spec = config.load_scenario(_resolve_input(args.scenario))
    spec = _apply_overrides(spec, args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if not (args.dt > 0 and math.isfinite(args.dt)):
        raise ConfigError(f"--dt must be positive and finite, got {args.dt}")
    nominal = spec.scaled_route()
    dt = args.dt
    worst_bytes = 0.0
    worst_time = 0.0
    failures = 0
    for k in range(args.seeds):
        err_k = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, err_k)
        seed_bytes = 0.0
        seed_time = 0.0
        ok = True
        for p in spec.policies:
            analytic = run_trip(realized, nominal, spec.task, p, err_k, spec.energy)
            stepped = run_trip_stepped(realized, nominal, spec.task, p, err_k, dt=dt)
            report = compare_runs(analytic, stepped, spec.task.size_mb,
                                  realized.total_time, dt=dt)
            seed_bytes = max(seed_bytes, report.byte_dev_mb)
            seed_time = max(seed_time, report.time_dev_s)
            ok = ok and report.within(spec.task.size_mb, dt=dt)
        status = "ok" if ok else "FAIL"
        print(f"seed {k:3d}: max byte dev {seed_bytes:.6f} MB, "
              f"max time dev {seed_time:.4f} s  [{status}]")
        worst_bytes = max(worst_bytes, seed_bytes)
        worst_time = max(worst_time, seed_time)
        failures += 0 if ok else 1
    print(f"worst over {args.seeds} seeds: {worst_bytes:.6f} MB, {worst_time:.4f} s; "
          f"{failures} failing seed(s)")
    return 0 if failures == 0 else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", help="comma-separated policy list override")
    parser.add_argument("--runs", type=int, help="Monte-Carlo runs override")
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--time-error", type=float, dest="time_error",
                        help="time error fraction override")
    parser.add_argument("--thr-error", type=float, dest="thr_error",
                        help="throughput error fraction override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offloadsim",
        description="Vehicular WiFi-offloading simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON or bundled name")
    p_run.add_argument("--out", help="CSV output path")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep recipe")
    p_sweep.add_argument("--sweep", required=True, help="sweep JSON or bundled name")
    p_sweep.add_argument("--out", help="CSV output path")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare the analytic engine against the time-stepped simulator",
    )
    p_oracle.add_argument("--scenario", required=True)
    p_oracle.add_argument("--seeds", type=int, default=50)
    p_oracle.add_argument("--dt", type=float, default=DEFAULT_DT,
                          help="oracle step size in seconds")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
