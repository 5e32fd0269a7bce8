"""Command-line front end: single scenarios, figure sweeps, oracle checks.

    offloadsim run --scenario dt-default --out run.csv
    offloadsim sweep --sweep fig2a --out fig2a.csv
    offloadsim figures --out figures/
    offloadsim oracle-check --scenario ds-default --seeds 50

Scenario and sweep arguments take a JSON file's path or a bundled name
(``dt-default``, ``ds-default``, ``fig2a`` ... ``fig9b``), by the rule that
resolves a reference inside a file (``config``).  ``figures`` writes
every bundled recipe's CSV, ``<name>.csv``, into one directory, each the bytes
``sweep --sweep <name>`` writes.  Exit codes: 0 on success, 1 when an oracle
check fails, 2 on a configuration error or an unwritable ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, Union

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
from .oracle import DEFAULT_DT, check_dt, compare_runs, run_trip_stepped
from .prediction import realize_route


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace,
                     swept: Optional[str] = None) -> ScenarioSpec:
    """Apply command-line overrides; a value the model rejects, or one for the
    parameter ``swept`` that every sweep point replaces, is named by its option."""
    if args.policy is not None:
        spec = config.checked("--policy", replace, spec, policies=tuple(
            config.parse_policy(p, "--policy") for p in args.policy.split(",")))
    if getattr(args, "runs", None) is not None:  # oracle-check takes no --runs
        spec = config.checked("--runs", replace, spec, runs=args.runs)
    if args.seed is not None:
        spec = config.checked("--seed", replace, spec, seed=args.seed)
    for option, field, value in (("--time-error", "time_error", args.time_error),
                                 ("--thr-error", "throughput_error", args.thr_error)):
        if value is not None and field == swept:
            raise ConfigError(f"{option}: {spec.scenario_id} sweeps {field}")
        if value is not None:  # the scenario rejects errors its route cannot take
            errors = config.checked(option, replace, spec.errors, **{field: value})
            spec = config.checked(option, replace, spec, errors=errors)
    return spec


def _print_summary(results: Sequence[AggregateResult]) -> None:
    header = f"{'scenario':<34} {'policy':<14} {'offload %':>12} {'delay s':>12} {'energy J':>12} {'miss':>5}"
    print(header)
    print("-" * len(header))
    for res in results:
        for p in res.policies:
            off, dly, enr = (res.summaries[p][m]
                             for m in ("offload_pct", "transfer_delay_s", "energy_j"))
            print(f"{res.scenario_id:<34} {p.cli_name:<14} {off.mean:>7.2f}±{off.ci95:<4.2f} "
                  f"{dly.mean:>7.2f}±{dly.ci95:<4.2f} {enr.mean:>7.1f}±{enr.ci95:<4.1f} "
                  f"{res.infeasible[p]:>5d}")


def _cmd_run(args: argparse.Namespace) -> int:
    """``run`` takes a scenario or a sweep file, ``sweep`` only a sweep file."""
    ref = args.sweep if args.command == "sweep" else args.scenario
    spec = (config.load_sweep if args.command == "sweep" else config.load_experiment)(ref)
    if isinstance(spec, SweepSpec):
        base = _apply_overrides(spec.base, args, swept=spec.parameter)
        if base is not spec.base:  # the points are built and checked again, before any run
            spec = config.checked(f"{spec.base.scenario_id}.sweep", replace, spec, base=base)
        points, metrics = spec.points, spec.metrics
    else:  # a scenario's CSV shows every metric
        points, metrics = [_apply_overrides(spec, args)], None
    results = [run_scenario(point) for point in points]
    _print_summary(results)
    if args.out:
        _write_out(args.out, render_csv(results, metrics))
    return 0


def _write_out(path: Union[str, Path], text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    print(f"wrote {path}")


def _cmd_figures(args: argparse.Namespace) -> int:
    """Every bundled recipe in one process: a scenario that several recipes
    share (the same sweep point shown for another metric) runs once."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    for name in config.RECIPES:  # read by data path: no file of its name stands in
        sweep = config.load_sweep(str(config.bundled_recipe_path(name)))
        _write_out(out / f"{name}.csv", render_csv(run_sweep(sweep), sweep.metrics))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    spec = config.load_experiment(args.scenario)
    if isinstance(spec, SweepSpec):
        raise ConfigError(f"--scenario: {args.scenario} is a sweep; "
                          "oracle-check takes one scenario")
    spec = _apply_overrides(spec, args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    # a realized segment lasts at most its nominal duration times 1 + time_error
    longest = max(s.duration for s in spec.route.segments) * (1 + spec.errors.time_error)
    config.checked("--dt", check_dt, args.dt, longest)
    nominal = spec.scaled_route()
    dt = args.dt
    worst_bytes = worst_time = 0.0
    failures = 0
    for k in range(args.seeds):
        err_k = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, err_k)
        seed_bytes = seed_time = 0.0
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
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--time-error", type=float, dest="time_error",
                        help="time error fraction override")
    parser.add_argument("--thr-error", type=float, dest="thr_error",
                        help="throughput error fraction override")


@functools.cache  # parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offloadsim",
        description="Vehicular WiFi-offloading simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, option, about in (("run", "--scenario", "run one scenario file"),
                                   ("sweep", "--sweep", "run a parameter sweep recipe")):
        p_run = sub.add_parser(command, help=about)
        p_run.add_argument(option, required=True, help=f"{option[2:]} JSON or bundled name")
        p_run.add_argument("--out", help="CSV output path")
        _add_common(p_run)
        p_run.add_argument("--runs", type=int, help="Monte-Carlo runs override")
        p_run.set_defaults(func=_cmd_run)

    p_figures = sub.add_parser("figures", help="write every bundled recipe's CSV")
    p_figures.add_argument("--out", required=True, help="output directory")
    p_figures.set_defaults(func=_cmd_figures)

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
