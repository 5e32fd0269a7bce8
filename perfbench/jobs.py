"""One job of one workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/jobs.py setup --workload figures --result OUT.json
    python3 perfbench/jobs.py job --workload random-trips --seed 3 --result OUT.json [--trace]

``setup`` imports the package, loads the workload's configuration and stops:
it is the set-up probe.  ``job`` does the same and then the workload's fixed
work, checking every output against ``golden.json``.  Either way the result
goes to ``--result`` as JSON.  Its ``ready`` mark is a ``perf_counter`` time
that ``run.py`` compares with its own launch time (both read the system-wide
monotonic clock); a job also reports its work time scaled to the reference
machine (see ``calibrate.py``), its per-trip latencies and its exact counts.
Everything is called through the package's public names, looked up at call
time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import offloadsim as osim  # noqa: E402
from offloadsim import config  # noqa: E402

from calibrate import Meter  # noqa: E402
from routes import random_long_route, run_seed, tasks_for  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("cli-run", "figures", "random-trips", "oracle-check")
SCENARIOS = ("dt-default", "ds-default")
RECIPES = ("fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b",
           "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "fig7d",
           "fig8a", "fig8b", "fig9a", "fig9b")

# Inputs of random-trips and oracle-check come from ``seed % BANK``; golden
# digests exist for every bank entry, so every seed is checked.
BANK = 16
ROUTES_PER_JOB = 240
ROUTES_PER_CHUNK = 10  # one golden digest per chunk of routes
ROUTES_PER_UNIT = 2  # routes timed between two compute reference runs
TRIP_ERRORS = (0.10, 0.20)  # time and throughput error of random-trips
ORACLE_REALIZATIONS = 10  # per default scenario
ORACLE_DT = 0.01  # the CLI's default step
# random-trips runs every policy on each route; delay-sensitive last
DT_POLICIES = ("prefetch-dt", "prediction-dt", "no-prediction", "mobile-only")
DS_POLICIES = ("prefetch-ds",)
TRIPS_PER_ROUTE = len(DT_POLICIES) + len(DS_POLICIES)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_path(name: str) -> str:
    return str(config.bundled_scenario_path(f"scenario_{name.replace('-', '_')}"))


def outcome_line(o) -> str:
    """A RunOutcome at the CSV's precision (10 significant digits)."""
    e = o.energy
    vals = (o.offload_pct, o.transfer_delay, e.mobile_j, e.wifi_transfer_j,
            e.wifi_idle_j, o.mobile_mb, o.wifi_local_mb, o.wifi_backhaul_mb,
            o.cache_bytes_used)
    done = "-" if o.completion_time is None else f"{o.completion_time:.10g}"
    flags = f"{int(o.deadline_met)}{int(o.completed)}{int(o.plan_infeasible)}"
    return ",".join(f"{v:.10g}" for v in vals) + f",{done},{flags}"


# -- set-up: import (done above), then configuration ------------------------

def setup(workload: str):
    if workload == "cli-run":
        import offloadsim.cli  # noqa: F401  (what the command imports)
        return {sc: config.load_experiment(scenario_path(sc)) for sc in SCENARIOS}
    if workload == "figures":
        return {name: config.load_sweep(str(config.bundled_recipe_path(name)))
                for name in RECIPES}
    if workload == "random-trips":
        return config.load_energy_model()
    if workload == "oracle-check":
        return {sc: config.load_scenario(scenario_path(sc)) for sc in SCENARIOS}
    raise ValueError(f"unknown workload {workload!r}")


def requested_trips(spec) -> int:
    return spec.runs * len(spec.policies)


# -- work: each returns (meter, requested, ops, latencies, counts) ---------
# The meter holds the work time, scaled unit by unit; ``requested`` counts
# the trips the input asks for; ``ops`` lists (name, ok, digest-or-None);
# latencies are scaled seconds per trip.

def cli_work(ctx, seed: int, out_dir: Path):
    import offloadsim.cli as cli

    order = SCENARIOS if seed % 2 == 0 else SCENARIOS[::-1]
    ops, lat = [], []
    requested = 0
    meter = Meter()
    for sc in order:
        out = out_dir / f"inproc-{sc}.csv"
        out.unlink(missing_ok=True)
        n = requested_trips(ctx[sc])
        t0 = clock()
        code = cli.main(["run", "--scenario", sc, "--out", str(out)])
        spent = clock() - t0
        lat.append(spent * meter.add(spent) / n)
        requested += n
        ok = code == 0 and out.is_file()
        ops.append((sc, ok, sha256(out.read_text(encoding="utf-8")) if ok else None))
    return meter, requested, ops, lat, {}


def figures_work(ctx, seed: int):
    """Each recipe through run_sweep and render_csv.  Every sweep point is
    one run_sweep call on a one-value copy of the recipe, so that it is a
    unit of its own; the rendered CSV is the recipe's, checked byte for byte."""
    order = list(RECIPES)
    random.Random(seed).shuffle(order)
    ops, lat = [], []
    requested = misses = 0
    meter = Meter()
    for name in order:
        sweep = ctx[name]
        n = requested_trips(sweep.base)
        requested += n * len(sweep.values)
        results = []
        try:
            for value in sweep.values:
                t0 = clock()
                results += osim.run_sweep(replace(sweep, values=(value,)))
                spent = clock() - t0
                lat.append(spent * meter.add(spent) / n)
            t0 = clock()
            text = osim.render_csv(results, sweep.metrics)
            meter.add(clock() - t0)
        except Exception:  # one failed recipe is one failed operation
            traceback.print_exc()
            ops.append((name, False, None))
            continue
        ops.append((name, True, sha256(text)))
        misses += sum(r.infeasible[p] for r in results for p in r.policies)
    return meter, requested, ops, lat, {"deadline_misses": misses}


def random_trip_inputs(bank_seed: int):
    """Routes, tasks and error specs of one job: benchmark input, not timed."""
    dt_pol = [osim.Policy(p) for p in DT_POLICIES]
    ds_pol = [osim.Policy(p) for p in DS_POLICIES]
    inputs = []
    for j in range(ROUTES_PER_JOB):
        route, size = random_long_route(bank_seed, j)
        dt_task, ds_task = tasks_for(route, size)
        errors = osim.ErrorSpec(*TRIP_ERRORS, seed=run_seed(bank_seed, j))
        runs = [(p, dt_task) for p in dt_pol] + [(p, ds_task) for p in ds_pol]
        inputs.append((route, errors, runs))
    return inputs


def random_trips_work(energy, seed: int):
    bank_seed = seed % BANK
    inputs = random_trip_inputs(bank_seed)
    outcomes, lat = [], []
    meter = Meter()
    for u in range(0, len(inputs), ROUTES_PER_UNIT):
        unit_lat = []
        t0 = clock()
        for route, errors, runs in inputs[u:u + ROUTES_PER_UNIT]:
            realized = osim.realize_route(route, errors)
            for policy, task in runs:
                t1 = clock()
                outcomes.append(osim.run_trip(realized, route, task, policy, errors, energy))
                unit_lat.append(clock() - t1)
        scale = meter.add(clock() - t0)
        lat += [x * scale for x in unit_lat]
    per_chunk = ROUTES_PER_CHUNK * TRIPS_PER_ROUTE
    ops = []
    for c in range(0, len(outcomes), per_chunk):
        chunk = outcomes[c:c + per_chunk]
        ops.append((f"{bank_seed}/{c // per_chunk}", True,
                    sha256("\n".join(outcome_line(o) for o in chunk))))
    counts = {
        "deadline_misses": sum(not o.deadline_met for o in outcomes),
        "plan_infeasible": sum(o.plan_infeasible for o in outcomes),
    }
    return meter, len(outcomes), ops, lat, counts


def oracle_work(specs, seed: int):
    bank_seed = seed % BANK
    verdicts, lat = [], []
    misses = infeasible = 0
    meter = Meter()
    for sc in SCENARIOS:
        spec = replace(specs[sc], seed=bank_seed)
        nominal = spec.scaled_route()
        size = spec.task.size_mb
        for k in range(ORACLE_REALIZATIONS):
            unit_lat = []
            t0 = clock()
            errors = replace(spec.errors, seed=osim.derive_run_seed(spec.seed, k))
            realized = osim.realize_route(nominal, errors)
            for policy in spec.policies:
                t1 = clock()
                analytic = osim.run_trip(realized, nominal, spec.task, policy,
                                         errors, spec.energy)
                stepped = osim.run_trip_stepped(realized, nominal, spec.task,
                                                policy, errors, dt=ORACLE_DT)
                report = osim.compare_runs(analytic, stepped, size,
                                           realized.total_time, dt=ORACLE_DT)
                ok = report.within(size, dt=ORACLE_DT)
                unit_lat.append(clock() - t1)
                verdicts.append(f"{sc}/{k}/{policy.value}:{'agree' if ok else 'DIFFER'}")
                misses += not analytic.deadline_met
                infeasible += analytic.plan_infeasible
            scale = meter.add(clock() - t0)
            lat += [x * scale for x in unit_lat]
    # every check is an operation, and so is the verdict list against golden
    ops = [(v.rsplit(":", 1)[0], v.endswith(":agree"), None) for v in verdicts]
    ops.append((f"verdicts/{bank_seed}", True, sha256("\n".join(verdicts))))
    counts = {"deadline_misses": misses, "plan_infeasible": infeasible}
    return meter, len(verdicts), ops, lat, counts


def do_work(workload: str, ctx, seed: int, out_dir: Path):
    if workload == "cli-run":
        return cli_work(ctx, seed, out_dir)
    if workload == "figures":
        return figures_work(ctx, seed)
    if workload == "random-trips":
        return random_trips_work(ctx, seed)
    return oracle_work(ctx, seed)


def golden_key(workload: str, name: str) -> str:
    return f"{workload}:{name}"


def check(workload: str, ops, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one job against the golden digests."""
    weight = ROUTES_PER_CHUNK * TRIPS_PER_ROUTE if workload == "random-trips" else 1
    attempted = failed = 0
    messages = []
    for name, ok, digest in ops:
        want = golden.get(golden_key(workload, name))
        if ok and digest is not None and digest != want:
            ok = False
            messages.append(f"{name}: digest {digest[:12]} != golden {str(want)[:12]}")
        elif not ok:
            messages.append(f"{name}: failed")
        attempted += weight
        failed += weight * (not ok)
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "job"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = setup(args.workload)
    ready = clock()
    result = {"ready": ready}
    if args.mode == "setup":
        if args.workload == "cli-run":
            result["requested"] = {sc: requested_trips(s) for sc, s in ctx.items()}
    else:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        out_dir = Path(args.result).parent
        meter, requested, ops, lat, counts = do_work(args.workload, ctx, args.seed, out_dir)
        end = clock()
        attempted, failed, messages = check(args.workload, ops, golden)
        result.update(work_s=meter.scaled_s, raw_work_s=meter.raw_s, requested=requested,
                      attempted=attempted, failed=failed, messages=messages,
                      lat_s=lat, counts=counts)
        if tracer is not None:
            result["trace"] = tracer.report(end, untraced_s=meter.reference_s)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
