"""offloadsim benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is used from ``src/``.
With ``--trace 0`` the run repeats fresh-process jobs of the workload for
``--seconds`` seconds, adds set-up probes until it has ``SETUP_SAMPLES`` set-up
times, and reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed
number of untraced and traced jobs in alternation and reports per-layer
metrics.  Human-readable lines come first; the last line of standard output is
the JSON result.  Every job's outputs are checked against ``golden.json``.
A full record of the run (machine, counts, samples) goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The parent never imports offloadsim (its import is what set-up probes
# time), so it cannot import jobs.py; these two lists repeat that file's.
WORKLOADS = ("cli-run", "figures", "random-trips", "oracle-check")
SCENARIOS = ("dt-default", "ds-default")
SETUP_SAMPLES = 5
TRACE_PAIRS = 2  # untraced/traced job pairs in a --trace 1 run
BUDGET_S = 170.0  # the whole run, including set-up probes

clock = time.perf_counter


# -- machine record ----------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def load_and_steal() -> dict:
    """Load average and CPU ticks (all, steal) from /proc at this moment."""
    fields = (_read("/proc/stat").splitlines() or ["cpu"])[0].split()[1:]
    ticks = [int(x) for x in fields]
    return {
        "loadavg": _read("/proc/loadavg").split()[:3],
        "ticks_total": sum(ticks),
        "ticks_steal": ticks[7] if len(ticks) > 7 else 0,
    }


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one process, no extra threads: keep numpy's BLAS pool at one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts children one at a time, times them and reaps every one."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()
        self.spawned = 0

    def spawn(self, cmd: list[str]) -> dict:
        """Run ``cmd`` to exit; returns launch/exit marks, code, peak RSS, stderr."""
        self.spawned += 1
        err_path = OUT / "child.err"
        with open(err_path, "w", encoding="utf-8") as err:
            launch = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - clock()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            exited = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8")
        err_path.unlink()
        return {"launch": launch, "exit": exited, "code": proc.returncode,
                "rss_kb": usage.ru_maxrss, "stderr": stderr}

    def worker(self, mode: str, workload: str, seed: int, trace: bool = False) -> dict:
        result_path = OUT / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "jobs.py"), mode, "--workload", workload,
               "--seed", str(seed), "--result", str(result_path)]
        if trace:
            cmd.append("--trace")
        run = self.spawn(cmd)
        run["ok"] = run["code"] == 0 and result_path.is_file()
        if run["ok"]:
            run.update(json.loads(result_path.read_text(encoding="utf-8")))
            result_path.unlink()
        return run

    def cli(self, scenario: str) -> dict:
        out = OUT / f"cli-{scenario}.csv"
        out.unlink(missing_ok=True)
        run = self.spawn([sys.executable, "-m", "offloadsim.cli", "run",
                          "--scenario", scenario, "--out", str(out)])
        run["ok"] = run["code"] == 0 and out.is_file()
        run["csv"] = out.read_text(encoding="utf-8") if run["ok"] else None
        return run

    def importtime(self) -> dict:
        """Cumulative import seconds of the CLI and of scipy, fresh interpreter."""
        run = self.spawn([sys.executable, "-X", "importtime", "-c", "import offloadsim.cli"])
        if run["code"] != 0:
            raise RuntimeError(f"import of offloadsim.cli failed:\n{run['stderr'][-2000:]}")
        return parse_importtime(run["stderr"])


def parse_importtime(text: str) -> dict:
    """Sum cumulative times of the outermost ``offloadsim*`` and ``scipy*`` entries.

    ``-X importtime`` prints each module after the ones it imported, indented
    by nesting depth; read backwards, every parent comes before its children.
    """
    totals = {"offloadsim": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []  # (depth, top package counted above)
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative_us = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        counted = stack[-1][1] if stack else ""
        top = name.split(".")[0]
        if top in totals and counted != top:
            totals[top] += cumulative_us / 1e6
            counted = top
        stack.append((depth, counted))
    return {"cli_import_s": totals["offloadsim"], "scipy_import_s": totals["scipy"]}


# -- statistics ----------------------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run -------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, golden: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.golden = golden
        self.started = clock()
        self.runner = Runner(self.started + BUDGET_S)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.info = {}
        self.calibrations: list[float] = []
        self.calibrated_at = -1  # spawn count right after the last reference

    def warm_up(self) -> None:
        """One untimed set-up, so no timed run pays for compiling or a cold
        file cache; for cli-run it also reports the trips each scenario asks."""
        probe = self.runner.worker("setup", self.workload, self.seed)
        if not probe["ok"]:
            raise RuntimeError(f"set-up failed:\n{probe['stderr'][-2000:]}")
        self.info = probe

    def calibrate(self) -> float:
        """Seconds the import reference takes right now."""
        probe = self.runner.spawn([sys.executable, "-c", calibrate.IMPORT_PROBE])
        if probe["code"] != 0:
            raise RuntimeError(f"reference import failed:\n{probe['stderr'][-2000:]}")
        self.calibrations.append(probe["exit"] - probe["launch"])
        self.calibrated_at = self.runner.spawned
        return self.calibrations[-1]

    def bracketed(self, start) -> dict:
        """Run one set-up-dominated child between two import references and
        attach the factor that scales its times to the reference machine."""
        if self.calibrated_at != self.runner.spawned:
            self.calibrate()
        before = self.calibrations[-1]
        child = start()
        after = self.calibrate()
        child["import_scale"] = calibrate.IMPORT_REF_S / ((before + after) / 2)
        return child

    def account(self, job: dict) -> None:
        if job["ok"]:
            self.attempted += job["attempted"]
            self.failed += job["failed"]
            self.messages += job["messages"]
        else:  # a crashed job is one failed operation
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"job exited {job['code']}: {job['stderr'][-500:]}")

    def cli_job(self, index: int) -> dict:
        order = SCENARIOS if self.seed % 2 == 0 else SCENARIOS[::-1]
        scenario = order[index % 2]
        run = self.runner.cli(scenario)
        run["requested"] = self.info["requested"][scenario]
        if run["ok"]:
            want = self.golden.get(f"cli-run:{scenario}")
            got = sha256(run.pop("csv"))
            ok = got == want
            run.update(attempted=1, failed=int(not ok),
                       messages=[] if ok else [f"{scenario}: CSV digest {got[:12]} != golden"])
        return run

    def setup_probe(self) -> dict:
        probe = self.bracketed(lambda: self.runner.worker("setup", self.workload, self.seed))
        if not probe["ok"]:
            raise RuntimeError(f"set-up failed:\n{probe['stderr'][-2000:]}")
        return probe

    def timed(self) -> tuple[dict, dict]:
        """End-to-end metrics from repeated fresh-process jobs."""
        self.warm_up()
        jobs = []
        begin = clock()
        # cli-run alternates its two scenarios, so it stops after a whole pair
        pair = 2 if self.workload == "cli-run" else 1
        while not jobs or len(jobs) % pair or clock() - begin < self.seconds:
            if self.workload == "cli-run":
                job = self.bracketed(lambda: self.cli_job(len(jobs)))
            else:
                job = self.runner.worker("job", self.workload, self.seed)
            self.account(job)
            jobs.append(job)
            if clock() > self.runner.deadline:
                break
        good = [j for j in jobs if j["ok"]]
        if not good:
            raise RuntimeError("no job finished: " + "; ".join(self.messages[-3:]))
        probes = [self.setup_probe() for _ in range(SETUP_SAMPLES)]
        raw_setups = [p["ready"] - p["launch"] for p in probes]
        setups = [r * p["import_scale"] for r, p in zip(raw_setups, probes)]
        setup_s = statistics.median(setups)

        if self.workload == "cli-run":
            # The command has no "ready" mark: its work is the whole cold
            # invocation, which set-up dominates, so it scales as set-up does.
            raw_works = [j["exit"] - j["launch"] for j in good]
            works = [r * j["import_scale"] for r, j in zip(raw_works, good)]
            totals = works
            lat = [w / j["requested"] for w, j in zip(works, good)]
        else:
            raw_works = [j["raw_work_s"] for j in good]
            works = [j["work_s"] for j in good]
            totals = [setup_s + w for w in works]
            lat = [x for j in good for x in j["lat_s"]]
        requested = sum(j["requested"] for j in good)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "total_s": metric(statistics.median(totals), "s"),
            "trips_per_s": metric(requested / sum(works), "1/s"),
            "trip_us_p50": metric(statistics.median(lat) * 1e6, "us"),
            "peak_rss_mb": metric(max(j["rss_kb"] for j in good) / 1024.0, "MB"),
        }
        detail = {
            # Printed and recorded, not gated: on a shared machine the tail
            # measures the neighbours more than the program (see README).
            "trip_us_p99": quantile(lat, 99) * 1e6,
            "jobs": len(jobs),
            "setup_samples": len(setups),
            "trip_latency_samples": len(lat),
            "trips_requested": requested,
            "counts": sum_counts(good),
            "error_rate": self.failed / max(1, self.attempted),
            "unscaled": {
                "setup_s": statistics.median(raw_setups),
                "trips_per_s": requested / sum(raw_works),
            },
            "samples": {"setup_s": setups, "work_s": works,
                        "raw_setup_s": raw_setups, "raw_work_s": raw_works},
            "import_references_s": self.calibrations,
        }
        return metrics, detail

    def traced(self) -> tuple[dict, dict]:
        """Per-layer metrics from alternating untraced and traced jobs."""
        self.warm_up()
        plain, traced = [], []
        for i in range(TRACE_PAIRS):
            first = (self.seed + i) % 2 == 1
            for trace in (first, not first):
                job = self.runner.worker("job", self.workload, self.seed, trace=trace)
                self.account(job)
                if not job["ok"]:
                    raise RuntimeError(f"traced job failed:\n{job['stderr'][-2000:]}")
                (traced if trace else plain).append(job)
        imports = self.bracketed(self.runner.importtime)

        reports = [j["trace"] for j in traced]
        checks = []
        if any(r["counts"] != reports[0]["counts"] or r["calls"] != reports[0]["calls"]
               for r in reports):
            checks.append("exact counts differ between traced jobs")
        for r in reports:
            if sum(r["self_s"].values()) > r["wall_s"]:
                checks.append("self times exceed the traced wall time")
        self.messages += checks
        self.attempted += len(reports) + 1
        self.failed += len(checks)

        def work(jobs):
            return sum(j["work_s"] for j in jobs)

        requested = traced[0]["requested"]
        scales = [j["work_s"] / j["raw_work_s"] for j in traced]
        metrics = layer_metrics(reports, scales, requested, imports,
                                overhead=work(traced) / work(plain))
        detail = {
            "absent": reports[0]["absent"],
            "unobserved": sorted({n for r in reports for n in r["unobserved"]}),
            "trace_reports": reports,
            "counts": sum_counts(traced[:1]),
            "trips_requested": requested,
            "imports": imports,
            "error_rate": self.failed / max(1, self.attempted),
            "import_references_s": self.calibrations,
        }
        return metrics, detail


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sum_counts(jobs: list[dict]) -> dict:
    out: dict[str, int] = {}
    for j in jobs:
        for k, v in j.get("counts", {}).items():
            out[k] = out.get(k, 0) + v
    return out


def layer_metrics(reports: list[dict], scales: list[float], requested: int,
                  imports: dict, overhead: float) -> dict:
    """Per-layer metrics: self times scaled to the reference machine and
    averaged over the traced jobs; exact counts from the first (they are
    checked equal across jobs)."""
    first = reports[0]
    calls, counts, entries = first["calls"], first["counts"], first["entries"]

    def self_s(*names: str) -> float:
        return statistics.fmean(k * sum(r["self_s"].get(n, 0.0) for n in names)
                                for r, k in zip(reports, scales))

    def layer_self(layer: str) -> float:
        return statistics.fmean(k * sum(v for n, v in r["self_s"].items()
                                        if n.startswith(layer + "."))
                                for r, k in zip(reports, scales))

    predictions = calls.get("prediction.build_prediction", 0)
    executed = calls.get("engine.run_trip", 0)
    self_share = statistics.fmean(sum(r["self_s"].values()) / r["wall_s"] for r in reports)
    import_scale = imports["import_scale"]
    s, c = "s", "count"
    rows = [
        ("cli.import_s", imports["cli_import_s"] * import_scale, s),
        ("cli.main.self_s", self_s("cli.main"), s),
        ("cli.main.calls", calls.get("cli.main", 0), c),
        ("config.load_s", layer_self("config"), s),
        ("config.load.calls", entries["config"], c),
        ("model.scale_route.self_s", self_s("model.scale_route"), s),
        ("model.scale_route.calls", calls.get("model.scale_route", 0), c),
        ("prediction.build_prediction.self_s", self_s("prediction.build_prediction"), s),
        ("prediction.build_prediction.calls", predictions, c),
        ("prediction.build_prediction.distinct_inputs", counts["prediction_inputs"], c),
        ("prediction.build_prediction.distinct_ratio",
         counts["prediction_inputs"] / predictions if predictions else 0.0, "ratio"),
        ("prediction.realize_route.self_s", self_s("prediction.realize_route"), s),
        ("prediction.realize_route.calls", calls.get("prediction.realize_route", 0), c),
        ("policies.plan.self_s", layer_self("policies"), s),
        ("policies.plan.calls", entries["policies"], c),
        ("policies.plan_infeasible", counts["plan_infeasible"], c),
        ("engine.run_trip.self_s", self_s("engine.run_trip"), s),
        ("engine.run_trip.calls", executed, c),
        ("engine.integrate_transfer.self_s", self_s("engine.integrate_transfer"), s),
        ("engine.integrate_transfer.calls", calls.get("engine.integrate_transfer", 0), c),
        ("engine.account_energy.self_s", self_s("engine.account_energy"), s),
        ("engine.deadline_misses", counts["deadline_misses"], c),
        ("ranges.self_s", layer_self("ranges"), s),
        ("ranges.calls", entries["ranges"], c),
        ("ranges.max_intervals", counts["max_intervals"], c),
        ("metrics.import_scipy_s", imports["scipy_import_s"] * import_scale, s),
        ("metrics.aggregate.self_s",
         self_s("metrics.run_sweep", "metrics.run_scenario", "metrics.derive_run_seed"), s),
        ("metrics.ci_halfwidth.self_s", self_s("metrics.ci_halfwidth"), s),
        ("metrics.ci_halfwidth.calls", calls.get("metrics.ci_halfwidth", 0), c),
        ("metrics.render_csv.self_s", self_s("metrics.render_csv"), s),
        ("metrics.trips_requested", requested, c),
        ("metrics.trips_executed_ratio", executed / requested if requested else 0.0, "ratio"),
        ("oracle.run_trip_stepped.self_s", self_s("oracle.run_trip_stepped"), s),
        ("oracle.run_trip_stepped.calls", calls.get("oracle.run_trip_stepped", 0), c),
        ("oracle.compare_runs.self_s", self_s("oracle.compare_runs"), s),
        ("oracle.steps_computed", counts["oracle_steps"], c),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.self_share", self_share, "ratio"),
    ]
    return {name: metric(value, unit) for name, value, unit in rows}


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "offloadsim" / "__init__.py").is_file():
        print(f"error: no offloadsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    golden_path = HERE / "golden.json"
    if not golden_path.is_file():
        print(f"error: {golden_path} is missing", file=sys.stderr)
        return 2
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    # the build: byte-compile once, so no timed process compiles
    compileall.compile_dir(str(SRC / "offloadsim"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    before = load_and_steal()
    bench = Bench(args.workload, args.seed, args.seconds, golden)
    try:
        metrics, detail = bench.traced() if args.trace else bench.timed()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    after = load_and_steal()
    ticks = after["ticks_total"] - before["ticks_total"]
    steal = after["ticks_steal"] - before["ticks_steal"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": clock() - bench.started,
        "machine": {**machine(), "start": before, "end": after,
                    "steal_share": steal / ticks if ticks else 0.0},
        "attempted": bench.attempted, "failed": bench.failed,
        "messages": bench.messages[:50], "metrics": metrics, **detail,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    m = record["machine"]
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, load {' '.join(before['loadavg'])} -> "
          f"{' '.join(after['loadavg'])}, steal {m['steal_share']:.2%}")
    for name, v in metrics.items():
        print(f"{args.workload:>13} {name:<44} {v['value']:>14.6g} {v['unit']}")
    if not args.trace:
        print(f"{args.workload:>13} {'trip_us_p99 (not gated)':<44} "
              f"{detail['trip_us_p99']:>14.6g} us")
    print(f"{args.workload:>13} {'error_rate':<44} {detail['error_rate']:>14.6g} "
          f"ratio ({bench.failed}/{bench.attempted})")
    if args.trace:
        print("wait times: none reported; all work is single-threaded with no queues")
        for name in detail["absent"]:
            print(f"absent: {name} (no longer in the package)")
        for name in detail["unobserved"]:
            print(f"unobserved: counts of {name} could not be read")
    else:
        print(f"samples: {detail['jobs']} jobs, {detail['setup_samples']} set-ups, "
              f"{detail['trip_latency_samples']} trip latencies")
    for msg in bench.messages[:10]:
        print(f"check: {msg}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
