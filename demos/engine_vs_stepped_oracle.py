#!/usr/bin/env python3
"""Cross-check the analytic engine against the brute-force stepped simulator.

The engine integrates each trip in closed form; the oracle marches the same
trip in 10 ms steps with its own state representation.  Their per-channel
byte totals and completion times must agree within 0.1% of the object size
and 0.05 s plus one step.
"""

from dataclasses import replace

from offloadsim import compare_runs, realize_route, run_trip, run_trip_stepped
from offloadsim.config import bundled_scenario_path, load_scenario
from offloadsim.metrics import derive_run_seed


def main():
    for name in ("scenario_dt_default", "scenario_ds_default"):
        spec = load_scenario(str(bundled_scenario_path(name)))
        nominal = spec.scaled_route()
        print(f"{spec.scenario_id}: {spec.task.size_mb:.0f} MB, "
              f"{len(spec.policies)} policies, 10 seeds")
        worst_bytes = worst_time = 0.0
        for k in range(10):
            errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
            realized = realize_route(nominal, errors)
            for policy in spec.policies:
                analytic = run_trip(realized, nominal, spec.task, policy, errors,
                                    spec.energy)
                stepped = run_trip_stepped(realized, nominal, spec.task, policy,
                                           errors)
                rep = compare_runs(analytic, stepped, spec.task.size_mb,
                                   realized.total_time)
                worst_bytes = max(worst_bytes, rep.byte_dev_mb)
                worst_time = max(worst_time, rep.time_dev_s)
                assert rep.within(spec.task.size_mb), (k, policy, rep)
        print(f"  worst deviation: {worst_bytes:.3e} MB, {worst_time:.3e} s  (ok)")
    print()
    print("Same check from the command line: offloadsim oracle-check "
          "--scenario ds-default --seeds 50")


if __name__ == "__main__":
    main()
