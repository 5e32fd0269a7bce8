#!/usr/bin/env python3
"""Walk through one delay-tolerant trip, event by event.

Loads the bundled 4-hotspot drive at the default one-third rate scaling and
plans on the nominal timeline at the route start and at every hotspot exit.
Between plans it moves the received prefix forward by a guessed pessimistic
delivery (the planned mobile rate up to the next hotspot, then that
hotspot's minimum rate over its minimum dwell), not by what the engine
delivers, so the plans printed are illustrations, not the engine's own.  It
then runs one realized trip through the engine and prints that outcome.
"""

from offloadsim import (
    ErrorSpec,
    Policy,
    TransferTask,
    build_prediction,
    plan_exit,
    realize_route,
    run_trip,
    scale_route,
)
from offloadsim.config import load_route


def main():
    nominal = scale_route(load_route("4ap"), 1 / 3, 1 / 3, 1 / 3)
    errors = ErrorSpec(time_error=0.10, throughput_error=0.20, seed=7)
    task = TransferTask(size_mb=60.0, delay_threshold=nominal.total_time)

    print(f"Route: {nominal.n_hotspots} hotspots over {nominal.total_time:.0f} s, "
          f"{nominal.mobile_time():.0f} s of mobile-only coverage")
    print(f"Task:  {task.size_mb:.0f} MB, deadline {task.delay_threshold:.0f} s, "
          f"errors {errors.time_error:.0%} time / {errors.throughput_error:.0%} throughput")
    print()

    # Recreate the planner's view at each decision point (nominal timeline).
    received = 0.0
    print("Planning points (what the node decides, from predictions only):")
    points = [(0.0, "route start")] + [
        (h.end_time, f"leaving hotspot {h.hotspot_index}") for h in nominal.hotspots
    ]
    forecasts = build_prediction(nominal, errors, horizon=task.delay_threshold)
    te, re = errors.time_error, errors.throughput_error
    for k, ((now, label), pred) in enumerate(zip(points, forecasts)):
        rate, _, amount, offset = plan_exit(
            Policy.PREFETCH_DELAY_TOLERANT, max(0.0, task.size_mb - received),
            task.delay_threshold - now, pred, received,
        )
        line = f"  t={now:5.1f}s ({label:18s}) mobile rate {rate:5.3f} Mbit/s"
        if amount > 0:
            line += (f", stage {amount:5.2f} MB at offset "
                     f"{offset:6.2f} MB for hotspot {pred.next_hotspot}")
        print(line)
        # assume the pessimistic delivery to move the walkthrough forward
        received += rate * pred.time_to_next_wifi / 8
        if pred.next_hotspot is not None:
            h = nominal.hotspots[k]  # its minimum local rate over its minimum dwell
            usable = min(h.end_time, task.delay_threshold) - h.start_time
            received += (1 - re) * h.wifi_local_rate * ((1 - te) * usable) / 8
        received = min(received, task.size_mb)

    print()
    realized = realize_route(nominal, errors)
    outcome = run_trip(realized, nominal, task, Policy.PREFETCH_DELAY_TOLERANT, errors)
    print("Realized outcome (one perturbed draw of the same trip):")
    print(f"  offload          {outcome.offload_pct:6.2f} %")
    print(f"  mobile bytes     {outcome.mobile_mb:6.2f} MB")
    print(f"  cache bytes      {outcome.wifi_local_mb:6.2f} MB served locally, "
          f"{outcome.wifi_backhaul_mb:.2f} MB via backhaul")
    print(f"  finished at      {outcome.transfer_delay:6.2f} s "
          f"(deadline met: {outcome.deadline_met})")
    print(f"  energy           {outcome.energy_j:6.1f} J "
          f"(mobile {outcome.energy.mobile_j:.0f}, wifi {outcome.energy.wifi_transfer_j:.0f}, "
          f"idle {outcome.energy.wifi_idle_j:.0f})")


if __name__ == "__main__":
    main()
