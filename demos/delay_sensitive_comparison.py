#!/usr/bin/env python3
"""Delay-sensitive traffic: transfer delay and energy across sizes and errors.

Three schemes compete on the same realized trips: prediction + prefetching,
plain WiFi offloading without prediction, and staying on the mobile network.
Shows the size sweep, then how time and throughput estimation errors change
the picture.
"""

from offloadsim import Policy, relative_gain, run_sweep
from offloadsim.config import load_sweep

DS = Policy.PREFETCH_DELAY_SENSITIVE
NP = Policy.NO_PREDICTION_OFFLOAD
MO = Policy.MOBILE_ONLY


def show(results, metric, unit, lower_is_better=True):
    print(f"{'point':>22}  {'prefetch':>10}  {'no-pred':>10}  {'mobile-only':>11}  "
          f"{'vs mobile':>9}  {'vs no-pred':>10}")
    for res in results:
        point = res.scenario_id.split("@")[1]
        vals = [res.mean(p, metric) for p in (DS, NP, MO)]
        g_mo = relative_gain(vals[0], vals[2], lower_is_better=lower_is_better)
        g_np = relative_gain(vals[0], vals[1], lower_is_better=lower_is_better)
        print(f"{point:>22}  {vals[0]:>9.1f}{unit}  {vals[1]:>9.1f}{unit}  "
              f"{vals[2]:>10.1f}{unit}  {g_mo:>8.1f}%  {g_np:>9.1f}%")
    print()


def main():
    print("Transfer delay vs object size (mean of 120 paired runs)")
    show(run_sweep(load_sweep("fig6a")), "transfer_delay_s", "s")

    print("Transfer delay vs time estimation error (50 MB object)")
    sweep = load_sweep("fig8a")
    show(run_sweep(sweep), "transfer_delay_s", "s")

    print("Energy vs throughput estimation error (50 MB object)")
    sweep = load_sweep("fig9b")
    show(run_sweep(sweep), "energy_j", "J")

    print("Reading: the mean delay barely moves with time error (the CI widens")
    print("instead), while high throughput error erodes, but does not erase,")
    print("the prefetching advantage.")


if __name__ == "__main__":
    main()
