#!/usr/bin/env python3
"""Offloaded traffic and energy vs object size for delay-tolerant traffic.

Runs the bundled size-sweep recipe (120 paired Monte-Carlo runs per point)
and prints the three delay-tolerant policies side by side, with the relative
advantage of prediction + prefetching over the no-prediction baseline.
"""

from offloadsim import Policy, relative_gain, run_sweep
from offloadsim.config import load_sweep

PF = Policy.PREFETCH_DELAY_TOLERANT
PRED = Policy.PREDICTION_ONLY_DELAY_TOLERANT
NP = Policy.NO_PREDICTION_OFFLOAD


def main():
    sweep = load_sweep("fig2a")
    results = run_sweep(sweep)

    print("Offloaded traffic (% of object, mean over 120 runs, +-95% CI)")
    print(f"{'size':>6}  {'prefetch':>15}  {'prediction':>15}  {'no-prediction':>15}  {'gain':>7}")
    for res in results:
        size = res.scenario_id.split("=")[1]
        cells = []
        for p in (PF, PRED, NP):
            s = res.summaries[p]["offload_pct"]
            cells.append(f"{s.mean:6.2f} +-{s.ci95:4.2f}")
        gain = relative_gain(res.mean(PF, "offload_pct"), res.mean(NP, "offload_pct"))
        print(f"{size:>4} MB  {cells[0]:>15}  {cells[1]:>15}  {cells[2]:>15}  {gain:+6.0f}%")

    print()
    print("Energy (J, mean over the same runs; gain = prefetch vs no-prediction)")
    print(f"{'size':>6}  {'prefetch':>10}  {'prediction':>10}  {'no-prediction':>13}  {'gain':>7}")
    for res in results:
        size = res.scenario_id.split("=")[1]
        e = [res.mean(p, "energy_j") for p in (PF, PRED, NP)]
        gain = relative_gain(e[0], e[2], lower_is_better=True)
        print(f"{size:>4} MB  {e[0]:>10.0f}  {e[1]:>10.0f}  {e[2]:>13.0f}  {gain:6.1f}%")


if __name__ == "__main__":
    main()
