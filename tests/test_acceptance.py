"""Acceptance gate: one test per headline claim, at its stated tolerance.

Each test prints a [PASS]/[FAIL] line (run with ``pytest -s`` to see them
live).  Sweeps reuse the bundled recipes, so every number here is
reproducible from the CLI with the same seed.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_task, random_route
from offloadsim.config import (
    bundled_recipe_path,
    bundled_scenario_path,
    load_scenario,
    load_sweep,
)
from offloadsim.engine import run_trip
from offloadsim.metrics import (
    ci_halfwidth,
    derive_run_seed,
    relative_gain,
    run_sweep,
)
from offloadsim.oracle import compare_runs, run_trip_stepped
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, build_prediction, realize_route
from offloadsim.policies import plan_exit_delay_sensitive, plan_exit_delay_tolerant

PF, PRED, NP = (Policy.PREFETCH_DELAY_TOLERANT,
                Policy.PREDICTION_ONLY_DELAY_TOLERANT,
                Policy.NO_PREDICTION_OFFLOAD)
DS, MO = Policy.PREFETCH_DELAY_SENSITIVE, Policy.MOBILE_ONLY


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def size_sweep_dt():
    return run_sweep(load_sweep(str(bundled_recipe_path("fig2a"))))


@pytest.fixture(scope="module")
def size_sweep_ds():
    return run_sweep(load_sweep(str(bundled_recipe_path("fig6a"))))


def test_c1_offload_advantage_across_sizes(size_sweep_dt):
    """Prefetch offload beats the no-prediction baseline by >65% relative at
    every object size."""
    gains = {}
    for res in size_sweep_dt:
        gains[res.scenario_id] = relative_gain(
            res.mean(PF, "offload_pct"), res.mean(NP, "offload_pct"))
    ok = all(g > 65.0 for g in gains.values())
    detail = ", ".join(f"{k.split('=')[1]} MB: +{v:.0f}%" for k, v in gains.items())
    assert report("C1 size-sweep offload advantage >65%", ok, detail)


def test_c2_energy_gains_at_40_and_70_mb(size_sweep_dt):
    """Energy advantage of prefetch over no-prediction: 70-100% at 40 MB,
    25-45% at 70 MB."""
    by_size = {res.scenario_id.split("=")[1]: res for res in size_sweep_dt}
    g40 = relative_gain(by_size["40"].mean(PF, "energy_j"),
                        by_size["40"].mean(NP, "energy_j"), lower_is_better=True)
    g70 = relative_gain(by_size["70"].mean(PF, "energy_j"),
                        by_size["70"].mean(NP, "energy_j"), lower_is_better=True)
    ok = 70.0 <= g40 <= 100.0 and 25.0 <= g70 <= 45.0
    assert report("C2 energy gains 40/70 MB", ok,
                  f"40 MB: {g40:.1f}% (want 70-100), 70 MB: {g70:.1f}% (want 25-45)")


def test_c3_mobile_throughput_insensitivity():
    """Planned policies barely move across M/4..M (<2 pp spread); the greedy
    baseline strictly loses offload as mobile throughput grows."""
    results = run_sweep(load_sweep(str(bundled_recipe_path("fig3a"))))
    spread_pf = max(r.mean(PF, "offload_pct") for r in results) - min(
        r.mean(PF, "offload_pct") for r in results)
    spread_pred = max(r.mean(PRED, "offload_pct") for r in results) - min(
        r.mean(PRED, "offload_pct") for r in results)
    np_means = [r.mean(NP, "offload_pct") for r in results]
    strictly_down = all(b < a for a, b in zip(np_means, np_means[1:]))
    ok = spread_pf < 2.0 and spread_pred < 2.0 and strictly_down
    assert report(
        "C3 mobile-throughput insensitivity", ok,
        f"prefetch spread {spread_pf:.2f} pp, prediction spread {spread_pred:.2f} pp, "
        f"no-prediction {['%.1f' % m for m in np_means]} strictly down: {strictly_down}",
    )


def test_c4_two_hotspot_advantage():
    """On the reconstructed 2-hotspot layout prefetch still beats prediction
    by >30% and no-prediction by >60% (directional tolerance)."""
    sweep = load_sweep(str(bundled_recipe_path("fig3d")))
    res = run_sweep(replace(sweep, values=(2.0,)))[0]
    g_pred = relative_gain(res.mean(PF, "offload_pct"), res.mean(PRED, "offload_pct"))
    g_np = relative_gain(res.mean(PF, "offload_pct"), res.mean(NP, "offload_pct"))
    ok = g_pred > 30.0 and g_np > 60.0
    assert report("C4 two-hotspot advantage", ok,
                  f"vs prediction +{g_pred:.0f}% (>30), vs no-prediction +{g_np:.0f}% (>60)")


def test_c5_delay_sensitive_transfer_delay(size_sweep_ds):
    """Delay-sensitive prefetch: 25-35% (+-10 pp) faster than mobile-only and
    15-25% (+-10 pp) faster than the no-prediction baseline at every size."""
    rows = []
    ok = True
    for res in size_sweep_ds:
        g_mo = relative_gain(res.mean(DS, "transfer_delay_s"),
                             res.mean(MO, "transfer_delay_s"), lower_is_better=True)
        g_np = relative_gain(res.mean(DS, "transfer_delay_s"),
                             res.mean(NP, "transfer_delay_s"), lower_is_better=True)
        ok = ok and 15.0 <= g_mo <= 45.0 and 5.0 <= g_np <= 35.0
        rows.append(f"{res.scenario_id.split('=')[1]} MB: mo {g_mo:.1f}/np {g_np:.1f}")
    assert report("C5 delay-sensitive delay gains", ok, "; ".join(rows))


def test_c6_time_error_leaves_mean_delay_flat():
    """Across 10-40% time error every delay-sensitive policy keeps its mean
    delay within 3% of the zero-error mean, while the delay CI half-width
    never shrinks (1% slack: half-widths are themselves 120-run estimates)."""
    sweep = load_sweep(str(bundled_recipe_path("fig8a")))
    results = run_sweep(replace(sweep, values=(0.0, 0.10, 0.20, 0.30, 0.40)))
    zero, swept = results[0], results[1:]
    ok = True
    worst = 0.0
    for p in sweep.base.policies:
        base = zero.mean(p, "transfer_delay_s")
        for res in swept:
            drift = abs(res.mean(p, "transfer_delay_s") - base) / base * 100
            worst = max(worst, drift)
            ok = ok and drift < 3.0
        widths = [r.summaries[p]["transfer_delay_s"].ci95 for r in swept]
        ok = ok and all(b >= a * 0.99 for a, b in zip(widths, widths[1:]))
    assert report("C6 delay flat under time error", ok,
                  f"worst mean drift {worst:.2f}% (<3%), CI widths non-decreasing")


def test_c7_energy_gains_at_high_throughput_error():
    """At 80% throughput error, delay-sensitive prefetch energy sits 20-40%
    below mobile-only and at least 5% below the no-prediction baseline."""
    sweep = load_sweep(str(bundled_recipe_path("fig9b")))
    res = run_sweep(replace(sweep, values=(0.80,)))[0]
    g_mo = relative_gain(res.mean(DS, "energy_j"), res.mean(MO, "energy_j"),
                         lower_is_better=True)
    g_np = relative_gain(res.mean(DS, "energy_j"), res.mean(NP, "energy_j"),
                         lower_is_better=True)
    ok = 20.0 <= g_mo <= 40.0 and g_np >= 5.0
    assert report("C7 energy gains at 80% throughput error", ok,
                  f"vs mobile-only {g_mo:.1f}% (want 20-40), "
                  f"vs no-prediction {g_np:.1f}% (want >=5)")


def test_c8_property_suite():
    """Conservation, plan idempotence, zero-error deadlines, the offset
    identity, size/rate monotonicity, and determinism over the bundled
    scenarios plus 1000 random small routes."""
    bundles = [load_scenario(str(bundled_scenario_path(n)))
               for n in ("scenario_dt_default", "scenario_ds_default")]
    # bundled scenarios: determinism + conservation + zero-error deadline
    for spec in bundles:
        nominal = spec.scaled_route()
        zero = ErrorSpec(0.0, 0.0, seed=1)
        realized_zero = realize_route(nominal, zero)
        for p in spec.policies:
            a = run_trip(realized_zero, nominal, spec.task, p, zero, spec.energy)
            b = run_trip(realized_zero, nominal, spec.task, p, zero, spec.energy)
            assert a == b
            total = a.mobile_mb + a.wifi_local_mb + a.wifi_backhaul_mb
            if a.completed:
                assert total == pytest.approx(spec.task.size_mb, abs=1e-6)
            if not a.plan_infeasible and p in (PF, PRED):
                assert a.deadline_met

    rng = np.random.default_rng(2024)
    zero = ErrorSpec(0.0, 0.0, seed=1)
    deadline_checked = 0
    for _ in range(1000):
        route = random_route(rng)
        errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)),
                           seed=int(rng.integers(1 << 30)))
        realized = realize_route(route, errors)
        size = float(rng.uniform(0.5, 100.0))
        task_dt = make_task(size, threshold=route.total_time)
        task_ds = make_task(size, threshold=route.total_time, sensitive=True)

        # conservation under realized errors, every policy family
        for task, policy in ((task_dt, PF), (task_dt, PRED), (task_dt, NP),
                             (task_ds, DS), (task_ds, MO)):
            out = run_trip(realized, route, task, policy, errors)
            total = out.mobile_mb + out.wifi_local_mb + out.wifi_backhaul_mb
            assert total <= size + 1e-6
            if out.completed:
                assert total == pytest.approx(size, abs=1e-6)

        # offset identity at the route start, both prefetching planners
        if route.n_hotspots:
            pred = build_prediction(route, 0.0, errors, use_local_rate=True)
            if pred.n_wifi:
                prefix = float(rng.uniform(0, 5))
                plan, cache = plan_exit_delay_tolerant(
                    size, route.total_time, pred, received_prefix_mb=prefix)
                assert cache.offset_mb - prefix == pytest.approx(
                    plan.mobile_rate * pred.time_to_next_wifi / 8, abs=1e-9)
                plan, cache = plan_exit_delay_sensitive(size, prefix, pred)
                assert cache.offset_mb - prefix == pytest.approx(
                    plan.mobile_rate * pred.time_to_next_wifi / 8, abs=1e-9)

        # zero-error deadline + size monotonicity for the planned policies
        if route.n_hotspots and route.mobile_time() > 0:
            realized_zero = realize_route(route, zero)
            for policy in (PF, PRED):
                out = run_trip(realized_zero, route, task_dt, policy, zero)
                if not out.plan_infeasible:
                    assert out.deadline_met
                    deadline_checked += 1
                bigger = run_trip(realized_zero, route,
                                  make_task(size * 1.3, threshold=route.total_time),
                                  policy, zero)
                assert bigger.offload_pct <= out.offload_pct + 1e-9
    assert deadline_checked >= 400
    assert report("C8 property suite", True,
                  f"1000 random routes + bundled scenarios "
                  f"({deadline_checked} feasible deadline checks)")


def test_c9_oracle_equivalence():
    """Analytic engine vs the 0.01 s stepped simulator: byte totals within
    0.1% of the object size and completion within 0.05 s plus one step,
    for both bundled scenarios across 50 seeds each, in under a minute."""
    started = time.monotonic()
    worst_bytes = worst_time = 0.0
    for name in ("scenario_dt_default", "scenario_ds_default"):
        spec = load_scenario(str(bundled_scenario_path(name)))
        nominal = spec.scaled_route()
        for k in range(50):
            errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
            realized = realize_route(nominal, errors)
            for p in spec.policies:
                analytic = run_trip(realized, nominal, spec.task, p, errors,
                                    spec.energy)
                stepped = run_trip_stepped(realized, nominal, spec.task, p, errors)
                rep = compare_runs(analytic, stepped, spec.task.size_mb,
                                   realized.total_time)
                assert rep.within(spec.task.size_mb), (name, k, p, rep)
                worst_bytes = max(worst_bytes, rep.byte_dev_mb)
                worst_time = max(worst_time, rep.time_dev_s)
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    assert report(
        "C9 oracle equivalence", ok,
        f"worst byte dev {worst_bytes:.2e} MB, worst time dev {worst_time:.2e} s, "
        f"{elapsed:.1f} s runtime",
    )


def test_c10_confidence_interval_closed_forms():
    """ci_halfwidth against closed forms: constants, the two-point t value,
    and 120 uniform samples."""
    ok = ci_halfwidth([3.3] * 120) == 0.0
    two_point = ci_halfwidth([0.0, 1.0])
    ok = ok and two_point == pytest.approx(6.3531023680161837, rel=1e-9)
    rng = np.random.default_rng(3)
    uniform = ci_halfwidth(rng.uniform(0, 1, size=120))
    ok = ok and uniform == pytest.approx(0.0517, rel=0.20)
    assert report("C10 CI closed forms", ok,
                  f"two-point {two_point:.4f}, uniform(120) {uniform:.4f}")
