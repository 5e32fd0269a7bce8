import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import RECIPES, edge_routes, make_task, random_route
from offloadsim.config import bundled_recipe_path, bundled_scenario_path, load_scenario, load_sweep
from offloadsim.engine import _check_same_structure, _window_mobile_rate, run_trip
from offloadsim.metrics import apply_sweep_value, derive_run_seed
from offloadsim.model import MBIT_PER_MB, AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.oracle import STEP_CHUNK, StepOutcome, compare_runs, run_trip_stepped
from offloadsim.policies import Channel, Policy, PolicyClassMismatch, plan_exit
from offloadsim.prediction import ErrorSpec, build_prediction, realize_route

DT = (Policy.PREFETCH_DELAY_TOLERANT, Policy.PREDICTION_ONLY_DELAY_TOLERANT,
      Policy.NO_PREDICTION_OFFLOAD)
DS = (Policy.PREFETCH_DELAY_SENSITIVE, Policy.NO_PREDICTION_OFFLOAD,
      Policy.MOBILE_ONLY)


def check_agreement(route, task, policies, seeds, dt=0.01, time_error=0.10,
                    throughput_error=0.20):
    for seed in seeds:
        errors = ErrorSpec(time_error, throughput_error, seed=seed)
        realized = realize_route(route, errors)
        for policy in policies:
            analytic = run_trip(realized, route, task, policy, errors)
            stepped = run_trip_stepped(realized, route, task, policy, errors, dt=dt)
            report = compare_runs(analytic, stepped, task.size_mb,
                                  realized.total_time, dt=dt)
            assert report.within(task.size_mb, dt=dt), (seed, policy, report)


def test_delay_tolerant_agreement(default_route):
    check_agreement(default_route, make_task(60.0), DT, seeds=range(8))


def test_delay_sensitive_agreement(default_route):
    check_agreement(default_route, make_task(50.0, sensitive=True), DS, seeds=range(8))


def test_high_error_agreement(default_route):
    check_agreement(default_route, make_task(50.0, sensitive=True), DS,
                    seeds=range(8), time_error=0.40, throughput_error=0.80)


def test_random_route_agreement():
    """Engine and oracle agree over random and degenerate routes, both
    traffic classes and every policy each class admits, with deadlines that
    often fall inside a hotspot."""
    rng = np.random.default_rng(29)
    routes = [random_route(rng) for _ in range(150)]
    routes += [r for _ in range(8) for r in edge_routes(rng)]
    trips = in_hotspot = 0
    for route in routes:
        errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)),
                           seed=int(rng.integers(1 << 30)))
        realized = realize_route(route, errors)
        if route.hotspots and rng.random() < 0.5:
            hotspot = route.hotspots[int(rng.integers(route.n_hotspots))]
            threshold = hotspot.start_time + hotspot.duration * float(rng.uniform(0.1, 0.9))
            in_hotspot += 1
        else:
            threshold = route.total_time * float(rng.uniform(0.3, 1.2))
        size = float(rng.uniform(0.5, 120))
        for sensitive in (False, True):
            task = make_task(size, threshold=threshold, sensitive=sensitive)
            for policy in Policy:
                if not policy.admits(task.traffic_class):
                    continue
                analytic = run_trip(realized, route, task, policy, errors)
                stepped = run_trip_stepped(realized, route, task, policy, errors)
                report = compare_runs(analytic, stepped, task.size_mb,
                                      realized.total_time)
                assert report.within(task.size_mb), (route, task, policy, errors, report)
                trips += 1
    assert trips == 7 * len(routes) and in_hotspot >= 10


def test_mutation_detected(default_route):
    """A corrupted engine input must push the comparison past tolerance."""
    errors = ErrorSpec(0.10, 0.20, seed=5)
    task = make_task(60.0)
    realized = realize_route(default_route, errors)
    corrupted = scale_route(realized, wifi_factor=1.10)
    analytic = run_trip(corrupted, default_route, task,
                        Policy.PREFETCH_DELAY_TOLERANT, errors)
    stepped = run_trip_stepped(realized, default_route, task,
                               Policy.PREFETCH_DELAY_TOLERANT, errors)
    report = compare_runs(analytic, stepped, task.size_mb, realized.total_time)
    assert not report.within(task.size_mb)


def test_smaller_step_never_worse(default_route):
    errors = ErrorSpec(0.10, 0.20, seed=9)
    task = make_task(50.0, sensitive=True)
    realized = realize_route(default_route, errors)
    devs = {}
    for dt in (0.01, 0.001):
        worst = 0.0
        for policy in DS:
            analytic = run_trip(realized, default_route, task, policy, errors)
            stepped = run_trip_stepped(realized, default_route, task, policy,
                                       errors, dt=dt)
            report = compare_runs(analytic, stepped, task.size_mb,
                                  realized.total_time, dt=dt)
            worst = max(worst, report.byte_dev_mb, report.time_dev_s)
        devs[dt] = worst
    assert devs[0.001] <= devs[0.01] + 1e-9


def test_invalid_dt_rejected(default_route, zero_errors):
    realized = realize_route(default_route, zero_errors)
    for dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            run_trip_stepped(realized, default_route, make_task(60.0),
                             Policy.NO_PREDICTION_OFFLOAD, zero_errors, dt=dt)


def test_one_sided_route_end_completion_tolerated(default_route):
    """A completion within the step quantum of the route end may be reported
    by only one side; bytes must still agree."""
    from offloadsim.oracle import AgreementReport

    stepped = StepOutcome(10.0, 5.0, 5.0, None)
    analytic_like = run_trip(
        realize_route(default_route, ErrorSpec(0, 0, seed=1)),
        default_route, make_task(20.0), Policy.NO_PREDICTION_OFFLOAD,
        ErrorSpec(0, 0, seed=1),
    )
    report = compare_runs(analytic_like, stepped, 20.0,
                          route_end=analytic_like.completion_time + 0.01)
    assert isinstance(report, AgreementReport)
    assert report.status_match  # completion sits at the route end


def _figure_sweep_points():
    """Every distinct scenario behind the bundled figure recipes: sweep
    points equal but for their id and metrics filter count once."""
    points = {}
    for name in RECIPES:
        sweep = load_sweep(str(bundled_recipe_path(name)))
        for value in sweep.values:
            spec = apply_sweep_value(sweep.base, sweep.parameter, value)
            points.setdefault(replace(spec, scenario_id="", metrics=None), spec)
    return list(points.values())


SWEEP_POINTS = _figure_sweep_points()


def test_figure_sweep_point_count():
    assert len(SWEEP_POINTS) == 44


@pytest.mark.parametrize("spec", SWEEP_POINTS, ids=lambda spec: spec.scenario_id)
def test_figure_sweep_point_agreement(spec):
    """Engine and oracle agree at every figure sweep point, on the first
    five runs of the point's own seeds, at C9's step and tolerances."""
    nominal = spec.scaled_route()
    for k in range(5):
        errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, errors)
        for policy in spec.policies:
            analytic = run_trip(realized, nominal, spec.task, policy, errors,
                                spec.energy)
            stepped = run_trip_stepped(realized, nominal, spec.task, policy, errors)
            report = compare_runs(analytic, stepped, spec.task.size_mb,
                                  realized.total_time)
            assert report.within(spec.task.size_mb), (k, policy, report)


# -- the batched march against the step-by-step loop --------------------------

def reference_stepped(route_realized, route_nominal, task, policy, errors, dt=0.01):
    """The oracle as a plain step-by-step loop, kept as the reference that
    the batched march must equal bit for bit."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_same_structure(route_realized, route_nominal)
    if not policy.admits(task.traffic_class):
        raise PolicyClassMismatch(
            f"{policy.cli_name} cannot serve {task.traffic_class.value} traffic"
        )

    size = task.size_mb
    deadline = task.effective_deadline()
    horizon = None if math.isinf(deadline) else deadline
    prefix = 0.0
    totals = {Channel.MOBILE: 0.0, Channel.WIFI_LOCAL: 0.0, Channel.WIFI_BACKHAUL: 0.0}
    caches = {}
    completion = None

    def replan(now_nominal, now_realized):
        pred = build_prediction(
            route_nominal, now_nominal, errors,
            use_local_rate=policy.prefetches, horizon=horizon,
        )
        plan, cache = plan_exit(
            policy,
            max(0.0, size - prefix),
            deadline - now_realized if not math.isinf(deadline) else math.inf,
            pred,
            received_prefix_mb=prefix,
        )
        if cache is not None and cache.amount_mb > 0 and cache.hotspot_index is not None:
            caches[cache.hotspot_index] = cache
        return plan

    plan = replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(route_realized.segments,
                                           route_nominal.segments)):
        if completion is not None:
            break

        if seg.kind is AccessKind.MOBILE:
            rate = (min(plan.mobile_rate, seg.mobile_rate)
                    if policy.rate_limited else seg.mobile_rate)
            phases = [(Channel.MOBILE, rate, size)]
        elif policy is Policy.MOBILE_ONLY:
            window = _window_mobile_rate(route_realized, i)
            rate = min(plan.mobile_rate, window) if policy.rate_limited else window
            phases = [(Channel.MOBILE, rate, size)]
        else:
            cache = caches.get(seg.hotspot_index) if policy.prefetches else None
            if cache is not None:
                if policy.hole_channel is Channel.MOBILE:
                    hole_rate = _window_mobile_rate(route_realized, i)
                    hole = (Channel.MOBILE, hole_rate, min(cache.offset_mb, size))
                else:
                    hole = (Channel.WIFI_BACKHAUL, seg.backhaul_rate,
                            min(cache.offset_mb, size))
                phases = [
                    hole,
                    (Channel.WIFI_LOCAL, seg.wifi_local_rate,
                     min(cache.offset_mb + cache.amount_mb, size)),
                    (Channel.WIFI_BACKHAUL, seg.backhaul_rate, size),
                ]
            else:
                phases = [(Channel.WIFI_BACKHAUL, seg.backhaul_rate, size)]

        n_steps = max(1, math.ceil(seg.duration / dt))
        h = seg.duration / n_steps
        ai = 0
        for k in range(n_steps):
            rem = h
            while rem > 1e-15 and ai < len(phases):
                channel, rate, limit = phases[ai]
                need = min(limit, size) - prefix
                if need <= 1e-15 or rate <= 0:
                    ai += 1
                    continue
                cap = rate * rem / MBIT_PER_MB
                moved = min(need, cap)
                prefix += moved
                totals[channel] += moved
                rem -= moved * MBIT_PER_MB / rate
                if moved >= need - 1e-15:
                    ai += 1
                if size - prefix <= 1e-12:
                    completion = seg.start_time + k * h + (h - rem)
                    break
            if completion is not None:
                break

        if completion is None and seg.kind is AccessKind.WIFI:
            plan = replan(seg_nom.end_time, seg.end_time)

    return StepOutcome(
        mobile_mb=totals[Channel.MOBILE],
        wifi_local_mb=totals[Channel.WIFI_LOCAL],
        wifi_backhaul_mb=totals[Channel.WIFI_BACKHAUL],
        completion_time=completion,
    )


def assert_march_equal(realized, nominal, task, errors, dt):
    for policy in Policy:
        if policy.admits(task.traffic_class):
            args = (realized, nominal, task, policy, errors)
            assert (run_trip_stepped(*args, dt=dt)
                    == reference_stepped(*args, dt=dt)), (task, policy, errors, dt)


def test_march_equals_reference_on_c9_trips():
    for name in ("scenario_dt_default", "scenario_ds_default"):
        spec = load_scenario(str(bundled_scenario_path(name)))
        nominal = spec.scaled_route()
        for k in range(50):
            errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
            realized = realize_route(nominal, errors)
            for policy in spec.policies:
                args = (realized, nominal, spec.task, policy, errors)
                assert run_trip_stepped(*args) == reference_stepped(*args), (name, k, policy)


def test_march_equals_reference_on_random_routes():
    """Random and degenerate routes, both classes, every admitted policy,
    each route at one of four steps in turn."""
    rng = np.random.default_rng(41)
    routes = [random_route(rng) for _ in range(40)]
    routes += [r for _ in range(2) for r in edge_routes(rng)]
    for i, route in enumerate(routes):
        errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)),
                           seed=int(rng.integers(1 << 30)))
        realized = realize_route(route, errors)
        threshold = route.total_time * float(rng.uniform(0.3, 1.2))
        size = float(rng.uniform(0.5, 120))
        dt = (0.003, 0.01, 0.05, 0.1)[i % 4]
        for sensitive in (False, True):
            assert_march_equal(realized, route, make_task(size, threshold, sensitive),
                               errors, dt)


def test_march_equals_reference_across_chunks():
    """A mobile stretch of more than two batch chunks of plain steps, with
    the object completing inside it, after it, or never."""
    route = RouteProfile((
        RouteSegment(kind=AccessKind.MOBILE, start_time=0.0, duration=100.0,
                     mobile_rate=4.0),
        RouteSegment(kind=AccessKind.WIFI, start_time=100.0, duration=30.0,
                     wifi_local_rate=12.0, backhaul_rate=6.0, hotspot_index=1),
    ), 130.0)
    errors = ErrorSpec(0.05, 0.2, seed=3)
    realized = realize_route(route, errors)
    assert realized.segments[0].duration / 0.01 > 2 * STEP_CHUNK
    for size in (30.0, 60.0, 200.0):
        for sensitive in (False, True):
            assert_march_equal(realized, route, make_task(size, 130.0, sensitive),
                               errors, 0.01)


def test_march_equals_reference_near_completion():
    """Objects that end within 1e-12 MB of a step boundary, where only the
    completion test tells a finishing step from a plain one."""
    route = RouteProfile((
        RouteSegment(kind=AccessKind.MOBILE, start_time=0.0, duration=10.0,
                     mobile_rate=8.0),
    ), 10.0)
    errors = ErrorSpec(0.0, 0.0, seed=1)
    realized = realize_route(route, errors)
    for size in (5.0 - 5e-13, 5.0, 5.0 + 5e-13, 2.5 + 5e-13):
        for sensitive in (False, True):
            assert_march_equal(realized, route, make_task(size, 10.0, sensitive),
                               errors, 0.01)
