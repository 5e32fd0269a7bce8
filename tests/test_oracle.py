import numpy as np
import pytest

from conftest import edge_routes, make_task, random_route
from offloadsim.engine import run_trip
from offloadsim.model import scale_route
from offloadsim.oracle import compare_runs, run_trip_stepped
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, realize_route

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
    routes = [random_route(rng) for _ in range(36)]
    routes += [r for _ in range(2) for r in edge_routes(rng)]
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
    with pytest.raises(ValueError):
        run_trip_stepped(realized, default_route, make_task(60.0),
                         Policy.NO_PREDICTION_OFFLOAD, zero_errors, dt=0.0)


def test_one_sided_route_end_completion_tolerated(default_route):
    """A completion within the step quantum of the route end may be reported
    by only one side; bytes must still agree."""
    from offloadsim.oracle import AgreementReport, StepOutcome

    stepped = StepOutcome(10.0, 5.0, 5.0, None, 20.0)
    analytic_like = run_trip(
        realize_route(default_route, ErrorSpec(0, 0, seed=1)),
        default_route, make_task(20.0), Policy.NO_PREDICTION_OFFLOAD,
        ErrorSpec(0, 0, seed=1),
    )
    report = compare_runs(analytic_like, stepped, 20.0,
                          route_end=analytic_like.completion_time + 0.01)
    assert isinstance(report, AgreementReport)
    assert report.status_match  # completion sits at the route end
