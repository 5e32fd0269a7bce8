import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import RECIPES, edge_routes, make_task, random_route
from offloadsim.config import bundled_recipe_path, bundled_scenario_path, load_scenario, load_sweep
from offloadsim.engine import _check_same_structure, run_policies, run_trip
from offloadsim.metrics import apply_sweep_value, derive_run_seed
from offloadsim.model import MBIT_PER_MB, AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.oracle import (
    StepOutcome,
    _advance,
    _window_mobile_rate,
    compare_runs,
    run_trip_stepped,
)
from offloadsim.policies import Channel, Policy, PolicyClassMismatch, plan_exit
from offloadsim.prediction import ErrorSpec, build_prediction, realize_batch, realize_route

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


# Tight engine/oracle agreement at the default dt: byte gap per channel
# relative to the object size, completion gap in seconds.
TIGHT_BYTE_FRACTION = 1e-9
TIGHT_TIME_S = 1e-6

ERROR_LEVELS = ((0.0, 0.0), (0.10, 0.20), (0.40, 0.80))
SIZES_MB = (0.5, 20.0, 150.0)


def assert_tight(analytic, stepped, size, route_end, case) -> bool:
    """C9's tolerance, and agreement to round-off: a byte gap of at most
    TIGHT_BYTE_FRACTION of the object per channel and a completion gap of at
    most TIGHT_TIME_S; a trip that finishes on one side only must finish
    within TIGHT_TIME_S of the realized route end.  Returns whether only one
    side finished."""
    report = compare_runs(analytic, stepped, size, route_end)
    assert report.within(size), case
    assert report.byte_dev_mb <= TIGHT_BYTE_FRACTION * size, case
    a_t, s_t = analytic.completion_time, stepped.completion_time
    if a_t is not None and s_t is not None:
        assert abs(a_t - s_t) <= TIGHT_TIME_S, case
        return False
    if a_t is not None or s_t is not None:
        done = a_t if a_t is not None else s_t
        assert abs(done - route_end) <= TIGHT_TIME_S, case
        return True
    return False


def test_random_route_agreement():
    """Engine and oracle agree over random and degenerate routes, zero,
    default and large errors, sizes 0.5, 20 and 150 MB, both traffic classes
    and every policy each class admits, with deadlines that often fall
    inside a hotspot and, for zero-error trips, exactly at the route end.

    Besides C9's tolerance, the two sides must agree to round-off: a byte
    gap of at most 1e-9 of the object per channel and a completion gap of at
    most 1e-6 s; a trip that finishes on one side only must finish within
    1e-6 s of the realized route end.  Measured on these 15,288 trips: the
    worst byte gap is 7.5e-13 of the object and the worst completion gap
    7.8e-10 s; the 34 trips that finish on one side only all have zero
    errors and a deadline at the route end, and finish within 4.3e-14 s of
    it.
    """
    rng = np.random.default_rng(29)
    routes = [random_route(rng) for _ in range(150)]
    routes += [r for _ in range(8) for r in edge_routes(rng)]
    trips = in_hotspot = one_sided = 0
    for route in routes:
        if route.hotspots and rng.random() < 0.5:
            hotspot = route.hotspots[int(rng.integers(route.n_hotspots))]
            threshold = hotspot.start_time + hotspot.duration * float(rng.uniform(0.1, 0.9))
            in_hotspot += 1
        else:
            threshold = route.total_time * float(rng.uniform(0.3, 1.2))
        seed = int(rng.integers(1 << 30))
        cases = [(ErrorSpec(te, re, seed=seed), size, threshold)
                 for te, re in ERROR_LEVELS for size in SIZES_MB]
        cases += [(ErrorSpec(0.0, 0.0, seed=seed), size, route.total_time)
                  for size in SIZES_MB]
        for errors, size, deadline in cases:
            realized = realize_route(route, errors)
            for sensitive in (False, True):
                task = make_task(size, threshold=deadline, sensitive=sensitive)
                for policy in Policy:
                    if not policy.admits(task.traffic_class):
                        continue
                    analytic = run_trip(realized, route, task, policy, errors)
                    stepped = run_trip_stepped(realized, route, task, policy, errors)
                    case = (route, task, policy, errors, analytic, stepped)
                    one_sided += assert_tight(analytic, stepped, size,
                                              realized.total_time, case)
                    trips += 1
    assert trips == 7 * 12 * len(routes) and in_hotspot >= 10 and one_sided > 0


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
    for dt in (0.0, -1.0, math.inf, math.nan, 1e-320):  # 1e-320: the step count overflows
        with pytest.raises(ValueError, match="dt"):
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
    """Engine and oracle agree at every figure sweep point, on the first 20
    runs of the point's own seeds and every policy, at C9's step and to
    :func:`assert_tight`'s round-off bounds.  Apart from the comparison, on
    every run of the point: no completion time passes the realized route end
    (worst measured -0.00996 s), and a completed trip's channel totals sum to
    the object (worst measured 3.6e-16 of it)."""
    nominal = spec.scaled_route()
    size = spec.task.size_mb
    batch = realize_batch(nominal, spec.errors, spec.seed, spec.runs)
    end = batch.segments[-1].end_time
    outcomes = run_policies(batch, spec.task, spec.policies, spec.errors, spec.energy)
    for policy, o in outcomes.items():
        done = o.completed
        assert np.all(o.transfer_delay[done] <= end[done]), policy
        total = o.mobile_mb + o.wifi_local_mb + o.wifi_backhaul_mb
        assert np.all(abs(total[done] - size) <= 1e-12 * size), policy
    for k in range(20):
        errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, errors)
        for policy in spec.policies:
            analytic = run_trip(realized, nominal, spec.task, policy, errors,
                                spec.energy)
            stepped = run_trip_stepped(realized, nominal, spec.task, policy, errors)
            assert_tight(analytic, stepped, size, realized.total_time, (k, policy))


def test_completion_slack_is_relative_to_the_object():
    """One 1 s mobile segment that carries 95% of a 1e-8 MB object: no policy
    completes it, on floats, in a batch or in the oracle.  An absolute slack
    of 1e-9 MB used to accept the 5e-10 MB shortfall and complete the trip at
    1.0526 s, after the route end, while the oracle did not."""
    route = RouteProfile((RouteSegment(kind=AccessKind.MOBILE, start_time=0.0, duration=1.0,
                                       mobile_rate=7.6e-8),), 1.0)
    errors = ErrorSpec(0.0, 0.0, seed=1)
    batch = realize_batch(route, errors, 0, 3)
    for sensitive in (False, True):
        task = make_task(1e-8, threshold=1.0, sensitive=sensitive)
        policies = tuple(p for p in Policy if p.admits(task.traffic_class))
        outcomes = run_policies(batch, task, policies, errors)
        for policy in policies:
            analytic = run_trip(route, route, task, policy, errors)
            stepped = run_trip_stepped(route, route, task, policy, errors)
            assert not analytic.completed and analytic.transfer_delay == 1.0, policy
            assert analytic.mobile_mb == pytest.approx(0.95e-8, rel=1e-12), policy
            assert not outcomes[policy].completed.any(), policy
            assert stepped.completion_time is None, policy
            assert_tight(analytic, stepped, task.size_mb, 1.0, policy)


# -- the exact advance against a plain x += c loop ----------------------------

def _advance_cases(kind, rng):
    """(x, c, k) triples of one kind: 5 long runs, else 60."""
    def ulp_tie(x, parity):
        f = 2 * int(rng.integers(0, 1 << 20)) + parity
        return (f + 0.5) * math.ulp(x)

    def start():
        return float(rng.uniform(0.01, 100.0))

    def steps():
        return int(rng.integers(1, 3000))

    cases = []
    for _ in range(5 if kind == "long" else 60):
        if kind == "tie-even":
            x = start()
            cases.append((x, ulp_tie(x, 0), steps()))
        elif kind == "tie-odd":
            x = start()
            cases.append((x, ulp_tie(x, 1), steps()))
        elif kind == "stall":
            x = start()
            c = math.ulp(x) * float(rng.choice([0.5, rng.uniform(0.0, 0.5)]))
            cases.append((x, c, steps()))
        elif kind == "c-above-x":
            x = start()
            cases.append((x, x * float(rng.uniform(1.0, 50.0)), steps()))
        elif kind == "zero":
            cases.append((0.0, float(rng.uniform(1e-6, 10.0)), steps()))
        elif kind == "power-of-two":
            x = 2.0 ** int(rng.integers(-10, 10))
            c = (ulp_tie(x, int(rng.integers(2))) if rng.uniform() < 0.5
                 else x * float(rng.uniform(1e-6, 0.1)))
            cases.append((x, c, steps()))
        else:  # "long": many binade crossings
            x = float(rng.choice([0.0, rng.uniform(0.0, 1e-3)]))
            cases.append((x, float(rng.uniform(1e-4, 1.0)), int(rng.integers(50_000, 100_001))))
    return cases


@pytest.mark.parametrize("kind", ["tie-even", "tie-odd", "stall", "c-above-x", "zero",
                                  "power-of-two", "long"])
def test_advance_equals_step_loop(kind):
    """``_advance`` is bit for bit the loop it replaces, for ties (rounding
    to even up or down), stalls, steps larger than ``x``, ``x = 0``, starts on
    a power of two and runs of up to 10**5 steps through many binades."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    for x, c, k in _advance_cases(kind, rng):
        y = x
        for _ in range(k):
            y += c
        assert _advance(x, c, k) == y, (x.hex(), c.hex(), k)


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
        rate, _, cache = plan_exit(
            policy, max(0.0, size - prefix), deadline - now_realized, pred, prefix)
        if cache is not None and cache[1] > 0:
            index, amount, offset = cache
            caches[index] = (offset, amount)
        return rate

    plan_rate = replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(route_realized.segments,
                                           route_nominal.segments)):
        if completion is not None:
            break

        if seg.kind is AccessKind.MOBILE:
            rate = (min(plan_rate, seg.mobile_rate)
                    if policy.rate_limited else seg.mobile_rate)
            phases = [(Channel.MOBILE, rate, size)]
        elif policy is Policy.MOBILE_ONLY:
            window = _window_mobile_rate(route_realized, i)
            rate = min(plan_rate, window) if policy.rate_limited else window
            phases = [(Channel.MOBILE, rate, size)]
        else:
            cache = caches.get(seg.hotspot_index) if policy.prefetches else None
            if cache is not None:
                offset, amount = cache
                if policy.hole_channel is Channel.MOBILE:
                    hole_rate = _window_mobile_rate(route_realized, i)
                    hole = (Channel.MOBILE, hole_rate, min(offset, size))
                else:
                    hole = (Channel.WIFI_BACKHAUL, seg.backhaul_rate, min(offset, size))
                phases = [
                    hole,
                    (Channel.WIFI_LOCAL, seg.wifi_local_rate, min(offset + amount, size)),
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
            plan_rate = replan(seg_nom.end_time, seg.end_time)

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


def test_march_equals_reference_across_binades():
    """A long mobile stretch of plain steps, with the object completing
    inside it, after it, or never; the prefix and the mobile total climb
    from 0 through more than ten binades inside the first segment."""
    route = RouteProfile((
        RouteSegment(kind=AccessKind.MOBILE, start_time=0.0, duration=100.0,
                     mobile_rate=4.0),
        RouteSegment(kind=AccessKind.WIFI, start_time=100.0, duration=30.0,
                     wifi_local_rate=12.0, backhaul_rate=6.0, hotspot_index=1),
    ), 130.0)
    errors = ErrorSpec(0.05, 0.2, seed=3)
    realized = realize_route(route, errors)
    cap = realized.segments[0].mobile_rate * 0.01 / MBIT_PER_MB
    assert math.frexp(30.0)[1] - math.frexp(cap)[1] > 10
    for size in (30.0, 60.0, 200.0):
        for sensitive in (False, True):
            assert_march_equal(realized, route, make_task(size, 130.0, sensitive),
                               errors, 0.01)


@pytest.mark.parametrize("k", [146458524467327, 146458524467329])
def test_march_equals_reference_when_a_step_is_a_tie(k):
    """A step of ``k`` (odd) half ulps of [0.5, 1), so every step from a
    prefix in that binade is a tie, rounded down or up to even.  The prefix
    enters the binade on an odd point, where the first step rounds to a
    different amount than every later one."""
    dt = 2.0 ** -7  # exact, and 10 s is a whole number of steps
    rate = k * 2.0 ** -44  # one step moves k * 2**-54 MB, exactly
    route = RouteProfile((
        RouteSegment(kind=AccessKind.MOBILE, start_time=0.0, duration=10.0,
                     mobile_rate=rate),
        RouteSegment(kind=AccessKind.WIFI, start_time=10.0, duration=10.0,
                     wifi_local_rate=rate, backhaul_rate=rate, hotspot_index=1),
    ), 20.0)
    errors = ErrorSpec(0.0, 0.0, seed=1)
    realized = realize_route(route, errors)
    cap = realized.segments[0].mobile_rate * dt / MBIT_PER_MB
    assert cap == k * math.ulp(0.5) / 2
    # Steps below 0.5 are exact, so the prefix enters at 62 * cap = 31 * k ulps.
    assert math.ceil(0.5 / cap) == 62
    for size in (0.75, 5.0, 30.0):
        for sensitive in (False, True):
            assert_march_equal(realized, route, make_task(size, 20.0, sensitive),
                               errors, dt)


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
