import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import edge_routes, make_task, random_route, reference_hotspots
from offloadsim import engine, oracle, policies, prediction
from offloadsim.config import bundled_scenario_path, load_scenario
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.policies import Channel, Policy, plan_entry, plan_exit
from offloadsim.prediction import (ErrorSpec, build_prediction, derive_run_seed, realize_batch,
                                  realize_route)

ZERO = ErrorSpec(0.0, 0.0)
PREFETCH_DT = Policy.PREFETCH_DELAY_TOLERANT
PREFETCH_DS = Policy.PREFETCH_DELAY_SENSITIVE


@pytest.fixture(scope="module")
def pred_t0(default_route):
    return build_prediction(default_route, ZERO)[0]


class TestDelayTolerantPlan:
    def test_default_scenario_rate(self, pred_t0):
        # 60 MB over the one-third-scaled route, full 269 s budget:
        # pessimistic WiFi carries 50.1525 MB in 72 s, the mobile stream the
        # rest over 197 s.
        rate, infeasible, amount, offset = plan_exit(PREFETCH_DT, 60.0, 269.0, pred_t0)
        assert rate == pytest.approx(78.78 / 197, rel=1e-12)
        assert not infeasible
        assert pred_t0.next_hotspot == 1
        assert amount == pytest.approx(16.16 / 3 * 18 / 8, rel=1e-12)
        assert offset == pytest.approx(rate * 18 / 8, rel=1e-12)

    def test_wifi_covers_everything(self, pred_t0):
        rate, _, _, offset = plan_exit(PREFETCH_DT, 30.0, 269.0, pred_t0)
        assert rate == 0.0
        assert offset == 0.0

    def test_nothing_left(self, pred_t0):
        rate, _, amount, _ = plan_exit(PREFETCH_DT, 0.0, 100.0, pred_t0, 60.0)
        assert rate == 0.0
        assert amount == 0.0  # truncated at the object end

    def test_oversized_object_clamps_and_flags(self, pred_t0):
        rate, infeasible, _, _ = plan_exit(PREFETCH_DT, 1e4, 269.0, pred_t0)
        assert infeasible
        # cap is the lowest mobile rate on the horizon (4.58/3)
        assert rate == pytest.approx(4.58 / 3, rel=1e-12)

    def test_time_budget_floor(self, pred_t0):
        # WiFi time estimate exceeds the whole budget: denominator floored,
        # rate clamps instead of dividing by zero
        rate, infeasible, _, _ = plan_exit(PREFETCH_DT, 60.0, 10.0, pred_t0)
        assert infeasible
        assert rate == pytest.approx(4.58 / 3, rel=1e-12)

    def test_wifi_forecast_sums_left_to_right(self, monkeypatch, fresh_memos):
        """The pessimistic WiFi volume is summed left to right whatever the
        Python version: ten 1 s windows at 0.1 Mbit/s make 0.9999999999999999
        Mbit, which leaves the mobile stream 1.4e-17 MB.  A compensated sum
        (the builtin from Python 3.12 on; math.fsum shadows it here) must not
        change the forecast or the plan."""
        segments = [RouteSegment(AccessKind.MOBILE, 0.0, 5.0, mobile_rate=100.0)]
        segments += [RouteSegment(AccessKind.WIFI, 5.0 + i, 1.0, wifi_local_rate=0.1,
                                  backhaul_rate=0.1, hotspot_index=i + 1) for i in range(10)]
        route = RouteProfile(tuple(segments), 15.0)
        pred = build_prediction(route, ZERO)[0]
        assert pred.wifi_local_mbit == pred.wifi_backhaul_mbit == 0.9999999999999999
        assert (pred.time_to_next_wifi, pred.max_mobile_rate) == (5.0, 100.0)
        want = plan_exit(PREFETCH_DT, 0.125, 100.0, pred)
        assert want[0] > 0.0
        prediction._walk.cache_clear()
        monkeypatch.setattr(prediction, "sum", math.fsum, raising=False)
        monkeypatch.setattr(policies, "sum", math.fsum, raising=False)
        again = build_prediction(route, ZERO)[0]
        assert again == pred and again is not pred
        assert plan_exit(PREFETCH_DT, 0.125, 100.0, again) == want


PREDICTION_ONLY = Policy.PREDICTION_ONLY_DELAY_TOLERANT


class TestPredictionOnlyPlan:
    def test_default_scenario_rate(self, pred_t0):
        rate, _, amount, _ = plan_exit(PREDICTION_ONLY, 60.0, 269.0, pred_t0)
        assert rate == pytest.approx(281.94 / 197, rel=1e-12)
        assert amount == 0.0

    def test_zero_remaining(self, pred_t0):
        rate, _, _, _ = plan_exit(PREDICTION_ONLY, 0.0, 269.0, pred_t0)
        assert rate == 0.0

    def test_matches_prefetch_when_backhaul_equals_local(self, route_4ap):
        # collapse the local rates onto the backhaul rates: both planners see
        # the same capacity and must produce the same mobile rate
        equal = scale_route(route_4ap, wifi_factor=1e-9, backhaul_factor=1 / 3)
        # wifi_factor shrank local below backhaul, so backhaul == local now
        pred = build_prediction(equal, ZERO)[0]
        r1 = plan_exit(PREFETCH_DT, 60.0, 269.0, pred)[0]
        r2 = plan_exit(PREDICTION_ONLY, 60.0, 269.0, pred)[0]
        assert r1 == pytest.approx(r2, rel=1e-12)


class TestDelaySensitivePlan:
    def test_exit_after_first_hotspot(self, default_route):
        pred = build_prediction(default_route, ZERO)[1]
        rate, _, _, offset = plan_exit(PREFETCH_DS, 40.0, math.inf, pred, 10.0)
        # requests the mobile rate of the upcoming gap
        assert rate == pytest.approx(4.58 / 3, rel=1e-12)
        assert offset == pytest.approx(10.0 + 10.305, abs=1e-9)
        assert pred.next_hotspot == 2

    def test_rate_independent_of_size_and_prefix(self, default_route):
        pred = build_prediction(default_route, ZERO)[1]
        rates = {
            plan_exit(PREFETCH_DS, r, math.inf, pred, p)[0]
            for r, p in ((1.0, 0.0), (500.0, 0.0), (40.0, 25.0))
        }
        assert len(rates) == 1

    def test_zero_gap_keeps_prefix(self, default_route):
        # the route from its first hotspot on: the node starts in a hotspot
        route = RouteProfile(tuple(replace(s, start_time=s.start_time - 18.0)
                                   for s in default_route.segments[1:]), 251.0)
        pred = build_prediction(route, ZERO)[0]
        assert pred.time_to_next_wifi == 0.0
        offset = plan_exit(PREFETCH_DS, 40.0, math.inf, pred, 20.0)[3]
        assert offset == pytest.approx(20.0)

    def test_no_hotspots_left(self, default_route):
        pred = build_prediction(default_route, ZERO)[4]
        assert pred.next_hotspot is None
        amount = plan_exit(PREFETCH_DS, 5.0, math.inf, pred, 55.0)[2]
        assert amount == 0.0  # nothing to stage


class TestCacheTruncation:
    def test_never_exceeds_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            route = random_route(rng)
            if route.n_hotspots == 0:
                continue
            errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)))
            passed = int(rng.integers(route.n_hotspots + 1))
            now = route.hotspots[passed - 1].end_time if passed else 0.0
            pred = build_prediction(route, errors)[passed]
            if pred.next_hotspot is None:
                continue
            prefix = float(rng.uniform(0, 30))
            remaining = float(rng.uniform(0, 40))
            _, _, amount, offset = plan_exit(
                PREFETCH_DT, remaining, route.total_time - now, pred, prefix)
            top = reference_hotspots(route, passed, errors.time_error,
                                     errors.throughput_error, None)[0]
            assert pred.next_hotspot == top.hotspot_index
            assert pred.next_cache_mb == top.local_max * top.duration_max / 8
            assert amount <= top.local_max * top.duration_max / 8 + 1e-9
            assert offset + amount <= prefix + remaining + 1e-9

    def test_offset_identity(self):
        # cache offset - prefix == mobile rate * time_to_next_wifi / 8, for
        # every prefetching policy
        rng = np.random.default_rng(8)
        for _ in range(300):
            route = random_route(rng)
            if route.n_hotspots == 0:
                continue
            pred = build_prediction(route, ErrorSpec(0.1, 0.2))[0]
            if pred.next_hotspot is None:
                continue
            prefix = float(rng.uniform(0, 10))
            for policy in (PREFETCH_DT, PREFETCH_DS):
                rate, _, _, offset = plan_exit(
                    policy, 50.0, route.total_time, pred, prefix)
                gap = rate * pred.time_to_next_wifi / 8
                assert offset - prefix == pytest.approx(gap, abs=1e-12)


def remaining_mobile_time(route, now):
    """Mobile seconds left on the nominal route after ``now``."""
    return sum(max(0.0, s.end_time - max(now, s.start_time))
               for s in route.segments if not s.is_wifi and s.end_time > now)


class TestPlanIdempotence:
    def test_replanning_under_assumed_delivery(self):
        """Executing exactly what the plan assumes leaves the rate unchanged.

        Holds for any throughput error but only with zero time error: with a
        time error the node spends longer in hotspots than the pessimistic
        estimate, and replanning compensates (by design).
        """
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(500):
            route = random_route(rng, n_segments=int(rng.integers(3, 7)))
            hotspots = route.hotspots
            if len(hotspots) < 2:
                continue
            errors = ErrorSpec(0.0, float(rng.uniform(0, 0.5)))
            deadline = route.total_time
            size = float(rng.uniform(5, 200))
            received = 0.0
            now = 0.0
            first_rate = None
            feasible = True
            forecasts = build_prediction(route, errors, horizon=deadline)
            for passed, (hs, pred) in enumerate(zip(hotspots, forecasts)):
                if size - received <= 1e-6:  # assumed delivery already done
                    break
                if remaining_mobile_time(route, now) <= 1e-9:
                    break  # pure-WiFi horizon: the mobile rate is moot (0/0)
                rate, infeasible, _, _ = plan_exit(
                    PREFETCH_DT, size - received, deadline - now, pred, received)
                if infeasible or rate == 0.0:
                    feasible = False
                    break
                if first_rate is None:
                    first_rate = rate
                else:
                    # float accumulation across replans; exact in real arithmetic
                    assert rate == pytest.approx(first_rate, rel=1e-6)
                # deliver exactly what the plan assumed: the planned mobile
                # bytes up to the hotspot, then the pessimistic WiFi amount
                received += rate * pred.time_to_next_wifi / 8
                first = reference_hotspots(route, passed, 0.0, errors.throughput_error,
                                           deadline)[0]
                received += first.local_min * first.duration_min / 8
                now = hs.end_time
            if feasible and first_rate is not None:
                checked += 1
        assert checked >= 30  # the loop exercised real multi-hotspot cases


def taken_actions(steps):
    """The entry steps one trip takes, in order: (channel, rate, window_hi)."""
    return [action for taken, action in steps if taken]


def channels(actions):
    return [channel for channel, _, _ in actions]


class TestPlanEntry:
    # offset 10 MB, amount 5 MB
    CACHE = (10.0, 5.0)

    def test_exact_arrival_skips_gap_fetch(self):
        actions = taken_actions(plan_entry(PREFETCH_DT, 10.0, self.CACHE, 16.0, 8.0, 0.0, 60.0))
        assert channels(actions) == [Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL]
        assert actions[0][2] == 15.0

    def test_early_arrival_repairs_gap_first(self):
        actions = taken_actions(plan_entry(PREFETCH_DT, 7.0, self.CACHE, 16.0, 8.0, 0.0, 60.0))
        assert channels(actions) == [
            Channel.WIFI_BACKHAUL, Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL,
        ]
        assert actions[0][2] == 10.0
        assert actions[-1][2] == 60.0

    def test_no_cache_is_pure_backhaul(self):
        actions = taken_actions(plan_entry(PREFETCH_DT, 0.0, None, 16.0, 8.0, 0.0, 60.0))
        assert len(actions) == 1
        assert actions[0][0] is Channel.WIFI_BACKHAUL
        assert actions[0][2] == 60.0

    def test_delay_sensitive_hole_goes_to_mobile(self):
        actions = taken_actions(plan_entry(PREFETCH_DS, 7.0, self.CACHE,
                                           16.0, 8.0, 1.5, 60.0))
        assert channels(actions) == [
            Channel.MOBILE, Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL,
        ]
        assert actions[0][1:] == (1.5, 10.0)


class TestPolicyDispatch:
    """plan_exit and plan_entry follow each policy's row of the table."""

    def test_mobile_only(self, pred_t0):
        rate, _, amount, _ = plan_exit(Policy.MOBILE_ONLY, 60.0, math.inf, pred_t0)
        assert rate == pred_t0.max_mobile_rate
        assert amount == 0.0
        assert plan_entry(Policy.MOBILE_ONLY, 0.0, None, 16.0, 8.0, 1.5, 60.0) == []

    def test_prediction_only_entry_is_backhaul(self):
        # a non-prefetching policy fetches from the origin even if handed a cache
        actions = taken_actions(plan_entry(PREDICTION_ONLY, 7.0, TestPlanEntry.CACHE,
                                           16.0, 8.0, 1.5, 60.0))
        assert channels(actions) == [Channel.WIFI_BACKHAUL]

    def test_delay_sensitive_always_max_rate(self, default_route):
        for pred in build_prediction(default_route, ZERO)[:3]:
            rate = plan_exit(PREFETCH_DS, 50.0, math.inf, pred)[0]
            assert rate == pred.max_mobile_rate


def element(value, k, n):
    """Run k's entry of a planner output that may be one value for all runs."""
    return np.broadcast_to(value, (n,))[k]


class TestFloatsMatchArrays:
    """The planners on a batch's arrays give, run by run, what they give on
    that run's floats; on floats they return floats and bools, not numpy
    scalars (the single-trip path uses no ufuncs)."""

    N = 8

    def forecasts(self):
        rng = np.random.default_rng(31)
        routes = [random_route(rng) for _ in range(40)]
        routes += [r for _ in range(2) for r in edge_routes(rng)]
        for route in routes:
            errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)))
            # the route start and every hotspot exit, the last with no hotspot left
            for passed in range(route.n_hotspots + 1):
                for horizon in (None, route.total_time * 0.7):
                    yield route, build_prediction(route, errors, horizon=horizon)[passed]

    def exit_inputs(self, route, rng, size):
        n = self.N
        prefix = rng.uniform(0.0, size, n)
        prefix[0] = size  # zero remaining
        remaining = np.maximum(0.0, size - prefix)
        remaining[1] = 1e4  # oversized: infeasible for the rate-limited policies
        time_left = rng.uniform(1.0, route.total_time, n)
        time_left[2] = math.inf  # no deadline
        return remaining, time_left, prefix

    def test_plan_exit(self):
        rng = np.random.default_rng(32)
        n, seen = self.N, {"infeasible": 0, "cache": 0, "no hotspot": 0, "amount 0": 0}
        for route, pred in self.forecasts():
            remaining, time_left, prefix = self.exit_inputs(route, rng, 60.0)
            for policy in Policy:
                plan_a = plan_exit(policy, remaining, time_left, pred, prefix)
                for k in range(n):
                    plan = plan_exit(policy, float(remaining[k]), float(time_left[k]), pred,
                                     float(prefix[k]))
                    rate, flag, amount, offset = plan
                    assert [type(v) for v in plan] == [float, bool, float, float]
                    for v, v_a in zip(plan, plan_a):
                        assert v == element(v_a, k, n)
                    seen["infeasible"] += flag
                    if not policy.prefetches or pred.next_hotspot is None:
                        assert amount == 0.0
                        seen["no hotspot"] += policy.prefetches
                        continue
                    seen["cache"] += 1
                    seen["amount 0"] += amount == 0.0
        assert min(seen.values()) > 0, seen

    def test_plan_entry(self):
        rng = np.random.default_rng(33)
        n, size = self.N, 60.0
        seen = {"hole": 0, "exact arrival": 0, "amount 0": 0, "no hole rate": 0}
        for route, pred in self.forecasts():
            remaining, time_left, prefix = self.exit_inputs(route, rng, size)
            if pred.next_hotspot is None:
                continue
            _, _, amount, offset = plan_exit(Policy.PREFETCH_DELAY_TOLERANT, remaining,
                                             time_left, pred, prefix)
            amount = amount.copy()
            amount[3] = 0.0
            # arrive exactly at the offset, short of it, or past it
            at_entry = offset + rng.uniform(-5.0, 5.0, n)
            at_entry[4] = offset[4]
            at_entry = np.clip(at_entry, 0.0, size)
            local = rng.uniform(2.0, 20.0, n)
            backhaul = local * rng.uniform(0.3, 1.0, n)
            mobile = rng.uniform(0.0, 10.0, n)
            mobile[5] = 0.0
            backhaul[6] = 0.0
            for policy in Policy:
                for cache in ((offset, amount), None):
                    steps_a = plan_entry(policy, at_entry, cache, local, backhaul,
                                         mobile, size)
                    for k in range(n):
                        one = None if cache is None else (float(offset[k]), float(amount[k]))
                        steps = plan_entry(policy, float(at_entry[k]), one, float(local[k]),
                                           float(backhaul[k]), float(mobile[k]), size)
                        assert len(steps) == len(steps_a)
                        for (taken, action), (taken_a, action_a) in zip(steps, steps_a):
                            assert type(taken) is bool
                            assert taken == element(taken_a, k, n)
                            (channel, rate, window_hi), (channel_a, rate_a, hi_a) = (action,
                                                                                     action_a)
                            assert channel is channel_a
                            assert type(rate) is float and rate == element(rate_a, k, n)
                            assert type(window_hi) is float
                            assert window_hi == element(hi_a, k, n)
                        if one is not None and policy.prefetches:
                            seen["hole"] += steps[0][0]
                            seen["exact arrival"] += at_entry[k] == offset[k] and amount[k] > 0
                            seen["amount 0"] += amount[k] == 0.0
                            seen["no hole rate"] += steps[0][1][1] == 0.0
        assert min(seen.values()) > 0, seen


class TestOnePlanner:
    def test_trip_batch_and_oracle_share_the_planners(self, monkeypatch, default_route,
                                                      default_errors):
        """run_trip, run_policies and run_trip_stepped all plan through the one
        policies.plan_exit; run_trip and run_policies also through plan_entry."""
        assert engine.plan_exit is policies.plan_exit
        assert oracle.plan_exit is policies.plan_exit
        assert engine.plan_entry is policies.plan_entry
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for module in (engine, oracle):
            monkeypatch.setattr(module, "plan_exit", counted(policies.plan_exit))
        monkeypatch.setattr(engine, "plan_entry", counted(policies.plan_entry))

        task = make_task(60.0)
        realized = realize_route(default_route, default_errors)
        batch = realize_batch(default_route, default_errors, 0, 3)
        runs = {
            "run_trip": lambda p: engine.run_trip(realized, default_route, task, p,
                                                  default_errors),
            "run_policies": lambda p: engine.run_policies(batch, task, (p,), default_errors),
            "run_trip_stepped": lambda p: oracle.run_trip_stepped(
                realized, default_route, task, p, default_errors, dt=0.5),
        }
        for name, run in runs.items():
            calls.clear()
            run(PREFETCH_DT)
            assert "plan_exit" in calls, name
            if name != "run_trip_stepped":  # the oracle keeps its own phase list
                assert "plan_entry" in calls, name

    def test_trip_and_batch_enter_the_one_loop(self, monkeypatch, default_route,
                                              default_errors):
        """run_trip and run_policies are thin entry points: each runs the trip
        loop engine._run once, and both move bytes through the one fill
        step."""
        calls = []

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "_run", counted(engine._run, "_run"))
        monkeypatch.setattr(engine._ByteState, "fill",
                            counted(engine._ByteState.fill, "fill"))
        task = make_task(60.0)
        realized = realize_route(default_route, default_errors)
        batch = realize_batch(default_route, default_errors, 0, 3)
        engine.run_trip(realized, default_route, task, PREFETCH_DT, default_errors)
        assert calls.count("_run") == 1 and calls.count("fill") > 0
        calls.clear()
        engine.run_policies(batch, task, (PREFETCH_DT,), default_errors)
        assert calls.count("_run") == 1 and calls.count("fill") > 0

    def test_float_form_runs_no_array_operation(self, monkeypatch, default_route,
                                                default_errors):
        """With every array operation swapped for one that raises, run_trip
        still runs every policy of both classes, and run_policies fails."""
        def fail(*args, **kwargs):
            raise AssertionError("array operation on the float form")

        monkeypatch.setattr(policies, "_ARRAY_OPS",
                            policies.Elementwise(*[fail] * len(policies.Elementwise._fields)))
        realized = realize_route(default_route, default_errors)
        for sensitive in (False, True):
            task = make_task(60.0, sensitive=sensitive)
            for policy in Policy:
                if policy.admits(task.traffic_class):
                    engine.run_trip(realized, default_route, task, policy, default_errors)
        batch = realize_batch(default_route, default_errors, 0, 3)
        with pytest.raises(AssertionError, match="array operation"):
            engine.run_policies(batch, make_task(60.0), (PREFETCH_DT,), default_errors)

    def test_only_planning_policies_build_forecasts(self, monkeypatch, default_route):
        """no-prediction and mobile-only read no plan and build no forecast.
        Every other policy builds all its forecasts in one call and plans
        once at the start and once at each hotspot exit it reaches before
        completing; a batch, once at each exit that some run reaches before
        completing."""
        calls, plans = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_prediction(*args, **kwargs)

        def planned(*args, **kwargs):
            plans.append(args)
            return plan_exit(*args, **kwargs)

        monkeypatch.setattr(engine, "build_prediction", counted)
        monkeypatch.setattr(engine, "plan_exit", planned)
        planless = (Policy.NO_PREDICTION_OFFLOAD, Policy.MOBILE_ONLY)
        errors = ErrorSpec(0.10, 0.20)
        seed, runs = 5, 4
        rng = np.random.default_rng(42)
        reached = set()  # (exits reached, hotspots) of every planning trip
        for route in [default_route] + [random_route(rng, n_segments=10) for _ in range(12)]:
            capacity = sum(s.duration * (s.backhaul_rate if s.is_wifi else s.mobile_rate)
                           for s in route.segments) / 8
            batch = realize_batch(route, errors, seed, runs)
            trips = [realize_route(route, replace(errors, seed=derive_run_seed(seed, k)))
                     for k in range(runs)]
            for share in (0.3, 0.8, 3.0):
                for sensitive in (False, True):
                    task = make_task(share * capacity, threshold=0.9 * route.total_time,
                                     sensitive=sensitive)
                    for policy in filter(lambda p: p.admits(task.traffic_class), Policy):
                        want = 0 if policy in planless else 1
                        exits = []
                        for trip in trips:
                            calls.clear()
                            plans.clear()
                            outcome = engine.run_trip(trip, route, task, policy, errors)
                            ends = [row.end_time for row, s in zip(trip.segments, route.segments)
                                    if s.is_wifi]
                            if outcome.completed:
                                ends = [e for e in ends if e < outcome.completion_time]
                            exits.append(len(ends))
                            assert len(calls) == want, policy
                            assert len(plans) == want * (1 + len(ends)), policy
                            if policy not in planless:
                                reached.add((len(ends), route.n_hotspots))
                        calls.clear()
                        plans.clear()
                        engine.run_policies(batch, task, (policy,), errors)
                        assert len(calls) == want, policy
                        assert len(plans) == want * (1 + max(exits)), policy
        # trips that reach no exit, some exits and every exit, all checked
        assert any(n == 0 < h for n, h in reached)
        assert any(0 < n < h for n, h in reached)
        assert any(0 < n == h for n, h in reached)

    @pytest.mark.parametrize("scenario", ["scenario_dt_default", "scenario_ds_default"])
    def test_one_forecast_call_per_trip(self, monkeypatch, scenario):
        """On a default scenario each planning trip, a mixed batch and each
        oracle trip call build_prediction once, for every replan point;
        no-prediction and mobile-only trips call it never."""
        spec = load_scenario(str(bundled_scenario_path(scenario)))
        route = spec.scaled_route()
        realized = realize_route(route, replace(spec.errors, seed=derive_run_seed(0, 0)))
        calls = []

        def counted(*args, **kwargs):
            calls.append(build_prediction(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(engine, "build_prediction", counted)
        monkeypatch.setattr(oracle, "build_prediction", counted)
        planless = (Policy.NO_PREDICTION_OFFLOAD, Policy.MOBILE_ONLY)
        admitted = [p for p in Policy if p.admits(spec.task.traffic_class)]
        assert set(admitted) - set(planless)
        for policy in admitted:
            calls.clear()
            engine.run_trip(realized, route, spec.task, policy, spec.errors)
            assert len(calls) == (0 if policy in planless else 1), policy
            calls.clear()
            oracle.run_trip_stepped(realized, route, spec.task, policy, spec.errors)
            assert len(calls) == 1, policy
            assert len(calls[0]) == route.n_hotspots + 1
        calls.clear()
        engine.run_policies(realize_batch(route, spec.errors, spec.seed, spec.runs),
                            spec.task, spec.policies, spec.errors)
        assert len(calls) == 1

    def test_mixed_batch_builds_one_forecast_per_replan_point(self, monkeypatch):
        """dt-default runs prefetch-dt (local rates), prediction-dt (backhaul
        rates) and no-prediction in one batch: it builds the forecasts in one
        call, and each replan point plans on the next of them, the start on
        the first and the k-th hotspot exit it reaches on element k."""
        spec = load_scenario(str(bundled_scenario_path("scenario_dt_default")))
        route = spec.scaled_route()
        built, planned = [], []

        def counted(*args, **kwargs):
            built.append(build_prediction(*args, **kwargs))
            return built[-1]

        def recorded(policy, remaining, time_left, pred, prefix):
            planned.append(pred)
            return plan_exit(policy, remaining, time_left, pred, prefix)

        monkeypatch.setattr(engine, "build_prediction", counted)
        monkeypatch.setattr(engine, "plan_exit", recorded)
        batch = realize_batch(route, spec.errors, spec.seed, spec.runs)
        engine.run_policies(batch, spec.task, spec.policies, spec.errors)
        assert len(built) == 1
        assert 1 < len(planned) <= len(built[0])
        assert all(pred is want for pred, want in zip(planned, built[0]))

    def test_prefetch_and_prediction_only_share_every_forecast(self, monkeypatch,
                                                               fresh_memos):
        """A prefetch-dt and a prediction-dt trip on one dt-default realization
        share one walk of the route: each builds its forecasts in one call,
        both get the same tuple, and at each replan point both plan on the
        same forecast object."""
        spec = load_scenario(str(bundled_scenario_path("scenario_dt_default")))
        route = spec.scaled_route()
        realized = realize_route(route, replace(spec.errors, seed=derive_run_seed(0, 0)))
        built, planned = [], {}

        def counted(*args, **kwargs):
            built.append(build_prediction(*args, **kwargs))
            return built[-1]

        def recorded(policy, remaining, time_left, pred, prefix):
            planned.setdefault(policy, []).append(pred)
            return plan_exit(policy, remaining, time_left, pred, prefix)

        monkeypatch.setattr(engine, "build_prediction", counted)
        monkeypatch.setattr(engine, "plan_exit", recorded)
        for policy in (PREFETCH_DT, PREDICTION_ONLY):
            engine.run_trip(realized, route, spec.task, policy, spec.errors)
        assert len(built) == 2 and built[0] is built[1]
        for preds in planned.values():
            assert all(pred is want for pred, want in zip(preds, built[0]))
        both = list(zip(planned[PREFETCH_DT], planned[PREDICTION_ONLY]))
        assert len(both) > 1
        assert all(a is b for a, b in both)
        assert prediction._walk.cache_info().misses == 1
