import math

import numpy as np
import pytest

from conftest import random_route
from offloadsim.model import scale_route
from offloadsim.policies import (
    CachePlan,
    Channel,
    Policy,
    plan_entry,
    plan_exit,
    plan_exit_delay_sensitive,
    plan_exit_delay_tolerant,
)
from offloadsim.prediction import ErrorSpec, build_prediction

ZERO = ErrorSpec(0.0, 0.0)


@pytest.fixture(scope="module")
def pred_local_t0(default_route):
    return build_prediction(default_route, 0.0, ZERO, use_local_rate=True)


@pytest.fixture(scope="module")
def pred_backhaul_t0(default_route):
    return build_prediction(default_route, 0.0, ZERO, use_local_rate=False)


class TestDelayTolerantPlan:
    def test_default_scenario_rate(self, pred_local_t0):
        # 60 MB over the one-third-scaled route, full 269 s budget:
        # pessimistic WiFi carries 50.1525 MB in 72 s, the mobile stream the
        # rest over 197 s.
        plan, cache = plan_exit_delay_tolerant(60.0, 269.0, pred_local_t0)
        assert plan.mobile_rate == pytest.approx(78.78 / 197, rel=1e-12)
        assert not plan.infeasible
        assert cache.hotspot_index == 1
        assert cache.amount_mb == pytest.approx(16.16 / 3 * 18 / 8, rel=1e-12)
        assert cache.offset_mb == pytest.approx(plan.mobile_rate * 18 / 8, rel=1e-12)

    def test_wifi_covers_everything(self, pred_local_t0):
        plan, cache = plan_exit_delay_tolerant(30.0, 269.0, pred_local_t0)
        assert plan.mobile_rate == 0.0
        assert cache.offset_mb == 0.0

    def test_nothing_left(self, pred_local_t0):
        plan, cache = plan_exit_delay_tolerant(
            0.0, 100.0, pred_local_t0, received_prefix_mb=60.0
        )
        assert plan.mobile_rate == 0.0
        assert cache.amount_mb == 0.0  # truncated at the object end

    def test_oversized_object_clamps_and_flags(self, pred_local_t0):
        plan, _ = plan_exit_delay_tolerant(1e4, 269.0, pred_local_t0)
        assert plan.infeasible
        # cap is the lowest mobile rate on the horizon (4.58/3)
        assert plan.mobile_rate == pytest.approx(4.58 / 3, rel=1e-12)

    def test_time_budget_floor(self, pred_local_t0):
        # WiFi time estimate exceeds the whole budget: denominator floored,
        # rate clamps instead of dividing by zero
        plan, _ = plan_exit_delay_tolerant(60.0, 10.0, pred_local_t0)
        assert plan.infeasible
        assert plan.mobile_rate == pytest.approx(4.58 / 3, rel=1e-12)

    def test_negative_remaining_rejected(self, pred_local_t0):
        with pytest.raises(ValueError):
            plan_exit_delay_tolerant(-1.0, 100.0, pred_local_t0)


PREDICTION_ONLY = Policy.PREDICTION_ONLY_DELAY_TOLERANT


class TestPredictionOnlyPlan:
    def test_default_scenario_rate(self, pred_backhaul_t0):
        plan, cache = plan_exit(PREDICTION_ONLY, 60.0, 269.0, pred_backhaul_t0)
        assert plan.mobile_rate == pytest.approx(281.94 / 197, rel=1e-12)
        assert cache is None

    def test_zero_remaining(self, pred_backhaul_t0):
        plan, _ = plan_exit(PREDICTION_ONLY, 0.0, 269.0, pred_backhaul_t0)
        assert plan.mobile_rate == 0.0

    def test_matches_prefetch_when_backhaul_equals_local(self, route_4ap):
        # collapse the local rates onto the backhaul rates: both planners see
        # the same capacity and must produce the same mobile rate
        equal = scale_route(route_4ap, wifi_factor=1e-9, backhaul_factor=1 / 3)
        # wifi_factor shrank local below backhaul, so backhaul == local now
        pred_l = build_prediction(equal, 0.0, ZERO, use_local_rate=True)
        pred_b = build_prediction(equal, 0.0, ZERO, use_local_rate=False)
        p1, _ = plan_exit_delay_tolerant(60.0, 269.0, pred_l)
        p2, _ = plan_exit(PREDICTION_ONLY, 60.0, 269.0, pred_b)
        assert p1.mobile_rate == pytest.approx(p2.mobile_rate, rel=1e-12)


class TestDelaySensitivePlan:
    def test_exit_after_first_hotspot(self, default_route):
        pred = build_prediction(default_route, 36.0, ZERO, use_local_rate=True)
        plan, cache = plan_exit_delay_sensitive(40.0, 10.0, pred)
        # requests the mobile rate of the upcoming gap
        assert plan.mobile_rate == pytest.approx(4.58 / 3, rel=1e-12)
        assert cache.offset_mb == pytest.approx(10.0 + 10.305, abs=1e-9)
        assert cache.hotspot_index == 2

    def test_rate_independent_of_size_and_prefix(self, default_route):
        pred = build_prediction(default_route, 36.0, ZERO, use_local_rate=True)
        rates = {
            plan_exit_delay_sensitive(r, p, pred)[0].mobile_rate
            for r, p in ((1.0, 0.0), (500.0, 0.0), (40.0, 25.0))
        }
        assert len(rates) == 1

    def test_zero_gap_keeps_prefix(self, default_route):
        pred = build_prediction(default_route, 18.0, ZERO, use_local_rate=True)
        assert pred.time_to_next_wifi == 0.0
        _, cache = plan_exit_delay_sensitive(40.0, 20.0, pred)
        assert cache.offset_mb == pytest.approx(20.0)

    def test_no_hotspots_left(self, default_route):
        pred = build_prediction(default_route, 260.0, ZERO, use_local_rate=True)
        _, cache = plan_exit_delay_sensitive(5.0, 55.0, pred)
        assert cache.amount_mb == 0.0


class TestCacheTruncation:
    def test_never_exceeds_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            route = random_route(rng)
            if route.n_hotspots == 0:
                continue
            errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)))
            now = float(rng.uniform(0, route.total_time * 0.8))
            pred = build_prediction(route, now, errors, use_local_rate=True)
            if not pred.hotspots:
                continue
            prefix = float(rng.uniform(0, 30))
            remaining = float(rng.uniform(0, 40))
            _, cache = plan_exit_delay_tolerant(
                remaining, route.total_time - now, pred, received_prefix_mb=prefix
            )
            top = pred.hotspots[0]
            assert cache.amount_mb <= top.rate_max * top.duration_max / 8 + 1e-9
            assert cache.offset_mb + cache.amount_mb <= prefix + remaining + 1e-9

    def test_offset_identity(self):
        # CachePlan.offset - prefix == mobile_rate * time_to_next_wifi / 8,
        # for every prefetching planner
        rng = np.random.default_rng(8)
        for _ in range(300):
            route = random_route(rng)
            if route.n_hotspots == 0:
                continue
            pred = build_prediction(route, 0.0, ErrorSpec(0.1, 0.2),
                                    use_local_rate=True)
            if not pred.hotspots:
                continue
            prefix = float(rng.uniform(0, 10))
            plan, cache = plan_exit_delay_tolerant(
                50.0, route.total_time, pred, received_prefix_mb=prefix
            )
            gap = plan.mobile_rate * pred.time_to_next_wifi / 8
            assert cache.offset_mb - prefix == pytest.approx(gap, abs=1e-12)
            plan, cache = plan_exit_delay_sensitive(50.0, prefix, pred)
            gap = plan.mobile_rate * pred.time_to_next_wifi / 8
            assert cache.offset_mb - prefix == pytest.approx(gap, abs=1e-12)


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
            for hs in hotspots:
                if size - received <= 1e-6:  # assumed delivery already done
                    break
                pred = build_prediction(route, now, errors, use_local_rate=True,
                                        horizon=deadline)
                if remaining_mobile_time(route, now) <= 1e-9:
                    break  # pure-WiFi horizon: the mobile rate is moot (0/0)
                plan, _ = plan_exit_delay_tolerant(
                    size - received, deadline - now, pred, received_prefix_mb=received
                )
                if plan.infeasible or plan.mobile_rate == 0.0:
                    feasible = False
                    break
                if first_rate is None:
                    first_rate = plan.mobile_rate
                else:
                    # float accumulation across replans; exact in real arithmetic
                    assert plan.mobile_rate == pytest.approx(first_rate, rel=1e-6)
                # deliver exactly what the plan assumed: the planned mobile
                # bytes up to the hotspot, then the pessimistic WiFi amount
                received += plan.mobile_rate * pred.time_to_next_wifi / 8
                first = pred.hotspots[0]
                received += first.rate_min * first.duration_min / 8
                now = hs.end_time
            if feasible and first_rate is not None:
                checked += 1
        assert checked >= 30  # the loop exercised real multi-hotspot cases


PREFETCH_DT = Policy.PREFETCH_DELAY_TOLERANT


class TestPlanEntry:
    def test_exact_arrival_skips_gap_fetch(self):
        actions = plan_entry(PREFETCH_DT, 10.0, CachePlan(1, 5.0, 10.0), 16.0, 8.0, 0.0, 60.0)
        assert [a.channel for a in actions] == [Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL]
        assert actions[0].window_hi == 15.0

    def test_early_arrival_repairs_gap_first(self):
        actions = plan_entry(PREFETCH_DT, 7.0, CachePlan(1, 5.0, 10.0), 16.0, 8.0, 0.0, 60.0)
        assert [a.channel for a in actions] == [
            Channel.WIFI_BACKHAUL, Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL,
        ]
        assert actions[0].window_hi == 10.0
        assert actions[-1].window_hi == 60.0

    def test_no_cache_is_pure_backhaul(self):
        actions = plan_entry(PREFETCH_DT, 0.0, None, 16.0, 8.0, 0.0, 60.0)
        assert len(actions) == 1
        assert actions[0].channel is Channel.WIFI_BACKHAUL
        assert actions[0].window_hi == 60.0

    def test_delay_sensitive_hole_goes_to_mobile(self):
        actions = plan_entry(Policy.PREFETCH_DELAY_SENSITIVE, 7.0,
                             CachePlan(1, 5.0, 10.0), 16.0, 8.0, 1.5, 60.0)
        assert [a.channel for a in actions] == [
            Channel.MOBILE, Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL,
        ]
        assert actions[0].rate == 1.5
        assert actions[0].window_hi == 10.0


class TestPolicyDispatch:
    """plan_exit and plan_entry follow each policy's row of the table."""

    def test_mobile_only(self, pred_local_t0):
        plan, cache = plan_exit(Policy.MOBILE_ONLY, 60.0, math.inf, pred_local_t0)
        assert plan.mobile_rate == pred_local_t0.max_mobile_rate
        assert cache is None
        assert plan_entry(Policy.MOBILE_ONLY, 0.0, None, 16.0, 8.0, 1.5, 60.0) == []

    def test_prediction_only_entry_is_backhaul(self):
        # a non-prefetching policy fetches from the origin even if handed a cache
        actions = plan_entry(PREDICTION_ONLY, 7.0, CachePlan(1, 5.0, 10.0),
                             16.0, 8.0, 1.5, 60.0)
        assert [a.channel for a in actions] == [Channel.WIFI_BACKHAUL]

    def test_route_start_matches_exit_arithmetic(self, pred_local_t0):
        via_table, cache = plan_exit(PREFETCH_DT, 60.0, 269.0, pred_local_t0)
        direct, direct_cache = plan_exit_delay_tolerant(60.0, 269.0, pred_local_t0)
        assert via_table.mobile_rate == direct.mobile_rate
        assert cache == direct_cache

    def test_delay_sensitive_always_max_rate(self, default_route):
        for now in (0.0, 36.0, 108.0):
            pred = build_prediction(default_route, now, ZERO, use_local_rate=True)
            plan, _ = plan_exit(Policy.PREFETCH_DELAY_SENSITIVE, 50.0, math.inf, pred)
            assert plan.mobile_rate == pred.max_mobile_rate
