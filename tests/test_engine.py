import numpy as np
import pytest

from conftest import make_task, random_route
from offloadsim.engine import EnergyBreakdown, _ByteState, run_policies, run_trip
from offloadsim.metrics import ScenarioSpec
from offloadsim.model import (
    AccessKind,
    EnergyModel,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    scale_route,
)
from offloadsim.oracle import run_trip_stepped
from offloadsim.policies import Channel, Policy, PolicyClassMismatch
from offloadsim.prediction import ErrorSpec, RealizedBatch, realize_batch, realize_route

ALL_POLICIES = tuple(Policy)
DT_POLICIES = (Policy.PREFETCH_DELAY_TOLERANT, Policy.PREDICTION_ONLY_DELAY_TOLERANT,
               Policy.NO_PREDICTION_OFFLOAD, Policy.MOBILE_ONLY)
DS_POLICIES = (Policy.PREFETCH_DELAY_SENSITIVE, Policy.NO_PREDICTION_OFFLOAD,
               Policy.MOBILE_ONLY)


def policies_for(task):
    return DS_POLICIES if task.traffic_class is TrafficClass.DELAY_SENSITIVE else DT_POLICIES


class TestIntegrateTransfer:
    """Transfer integration by the one fill step, on one trip's floats and
    on a batch's arrays."""

    def test_unit_arithmetic(self):
        state = _ByteState(100.0, 0.0)
        used = state.fill(True, 8.0, 10.0, Channel.MOBILE, 0.0, 100.0)
        assert type(used) is float and used == pytest.approx(10.0)
        assert state.mobile_mb == pytest.approx(10.0)
        assert state.prefix == pytest.approx(10.0)
        assert state.complete is False

    def test_crossing_interpolation(self):
        state = _ByteState(1.0, 0.0)
        used = state.fill(True, 8.0, 10.0, Channel.WIFI_LOCAL, 5.0, 1.0)
        assert used == pytest.approx(1.0)
        assert state.complete is True
        assert state.completion_time == pytest.approx(6.0)
        assert state.wifi_local_mb == pytest.approx(1.0)

    def test_zero_rate_moves_nothing(self):
        """A rate that can be 0 is passed with ``stops``."""
        state = _ByteState(10.0, 0.0)
        assert state.fill(True, 0.0, 10.0, Channel.MOBILE, 0.0, 10.0, stops=True) == 0.0
        assert state.prefix == 0.0

    def test_window_bounds_fill(self):
        """A fill stops at its target; a target at or below the prefix moves
        nothing in no time."""
        state = _ByteState(100.0, 0.0)
        used = state.fill(True, 8.0, 100.0, Channel.WIFI_LOCAL, 0.0, 20.0)
        assert used == pytest.approx(20.0)
        assert state.prefix == pytest.approx(20.0)
        assert state.wifi_local_mb == pytest.approx(20.0)
        assert not state.complete
        for target in (20.0, 10.0):
            assert state.fill(True, 8.0, 100.0, Channel.WIFI_BACKHAUL, 20.0, target) == 0.0
        assert state.wifi_backhaul_mb == 0.0
        assert state.prefix == pytest.approx(20.0)

    def test_array_runs_equal_float_trips(self):
        """Each run of an array fill equals the float fill on its own values:
        a partial fill, a zero rate (so ``stops``), a completion, a run left
        out, a run already at its target, and a fill with no time."""
        runs = np.array([True, True, True, False, True, True])
        rate = np.array([8.0, 0.0, 80.0, 8.0, 8.0, 8.0])
        seconds = np.array([5.0, 5.0, 5.0, 5.0, 5.0, 0.0])
        now = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        hi = np.array([10.0, 10.0, 10.0, 10.0, 0.0, 10.0])
        state = _ByteState(10.0, now)
        used = state.fill(runs, rate, seconds, Channel.WIFI_BACKHAUL, now, hi, stops=True)
        assert list(state.complete) == [False, False, True, False, False, False]
        assert state.completion_time[2] == pytest.approx(3.0)
        for k in range(len(runs)):
            one = _ByteState(10.0, 0.0)
            used_one = one.fill(bool(runs[k]), float(rate[k]), float(seconds[k]),
                                Channel.WIFI_BACKHAUL, float(now[k]), float(hi[k]), stops=True)
            assert used[k] == used_one
            assert state.prefix[k] == one.prefix
            assert state.wifi_backhaul_mb[k] == one.wifi_backhaul_mb
            assert state.complete[k] == one.complete
            if one.complete:
                assert state.completion_time[k] == one.completion_time
        assert not state.mobile_mb.any() and not state.wifi_local_mb.any()

    def test_pending_is_not_complete(self):
        """After every float or array fill, ``pending`` is ``not complete``.
        A fill that finishes no run leaves the masks and completion times as
        they were; one that does replaces the mask, so a mask read earlier
        keeps its runs, and writes completion times only where runs
        finished."""
        state = _ByteState(10.0, 0.0)
        assert state.pending is True
        state.fill(True, 8.0, 5.0, Channel.MOBILE, 0.0, 10.0)
        assert state.pending is True and state.completion_time == 0.0
        state.fill(True, 8.0, 10.0, Channel.MOBILE, 5.0, 10.0)
        assert state.pending is False and state.complete is True
        assert state.completion_time == pytest.approx(10.0)

        now = np.zeros(4)
        state = _ByteState(10.0, now)
        pending, completion_time = state.pending, state.completion_time
        state.fill(np.array([True, True, False, True]), np.array([8.0, 8.0, 8.0, 0.0]),
                   5.0, Channel.MOBILE, now, 10.0, stops=True)
        assert state.pending is pending and state.completion_time is completion_time
        state.fill(np.array([True, False, True, True]), np.array([80.0, 8.0, 8.0, 8.0]),
                   5.0, Channel.MOBILE, now, 10.0)
        assert list(pending) == [True] * 4
        assert list(state.complete) == [True, False, False, False]
        assert list(state.pending) == list(~state.complete)
        assert state.completion_time[0] == pytest.approx(0.5)
        assert list(state.completion_time[1:]) == [0.0] * 3


class TestRunTripAnchors:
    """Zero-error trips whose outcomes were worked out by hand from the
    bundled route table."""

    def test_prefetch_delay_tolerant_60mb(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        out = run_trip(realized, default_route, make_task(60.0),
                       Policy.PREFETCH_DELAY_TOLERANT, zero_errors)
        assert out.mobile_mb == pytest.approx(9.8475, abs=1e-9)
        assert out.wifi_local_mb == pytest.approx(50.1525, abs=1e-9)
        assert out.completion_time == pytest.approx(269.0, abs=1e-6)
        assert out.deadline_met
        assert out.offload_pct == pytest.approx(50.1525 / 60 * 100, abs=1e-9)

    def test_prediction_only_60mb(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        out = run_trip(realized, default_route, make_task(60.0),
                       Policy.PREDICTION_ONLY_DELAY_TOLERANT, zero_errors)
        assert out.wifi_backhaul_mb == pytest.approx(24.7575, abs=1e-9)
        assert out.wifi_local_mb == 0.0
        assert out.deadline_met

    def test_mobile_only_50mb_full_rates(self, route_4ap, zero_errors):
        # piecewise integration over the unscaled mobile rates; the rate in
        # each hotspot window is inherited from the preceding segment
        realized = realize_route(route_4ap, zero_errors)
        out = run_trip(realized, route_4ap, make_task(50.0, sensitive=True),
                       Policy.MOBILE_ONLY, zero_errors)
        expected = 36.0 + (400.0 - (4.83 * 36)) / 4.58
        assert out.completion_time == pytest.approx(expected, abs=1e-9)
        assert out.offload_pct == 0.0
        assert out.energy_j == pytest.approx(5000.0, abs=1e-6)

    def test_delay_sensitive_50mb(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        out = run_trip(realized, default_route, make_task(50.0, sensitive=True),
                       Policy.PREFETCH_DELAY_SENSITIVE, zero_errors)
        # on-time arrival: caches at hotspots 1-2 drain at the local rate for
        # the full dwell, the mobile stream carries the rest
        assert out.wifi_local_mb == pytest.approx((16.16 + 16.74) / 3 * 18 / 8, abs=1e-9)
        assert out.completion_time == pytest.approx(152.8426229508, abs=1e-6)

    def test_degenerate_size(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        for policy in (Policy.NO_PREDICTION_OFFLOAD, Policy.MOBILE_ONLY):
            out = run_trip(realized, default_route, make_task(0.001),
                           policy, zero_errors)
            assert out.completed and out.transfer_delay < 0.1
            assert out.offload_pct == pytest.approx(0.0)
        out = run_trip(realized, default_route, make_task(0.001),
                       Policy.PREFETCH_DELAY_TOLERANT, zero_errors)
        # nothing for the mobile stream: the whole object rides the cache
        assert out.offload_pct == pytest.approx(100.0)

    def test_infeasible_object_flagged(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        out = run_trip(realized, default_route, make_task(10_000.0),
                       Policy.PREFETCH_DELAY_TOLERANT, zero_errors)
        assert out.plan_infeasible
        assert not out.deadline_met
        assert out.transfer_delay == pytest.approx(269.0)


class TestRunTripValidation:
    def test_class_mismatch(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        for sensitive, policy in ((True, Policy.PREFETCH_DELAY_TOLERANT),
                                  (True, Policy.PREDICTION_ONLY_DELAY_TOLERANT),
                                  (False, Policy.PREFETCH_DELAY_SENSITIVE)):
            with pytest.raises(PolicyClassMismatch):
                run_trip(realized, default_route, make_task(50.0, sensitive=sensitive),
                         policy, zero_errors)

    @pytest.mark.parametrize("policies,message", [
        ((), "scenario needs at least one policy"),
        ((Policy.MOBILE_ONLY, Policy.MOBILE_ONLY), "policy mobile-only is listed twice"),
        (5, "policies must be a sequence of Policies, got 5"),
        (None, "policies must be a sequence of Policies, got None"),
        ("no-prediction", r"policies\[0\] must be a Policy, got 'no-prediction'")])
    def test_each_policy_once(self, default_route, zero_errors, policies, message):
        """A batch pass, like a scenario, takes at least one policy and each
        once, by one rule: no policy failed inside numpy, one listed twice ran
        two rows but returned one entry, a number or None raised TypeError in
        a batch pass, and a name was read as its characters there."""
        task = make_task(50.0)
        with pytest.raises(ValueError, match=message):
            run_policies(realize_batch(default_route, zero_errors, 0, 3), task, policies,
                         zero_errors)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec("s", default_route, task, policies)

    def test_a_policy_name_is_not_a_policy(self, default_route, zero_errors):
        """A trip, a batch and an oracle trip given a policy's name, not the
        Policy, raise ValueError naming it; each raised AttributeError."""
        realized = realize_route(default_route, zero_errors)
        task = make_task(50.0)
        message = r"policies\[0\] must be a Policy, got 'prefetch-dt'"
        with pytest.raises(ValueError, match=message):
            run_trip(realized, default_route, task, "prefetch-dt", zero_errors)
        with pytest.raises(ValueError, match=message):
            run_policies(realize_batch(default_route, zero_errors, 0, 3), task,
                         ("prefetch-dt",), zero_errors)
        with pytest.raises(ValueError, match=message):
            run_trip_stepped(realized, default_route, task, "prefetch-dt", zero_errors)

    def test_structure_mismatch(self, default_route, route_2ap, zero_errors):
        """A trip, in the engine and in the oracle, runs on one realization
        of its nominal route: drawn from that route or from one equal to it.
        A batch, even of one run, and a realization of another route (other
        kinds, other hotspots, fewer segments), whichever route changed, or
        one missing a row, raise ValueError naming route_realized."""
        task, policy = make_task(50.0), Policy.NO_PREDICTION_OFFLOAD
        twin = RouteProfile(default_route.segments, default_route.total_time)
        shorter = RouteProfile(default_route.segments[:3], 90.0)
        realized = realize_route(default_route, zero_errors)
        one = "^route_realized must hold one realization's floats, not a batch's arrays$"
        other = "^route_realized must be a realization of route_nominal$"
        cases = [(realize_batch(default_route, zero_errors, 0, 3), default_route, one),
                 (realize_batch(default_route, zero_errors, 0, 1), default_route, one),
                 (realized, route_2ap, other),
                 (realize_route(route_2ap, zero_errors), default_route, other),
                 (realized, shorter, other),
                 (realize_route(shorter, zero_errors), default_route, other),
                 (RealizedBatch(default_route, realized.segments[:-1]), default_route, other)]
        for entry in (run_trip, run_trip_stepped):
            for good in (realized, realize_route(twin, zero_errors)):
                entry(good, default_route, task, policy, zero_errors)
                entry(good, twin, task, policy, zero_errors)
            for bad, nominal, message in cases:
                with pytest.raises(ValueError, match=message):
                    entry(bad, nominal, task, policy, zero_errors)


@pytest.mark.parametrize("entry,argument", [
    ("run_trip", "route_realized"), ("run_trip", "route_nominal"), ("run_trip", "task"),
    ("run_trip", "errors"), ("run_trip", "energy_model"),
    ("run_policies", "batch"), ("run_policies", "task"), ("run_policies", "errors"),
    ("run_policies", "energy_model"),
    ("run_trip_stepped", "route_realized"), ("run_trip_stepped", "route_nominal"),
    ("run_trip_stepped", "task"), ("run_trip_stepped", "errors"),
    ("realize_route", "route"), ("realize_route", "errors"),
    ("realize_batch", "route"), ("realize_batch", "errors"),
])
@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
def test_a_mistyped_argument_is_named(default_route, zero_errors, entry, argument, bad):
    """Each of these raised AttributeError from inside the trip loop or the
    draws; now the entry point checks every argument's type first."""
    realized = realize_route(default_route, zero_errors)
    args = {
        "run_trip": dict(route_realized=realized, route_nominal=default_route,
                         task=make_task(50.0), policy=Policy.PREFETCH_DELAY_TOLERANT,
                         errors=zero_errors, energy_model=EnergyModel()),
        "run_policies": dict(batch=realize_batch(default_route, zero_errors, 0, 3),
                             task=make_task(50.0), policies=(Policy.PREFETCH_DELAY_TOLERANT,),
                             errors=zero_errors, energy_model=EnergyModel()),
        "run_trip_stepped": dict(route_realized=realized, route_nominal=default_route,
                                 task=make_task(50.0), policy=Policy.PREFETCH_DELAY_TOLERANT,
                                 errors=zero_errors),
        "realize_route": dict(route=default_route, errors=zero_errors),
        "realize_batch": dict(route=default_route, errors=zero_errors, seed=0, runs=3),
    }[entry]
    run = {"run_trip": run_trip, "run_policies": run_policies,
           "run_trip_stepped": run_trip_stepped, "realize_route": realize_route,
           "realize_batch": realize_batch}[entry]
    run(**args)
    args[argument] = bad
    with pytest.raises(ValueError, match=f"^{argument} must be [A-Za-z]+, got {bad!r}$"):
        run(**args)


def test_run_policies_takes_a_lone_policy_as_one_entry(default_route, zero_errors):
    """As a scenario does: it raised TypeError ('Policy' object is not
    iterable)."""
    batch, task = realize_batch(default_route, zero_errors, 0, 3), make_task(50.0)
    policy = Policy.NO_PREDICTION_OFFLOAD
    (lone,) = run_policies(batch, task, policy, zero_errors).items()
    (listed,) = run_policies(batch, task, [policy], zero_errors).items()
    assert lone[0] is listed[0] is policy
    for name in ("offload_pct", "transfer_delay", "completed", "energy_j"):
        np.testing.assert_array_equal(getattr(lone[1], name), getattr(listed[1], name))


def test_a_trip_stays_on_python_scalars(route_2ap, route_4ap, route_8ap, default_errors):
    """A numpy scalar that leaks into the float form stays bit-equal but
    costs several times a float per operation: every field of a trip's
    outcome is a Python float or bool, under each admitted policy of both
    classes, on the bundled routes and on random ones."""
    rng = np.random.default_rng(34)
    routes = [route_2ap, route_4ap, route_8ap] + [random_route(rng) for _ in range(20)]
    flags = ("deadline_met", "completed", "plan_infeasible")
    checked = 0
    for route in routes:
        realized = realize_route(route, default_errors)
        for size in (5.0, 60.0):
            for sensitive in (False, True):
                task = make_task(size, threshold=0.9 * route.total_time, sensitive=sensitive)
                for policy in ALL_POLICIES:
                    if not policy.admits(task.traffic_class):
                        continue
                    out = run_trip(realized, route, task, policy, default_errors)
                    for name, value in [*out._asdict().items(), *out.energy._asdict().items()]:
                        if name != "energy":
                            assert type(value) is (bool if name in flags else float), \
                                (policy, name, type(value))
                    assert out.completion_time is None or type(out.completion_time) is float
                    assert type(out.energy_j) is float
                    checked += 1
    assert checked == len(routes) * 2 * 7


class TestConservation:
    def test_channel_totals_sum_to_received(self, default_route):
        errors = ErrorSpec(0.20, 0.40, seed=3)
        realized = realize_route(default_route, errors)
        for sensitive in (False, True):
            task = make_task(60.0, sensitive=sensitive)
            for policy in policies_for(task):
                out = run_trip(realized, default_route, task, policy, errors)
                total = out.mobile_mb + out.wifi_local_mb + out.wifi_backhaul_mb
                if out.completed:
                    assert total == pytest.approx(task.size_mb, abs=1e-6)
                else:
                    assert total <= task.size_mb + 1e-6

    def test_random_routes(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            route = random_route(rng)
            errors = ErrorSpec(float(rng.uniform(0, 0.4)),
                               float(rng.uniform(0, 0.8)),
                               seed=int(rng.integers(1 << 30)))
            realized = realize_route(route, errors)
            task = make_task(float(rng.uniform(0.5, 120)),
                             threshold=route.total_time,
                             sensitive=bool(rng.random() < 0.5))
            for policy in policies_for(task):
                out = run_trip(realized, route, task, policy, errors)
                total = out.mobile_mb + out.wifi_local_mb + out.wifi_backhaul_mb
                assert total <= task.size_mb + 1e-6
                if out.completed:
                    assert total == pytest.approx(task.size_mb, abs=1e-6)
                    assert out.transfer_delay <= realized.total_time + 1e-6


class TestDeterminism:
    def test_identical_inputs_identical_outcomes(self, default_route):
        errors = ErrorSpec(0.10, 0.20, seed=77)
        realized = realize_route(default_route, errors)
        task = make_task(60.0)
        a = run_trip(realized, default_route, task, Policy.PREFETCH_DELAY_TOLERANT, errors)
        b = run_trip(realized, default_route, task, Policy.PREFETCH_DELAY_TOLERANT, errors)
        assert a == b


class TestDeadlineProperty:
    def test_zero_error_feasible_plans_meet_threshold(self):
        rng = np.random.default_rng(13)
        zero = ErrorSpec(0.0, 0.0, seed=1)
        checked = 0
        for _ in range(250):
            route = random_route(rng)
            if route.n_hotspots == 0 or route.mobile_time() == 0:
                continue
            realized = realize_route(route, zero)
            threshold = route.total_time * float(rng.uniform(0.6, 1.0))
            task = make_task(float(rng.uniform(1, 80)), threshold=threshold)
            for policy in (Policy.PREFETCH_DELAY_TOLERANT,
                           Policy.PREDICTION_ONLY_DELAY_TOLERANT):
                out = run_trip(realized, route, task, policy, zero)
                if not out.plan_infeasible:
                    assert out.deadline_met, (route, task, policy, out)
                    checked += 1
        assert checked >= 100


class TestMonotonicity:
    # Size monotonicity holds for the policies that plan their mobile rate
    # (their WiFi capture is fixed once the plan is active) and trivially for
    # mobile-only.  The greedy policies are exempt: when the marginal
    # completion lands inside a hotspot window, the extra bytes arrive over
    # WiFi and offload rises with size.
    MONOTONE_POLICIES = (Policy.PREFETCH_DELAY_TOLERANT,
                         Policy.PREDICTION_ONLY_DELAY_TOLERANT,
                         Policy.MOBILE_ONLY)

    def test_offload_never_increases_with_size(self, default_route, zero_errors):
        realized = realize_route(default_route, zero_errors)
        for policy in self.MONOTONE_POLICIES:
            offloads = [
                run_trip(realized, default_route, make_task(size),
                         policy, zero_errors).offload_pct
                for size in (20.0, 30.0, 45.0, 60.0, 75.0, 90.0)
            ]
            for small, big in zip(offloads, offloads[1:]):
                assert big <= small + 1e-9

    def test_prefetch_offload_grows_with_local_rate(self, route_4ap, zero_errors):
        factors = (0.25, 1 / 3, 0.5, 0.75, 1.0)
        offloads = []
        for wf in factors:
            route = scale_route(route_4ap, 1 / 3, wf, 1 / 3)
            realized = realize_route(route, zero_errors)
            offloads.append(
                run_trip(realized, route, make_task(60.0),
                         Policy.PREFETCH_DELAY_TOLERANT, zero_errors).offload_pct
            )
        for lo, hi in zip(offloads, offloads[1:]):
            assert hi >= lo - 1e-9

    def test_random_route_size_monotonicity(self):
        rng = np.random.default_rng(17)
        zero = ErrorSpec(0.0, 0.0, seed=1)
        for _ in range(80):
            route = random_route(rng)
            realized = realize_route(route, zero)
            base = float(rng.uniform(1, 60))
            task_small = make_task(base, threshold=route.total_time)
            task_big = make_task(base * 1.4, threshold=route.total_time)
            for policy in self.MONOTONE_POLICIES:
                small = run_trip(realized, route, task_small, policy, zero)
                big = run_trip(realized, route, task_big, policy, zero)
                assert big.offload_pct <= small.offload_pct + 1e-9


class TestEnergyAccounting:
    def test_all_mobile_transfer(self, route_4ap, zero_errors):
        realized = realize_route(route_4ap, zero_errors)
        out = run_trip(realized, route_4ap, make_task(60.0, sensitive=True),
                       Policy.MOBILE_ONLY, zero_errors)
        assert out.completed
        assert out.energy_j == pytest.approx(6000.0, abs=1e-6)
        assert out.energy.wifi_idle_j == 0.0

    # Hand-built routes at 8 Mbit/s (1 MB/s) on every mobile segment and
    # backhaul, run under no-prediction, which fetches from the origin for
    # the whole dwell.  The interface is on from 20 s before each entry.
    @staticmethod
    def route(*spans):
        """Segments over consecutive ``(kind, duration)`` spans."""
        segments, t, hotspot = [], 0.0, 0
        for kind, duration in spans:
            if kind is AccessKind.WIFI:
                hotspot += 1
                segments.append(RouteSegment(kind, t, duration, wifi_local_rate=16.0,
                                             backhaul_rate=8.0, hotspot_index=hotspot))
            else:
                segments.append(RouteSegment(kind, t, duration, mobile_rate=8.0))
            t += duration
        return RouteProfile(tuple(segments), t)

    def energy(self, route, size_mb, zero_errors):
        out = run_trip(realize_route(route, zero_errors), route,
                       make_task(size_mb, threshold=route.total_time),
                       Policy.NO_PREDICTION_OFFLOAD, zero_errors)
        assert out.completed
        return out.energy

    def test_idle_window(self, zero_errors):
        # on over [30, 68), busy 18 s: 50 MB mobile, 18 MB WiFi, 132 MB mobile
        route = self.route((AccessKind.MOBILE, 50.0), (AccessKind.WIFI, 18.0),
                           (AccessKind.MOBILE, 201.0))
        assert self.energy(route, 200.0, zero_errors) == EnergyBreakdown(
            mobile_j=100.0 * 182.0, wifi_transfer_j=5.0 * 18.0, wifi_idle_j=0.77 * 20.0)

    def test_preactivation_clipped_at_trip_start(self, zero_errors):
        # entry at 10 s: on over [0, 30), not [-10, 30), busy 20 s
        route = self.route((AccessKind.MOBILE, 10.0), (AccessKind.WIFI, 20.0),
                           (AccessKind.MOBILE, 70.0))
        assert self.energy(route, 80.0, zero_errors) == EnergyBreakdown(
            mobile_j=100.0 * 60.0, wifi_transfer_j=5.0 * 20.0, wifi_idle_j=0.77 * 10.0)

    def test_interface_off_after_completion(self, zero_errors):
        # the object is done 4 s into the hotspot: on over [30, 54), not [30, 68)
        route = self.route((AccessKind.MOBILE, 50.0), (AccessKind.WIFI, 18.0),
                           (AccessKind.MOBILE, 201.0))
        assert self.energy(route, 54.0, zero_errors) == EnergyBreakdown(
            mobile_j=100.0 * 50.0, wifi_transfer_j=5.0 * 4.0, wifi_idle_j=0.77 * 20.0)

    @pytest.mark.parametrize("policy", DT_POLICIES[:3])
    def test_overlapping_on_windows_count_per_visit(self, policy, zero_errors):
        """Hotspots 10 s apart, under the 20 s pre-activation: the on-windows
        [30, 68) and [58, 96) overlap.  The rule counts each visit's window
        less its busy seconds, 20 s each, so 40 s idle; one interface on over
        their union and busy 36 s would be 30 s.  README states the per-visit
        rule as the current one; this pins it, so that a change of rule shows
        here.  The 300 MB object never completes, so every dwell is busy."""
        wifi = dict(wifi_local_rate=8.0, backhaul_rate=8.0)
        route = RouteProfile((
            RouteSegment(AccessKind.MOBILE, 0.0, 50.0, mobile_rate=1.0),
            RouteSegment(AccessKind.WIFI, 50.0, 18.0, hotspot_index=1, **wifi),
            RouteSegment(AccessKind.MOBILE, 68.0, 10.0, mobile_rate=1.0),
            RouteSegment(AccessKind.WIFI, 78.0, 18.0, hotspot_index=2, **wifi),
            RouteSegment(AccessKind.MOBILE, 96.0, 201.0, mobile_rate=1.0)), 297.0)
        out = run_trip(realize_route(route, zero_errors), route,
                       make_task(300.0, threshold=route.total_time), policy, zero_errors)
        assert not out.completed
        assert out.wifi_local_mb + out.wifi_backhaul_mb == 36.0
        assert out.energy.wifi_idle_j == 0.77 * 40.0

    def test_trip_without_hotspot(self, zero_errors):
        route = self.route((AccessKind.MOBILE, 100.0))
        assert self.energy(route, 60.0, zero_errors) == EnergyBreakdown(
            mobile_j=100.0 * 60.0, wifi_transfer_j=0.0, wifi_idle_j=0.0)

    def test_breakdown_components(self, default_route, default_errors):
        realized = realize_route(default_route, default_errors)
        out = run_trip(realized, default_route, make_task(60.0),
                       Policy.PREFETCH_DELAY_TOLERANT, default_errors)
        e = out.energy
        assert e.mobile_j == pytest.approx(100.0 * out.mobile_mb)
        assert e.wifi_transfer_j == pytest.approx(
            5.0 * (out.wifi_local_mb + out.wifi_backhaul_mb))
        assert e.wifi_idle_j >= 0.0
        assert out.energy_j == pytest.approx(e.mobile_j + e.wifi_transfer_j + e.wifi_idle_j)


class TestCacheUsage:
    def test_cache_provisioned_only_by_prefetch_policies(self, default_route,
                                                         default_errors):
        realized = realize_route(default_route, default_errors)
        task = make_task(60.0)
        out = run_trip(realized, default_route, task,
                       Policy.PREFETCH_DELAY_TOLERANT, default_errors)
        assert out.cache_bytes_used > 0
        out = run_trip(realized, default_route, task,
                       Policy.PREDICTION_ONLY_DELAY_TOLERANT, default_errors)
        assert out.cache_bytes_used == 0.0

    def test_wifi_window_mobile_rate_inherited(self, zero_errors):
        # a route that opens with a hotspot: MobileOnly rides the following
        # segment's rate through the window
        segs = (
            RouteSegment(AccessKind.WIFI, 0.0, 10.0, wifi_local_rate=16.0,
                         backhaul_rate=8.0, hotspot_index=1),
            RouteSegment(AccessKind.MOBILE, 10.0, 40.0, mobile_rate=4.0),
        )
        route = RouteProfile(segs, 50.0)
        realized = realize_route(route, zero_errors)
        out = run_trip(realized, route, make_task(10.0, threshold=50.0),
                       Policy.MOBILE_ONLY, zero_errors)
        # 4 Mbit/s straight through: 80 Mbit in 20 s
        assert out.completion_time == pytest.approx(20.0)
