import collections
import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (edge_routes, make_task, random_route, reference_forecast,
                      reference_forecasts, reference_hotspots, row_fields)
from offloadsim import engine, oracle, prediction
from offloadsim.engine import run_trip
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.policies import Policy
from offloadsim.prediction import (
    ErrorSpec,
    build_prediction,
    derive_run_seed,
    realize_batch,
    realize_route,
)


def assert_fields_equal(a, b):
    """Same type and every field equal: a dataclass's fields or a NamedTuple's."""
    assert type(a) is type(b)
    names = a._fields if isinstance(a, tuple) else [f.name for f in dataclasses.fields(a)]
    for name in names:
        assert getattr(a, name) == getattr(b, name), name


def assert_forecasts_equal(got, want):
    """A route's forecast tuple equals ``want``'s, every field of every
    element with ==."""
    assert type(got) is tuple and len(got) == len(want)
    for g, w in zip(got, want):
        assert_fields_equal(g, w)


def realize_route_scalar(route, errors):
    """Reference realization: one scalar draw per perturbed value."""
    rng = np.random.default_rng(errors.seed)
    te, re = errors.time_error, errors.throughput_error

    def jitter(value, err):
        return value * (1.0 + err * rng.uniform(-1.0, 1.0))

    out = []
    cursor = 0.0
    for seg in route.segments:
        dur = jitter(seg.duration, te)
        if seg.is_wifi:
            local = jitter(seg.wifi_local_rate, re)
            back = min(jitter(seg.backhaul_rate, re), local)
            out.append(RouteSegment(kind=AccessKind.WIFI, start_time=cursor, duration=dur,
                                    wifi_local_rate=local, backhaul_rate=back,
                                    hotspot_index=seg.hotspot_index))
        else:
            out.append(RouteSegment(kind=AccessKind.MOBILE, start_time=cursor, duration=dur,
                                    mobile_rate=jitter(seg.mobile_rate, re)))
        cursor += dur
    return RouteProfile(tuple(out), cursor)


def reference_check_realizable(route, time_error, throughput_error):
    """``check_realizable`` as a walk over every segment's values, kept as the
    reference that its decision on the extremes must match."""
    te, re = time_error, throughput_error
    longest = functools.reduce(lambda total, seg: total + seg.duration * (1 + te),
                               route.segments, 0.0)
    if not longest < math.inf:
        raise ValueError(f"the realized total time overflows at time error {te}")
    for i, seg in enumerate(route.segments):
        drawn = ([("wifi local rate", seg.wifi_local_rate, re),
                  ("backhaul rate", seg.backhaul_rate, re)] if seg.is_wifi
                 else [("mobile rate", seg.mobile_rate, re)])
        for name, value, e in [("duration", seg.duration, te), *drawn]:
            if not (value * (1 - e) > 0 and value * (1 + e) < math.inf):
                raise ValueError(f"segment {i}: a realized {name} leaves (0, inf) at error {e}")
            if name != "duration" and not value * (1 + e) * longest < math.inf:
                raise ValueError(f"segment {i}: a realized {name} times the realized "
                                 "total time overflows")
    return longest


TINY, HUGE = 5e-324, sys.float_info.max
SUBNORMAL = st.floats(TINY, sys.float_info.min, exclude_max=True)
# at most 8 durations of at most HUGE / 8 s sum to a finite total
DURATIONS = st.one_of(SUBNORMAL, st.floats(1e-3, 1e4), st.floats(1e306, HUGE / 8),
                      st.sampled_from([TINY, HUGE / 8]))
RATES = st.one_of(SUBNORMAL, st.floats(1e-3, 1e4), st.floats(1e300, HUGE),
                  st.sampled_from([TINY, 1e308, HUGE]))
ERRORS = st.one_of(st.sampled_from([0.0, 0.5, 1 - 2 ** -53]),
                   st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def extreme_routes(draw):
    """Routes of 1 to 8 segments, all mobile, all WiFi or mixed, with
    subnormal, ordinary and near-overflow durations and rates; in some, every
    duration is within a factor 2 of HUGE / 8, so the total can overflow."""
    kinds = draw(st.one_of(st.lists(st.just(False), min_size=1, max_size=8),
                           st.lists(st.just(True), min_size=1, max_size=8),
                           st.lists(st.booleans(), min_size=1, max_size=8)))
    durations = draw(st.sampled_from([DURATIONS, st.floats(HUGE / 16, HUGE / 8)]))
    segments, t = [], 0.0
    for wifi in kinds:
        duration = draw(durations)
        if wifi:
            local, backhaul = sorted((draw(RATES), draw(RATES)), reverse=True)
            segments.append(RouteSegment(AccessKind.WIFI, t, duration, wifi_local_rate=local,
                                         backhaul_rate=backhaul,
                                         hotspot_index=len(segments) + 1))
        else:
            segments.append(RouteSegment(AccessKind.MOBILE, t, duration,
                                         mobile_rate=draw(RATES)))
        t += duration
    return RouteProfile(tuple(segments), t)


class TestErrorSpec:
    @pytest.mark.parametrize("field", ["time_error", "throughput_error"])
    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5, math.nan, 10 ** 400,
                                       "0.1", None, False, True, [0.1]])
    def test_bounds(self, field, value):
        """A string or None raised TypeError, and False was taken as 0."""
        with pytest.raises(ValueError, match=f"{field} must be in \\[0, 1\\)"):
            ErrorSpec(**{field: value})

    @pytest.mark.parametrize("seed", [True, False, 1.0, 0.9, -1, "1", None])
    def test_seed_is_a_non_negative_integer(self, seed):
        """A bool once ran as 0 or 1, and a float failed inside numpy."""
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ErrorSpec(0.1, 0.2, seed=seed)

    def test_seed_takes_any_non_negative_integer(self):
        assert ErrorSpec(seed=np.int64(3)).seed == 3
        assert ErrorSpec(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


class TestBuildPrediction:
    def test_zero_errors_equal_nominal(self, default_route, zero_errors):
        """With no errors each WiFi sum is the nominal route's, taken left to
        right, and the cache cap is the first hotspot's volume."""
        pred = build_prediction(default_route, zero_errors)[0]
        hotspots = default_route.hotspots
        assert len(hotspots) == 4 and pred.next_hotspot == hotspots[0].hotspot_index
        local = backhaul = seconds = 0.0
        for seg in hotspots:
            dwell = seg.end_time - seg.start_time
            local += seg.wifi_local_rate * dwell
            backhaul += seg.backhaul_rate * dwell
            seconds += dwell
        assert pred.wifi_local_mbit == local
        assert pred.wifi_backhaul_mbit == backhaul
        assert pred.wifi_seconds == seconds == 72.0
        assert pred.next_cache_mb == hotspots[0].wifi_local_rate * hotspots[0].duration / 8

    def test_bounds_with_errors(self, route_4ap):
        # second hotspot of the one-third-scaled route, seen on leaving the first
        route = scale_route(route_4ap, wifi_factor=1 / 3)
        first = reference_hotspots(route, 1, 0.10, 0.20, None)[0]
        assert first.hotspot_index == 2
        assert first.duration_min == pytest.approx(16.2, abs=1e-12)
        assert first.duration_max == pytest.approx(19.8, abs=1e-12)
        assert first.local_min == pytest.approx(4.464, abs=1e-12)
        assert first.local_max == pytest.approx(6.696, abs=1e-12)
        pred = build_prediction(route, ErrorSpec(time_error=0.10, throughput_error=0.20))[1]
        assert pred.next_hotspot == 2
        assert pred.next_cache_mb == pytest.approx(6.696 * 19.8 / 8, rel=1e-12)
        assert pred.wifi_seconds == pytest.approx(3 * 16.2, rel=1e-12)
        assert_fields_equal(pred, reference_forecast(route, 1, 0.10, 0.20, None))

    def test_backhaul_bounds(self, default_route, default_errors):
        pred = build_prediction(default_route, default_errors)[0]
        seg = default_route.hotspots[0]
        first = reference_hotspots(default_route, 0, 0.10, 0.20, None)[0]
        assert first.backhaul_min == pytest.approx(0.8 * seg.backhaul_rate)
        assert first.backhaul_max == pytest.approx(1.2 * seg.backhaul_rate)
        assert pred.wifi_backhaul_mbit == pytest.approx(
            sum(0.8 * s.backhaul_rate * 0.9 * s.duration for s in default_route.hotspots))

    def test_gap_and_horizon_quantities(self, default_route, zero_errors):
        pred, pred36 = build_prediction(default_route, zero_errors)[:2]  # at 0 and 36 s
        assert pred.time_to_next_wifi == pytest.approx(18.0)
        assert pred.max_mobile_rate == pytest.approx(4.83 / 3)
        assert pred.sustainable_mobile_rate == pytest.approx(4.58 / 3)

        assert pred36.time_to_next_wifi == pytest.approx(54.0)
        assert pred36.max_mobile_rate == pytest.approx(4.58 / 3)

    def test_no_hotspots_left(self, default_route, zero_errors):
        forecasts = build_prediction(default_route, zero_errors)
        assert len(forecasts) == 5
        pred = forecasts[4]
        assert pred.next_hotspot is None
        assert pred.wifi_local_mbit == pred.wifi_backhaul_mbit == pred.wifi_seconds == 0.0
        assert pred.next_cache_mb == 0.0
        assert pred.time_to_next_wifi == 0.0

    def test_horizon_clips_windows(self, default_route, zero_errors):
        # deadline lands 9 s into the second hotspot window
        pred = build_prediction(default_route, zero_errors, horizon=99.0)[0]
        hotspots = reference_hotspots(default_route, 0, 0.0, 0.0, 99.0)
        assert len(hotspots) == 2
        assert hotspots[1].duration_max == pytest.approx(9.0)
        assert pred.wifi_seconds == pytest.approx(18.0 + 9.0)
        assert pred.next_hotspot == 1
        # and drops hotspots past it entirely
        pred = build_prediction(default_route, zero_errors, horizon=80.0)[0]
        assert len(reference_hotspots(default_route, 0, 0.0, 0.0, 80.0)) == 1
        assert pred.wifi_seconds == pytest.approx(18.0)

    def test_nan_horizon(self, default_route, zero_errors, fresh_memos):
        """A NaN horizon would clip to NaN, forecast as no horizon does and
        cache a key no later call can hit."""
        with pytest.raises(ValueError, match="horizon"):
            build_prediction(default_route, zero_errors, horizon=float("nan"))
        assert prediction._walk.cache_info().currsize == 0


class TestForecastMemo:
    def test_seed_does_not_change_forecast(self):
        rng = np.random.default_rng(21)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            te, re = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9))
            a = build_prediction(route, ErrorSpec(te, re, seed=1))
            b = build_prediction(route, ErrorSpec(te, re, seed=2))
            assert len(a) == len(b) == route.n_hotspots + 1
            for x, y in zip(a, b):
                assert_fields_equal(x, y)

    def test_memoized_equals_uncached(self):
        rng = np.random.default_rng(22)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            errors = ErrorSpec(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9)),
                               seed=int(rng.integers(1 << 30)))
            horizon = float(rng.uniform(0.3, 1.2)) * route.total_time
            for h in (None, horizon):
                first = build_prediction(route, errors, h)
                again = build_prediction(route, errors, h)
                fresh = reference_forecasts(route, errors.time_error,
                                            errors.throughput_error, h)
                assert again is first
                assert_forecasts_equal(first, fresh)

    def test_horizons_at_or_past_the_route_end_share_one_forecast(self):
        """No horizon, the route end and a horizon past it clip to the same
        horizon, so they get one forecast object, equal to the scan's; a
        horizon inside the route gets its own."""
        rng = np.random.default_rng(24)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            te, re = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9))
            errors = ErrorSpec(te, re)
            inside = float(rng.uniform(0.3, 0.9)) * route.total_time
            shared = build_prediction(route, errors, None)
            for h in (route.total_time, 1.5 * route.total_time):
                assert build_prediction(route, errors, h) is shared
            assert_forecasts_equal(shared, reference_forecasts(route, te, re, None))
            own = build_prediction(route, errors, inside)
            assert own is not shared
            assert_forecasts_equal(own, reference_forecasts(route, te, re, inside))

    def test_alternating_routes_get_their_own_forecast(self):
        """Forecasts are keyed by the route's value: a route that differs in
        one rate gets its own, and an equal route the same tuple."""
        rng = np.random.default_rng(23)
        errors = ErrorSpec(0.10, 0.20)
        checked = 0
        while checked < 30:
            route = random_route(rng)
            if route.n_hotspots == 0:
                continue
            i = next(i for i, s in enumerate(route.segments) if s.is_wifi)
            faster = dataclasses.replace(
                route.segments[i], wifi_local_rate=1.5 * route.segments[i].wifi_local_rate)
            other = RouteProfile(route.segments[:i] + (faster,) + route.segments[i + 1:],
                                 route.total_time)
            twin = RouteProfile(route.segments, route.total_time)  # equal, not identical
            want = {id(r): reference_forecasts(r, 0.10, 0.20, None)
                    for r in (route, other, twin)}
            assert want[id(route)] != want[id(other)]
            for r in (route, other, route, twin, other, twin, route):
                assert build_prediction(r, errors) == want[id(r)]
            assert build_prediction(twin, errors) is build_prediction(route, errors)
            checked += 1


def forecast_horizons(route, rng):
    """No horizon, one before the first hotspot, one straddling a hotspot,
    one at and one a hair past a hotspot start, one a hair past a mobile
    segment's start, and ones at and past the route's end."""
    horizons = [None, route.total_time, 1.5 * route.total_time]
    horizons.append(float(rng.uniform(0, route.total_time)))
    hotspots = route.hotspots
    if hotspots:
        horizons.append(0.5 * hotspots[0].start_time)
        seg = hotspots[int(rng.integers(len(hotspots)))]
        horizons += [seg.start_time + 0.5 * seg.duration, seg.start_time,
                     seg.start_time + 5e-13]
    mobile = [seg for seg in route.segments if not seg.is_wifi]
    if mobile:
        horizons.append(mobile[int(rng.integers(len(mobile)))].start_time + 1e-12)
    return horizons


class TestForecastIndex:
    ERROR_PAIRS = ((0.0, 0.0), (0.10, 0.20), (0.35, 0.05), (0.49, 0.9))

    def test_equals_reference(self):
        """Every field of every replan point's forecast equals the scan's,
        with ==."""
        rng = np.random.default_rng(27)
        routes = [random_route(rng) for _ in range(150)]
        routes += [random_route(rng, n_segments=int(rng.integers(28, 37)))
                   for _ in range(6)]
        routes += edge_routes(rng)
        mobile_only = random_route(rng, n_segments=4)
        while mobile_only.n_hotspots:
            mobile_only = random_route(rng, n_segments=4)
        routes.append(mobile_only)
        checked = 0
        for i, route in enumerate(routes):
            te, re = self.ERROR_PAIRS[i % len(self.ERROR_PAIRS)]
            errors = ErrorSpec(te, re)
            # two draws of horizons per route; each forecast bounds both WiFi rates
            for h in forecast_horizons(route, rng) + forecast_horizons(route, rng):
                got = build_prediction(route, errors, h)
                assert_forecasts_equal(got, reference_forecasts(route, te, re, h))
                checked += len(got)
        assert checked > 9_000

    def test_one_index_per_route(self, monkeypatch, fresh_memos):
        """All five policies on one route, through every replan, index the
        route once and walk it once per key: the delay-tolerant task's
        horizon and the delay-sensitive task's none.  Each planning trip
        reads its forecasts in one call, and the two delay-tolerant planning
        trips share one tuple."""
        builds = collections.Counter()
        real_index = prediction._RouteIndex

        def index(route, *fields):
            builds[id(route)] += 1
            return real_index(route, *fields)

        forecasts = collections.defaultdict(list)

        def counted(*args, **kwargs):
            forecasts[policy].append(build_prediction(*args, **kwargs))
            return forecasts[policy][-1]

        monkeypatch.setattr(prediction, "_RouteIndex", index)
        monkeypatch.setattr(engine, "build_prediction", counted)
        rng = np.random.default_rng(28)
        route = random_route(rng, n_segments=32)
        while route.n_hotspots < 8:
            route = random_route(rng, n_segments=32)
        errors = ErrorSpec(0.10, 0.20, seed=3)
        realized = realize_route(route, errors)
        # more than the route can carry, so every trip replans at every exit
        size = sum(s.duration * (s.backhaul_rate if s.is_wifi else s.mobile_rate)
                   for s in route.segments) / 8
        tolerant = make_task(size, threshold=0.8 * route.total_time)
        sensitive = make_task(size, sensitive=True)
        for policy in Policy:
            task = sensitive if policy is Policy.PREFETCH_DELAY_SENSITIVE else tolerant
            run_trip(realized, route, task, policy, errors)
        assert builds == {id(route): 1}
        walks = prediction._walk.cache_info()
        assert walks.misses == walks.currsize == 2  # nothing walked twice, or evicted
        planning = (Policy.PREFETCH_DELAY_TOLERANT, Policy.PREDICTION_ONLY_DELAY_TOLERANT,
                    Policy.PREFETCH_DELAY_SENSITIVE)
        assert set(forecasts) == set(planning)
        assert all(len(calls) == 1 for calls in forecasts.values())
        assert walks.hits == 1
        assert forecasts[planning[0]][0] is forecasts[planning[1]][0]
        assert len(forecasts[planning[0]][0]) == route.n_hotspots + 1


def time_scaled(route: RouteProfile, factor: float) -> RouteProfile:
    """``route`` with every start time, duration and the total time times
    ``factor``; the rates are unchanged."""
    return RouteProfile(tuple(dataclasses.replace(seg, start_time=seg.start_time * factor,
                                                  duration=seg.duration * factor)
                              for seg in route.segments), route.total_time * factor)


class TestTimeScale:
    @pytest.mark.parametrize("k", [-60, -50, -40, -20, 20, 40, 60])
    def test_forecasts_scale_exactly(self, k, route_2ap, route_4ap, route_8ap):
        """Times scaled by 2**k, horizon too, scale every time-bearing value a
        forecast holds (its three WiFi sums, the cache cap and the time to the
        next hotspot) by exactly 2**k and change nothing else: no absolute
        time threshold decides what a forecast holds."""
        factor = 2.0 ** k
        rng = np.random.default_rng(33)
        routes = [route_2ap, route_4ap, route_8ap] + [random_route(rng) for _ in range(40)]
        checked = 0
        for route in routes:
            scaled = time_scaled(route, factor)
            for te, re in ((0.0, 0.0), (0.10, 0.20), (0.49, 0.9)):
                for share in (None, 0.5, 0.9):
                    horizon = None if share is None else share * route.total_time
                    errors = ErrorSpec(te, re)
                    want = tuple(
                        pred._replace(wifi_local_mbit=pred.wifi_local_mbit * factor,
                                      wifi_backhaul_mbit=pred.wifi_backhaul_mbit * factor,
                                      wifi_seconds=pred.wifi_seconds * factor,
                                      next_cache_mb=pred.next_cache_mb * factor,
                                      time_to_next_wifi=pred.time_to_next_wifi * factor)
                        for pred in build_prediction(route, errors, horizon))
                    got = build_prediction(scaled, errors,
                                           None if horizon is None else horizon * factor)
                    assert got == want, (route, te, re, share)
                    checked += 1
        assert checked == 387


class TestRouteIndex:
    def test_window_equals_oracle_scan(self):
        """Each WiFi segment's window in the index is the oracle's own scan's
        (the nearest mobile segment, preceding first, else following; None
        on a WiFi-only route), and a mobile segment's window is itself."""
        rng = np.random.default_rng(29)
        routes = [random_route(rng) for _ in range(200)] + edge_routes(rng)
        seen = collections.Counter()
        for route in routes:
            index = prediction._route_index(route)
            wifi = [seg.is_wifi for seg in route.segments]
            assert index.wifi == tuple(wifi)
            for i, w in enumerate(wifi):
                assert index.window[i] == (oracle._window_mobile_segment(route, i)
                                           if w else i)
            seen["wifi first"] += wifi[0]
            seen["wifi last"] += wifi[-1]
            seen["adjacent mobile"] += any(not a and not b for a, b in zip(wifi, wifi[1:]))
            seen["wifi only"] += all(wifi)
        assert min(seen.values()) > 0

    def test_forecast_keys_are_bounded(self, route_8ap, fresh_memos):
        """20,000 forecast tuples with distinct horizons on one route leave
        the forecast cache full but within its bound, index no route, and
        each answer still equals the scan's."""
        route = scale_route(route_8ap, 1 / 3, 1 / 3, 1 / 3)
        errors = ErrorSpec(0.10, 0.20)
        horizons = np.linspace(1.0, route.total_time, 20_000).tolist()
        for i, horizon in enumerate(horizons):
            got = build_prediction(route, errors, horizon=horizon)
            if i % 97 == 0 or i == len(horizons) - 1:
                assert_forecasts_equal(
                    got, reference_forecasts(route, 0.10, 0.20, horizon))
        info = prediction._walk.cache_info()
        assert info.currsize == info.maxsize < info.misses == len(horizons)
        info = prediction._route_index.cache_info()
        assert info.misses == info.currsize == 0


class TestRealizeRoute:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(route=extreme_routes(), time_error=ERRORS, throughput_error=ERRORS)
    def test_realizable_on_the_extremes_as_segment_by_segment(self, route, time_error,
                                                              throughput_error):
        """Deciding on the shortest duration, the lowest and highest rate and
        the longest total time gives the segment walk's verdict: the same
        longest total time, or the same ValueError message, which names the
        first failing segment."""
        check = prediction.check_realizable.__wrapped__  # the body, past the memo
        try:
            want = reference_check_realizable(route, time_error, throughput_error)
        except ValueError as error:
            with pytest.raises(ValueError) as got:
                check(route, time_error, throughput_error)
            assert str(got.value) == str(error)
        else:
            assert check(route, time_error, throughput_error) == want

    def test_a_realization_builds_no_segment_and_checks_once(self, monkeypatch,
                                                             fresh_memos):
        """A realization and the five trips on it, on one 32-segment route,
        build no RouteSegment or RouteProfile (rows hold the realized
        values; check_realizable proved them before any draw) and run
        check_realizable's body once."""
        rng = np.random.default_rng(28)
        route = random_route(rng, n_segments=32)
        errors = ErrorSpec(0.10, 0.20, seed=3)
        size = sum(s.duration * (s.backhaul_rate if s.is_wifi else s.mobile_rate)
                   for s in route.segments) / 8
        tolerant = make_task(size, threshold=0.8 * route.total_time)
        sensitive = make_task(size, sensitive=True)
        built = collections.Counter()
        for cls in (RouteSegment, RouteProfile):
            def counted(self, *args, init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        checks, check = [], prediction.check_realizable.__wrapped__

        def body(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(prediction, "check_realizable", functools.lru_cache(body))
        realized = realize_route(route, errors)
        for policy in Policy:
            task = sensitive if policy is Policy.PREFETCH_DELAY_SENSITIVE else tolerant
            run_trip(realized, route, task, policy, errors)
        assert len(Policy) == 5 and not built
        assert checks == [(route, 0.10, 0.20)]
        RouteProfile(route.segments, route.total_time)  # the counters count
        assert built == {"RouteProfile": 1}

    def test_zero_errors_identity(self):
        """At zero errors each row holds its nominal segment's values bit for
        bit, as floats, and only the rates the segment carries: so a test may
        run a trip on the zero-error realization of its route."""
        rng = np.random.default_rng(23)
        for route in [random_route(rng) for _ in range(20)] + edge_routes(rng):
            realized = realize_route(route, ErrorSpec(0.0, 0.0, seed=7))
            assert realized.route is route and realized.total_time == route.total_time
            for row, seg in zip(realized.segments, route.segments, strict=True):
                got, want = row_fields(row), row_fields(seg)
                assert all(type(v) is float for v in got.values())
                assert {k: v.hex() for k, v in got.items()} == {
                    k: float(v).hex() for k, v in want.items()}

    def test_deterministic_for_seed(self, default_route):
        errors = ErrorSpec(0.10, 0.20, seed=1234)
        a, b = realize_route(default_route, errors), realize_route(default_route, errors)
        assert list(map(row_fields, a.segments)) == list(map(row_fields, b.segments))

    def test_a_batch_is_equal_only_to_itself(self, default_route):
        """Two draws of one seed hold equal values but are unequal objects,
        and a batch hashes by identity, not by its rows."""
        errors = ErrorSpec(0.10, 0.20, seed=1234)
        a, b = realize_route(default_route, errors), realize_route(default_route, errors)
        assert list(map(row_fields, a.segments)) == list(map(row_fields, b.segments))
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
        assert b not in {a} and a in {a}

    def test_different_seeds_differ(self, default_route):
        a = realize_route(default_route, ErrorSpec(0.10, 0.20, seed=1))
        b = realize_route(default_route, ErrorSpec(0.10, 0.20, seed=2))
        assert list(map(row_fields, a.segments)) != list(map(row_fields, b.segments))

    def test_draws_stay_in_intervals(self, default_route):
        errors_by_seed = (ErrorSpec(0.10, 0.20, seed=s) for s in range(1200))
        for errors in errors_by_seed:
            realized = realize_route(default_route, errors)
            for seg, nom in zip(realized.segments, default_route.segments):
                assert 0.9 * nom.duration <= seg.duration <= 1.1 * nom.duration
                if nom.is_wifi:
                    assert 0.8 * nom.wifi_local_rate <= seg.wifi_local_rate <= 1.2 * nom.wifi_local_rate
                    assert seg.backhaul_rate <= 1.2 * nom.backhaul_rate
                else:
                    assert 0.8 * nom.mobile_rate <= seg.mobile_rate <= 1.2 * nom.mobile_rate

    def test_sample_mean_matches_nominal(self, default_route):
        # uniform symmetric perturbation: the average realized duration of the
        # first segment converges on its nominal 18 s
        draws = [
            realize_route(default_route, ErrorSpec(0.10, 0.20, seed=s)).segments[0].duration
            for s in range(10_000)
        ]
        assert np.mean(draws) == pytest.approx(18.0, rel=0.01)

    def test_start_times_rebuilt(self, default_route):
        realized = realize_route(default_route, ErrorSpec(0.30, 0.0, seed=5))
        cursor = 0.0
        for seg in realized.segments:
            assert seg.start_time == pytest.approx(cursor)
            cursor += seg.duration
        assert realized.total_time == pytest.approx(cursor)

    def test_backhaul_capped_at_local_under_large_error(self, default_route):
        for seed in range(300):
            realized = realize_route(default_route, ErrorSpec(0.10, 0.80, seed=seed))
            for row, seg in zip(realized.segments, default_route.segments):
                if seg.is_wifi:
                    assert row.backhaul_rate <= row.wifi_local_rate + 1e-12

    def test_vector_draw_equals_scalar_draws(self, default_route):
        rng = np.random.default_rng(24)
        routes = [random_route(rng) for _ in range(60)] + edge_routes(rng) + [default_route]
        for route in routes:
            for _ in range(5):
                errors = ErrorSpec(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9)),
                                   seed=int(rng.integers(1 << 62)))
                got = realize_route(route, errors)
                want = realize_route_scalar(route, errors)
                assert got.total_time == want.total_time
                assert len(got.segments) == len(want.segments)
                for g, w in zip(got.segments, want.segments):
                    assert row_fields(g) == row_fields(w)
                    assert [type(v) for v in row_fields(g).values()] == [
                        type(v) for v in row_fields(w).values()]

    def test_batch_equals_single_realizations(self, default_route):
        """Column k of realize_batch is realize_route with run k's seed, exactly,
        and a row carries the rates its segment carries, no others."""
        rng = np.random.default_rng(25)
        routes = [random_route(rng) for _ in range(40)] + edge_routes(rng) + [default_route]
        for route in routes:
            errors = ErrorSpec(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9)))
            base = int(rng.integers(1 << 62))
            batch = realize_batch(route, errors, base, 4)
            assert batch.route is route and len(batch.segments) == len(route.segments)
            assert all(row.start_time.shape == (4,) for row in batch.segments)
            for k in range(4):
                seed = derive_run_seed(base, k)
                single = realize_route(route, dataclasses.replace(errors, seed=seed))
                assert batch.segments[-1].end_time[k] == single.total_time
                for row, seg in zip(batch.segments, single.segments):
                    assert (row.start_time[k], row.duration[k], row.end_time[k]) == (
                        seg.start_time, seg.duration, seg.end_time)
                    assert {name: values[k] for name, values in row_fields(row).items()} == (
                        row_fields(seg))

    @pytest.mark.parametrize("name,value", [
        ("runs", 0), ("runs", -3), ("runs", 2.0), ("runs", True), ("runs", "2"), ("runs", None),
        ("seed", 0.9), ("seed", -1), ("seed", False)])
    def test_batch_rejects_a_bad_run_count_or_seed(self, default_route, fresh_memos, name,
                                                   value):
        """A run count that is no integer of at least 1, or a seed that is no
        non-negative integer, is named before any draw is made or kept."""
        args = {"seed": 0, "runs": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            realize_batch(default_route, ErrorSpec(0.1, 0.2), **args)
        assert prediction._draw_matrix.cache_info().currsize == 0

    def test_random_routes_survive_realization(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            route = random_route(rng)
            realized = realize_route(route, ErrorSpec(0.40, 0.80, seed=int(rng.integers(1 << 30))))
            assert realized.total_time > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_realization_raises_value_error(self):
        """A 1.5e308 s segment at time error 0.5 overflows in the runs whose
        draw exceeds about 0.4 (seed 4 for one realization).  A realization
        and a batch both raise before any draw, as some run could overflow,
        and warn of no overflow."""
        route = RouteProfile((RouteSegment(AccessKind.MOBILE, 0.0, 1.5e308, mobile_rate=1.0),),
                             1.5e308)
        errors = ErrorSpec(0.5, 0.0, seed=4)
        with pytest.raises(ValueError, match="realized total time overflows at time error 0.5"):
            realize_route(route, errors)
        with pytest.raises(ValueError, match="realized total time overflows at time error 0.5"):
            realize_batch(route, errors, 0, 8)

    @pytest.mark.parametrize("segment,message", [
        (RouteSegment(AccessKind.MOBILE, 0.0, 1.5e308, mobile_rate=1.0),
         "the realized total time overflows at time error 0.5"),
        (RouteSegment(AccessKind.MOBILE, 0.0, 1.0, mobile_rate=1.5e308),
         "segment 0: a realized mobile rate leaves \\(0, inf\\) at error 0.5"),
        (RouteSegment(AccessKind.MOBILE, 0.0, 1e10, mobile_rate=1.2e298),
         "segment 0: a realized mobile rate times the realized total time overflows")])
    def test_batch_rejects_a_route_that_could_overflow_before_drawing(self, fresh_memos,
                                                                      segment, message):
        """Whether a realization or a batch is drawn does not depend on its
        draws: at base seed 19 every one of 4 runs draws u < 0.14, so each
        realization and the bytes it could move are finite, yet each run and
        the batch are refused before any draw, as draws near 1 would leave
        (0, inf)."""
        route = RouteProfile((segment,), segment.duration)
        errors = ErrorSpec(0.5, 0.5)
        for k in range(4):
            seed = derive_run_seed(19, k)
            u_time, u_rate = prediction._stream(seed, 2)
            assert u_time < 0.14 and u_rate < 0.14
            assert (segment.duration * (1 + 0.5 * u_time)
                    * segment.mobile_rate * (1 + 0.5 * u_rate)) < math.inf
            with pytest.raises(ValueError, match=message):
                realize_route(route, dataclasses.replace(errors, seed=seed))
        with pytest.raises(ValueError, match=message):
            realize_batch(route, errors, 19, 4)
        assert prediction._draw_matrix.cache_info().currsize == 0
