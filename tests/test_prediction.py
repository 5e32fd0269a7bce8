import collections
import dataclasses
from typing import Optional

import numpy as np
import pytest

from conftest import edge_routes, make_task, random_route
from offloadsim import prediction
from offloadsim.engine import run_trip
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.policies import Policy
from offloadsim.prediction import (
    ErrorSpec,
    HotspotForecast,
    PredictionProfile,
    build_prediction,
    derive_run_seed,
    realize_batch,
    realize_route,
)


def replan_times(route):
    """The times a trip replans at: the start and every hotspot exit."""
    return [0.0] + [s.end_time for s in route.segments if s.is_wifi]


def assert_fields_equal(a, b):
    """Same type and every field equal: a dataclass's fields or a NamedTuple's."""
    assert type(a) is type(b)
    names = a._fields if isinstance(a, tuple) else [f.name for f in dataclasses.fields(a)]
    for name in names:
        assert getattr(a, name) == getattr(b, name), name


def reference_mobile_rates_in(route: RouteProfile, now: float,
                              window_end: float) -> list[float]:
    """Nominal mobile rates in [now, window_end); falls back to the remaining
    route, then the whole route, when the window has none."""
    rates = [
        s.mobile_rate for s in route.segments
        if not s.is_wifi and s.end_time > now + 1e-12 and s.start_time < window_end - 1e-12
    ]
    if not rates:
        rates = [
            s.mobile_rate for s in route.segments
            if not s.is_wifi and s.end_time > now + 1e-12
        ]
    if not rates:
        rates = [s.mobile_rate for s in route.segments if not s.is_wifi]
    return rates


def reference_forecast(
    route: RouteProfile,
    now: float,
    time_error: float,
    throughput_error: float,
    use_local_rate: bool,
    horizon: Optional[float],
) -> PredictionProfile:
    """Reference forecast: the scan over every segment that the route index
    replaced, less the fields no planner reads."""
    hi = route.total_time if horizon is None else min(horizon, route.total_time)
    te, re = time_error, throughput_error

    forecasts = []
    first_start = None
    for seg in route.segments:
        if not seg.is_wifi or seg.start_time < now - 1e-9:
            continue
        usable = min(seg.end_time, hi) - seg.start_time
        if usable <= 1e-12:
            continue
        if first_start is None:
            first_start = seg.start_time
        rate = seg.wifi_local_rate if use_local_rate else seg.backhaul_rate
        forecasts.append(
            HotspotForecast(
                hotspot_index=seg.hotspot_index,
                duration_min=(1 - te) * usable,
                duration_max=(1 + te) * usable,
                rate_min=(1 - re) * rate,
                rate_max=(1 + re) * rate,
            )
        )

    if first_start is None:
        time_to_next = 0.0
        gap_end = route.total_time
    else:
        time_to_next = max(0.0, first_start - now)
        gap_end = first_start

    gap_rates = reference_mobile_rates_in(route, now, gap_end)
    horizon_rates = reference_mobile_rates_in(route, now, hi)
    return PredictionProfile(
        hotspots=tuple(forecasts),
        time_to_next_wifi=time_to_next,
        max_mobile_rate=max(gap_rates) if gap_rates else 0.0,
        sustainable_mobile_rate=min(horizon_rates) if horizon_rates else 0.0,
    )


def assert_forecast_equal(got, want):
    assert_fields_equal(got, want)
    assert len(got.hotspots) == len(want.hotspots)
    for g, w in zip(got.hotspots, want.hotspots):
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


class TestErrorSpec:
    @pytest.mark.parametrize("field", ["time_error", "throughput_error"])
    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5])
    def test_bounds(self, field, value):
        with pytest.raises(ValueError):
            ErrorSpec(**{field: value})


class TestBuildPrediction:
    def test_zero_errors_equal_nominal(self, default_route, zero_errors):
        pred = build_prediction(default_route, 0.0, zero_errors, use_local_rate=True)
        assert len(pred.hotspots) == 4
        for fc, seg in zip(pred.hotspots, default_route.hotspots):
            assert fc.duration_min == fc.duration_max == seg.duration
            assert fc.rate_min == fc.rate_max == seg.wifi_local_rate

    def test_bounds_with_errors(self, route_4ap):
        # second hotspot of the one-third-scaled route, seen from t = 36 s
        route = scale_route(route_4ap, wifi_factor=1 / 3)
        errors = ErrorSpec(time_error=0.10, throughput_error=0.20)
        pred = build_prediction(route, 36.0, errors, use_local_rate=True)
        first = pred.hotspots[0]
        assert first.hotspot_index == 2
        assert first.duration_min == pytest.approx(16.2, abs=1e-12)
        assert first.duration_max == pytest.approx(19.8, abs=1e-12)
        assert first.rate_min == pytest.approx(4.464, abs=1e-12)
        assert first.rate_max == pytest.approx(6.696, abs=1e-12)

    def test_backhaul_bounds(self, default_route, default_errors):
        pred = build_prediction(default_route, 0.0, default_errors,
                                use_local_rate=False)
        seg = default_route.hotspots[0]
        assert pred.hotspots[0].rate_min == pytest.approx(0.8 * seg.backhaul_rate)

    def test_gap_and_horizon_quantities(self, default_route, zero_errors):
        pred = build_prediction(default_route, 0.0, zero_errors)
        assert pred.time_to_next_wifi == pytest.approx(18.0)
        assert pred.max_mobile_rate == pytest.approx(4.83 / 3)
        assert pred.sustainable_mobile_rate == pytest.approx(4.58 / 3)

        pred36 = build_prediction(default_route, 36.0, zero_errors)
        assert pred36.time_to_next_wifi == pytest.approx(54.0)
        assert pred36.max_mobile_rate == pytest.approx(4.58 / 3)

    def test_no_hotspots_left(self, default_route, zero_errors):
        pred = build_prediction(default_route, 260.0, zero_errors)
        assert pred.hotspots == ()
        assert pred.time_to_next_wifi == 0.0

    def test_horizon_clips_windows(self, default_route, zero_errors):
        # deadline lands 9 s into the second hotspot window
        pred = build_prediction(default_route, 0.0, zero_errors, horizon=99.0)
        assert len(pred.hotspots) == 2
        assert pred.hotspots[1].duration_max == pytest.approx(9.0)
        # and drops hotspots past it entirely
        pred = build_prediction(default_route, 0.0, zero_errors, horizon=80.0)
        assert len(pred.hotspots) == 1

    def test_now_out_of_range(self, default_route, zero_errors):
        with pytest.raises(ValueError):
            build_prediction(default_route, 300.0, zero_errors)

    @pytest.mark.parametrize("now", [-1.0, float("nan")])
    def test_now_negative_or_nan(self, default_route, zero_errors, now):
        with pytest.raises(ValueError):
            build_prediction(default_route, now, zero_errors)


class TestForecastMemo:
    def test_seed_does_not_change_forecast(self):
        rng = np.random.default_rng(21)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            te, re = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9))
            for now in replan_times(route):
                a = build_prediction(route, now, ErrorSpec(te, re, seed=1))
                b = build_prediction(route, now, ErrorSpec(te, re, seed=2))
                assert_fields_equal(a, b)

    def test_memoized_equals_uncached(self):
        rng = np.random.default_rng(22)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            errors = ErrorSpec(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9)),
                               seed=int(rng.integers(1 << 30)))
            horizon = float(rng.uniform(0.3, 1.2)) * route.total_time
            for now in replan_times(route):
                for local in (True, False):
                    for h in (None, horizon):
                        first = build_prediction(route, now, errors, local, h)
                        again = build_prediction(route, now, errors, local, h)
                        fresh = reference_forecast(route, now, errors.time_error,
                                                   errors.throughput_error, local, h)
                        assert again is first
                        assert_forecast_equal(first, fresh)

    def test_horizons_at_or_past_the_route_end_share_one_forecast(self):
        """No horizon, the route end and a horizon past it clip to the same
        horizon, so they get one forecast object, equal to the scan's; a
        horizon inside the route gets its own."""
        rng = np.random.default_rng(24)
        for route in [random_route(rng) for _ in range(40)] + edge_routes(rng):
            te, re = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.9))
            errors = ErrorSpec(te, re)
            inside = float(rng.uniform(0.3, 0.9)) * route.total_time
            for now in replan_times(route):
                for local in (True, False):
                    shared = build_prediction(route, now, errors, local, None)
                    for h in (route.total_time, 1.5 * route.total_time):
                        assert build_prediction(route, now, errors, local, h) is shared
                    assert_forecast_equal(
                        shared, reference_forecast(route, now, te, re, local, None))
                    own = build_prediction(route, now, errors, local, inside)
                    assert own is not shared
                    assert_forecast_equal(
                        own, reference_forecast(route, now, te, re, local, inside))

    def test_alternating_routes_get_their_own_forecast(self):
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
            want = {id(r): reference_forecast(r, 0.0, 0.10, 0.20, True, None)
                    for r in (route, other, twin)}
            assert want[id(route)] != want[id(other)]
            for r in (route, other, route, twin, other, twin, route):
                assert build_prediction(r, 0.0, errors) == want[id(r)]
            checked += 1


def forecast_times(route, rng):
    """Replan times, random times, each hotspot start and times 1e-9 s either
    side of it (the hotspot cut), and times 1e-12 s either side of each mobile
    segment's end (the mobile windows)."""
    nows = set(replan_times(route))
    nows.update(float(t) for t in rng.uniform(0, route.total_time, size=4))
    for seg in route.segments:
        if seg.is_wifi:
            nows.update((seg.start_time - 1e-9, seg.start_time, seg.start_time + 1e-9))
        else:
            nows.update((seg.end_time - 1e-12, seg.end_time + 1e-12))
    return sorted(t for t in nows if -1e-9 <= t <= route.total_time)


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
        """Every field of every forecast equals the full scan's, with ==."""
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
            nows = forecast_times(route, rng)
            for local in (True, False):
                for h in forecast_horizons(route, rng):
                    for now in nows:
                        got = build_prediction(route, now, errors, local, h)
                        want = reference_forecast(route, now, te, re, local, h)
                        assert_forecast_equal(got, want)
                        checked += 1
        assert checked > 40_000

    def test_one_index_per_route(self, monkeypatch, fresh_memos):
        """All five policies on one route, through every replan, index the
        route once and walk its hotspots at most once per key."""
        builds = collections.Counter()
        walks = collections.Counter()
        forecasts = collections.Counter()
        real_index = prediction._RouteIndex
        real_walk = prediction._hotspot_forecasts
        real_forecast = prediction._forecast

        def index(route):
            builds[id(route)] += 1
            return real_index(route)

        def walk(route, *key):
            walks[id(route), key] += 1
            return real_walk(route, *key)

        def forecast(index, *key):
            forecasts[key] += 1
            return real_forecast(index, *key)

        monkeypatch.setattr(prediction, "_RouteIndex", index)
        monkeypatch.setattr(prediction, "_hotspot_forecasts", walk)
        monkeypatch.setattr(prediction, "_forecast", forecast)
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
        assert walks and max(walks.values()) == 1
        assert max(forecasts.values()) == 1
        assert sum(forecasts.values()) > 2 * route.n_hotspots


class TestRealizeRoute:
    def test_zero_errors_identity(self, default_route):
        realized = realize_route(default_route, ErrorSpec(0.0, 0.0, seed=7))
        assert realized == default_route

    def test_deterministic_for_seed(self, default_route):
        errors = ErrorSpec(0.10, 0.20, seed=1234)
        assert realize_route(default_route, errors) == realize_route(default_route, errors)

    def test_different_seeds_differ(self, default_route):
        a = realize_route(default_route, ErrorSpec(0.10, 0.20, seed=1))
        b = realize_route(default_route, ErrorSpec(0.10, 0.20, seed=2))
        assert a != b

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
            for seg in realized.hotspots:
                assert seg.backhaul_rate <= seg.wifi_local_rate + 1e-12

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
                    assert_fields_equal(g, w)
                    for f in ("start_time", "duration", "mobile_rate",
                              "wifi_local_rate", "backhaul_rate"):
                        assert type(getattr(g, f)) is type(getattr(w, f))

    def test_batch_equals_single_realizations(self, default_route):
        """Column k of realize_batch is realize_route with run k's seed, exactly."""
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
                    assert (row.mobile_rate[k], row.wifi_local_rate[k],
                            row.backhaul_rate[k]) == (
                        seg.mobile_rate or 0.0, seg.wifi_local_rate or 0.0,
                        seg.backhaul_rate or 0.0)

    def test_random_routes_survive_realization(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            route = random_route(rng)
            realized = realize_route(route, ErrorSpec(0.40, 0.80, seed=int(rng.integers(1 << 30))))
            assert realized.total_time > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_realization_raises_value_error(self):
        """A 1.5e308 s segment at time error 0.5 overflows in the runs whose
        draw exceeds about 0.4 (seed 4 for one realization; several of the 8
        runs of base seed 0).  Both paths raise their ValueError, and the batch
        warns of no overflow before it."""
        route = RouteProfile((RouteSegment(AccessKind.MOBILE, 0.0, 1.5e308, mobile_rate=1.0),),
                             1.5e308)
        errors = ErrorSpec(0.5, 0.0, seed=4)
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            realize_route(route, errors)
        with pytest.raises(ValueError, match="must be positive and finite"):
            realize_batch(route, errors, 0, 8)
