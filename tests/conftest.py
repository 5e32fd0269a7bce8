from typing import NamedTuple, Optional

import numpy as np
import pytest

from offloadsim import metrics, prediction
from offloadsim.config import load_route
from offloadsim.model import (
    AccessKind,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
    scale_route,
)
from offloadsim.prediction import ErrorSpec, PredictionProfile, RealizedRow

# The 20 bundled figure recipes.
RECIPES = [f"fig{n}{letter}" for n, letters in
           (("2", "ab"), ("3", "abcd"), ("4", "ab"), ("5", "ab"),
            ("6", "ab"), ("7", "abcd"), ("8", "ab"), ("9", "ab"))
           for letter in letters]


@pytest.fixture(scope="session")
def route_4ap():
    return load_route("4ap")


@pytest.fixture(scope="session")
def route_2ap():
    return load_route("2ap")


@pytest.fixture(scope="session")
def route_8ap():
    return load_route("8ap")


@pytest.fixture(scope="session")
def default_route(route_4ap):
    """The 4-hotspot route at the default one-third rate scaling."""
    return scale_route(route_4ap, 1 / 3, 1 / 3, 1 / 3)


def memo_caches():
    """Every ``lru_cache`` and ``cache`` in ``metrics`` and ``prediction``,
    found by its ``cache_clear``, so that a cache added later is found too."""
    found = {id(f): f for module in (metrics, prediction) for f in vars(module).values()
             if callable(getattr(f, "cache_clear", None))}
    return list(found.values())


def clear_memos():
    """Empty every process-wide memo, each cache :func:`memo_caches` finds,
    so that no earlier call serves a later one."""
    for cache in memo_caches():
        cache.cache_clear()


@pytest.fixture
def fresh_memos():
    """Every process-wide memo emptied before the test (:func:`clear_memos`)."""
    clear_memos()


@pytest.fixture
def zero_errors():
    return ErrorSpec(time_error=0.0, throughput_error=0.0, seed=1)


@pytest.fixture
def default_errors():
    return ErrorSpec(time_error=0.10, throughput_error=0.20, seed=1)


def make_task(size_mb, threshold=269.0, sensitive=False):
    klass = TrafficClass.DELAY_SENSITIVE if sensitive else TrafficClass.DELAY_TOLERANT
    return TransferTask(size_mb=size_mb, delay_threshold=threshold, traffic_class=klass)


def random_route(rng: np.random.Generator, n_segments=None) -> RouteProfile:
    """Small random but valid connectivity timeline (2-6 segments)."""
    n = int(n_segments if n_segments is not None else rng.integers(2, 7))
    segments = []
    t = 0.0
    hotspot = 0
    for _ in range(n):
        duration = float(rng.uniform(5.0, 60.0))
        if rng.random() < 0.5:
            hotspot += 1
            local = float(rng.uniform(2.0, 20.0))
            segments.append(
                RouteSegment(
                    kind=AccessKind.WIFI,
                    start_time=t,
                    duration=duration,
                    wifi_local_rate=local,
                    backhaul_rate=local * float(rng.uniform(0.3, 1.0)),
                    hotspot_index=hotspot,
                )
            )
        else:
            segments.append(
                RouteSegment(
                    kind=AccessKind.MOBILE,
                    start_time=t,
                    duration=duration,
                    mobile_rate=float(rng.uniform(1.0, 10.0)),
                )
            )
        t += duration
    return RouteProfile(tuple(segments), t)


def edge_routes(rng: np.random.Generator) -> list[RouteProfile]:
    """Degenerate random routes: WiFi only, WiFi first, and a single segment
    of each kind (drawn from :func:`random_route` by rejection)."""
    def draw(accept, n_segments=None):
        while True:
            route = random_route(rng, n_segments)
            if accept(route):
                return route

    return [
        draw(lambda r: len(r.segments) >= 2 and r.mobile_time() == 0),
        draw(lambda r: r.segments[0].is_wifi and r.mobile_time() > 0),
        draw(lambda r: r.segments[0].is_wifi, n_segments=1),
        draw(lambda r: not r.segments[0].is_wifi, n_segments=1),
    ]


class HotspotBounds(NamedTuple):
    """One hotspot ahead as a reference forecast bounds it: ``1 ∓ e`` times
    its nominal dwell before the horizon and its rates."""

    hotspot_index: int
    duration_min: float
    duration_max: float
    local_min: float
    local_max: float
    backhaul_min: float
    backhaul_max: float


def row_fields(row) -> dict:
    """The values a realized row holds (a segment's times and the rates its
    kind carries), by name; a :class:`~offloadsim.model.RouteSegment`'s
    are read under the same names, its unset rates left out."""
    return {name: getattr(row, name) for name in RealizedRow.__slots__
            if getattr(row, name, None) is not None}


def mobile_rates(segments) -> list[float]:
    return [s.mobile_rate for s in segments if not s.is_wifi]


def _rest(route: RouteProfile, passed: int):
    """The segments after the ``passed``-th hotspot, where the node is, and
    the nominal time it left that hotspot (0.0 at the start)."""
    segments = route.segments
    if not passed:
        return segments, 0.0
    here = [i for i, s in enumerate(segments) if s.is_wifi][passed - 1] + 1
    return segments[here:], segments[here - 1].end_time


def reference_hotspots(route: RouteProfile, passed: int, time_error: float,
                       throughput_error: float, horizon: Optional[float]) -> list[HotspotBounds]:
    """The bounds of every hotspot after the ``passed``-th that starts before
    the horizon, nearest first: a scan over the rest of the route."""
    hi = route.total_time if horizon is None else min(horizon, route.total_time)
    te, re = time_error, throughput_error
    hotspots = []
    for seg in _rest(route, passed)[0]:
        usable = min(seg.end_time, hi) - seg.start_time if seg.is_wifi else 0.0
        if usable > 0:
            local, backhaul = seg.wifi_local_rate, seg.backhaul_rate
            hotspots.append(HotspotBounds(seg.hotspot_index, (1 - te) * usable, (1 + te) * usable,
                                          (1 - re) * local, (1 + re) * local,
                                          (1 - re) * backhaul, (1 + re) * backhaul))
    return hotspots


def reference_forecast(route: RouteProfile, passed: int, time_error: float,
                       throughput_error: float, horizon: Optional[float]) -> PredictionProfile:
    """Reference forecast for a node that has left ``passed`` hotspots, from
    :func:`reference_hotspots`: its pessimistic WiFi sums, each taken left to
    right from 0.0, nearest first, and the nearest hotspot's index and cache
    cap.  The mobile rates before the next usable hotspot, and those of
    segments starting before the horizon, fall back to every mobile rate
    ahead, then to the whole route's, when there are none."""
    hi = route.total_time if horizon is None else min(horizon, route.total_time)
    rest, now = _rest(route, passed)
    hotspots = reference_hotspots(route, passed, time_error, throughput_error, horizon)
    local = backhaul = seconds = 0.0
    for h in hotspots:
        local += h.local_min * h.duration_min
        backhaul += h.backhaul_min * h.duration_min
        seconds += h.duration_min
    # the position in rest of the nearest hotspot
    first = [s.hotspot_index for s in rest].index(hotspots[0].hotspot_index) if hotspots else None
    fallback = mobile_rates(rest) or mobile_rates(route.segments) or [0.0]
    gap_rates = mobile_rates(rest[:first]) or fallback
    horizon_rates = mobile_rates(s for s in rest if s.start_time < hi) or fallback
    nxt = hotspots[0] if hotspots else None
    return PredictionProfile(
        wifi_local_mbit=local,
        wifi_backhaul_mbit=backhaul,
        wifi_seconds=seconds,
        next_hotspot=None if nxt is None else nxt.hotspot_index,
        next_cache_mb=0.0 if nxt is None else nxt.local_max * nxt.duration_max / 8,
        time_to_next_wifi=0.0 if first is None else max(0.0, rest[first].start_time - now),
        max_mobile_rate=max(gap_rates),
        sustainable_mobile_rate=min(horizon_rates),
    )


def reference_forecasts(route, time_error, throughput_error, horizon):
    """The reference forecast at every replan point, in order."""
    return tuple(reference_forecast(route, passed, time_error, throughput_error, horizon)
                 for passed in range(route.n_hotspots + 1))
