import numpy as np
import pytest

from offloadsim.config import load_route
from offloadsim.model import (
    AccessKind,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
    scale_route,
)
from offloadsim.prediction import ErrorSpec

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
