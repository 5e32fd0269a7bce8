"""Seeded long-route generator for the ``random-trips`` workload.

Kept in the benchmark's own files so that editing a test fixture can never
change the benchmark's input.  Route ``j`` of seed ``s`` is drawn from a
generator seeded with ``(s, j)``, so every route is distinct and any one of
them can be rebuilt on its own.
"""

from __future__ import annotations

import numpy as np

from offloadsim import (
    AccessKind,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
)
from offloadsim.model import MBIT_PER_MB

MIN_SEGMENTS = 28
MAX_SEGMENTS = 36


def random_long_route(seed: int, index: int) -> tuple[RouteProfile, float]:
    """One drive of 28-36 segments and the object size (MB) to move on it.

    Mobile and WiFi stretches mostly alternate, as on a real drive, with an
    occasional run of two mobile stretches.  The object size is 60-110% of
    what the mobile network plus the hotspot backhauls could carry, so most
    trips stay busy for most of the route.
    """
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
    wifi = bool(rng.random() < 0.5)
    segments = []
    t = 0.0
    hotspot = 0
    capacity_mbit = 0.0
    for _ in range(n):
        if wifi:
            hotspot += 1
            duration = float(rng.uniform(5.0, 30.0))
            local = float(rng.uniform(2.0, 20.0))
            backhaul = local * float(rng.uniform(0.3, 1.0))
            segments.append(RouteSegment(
                kind=AccessKind.WIFI, start_time=t, duration=duration,
                wifi_local_rate=local, backhaul_rate=backhaul,
                hotspot_index=hotspot,
            ))
            capacity_mbit += backhaul * duration
        else:
            duration = float(rng.uniform(10.0, 60.0))
            rate = float(rng.uniform(0.5, 6.0))
            segments.append(RouteSegment(
                kind=AccessKind.MOBILE, start_time=t, duration=duration,
                mobile_rate=rate,
            ))
            capacity_mbit += rate * duration
        t += duration
        wifi = (not wifi) and bool(rng.random() < 0.85)
    size_mb = capacity_mbit / MBIT_PER_MB * float(rng.uniform(0.6, 1.1))
    return RouteProfile(tuple(segments), t), size_mb


def run_seed(seed: int, index: int) -> int:
    """Seed of the realization drawn for route ``index``."""
    return int(np.random.SeedSequence([seed, index, 1]).generate_state(1, np.uint64)[0])


def tasks_for(route: RouteProfile, size_mb: float) -> tuple[TransferTask, TransferTask]:
    """Delay-tolerant (deadline = route end) and delay-sensitive tasks."""
    return (
        TransferTask(size_mb=size_mb, delay_threshold=route.total_time,
                     traffic_class=TrafficClass.DELAY_TOLERANT),
        TransferTask(size_mb=size_mb, delay_threshold=route.total_time,
                     traffic_class=TrafficClass.DELAY_SENSITIVE),
    )
