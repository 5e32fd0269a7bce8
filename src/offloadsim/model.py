"""Domain model for vehicular WiFi-offloading trips.

Routes are pre-segmented connectivity timelines: stretches of mobile-only
coverage interleaved with WiFi hotspot windows, each segment carrying the
throughput the vehicle sees there.  Conventions used everywhere in this
package: rates in Mbit/s, times in seconds, data amounts in decimal
megabytes (1 MB = 10^6 bytes = 8 Mbit).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

MBIT_PER_MB = 8.0


class AccessKind(Enum):
    MOBILE = "mobile"
    WIFI = "wifi"


# each read of an enum member costs a metaclass lookup: the hot paths compare with these
_MOBILE_KIND, _WIFI_KIND = AccessKind.MOBILE, AccessKind.WIFI


class TrafficClass(Enum):
    DELAY_TOLERANT = "delay-tolerant"
    DELAY_SENSITIVE = "delay-sensitive"


def _real(x: object) -> bool:
    """True for a real number other than a bool.  A float is told at once:
    the ABC check costs about eight times as much."""
    return type(x) is float or (isinstance(x, numbers.Real) and type(x) is not bool)


def _finite(x: object) -> bool:
    """True for a real number other than a bool that converts to a finite
    float; False for an int too large to convert."""
    if type(x) is float:
        return -math.inf < x < math.inf
    try:
        return _real(x) and math.isfinite(x)
    except OverflowError:
        return False


def check_integer(name: str, value, least: int = 0) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int or a
    numpy integer, not a bool, of at least ``least``.  An int is told at once,
    as in :func:`_real`."""
    if not (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_types(*named: tuple[str, object, type]) -> None:
    """Raise ``ValueError`` naming the first of the ``(name, value, kind)``
    arguments whose value is not a ``kind``."""
    for name, value, kind in named:
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _positive_finite(x: Optional[float]) -> bool:
    """True for a finite real number above zero; False for a bool or None."""
    if type(x) is float:
        return 0.0 < x < math.inf
    return _finite(x) and x > 0


@dataclass(frozen=True)
class RouteSegment:
    """One contiguous stretch of the route with a single access technology.

    Mobile segments carry ``mobile_rate``.  WiFi segments carry the rate for
    serving bytes out of the hotspot's local cache (``wifi_local_rate``), the
    rate for fetching from the object's origin through the hotspot backhaul
    (``backhaul_rate``), and a 1-based ``hotspot_index``.
    """

    kind: AccessKind
    start_time: float
    duration: float
    mobile_rate: Optional[float] = None
    wifi_local_rate: Optional[float] = None
    backhaul_rate: Optional[float] = None
    hotspot_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, AccessKind):
            raise ValueError(f"segment kind must be an AccessKind, got {self.kind!r}")
        if not _positive_finite(self.duration):
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")
        start = self.start_time
        if not (_finite(start) and start >= -1e-9):
            raise ValueError(f"segment start_time must be a finite real number >= 0, "
                             f"got {start!r}")
        if self.kind is _MOBILE_KIND:
            if not _positive_finite(self.mobile_rate):
                raise ValueError("mobile segment needs a positive, finite mobile_rate")
            if self.wifi_local_rate is not None or self.backhaul_rate is not None:
                raise ValueError("mobile segment must not carry WiFi rates")
            if self.hotspot_index is not None:
                raise ValueError("mobile segment must not carry a hotspot_index")
        else:
            if not _positive_finite(self.wifi_local_rate):
                raise ValueError("wifi segment needs a positive, finite wifi_local_rate")
            if not _positive_finite(self.backhaul_rate):
                raise ValueError("wifi segment needs a positive, finite backhaul_rate")
            # The backhaul path traverses the same radio link, so it can
            # never beat the local-cache rate.
            if self.backhaul_rate > self.wifi_local_rate * (1 + 1e-12):
                raise ValueError(
                    f"backhaul_rate {self.backhaul_rate} exceeds wifi_local_rate "
                    f"{self.wifi_local_rate}"
                )
            check_integer("hotspot_index", self.hotspot_index, 1)

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @property
    def is_wifi(self) -> bool:
        return self.kind is _WIFI_KIND


@dataclass(frozen=True)
class RouteProfile:
    """Ordered, contiguous, non-overlapping connectivity segments."""

    segments: tuple[RouteSegment, ...]
    total_time: float

    def __post_init__(self) -> None:
        try:
            segments = tuple(self.segments)
        except TypeError:  # not iterable
            raise ValueError(f"segments must be a sequence of RouteSegments, "
                             f"got {self.segments!r}") from None
        if not segments:
            raise ValueError("route needs at least one segment")
        object.__setattr__(self, "segments", segments)
        cursor = 0.0
        last_start = last_end = -math.inf
        for i, seg in enumerate(segments):
            if not isinstance(seg, RouteSegment):
                raise ValueError(f"segments[{i}] must be a RouteSegment, got {seg!r}")
            # a realized route's starts are the running sum, bit for bit
            start, end = seg.start_time, seg.end_time
            if start != cursor and not math.isclose(start, cursor, rel_tol=1e-9, abs_tol=1e-6):
                raise ValueError(
                    f"segment {i} starts at {start}, expected {cursor} "
                    "(segments must be contiguous)"
                )
            # the contiguity slack must not let a segment start or end before
            # its predecessor: a route is a timeline read in order
            if start < last_start or end < last_end:
                raise ValueError(
                    f"segment {i} [{start}, {end}) starts or ends before segment "
                    f"{i - 1} [{last_start}, {last_end}) (segments must be ordered)"
                )
            last_start, last_end = start, end
            cursor += seg.duration
        total = self.total_time
        if not (_finite(total) and math.isclose(total, cursor, rel_tol=1e-9, abs_tol=1e-6)):
            raise ValueError(f"total_time {total!r} != sum of durations {cursor}")
        indices = [s.hotspot_index for s in self.segments if s.is_wifi]
        if indices != sorted(set(indices)):
            raise ValueError(f"hotspot indices must be strictly increasing: {indices}")

    def __hash__(self) -> int:
        # A route keys every memo, and hashing 35 segments by value takes about
        # 10 us, so it is hashed once, on first use.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.segments, self.total_time)))
            return self._hash

    def __reduce__(self):
        # Pickled and copied as its fields, never with the cached hash: enum
        # hashes, and so a route's, change with PYTHONHASHSEED.
        return RouteProfile, (self.segments, self.total_time)

    @property
    def hotspots(self) -> tuple[RouteSegment, ...]:
        return tuple(s for s in self.segments if s.is_wifi)

    @property
    def n_hotspots(self) -> int:
        return len(self.hotspots)

    def mobile_time(self) -> float:
        return sum(s.duration for s in self.segments if not s.is_wifi)


def check_rate_factors(mobile_factor: float, wifi_factor: float, backhaul_factor: float) -> None:
    for name, f in (("mobile", mobile_factor), ("wifi", wifi_factor),
                    ("backhaul", backhaul_factor)):
        if not _positive_finite(f):
            raise ValueError(f"{name} factor must be positive and finite, got {f}")


def scale_route(
    route: RouteProfile,
    mobile_factor: float = 1.0,
    wifi_factor: float = 1.0,
    backhaul_factor: float = 1.0,
) -> RouteProfile:
    """Multiply every rate by the factor for its channel; times unchanged.

    A scaled backhaul rate is capped at the scaled local WiFi rate (the
    backhaul path cannot outrun the radio link it shares), so extreme factor
    combinations still produce a valid route.
    """
    check_rate_factors(mobile_factor, wifi_factor, backhaul_factor)
    out = []
    for seg in route.segments:
        if seg.is_wifi:
            local = seg.wifi_local_rate * wifi_factor
            out.append(replace(seg, wifi_local_rate=local,
                               backhaul_rate=min(seg.backhaul_rate * backhaul_factor, local)))
        else:
            out.append(replace(seg, mobile_rate=seg.mobile_rate * mobile_factor))
    return RouteProfile(tuple(out), route.total_time)


@dataclass(frozen=True)
class TransferTask:
    """A single data object to move during one trip.

    ``delay_threshold`` is the completion deadline in seconds for
    delay-tolerant traffic; delay-sensitive planners ignore it (they always
    run the mobile channel at full predicted rate).
    """

    size_mb: float
    delay_threshold: float
    traffic_class: TrafficClass = TrafficClass.DELAY_TOLERANT

    def __post_init__(self) -> None:
        if not isinstance(self.traffic_class, TrafficClass):
            raise ValueError(f"traffic_class must be a TrafficClass, got {self.traffic_class!r}")
        if not _positive_finite(self.size_mb):
            raise ValueError(f"task size must be positive and finite, got {self.size_mb}")
        if not _positive_finite(self.delay_threshold):
            raise ValueError(
                f"delay threshold must be positive and finite, got {self.delay_threshold}"
            )

    def effective_deadline(self) -> float:
        if self.traffic_class is TrafficClass.DELAY_SENSITIVE:
            return math.inf
        return self.delay_threshold


@dataclass(frozen=True)
class EnergyModel:
    """Per-technology transfer and idle costs of the handset radios.

    Defaults: 100 J/MB over mobile, 5 J/MB over WiFi, 0.77 W while the WiFi
    interface is on but not transferring, and the interface is woken 20 s
    before each hotspot is reached.
    """

    mobile_transfer_j_per_mb: float = 100.0
    wifi_transfer_j_per_mb: float = 5.0
    wifi_idle_w: float = 0.77
    wifi_preactivation_s: float = 20.0

    def __post_init__(self) -> None:
        for name in ("mobile_transfer_j_per_mb", "wifi_transfer_j_per_mb",
                     "wifi_idle_w", "wifi_preactivation_s"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
