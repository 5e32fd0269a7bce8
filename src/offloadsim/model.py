"""Domain model for vehicular WiFi-offloading trips.

Routes are pre-segmented connectivity timelines: stretches of mobile-only
coverage interleaved with WiFi hotspot windows, each segment carrying the
throughput the vehicle sees there.  Conventions used everywhere in this
package: rates in Mbit/s, times in seconds, data amounts in decimal
megabytes (1 MB = 10^6 bytes = 8 Mbit).

Every public constructor checks each field by one rule: :func:`check_real`,
:func:`check_integer` or :func:`check_types`, which raise ``ValueError``
naming the field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional

MBIT_PER_MB = 8.0


class AccessKind(Enum):
    MOBILE = "mobile"
    WIFI = "wifi"


class TrafficClass(Enum):
    DELAY_TOLERANT = "delay-tolerant"
    DELAY_SENSITIVE = "delay-sensitive"


# each read of an enum member costs a metaclass lookup: the hot paths compare with these
_MOBILE_KIND, _WIFI_KIND = AccessKind.MOBILE, AccessKind.WIFI
_DELAY_SENSITIVE = TrafficClass.DELAY_SENSITIVE


def min2(a, b):
    """``min(a, b)`` by the builtin's own comparison: ``a`` unless ``b < a``,
    so the same object for every input (NaN, a signed zero, any rational),
    at about a third of the builtin call's cost on Python 3.11."""
    return b if b < a else a


def max2(a, b):
    """``max(a, b)`` by the builtin's own comparison: ``a`` unless ``b > a``."""
    return b if b > a else a


def check_real(name: str, value, low: float = 0.0, high: float = math.inf,
               closed: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number,
    not a bool, that converts to a finite float above ``low`` (or equal to it,
    if ``closed``) and below ``high``.  A float is told at once: the ABC check
    costs about eight times as much."""
    x = value
    if type(x) is not float:
        try:
            x = float(x) if isinstance(x, numbers.Real) and type(x) is not bool else math.nan
        except OverflowError:  # an int past the float range
            x = math.nan
    if (low <= x < high) if closed else (low < x < high):  # NaN fails; low is finite
        return
    rule = (f"in {'[' if closed else '('}{low:g}, {high:g})" if high < math.inf else
            f"finite and {'>=' if closed else '>'} {low:g}" if closed or low else
            "positive and finite")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_integer(name: str, value, least: int = 0, most: float = math.inf) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int or a
    numpy integer, not a bool, in [``least``, ``most``].  An int is told at
    once, as a float is in :func:`check_real`."""
    if not (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) or not least <= value <= most:
        upper = "" if most == math.inf else f" and <= {most}"
        raise ValueError(f"{name} must be an integer >= {least}{upper}, got {value!r}")


def as_tuple(name: str, value, of: str) -> tuple:
    """``value`` as a tuple; ``ValueError`` naming ``name`` if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:  # not iterable
        raise ValueError(f"{name} must be a sequence of {of}, got {value!r}") from None


def check_types(*named: tuple[str, object, type]) -> None:
    """Raise ``ValueError`` naming the first of the ``(name, value, kind)``
    arguments whose value is not a ``kind``."""
    for name, value, kind in named:
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class RouteSegment:
    """One contiguous stretch of the route with a single access technology.

    Mobile segments carry ``mobile_rate``.  WiFi segments carry the rate for
    serving bytes out of the hotspot's local cache (``wifi_local_rate``), the
    rate for fetching from the object's origin through the hotspot backhaul
    (``backhaul_rate``), and a 1-based ``hotspot_index``.  ``start_time`` is
    at least 0; a :class:`RouteProfile` stores it as the durations' sum.
    """

    kind: AccessKind
    start_time: float
    duration: float
    mobile_rate: Optional[float] = None
    wifi_local_rate: Optional[float] = None
    backhaul_rate: Optional[float] = None
    hotspot_index: Optional[int] = None

    def __post_init__(self) -> None:
        check_real("duration", self.duration)
        check_real("start_time", self.start_time, 0.0, math.inf, True)
        if self.kind is _MOBILE_KIND:
            check_real("mobile_rate", self.mobile_rate)
            # unless all three are None
            if not self.wifi_local_rate is self.backhaul_rate is self.hotspot_index is None:
                raise ValueError("a mobile segment carries no wifi_local_rate, backhaul_rate or "
                                 f"hotspot_index, got {self.wifi_local_rate!r}, "
                                 f"{self.backhaul_rate!r}, {self.hotspot_index!r}")
        elif self.kind is _WIFI_KIND:
            if self.mobile_rate is not None:
                raise ValueError(f"a wifi segment carries no mobile_rate, "
                                 f"got {self.mobile_rate!r}")
            check_real("wifi_local_rate", self.wifi_local_rate)
            check_real("backhaul_rate", self.backhaul_rate)
            # The backhaul path traverses the same radio link, so it can
            # never beat the local-cache rate.
            if self.backhaul_rate > self.wifi_local_rate:
                raise ValueError(f"backhaul_rate {self.backhaul_rate} exceeds wifi_local_rate "
                                 f"{self.wifi_local_rate}")
            check_integer("hotspot_index", self.hotspot_index, 1)
        else:
            check_types(("kind", self.kind, AccessKind))  # neither member: raises

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @property
    def is_wifi(self) -> bool:
        return self.kind is _WIFI_KIND


@dataclass(frozen=True)
class RouteProfile:
    """Connectivity segments read in order as one timeline.  Each start, and
    ``total_time``, must lie within a relative 1e-9 of the running sum of the
    durations, and is stored as that sum: no two segments overlap, and the
    first starts at 0.0."""

    segments: tuple[RouteSegment, ...]
    total_time: float

    def __post_init__(self) -> None:
        segments = list(as_tuple("segments", self.segments, "RouteSegments"))
        if not segments:
            raise ValueError("route needs at least one segment")
        cursor = 0.0
        for i, seg in enumerate(segments):
            if not isinstance(seg, RouteSegment):
                raise ValueError(f"segments[{i}] must be a RouteSegment, got {seg!r}")
            # summed by += as a realization sums (builtin sum() is compensated
            # from Python 3.12 on); a first start of -0.0 is stored as 0.0
            start = seg.start_time
            if start != cursor or not cursor and math.copysign(1.0, start) < 0:
                if not math.isclose(start, cursor, rel_tol=1e-9):
                    raise ValueError(f"segment {i} starts at {start}, expected {cursor}")
                segments[i] = replace(seg, start_time=cursor)
            cursor += seg.duration
        object.__setattr__(self, "segments", tuple(segments))
        check_real("total_time", self.total_time)
        if self.total_time != cursor:
            if not math.isclose(self.total_time, cursor, rel_tol=1e-9):
                raise ValueError(f"total_time {self.total_time!r} != sum of durations {cursor}")
            object.__setattr__(self, "total_time", cursor)
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
    check_real("mobile_factor", mobile_factor)
    check_real("wifi_factor", wifi_factor)
    check_real("backhaul_factor", backhaul_factor)


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
    check_types(("route", route, RouteProfile))
    check_rate_factors(mobile_factor, wifi_factor, backhaul_factor)
    out = []
    for seg in route.segments:
        if seg.is_wifi:
            local = seg.wifi_local_rate * wifi_factor
            backhaul = seg.backhaul_rate * backhaul_factor
            out.append(replace(seg, wifi_local_rate=local,
                               backhaul_rate=local if local < backhaul else backhaul))
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
        check_real("size_mb", self.size_mb)
        check_real("delay_threshold", self.delay_threshold)
        check_types(("traffic_class", self.traffic_class, TrafficClass))

    def effective_deadline(self) -> float:
        return math.inf if self.traffic_class is _DELAY_SENSITIVE else self.delay_threshold


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
        for f in fields(self):
            check_real(f.name, getattr(self, f.name), 0.0, math.inf, True)
