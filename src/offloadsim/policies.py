"""Transfer policies: one table of per-policy traits and two pure planners.

Plans are made at the route start and whenever the node leaves a hotspot
(:func:`plan_exit`).  Delay-tolerant planning sizes the mobile rate so that
the pessimistic WiFi forecast plus the mobile stream finish exactly at the
deadline; the maximum-throughput policies just request the full predicted
mobile rate.  Prefetching policies additionally decide how much of the
object to push into the next hotspot's cache and at which object offset.

The received bytes are always one prefix of the object, so on entering a
hotspot (:func:`plan_entry`) every step fills the prefix up to a position:
first the hole below the cached offset (delay-tolerant traffic fetches it
from the origin over the backhaul; delay-sensitive traffic lets its
still-running mobile stream finish it), then the cached range, then the
rest of the object from the origin for whatever dwell time is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .model import MBIT_PER_MB, TrafficClass
from .prediction import PredictionProfile

# Floor for the mobile-time denominator; avoids division by zero when the
# WiFi-time estimate reaches the remaining budget.
T_MOBILE_FLOOR = 1e-6


class Channel(Enum):
    MOBILE = "mobile"
    WIFI_LOCAL = "wifi-local"
    WIFI_BACKHAUL = "wifi-backhaul"


_DT = TrafficClass.DELAY_TOLERANT
_DS = TrafficClass.DELAY_SENSITIVE


class Policy(Enum):
    """The five policies, one row each.

    ``admitted_class`` is the one traffic class the policy serves (None:
    both).  A ``rate_limited`` policy deliberately underuses the mobile
    channel at its planned rate; the others ride whatever rate the channel
    realizes, and their plan's mobile_rate is the nominal prediction that
    sizes the cache offset.  ``prefetches`` stages part of the object in the
    next hotspot's cache, and ``hole_channel`` is the channel that fills the
    hole below a cached offset.
    """

    # (cli name, admitted class, rate-limited, prefetches, hole channel)
    PREFETCH_DELAY_TOLERANT = ("prefetch-dt", _DT, True, True, Channel.WIFI_BACKHAUL)
    PREDICTION_ONLY_DELAY_TOLERANT = ("prediction-dt", _DT, True, False, None)
    NO_PREDICTION_OFFLOAD = ("no-prediction", None, False, False, None)
    PREFETCH_DELAY_SENSITIVE = ("prefetch-ds", _DS, False, True, Channel.MOBILE)
    MOBILE_ONLY = ("mobile-only", None, False, False, None)

    def __new__(cls, cli_name: str, admitted_class: Optional[TrafficClass],
                rate_limited: bool, prefetches: bool,
                hole_channel: Optional[Channel]) -> "Policy":
        member = object.__new__(cls)
        member._value_ = cli_name
        member.admitted_class = admitted_class
        member.rate_limited = rate_limited
        member.prefetches = prefetches
        member.hole_channel = hole_channel
        return member

    @property
    def cli_name(self) -> str:
        return self.value

    def admits(self, traffic_class: TrafficClass) -> bool:
        return self.admitted_class in (None, traffic_class)


class PolicyClassMismatch(ValueError):
    """Policy cannot serve the task's traffic class."""


@dataclass(frozen=True)
class TransferPlan:
    """Rate to request from the mobile network until the next replanning point.

    ``infeasible`` is set when the unclamped delay-tolerant rate exceeded the
    predicted mobile capacity; the plan is still usable (clamped).
    """

    mobile_rate: float
    valid_from: float = 0.0
    infeasible: bool = False

    def __post_init__(self) -> None:
        if self.mobile_rate < 0:
            raise ValueError(f"mobile_rate must be >= 0, got {self.mobile_rate}")


@dataclass(frozen=True)
class CachePlan:
    """Byte range [offset, offset + amount) to stage in one hotspot's cache."""

    hotspot_index: Optional[int]
    amount_mb: float
    offset_mb: float

    def __post_init__(self) -> None:
        if self.amount_mb < 0 or self.offset_mb < 0:
            raise ValueError("cache amount and offset must be >= 0")


@dataclass(frozen=True)
class EntryAction:
    """One fetch step inside a hotspot: extend the received prefix up to
    ``window_hi`` at ``rate`` over ``channel``.  ``window_hi`` None means
    object end."""

    channel: Channel
    rate: float
    window_hi: Optional[float]


def _pessimistic_wifi(pred: PredictionProfile) -> tuple[float, float]:
    """Lower-bound WiFi bytes (MB) and seconds over the remaining hotspots."""
    data_mb = sum(h.rate_min * h.duration_min for h in pred.hotspots) / MBIT_PER_MB
    seconds = sum(h.duration_min for h in pred.hotspots)
    return data_mb, seconds


def _delay_tolerant_rate(
    remaining_mb: float, time_left: float, pred: PredictionProfile
) -> tuple[float, bool]:
    wifi_mb, wifi_s = _pessimistic_wifi(pred)
    data_mobile = max(0.0, remaining_mb - wifi_mb)
    time_mobile = max(T_MOBILE_FLOOR, time_left - wifi_s)
    raw = data_mobile * MBIT_PER_MB / time_mobile
    # The same rate must hold through every remaining mobile stretch, so the
    # cap is the lowest rate on the horizon, not the next gap's best.
    cap = pred.sustainable_mobile_rate
    infeasible = raw > cap
    return min(max(raw, 0.0), cap), infeasible


def _next_cache(
    pred: PredictionProfile,
    mobile_rate: float,
    received_prefix_mb: float,
    remaining_mb: float,
) -> CachePlan:
    """Size the next hotspot's cache from the optimistic bounds.

    The offset is the absolute object position the node expects to have
    reached on arrival: its current prefix plus what the mobile stream
    should deliver across the gap.  The amount is truncated so the cached
    range never extends past the object end.
    """
    size_mb = received_prefix_mb + remaining_mb
    offset = received_prefix_mb + mobile_rate * pred.time_to_next_wifi / MBIT_PER_MB
    if not pred.hotspots:
        return CachePlan(hotspot_index=None, amount_mb=0.0, offset_mb=offset)
    nxt = pred.hotspots[0]
    amount = nxt.rate_max * nxt.duration_max / MBIT_PER_MB
    amount = max(0.0, min(amount, size_mb - offset))
    return CachePlan(hotspot_index=nxt.hotspot_index, amount_mb=amount, offset_mb=offset)


def plan_exit_delay_tolerant(
    remaining_mb: float,
    time_left: float,
    pred: PredictionProfile,
    received_prefix_mb: float = 0.0,
    valid_from: float = 0.0,
) -> tuple[TransferPlan, CachePlan]:
    """Plan mobile rate and next-hotspot cache for delay-tolerant traffic.

    The WiFi capacity comes from ``pred``: local-rate bounds when the cache
    is used (a cached hotspot serves at its local WiFi rate), backhaul-rate
    bounds when it is not (a hotspot can only deliver what its backhaul
    brings in).
    """
    if remaining_mb < 0:
        raise ValueError(f"remaining_mb must be >= 0, got {remaining_mb}")
    rate, infeasible = _delay_tolerant_rate(remaining_mb, time_left, pred)
    plan = TransferPlan(mobile_rate=rate, valid_from=valid_from, infeasible=infeasible)
    cache = _next_cache(pred, rate, received_prefix_mb, remaining_mb)
    return plan, cache


def plan_exit_delay_sensitive(
    remaining_mb: float,
    received_prefix_mb: float,
    pred: PredictionProfile,
    valid_from: float = 0.0,
) -> tuple[TransferPlan, CachePlan]:
    """Plan for delay-sensitive traffic: full predicted mobile rate, plus the
    cache estimate for the next hotspot."""
    if remaining_mb < 0:
        raise ValueError(f"remaining_mb must be >= 0, got {remaining_mb}")
    rate = pred.max_mobile_rate
    plan = TransferPlan(mobile_rate=rate, valid_from=valid_from)
    cache = _next_cache(pred, rate, received_prefix_mb, remaining_mb)
    return plan, cache


def plan_exit(
    policy: Policy,
    remaining_mb: float,
    time_left: float,
    pred: PredictionProfile,
    received_prefix_mb: float = 0.0,
    valid_from: float = 0.0,
) -> tuple[TransferPlan, Optional[CachePlan]]:
    """Plan at the route start or a hotspot exit: the mobile rate until the
    next exit, and the next hotspot's cache when the policy prefetches.

    Rate-limited policies size the rate for the deadline; ``pred`` must
    carry local-rate bounds when the policy prefetches (a cached hotspot
    serves at its local WiFi rate) and backhaul-rate bounds otherwise.  The
    other policies request the full predicted mobile rate.
    """
    if policy.rate_limited:
        plan, cache = plan_exit_delay_tolerant(
            remaining_mb, time_left, pred, received_prefix_mb, valid_from)
    else:
        plan, cache = plan_exit_delay_sensitive(
            remaining_mb, received_prefix_mb, pred, valid_from)
    return plan, cache if policy.prefetches else None


def plan_entry(
    policy: Policy,
    prefix_mb: float,
    cache: Optional[CachePlan],
    local_rate: float,
    backhaul_rate: float,
    mobile_rate: float,
    size_mb: float,
) -> list[EntryAction]:
    """Ordered fetch steps for the dwell time in one hotspot.

    With a cache: (1) fill the hole below the cached offset over the
    policy's hole channel (``mobile_rate`` is the mobile throughput reachable
    inside the hotspot), (2) drain the cached range at the local rate,
    (3) keep fetching from the origin with the remaining dwell.  Without one,
    the whole dwell is an origin fetch; mobile-only never associates.
    """
    if policy is Policy.MOBILE_ONLY:
        return []
    origin = EntryAction(Channel.WIFI_BACKHAUL, backhaul_rate, size_mb)
    if not policy.prefetches or cache is None or cache.amount_mb <= 0:
        return [origin]
    hole_end = min(cache.offset_mb, size_mb)
    hole_rate = mobile_rate if policy.hole_channel is Channel.MOBILE else backhaul_rate
    actions = []
    if prefix_mb < hole_end and hole_rate > 0:
        actions.append(EntryAction(policy.hole_channel, hole_rate, hole_end))
    cache_end = min(cache.offset_mb + cache.amount_mb, size_mb)
    actions.append(EntryAction(Channel.WIFI_LOCAL, local_rate, cache_end))
    actions.append(origin)
    return actions


# -- the same planners over a batch of runs ----------------------------------
# Each run of a batch carries its own prefix and clock but shares the nominal
# forecast, so the closed forms above apply elementwise: the float operations
# are the same, in the same order, and np.maximum/np.minimum pick what max/min
# pick, so every run's plan equals the scalar planner's bit for bit.

Floats = Union[float, np.ndarray]


def plan_exit_batch(
    policy: Policy,
    remaining_mb: np.ndarray,
    time_left: np.ndarray,
    pred: PredictionProfile,
    received_prefix_mb: np.ndarray,
) -> tuple[Floats, np.ndarray, Optional[tuple[int, np.ndarray, np.ndarray]]]:
    """:func:`plan_exit` for every run at one replan point.

    Returns the planned mobile rate and the infeasible flag per run, and,
    when the policy prefetches and a hotspot remains, the next hotspot's
    index with the cache amount and offset per run (amount 0: no cache).
    """
    if policy.rate_limited:
        wifi_mb, wifi_s = _pessimistic_wifi(pred)
        data_mobile = np.maximum(0.0, remaining_mb - wifi_mb)
        time_mobile = np.maximum(T_MOBILE_FLOOR, time_left - wifi_s)
        raw = data_mobile * MBIT_PER_MB / time_mobile
        cap = pred.sustainable_mobile_rate
        rate = np.minimum(np.maximum(raw, 0.0), cap)
        infeasible = raw > cap
    else:
        rate = pred.max_mobile_rate
        infeasible = np.zeros(remaining_mb.shape, dtype=bool)
    if not policy.prefetches or not pred.hotspots:
        return rate, infeasible, None
    size_mb = received_prefix_mb + remaining_mb
    offset = received_prefix_mb + rate * pred.time_to_next_wifi / MBIT_PER_MB
    nxt = pred.hotspots[0]
    amount = np.maximum(0.0, np.minimum(nxt.rate_max * nxt.duration_max / MBIT_PER_MB,
                                        size_mb - offset))
    return rate, infeasible, (nxt.hotspot_index, amount, offset)


def plan_entry_batch(
    policy: Policy,
    prefix_mb: np.ndarray,
    cache: Optional[tuple[np.ndarray, np.ndarray]],
    local_rate: np.ndarray,
    backhaul_rate: np.ndarray,
    mobile_rate: np.ndarray,
    size_mb: float,
) -> list[tuple[Optional[np.ndarray], EntryAction]]:
    """:func:`plan_entry` for every run entering one hotspot.

    ``cache`` is the (offset, amount) per run, amount 0 where a run has no
    cache.  Returns the steps in order, each with the mask of runs that take
    it (None: every run) and its rate and fill target per run.
    """
    if policy is Policy.MOBILE_ONLY:
        return []
    origin = (None, EntryAction(Channel.WIFI_BACKHAUL, backhaul_rate, size_mb))
    if not policy.prefetches or cache is None:
        return [origin]
    offset, amount = cache
    cached = amount > 0
    hole_end = np.minimum(offset, size_mb)
    hole_rate = mobile_rate if policy.hole_channel is Channel.MOBILE else backhaul_rate
    return [
        (cached & (prefix_mb < hole_end) & (hole_rate > 0),
         EntryAction(policy.hole_channel, hole_rate, hole_end)),
        (cached, EntryAction(Channel.WIFI_LOCAL, local_rate,
                             np.minimum(offset + amount, size_mb))),
        origin,
    ]
