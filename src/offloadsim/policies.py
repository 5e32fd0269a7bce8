"""Transfer policies: one table of per-policy traits and two planners.

Plans are made at the route start and whenever the node leaves a hotspot
(:func:`plan_exit`), for the policies that read them.  Delay-tolerant
planning sizes the mobile rate so that the pessimistic WiFi forecast plus
the mobile stream finish exactly at the deadline; the maximum-throughput
policies just request the full predicted mobile rate.  Prefetching policies
additionally decide how much of the object to push into the next hotspot's
cache and at which object offset.  Each reads a forecast's WiFi sums and
next hotspot's cache cap as they stand, however many hotspots lie ahead.

The received bytes are always one prefix of the object, so on entering a
hotspot (:func:`plan_entry`) every step fills the prefix up to a position:
first the hole below the cached offset (delay-tolerant traffic fetches it
from the origin over the backhaul; delay-sensitive traffic lets its
still-running mobile stream finish it), then the cached range, then the
rest of the object from the origin for whatever dwell time is left.

Both planners are closed forms applied elementwise.  They take floats for
one trip (the engine's trip loop in its float form, and the oracle) or
arrays with one entry per run for a batch (the same loop in its array form):
the runs of a batch share the nominal forecast but each carries its own
prefix and clock.  :func:`elementwise` picks the operations of either form
for the planners and the engine alike.  The float operations are the same,
in the same order, either way, so each run's plan equals the single trip's
bit for bit.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import MBIT_PER_MB, TrafficClass, as_tuple, max2, min2
from .prediction import PredictionProfile

# Floor for the mobile-time denominator; avoids division by zero when the
# WiFi-time estimate reaches the remaining budget.
T_MOBILE_FLOOR = 1e-30


class Channel(Enum):
    MOBILE = "mobile"
    WIFI_LOCAL = "wifi-local"
    WIFI_BACKHAUL = "wifi-backhaul"


# each read of an enum member costs a metaclass lookup: the hot paths compare with these
_MOBILE, _LOCAL, _BACKHAUL = Channel.MOBILE, Channel.WIFI_LOCAL, Channel.WIFI_BACKHAUL

_DT = TrafficClass.DELAY_TOLERANT
_DS = TrafficClass.DELAY_SENSITIVE


class Policy(Enum):
    """The five policies, one row each.

    ``admitted_class`` is the one traffic class the policy serves (None:
    both).  A ``rate_limited`` policy deliberately underuses the mobile
    channel at its planned rate; the others ride whatever rate the channel
    realizes, and their plan's mobile_rate is the nominal prediction that
    sizes the cache offset.  A policy with a ``hole_channel`` ``prefetches``:
    it stages part of the object in the next hotspot's cache, and that
    channel fills the hole below the cached offset.  A policy that neither
    rate-limits nor prefetches reads no plan, so the engine makes none for it.
    """

    # (cli name, admitted class, rate-limited, hole channel, associates: fetches in hotspots)
    PREFETCH_DELAY_TOLERANT = ("prefetch-dt", _DT, True, Channel.WIFI_BACKHAUL, True)
    PREDICTION_ONLY_DELAY_TOLERANT = ("prediction-dt", _DT, True, None, True)
    NO_PREDICTION_OFFLOAD = ("no-prediction", None, False, None, True)
    PREFETCH_DELAY_SENSITIVE = ("prefetch-ds", _DS, False, Channel.MOBILE, True)
    MOBILE_ONLY = ("mobile-only", None, False, None, False)

    def __new__(cls, cli_name: str, admitted_class: Optional[TrafficClass], rate_limited: bool,
                hole_channel: Optional[Channel], associates: bool) -> "Policy":
        member = object.__new__(cls)
        member._value_ = cli_name
        member.admitted_class = admitted_class
        member.rate_limited = rate_limited
        member.hole_channel = hole_channel
        member.associates = associates
        # a plain attribute, not a property: the trip loop reads it at every replan
        member.prefetches = hole_channel is not None
        return member

    @property
    def cli_name(self) -> str:
        return self.value

    def admits(self, traffic_class: TrafficClass) -> bool:
        return self.admitted_class in (None, traffic_class)


class PolicyClassMismatch(ValueError):
    """Policy cannot serve the task's traffic class."""


def check_admitted(policies: Union[Policy, Sequence[Policy]],
                   traffic_class: TrafficClass) -> tuple[Policy, ...]:
    """``policies`` as a tuple, a lone Policy or name one entry.  Raise
    ``ValueError`` unless it names at least one :class:`Policy`, each once,
    or is not iterable, and :class:`PolicyClassMismatch` for the first of
    them that cannot serve ``traffic_class``."""
    policies = ((policies,) if isinstance(policies, (str, Policy))
                else as_tuple("policies", policies, "Policies"))
    if not policies:
        raise ValueError("scenario needs at least one policy")
    for i, p in enumerate(policies):
        if not isinstance(p, Policy):
            raise ValueError(f"policies[{i}] must be a Policy, got {p!r}")
        if p in policies[:i]:
            raise ValueError(f"policy {p.cli_name} is listed twice")
        if not p.admits(traffic_class):
            raise PolicyClassMismatch(f"{p.cli_name} cannot serve {traffic_class.value} traffic")
    return policies


# One trip's value, or one value per run of a batch.
Floats = Union[float, np.ndarray]
Bools = Union[bool, np.ndarray]


class PolicyColumns(NamedTuple):
    """A batch's policies, policy p over row p of its ``(P, runs)`` arrays, read
    like one Policy: a shared trait is a bool, any other a ``(P, 1)`` mask that
    broadcasts along the runs (both sides of its branch are computed and each row
    picks its own); of one traffic class, they share a hole channel."""

    rate_limited: Bools
    prefetches: Bools
    associates: Bools
    hole_channel: Optional[Channel]


def policy_columns(policies: Sequence[Policy]) -> PolicyColumns:
    """The traits of ``policies``, policy p's in row p."""
    def trait(name: str) -> Bools:
        v = [getattr(p, name) for p in policies]
        return v[0] if len(set(v)) == 1 else np.array(v)[:, None]
    return PolicyColumns(trait("rate_limited"), trait("prefetches"), trait("associates"),
                         next((p.hole_channel for p in policies if p.prefetches), None))


class Elementwise(NamedTuple):
    """The elementwise operations of one form: floats for one trip, numpy
    arrays with one entry per run for a batch.  ``zeros(like, dtype=float)``
    is 0.0 or False, or an array of them shaped like ``like``."""

    where: Callable
    any: Callable
    not_: Callable
    zeros: Callable
    minimum: Callable
    maximum: Callable


# A ufunc on one element costs several times a float operation, so one trip
# runs on plain Python, and takes a minimum or maximum by comparison
# (:func:`~offloadsim.model.min2`, :func:`~offloadsim.model.max2`): on
# Python 3.11 a builtin ``min(a, b)`` costs about three times as much, and
# either returns the very object the builtin would.  Both forms pick the same
# values in the same order, so a trip's results equal its run's in a batch
# bit for bit.  An array's ``any`` is a count of its true entries, which is
# as truthy and about three times cheaper than ``ndarray.any``.
_FLOAT_OPS = Elementwise(lambda condition, x, y: x if condition else y, bool,
                         operator.not_, lambda like, dtype=float: dtype(0), min2, max2)
_ARRAY_OPS = Elementwise(np.where, np.count_nonzero, np.logical_not,
                         lambda like, dtype=float: np.zeros(np.shape(like), dtype),
                         np.minimum, np.maximum)


def elementwise(x: Floats) -> Elementwise:
    """The operations for ``x``'s form: arrays if it is one, else floats."""
    return _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS


def plan_exit(
    policy: Union[Policy, PolicyColumns],
    remaining_mb: Floats,
    time_left: Floats,
    pred: PredictionProfile,
    received_prefix_mb: Floats = 0.0,
) -> tuple[Floats, Bools, Floats, Floats]:
    """Plan at the route start or a hotspot exit: ``(rate, infeasible, amount,
    offset)``.

    ``rate`` is the mobile rate until the next exit.  Rate-limited policies
    size it so that the pessimistic WiFi forecast plus the mobile stream
    finish the ``remaining_mb`` at the deadline, clamped to the lowest
    mobile rate on the horizon; ``infeasible`` flags the plans that needed
    more.  A prefetching policy plans on the forecast's sum at the local WiFi
    rate (a cached hotspot serves at it), any other on its sum at the
    backhaul rate: this is the one place that choice is made.  The other
    policies request the full predicted mobile rate and are never
    infeasible; for a batch, their rate and flag are one value for every run.

    ``amount`` and ``offset`` are the cache staged in the forecast's next
    hotspot: the node expects to have reached object position ``offset`` on
    arrival (its prefix plus what the mobile stream delivers across the
    gap), and the hotspot stages the next ``amount`` MB from there, up to its
    cache cap and never past the object end.  ``amount`` is 0.0 wherever
    nothing is staged: for a policy that does not prefetch, in every row of
    one, and where the forecast names no next hotspot.
    """
    ops = elementwise(remaining_mb)
    limited, prefetches = policy.rate_limited, policy.prefetches
    rate, infeasible = pred.max_mobile_rate, False
    if limited is not False:
        # a bool picks one sum, a (P, 1) mask one per row
        local, backhaul = pred.wifi_local_mbit, pred.wifi_backhaul_mbit
        wifi_mbit = (local if prefetches is True else backhaul if prefetches is False
                     else _ARRAY_OPS.where(prefetches, local, backhaul))
        data_mobile = ops.maximum(0.0, remaining_mb - wifi_mbit / MBIT_PER_MB)
        time_mobile = ops.maximum(T_MOBILE_FLOOR, time_left - pred.wifi_seconds)
        raw = data_mobile * MBIT_PER_MB / time_mobile
        # The same rate must hold through every remaining mobile stretch, so
        # the cap is the lowest rate on the horizon, not the next gap's best.
        cap = pred.sustainable_mobile_rate
        clamped = ops.minimum(ops.maximum(raw, 0.0), cap)
        rate, infeasible = ((clamped, raw > cap) if limited is True else
                            (ops.where(limited, clamped, rate), limited & (raw > cap)))
    if prefetches is False or pred.next_hotspot is None:
        return rate, infeasible, 0.0, 0.0
    size_mb = received_prefix_mb + remaining_mb
    offset = received_prefix_mb + rate * pred.time_to_next_wifi / MBIT_PER_MB
    amount = ops.maximum(0.0, ops.minimum(pred.next_cache_mb, size_mb - offset))
    if prefetches is not True:  # a (P, 1) mask: no cache in the other rows
        amount = ops.where(prefetches, amount, 0.0)
    return rate, infeasible, amount, offset


def plan_entry(
    policy: Union[Policy, PolicyColumns],
    prefix_mb: Floats,
    cache: Optional[tuple[Floats, Floats]],
    local_rate: Floats,
    backhaul_rate: Floats,
    mobile_rate: Floats,
    size_mb: float,
) -> list[tuple[Bools, tuple[Channel, Floats, Floats]]]:
    """Ordered fetch steps for the dwell time in one hotspot, each with
    whether it is taken: a bool for one trip, a mask over a batch's runs
    (True for the origin fetch, or the rows of the policies that associate).
    A step ``(channel, rate, window_hi)`` extends the received prefix up to
    ``window_hi`` at ``rate`` over ``channel``.

    ``cache`` is the hotspot's staged ``(offset, amount)`` or None.  With a
    cache: (1) fill the hole below the cached offset over the policy's hole
    channel (``mobile_rate`` is the mobile throughput reachable inside the
    hotspot), (2) drain the cached range at the local rate, (3) keep
    fetching from the origin with the remaining dwell.  Steps (1) and (2)
    are not taken where the amount is 0, as in a row that does not
    prefetch.  Without a cache, the whole dwell is an origin fetch;
    mobile-only never associates.
    """
    if policy.associates is False:
        return []
    origin = (policy.associates, (_BACKHAUL, backhaul_rate, size_mb))
    if policy.prefetches is False or cache is None:
        return [origin]
    ops = elementwise(prefix_mb)
    offset, amount = cache
    cached = amount > 0
    hole_end = ops.minimum(offset, size_mb)
    hole_rate = mobile_rate if policy.hole_channel is _MOBILE else backhaul_rate
    return [
        (cached & (prefix_mb < hole_end) & (hole_rate > 0),
         (policy.hole_channel, hole_rate, hole_end)),
        (cached, (_LOCAL, local_rate, ops.minimum(offset + amount, size_mb))),
        origin,
    ]
