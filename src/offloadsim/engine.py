"""Trip executor: fluid-flow integration of one realized route.

The planner side sees only the nominal route plus error bounds; this module
executes the plans against the realized route, keeps the received prefix
and the per-channel accounting, and prices the energy spent.  Transfers are
fluid: bytes moved = rate x time, with exact interpolation of the completion
crossing.

:func:`run_trip` executes one trip.  :func:`run_batch` executes many
realizations of one nominal route at once, with each run's state held in
numpy arrays; it is what a Monte-Carlo scenario uses, and its results equal
:func:`run_trip`'s bit for bit.  Both loops plan through the same
:func:`~offloadsim.policies.plan_exit` and
:func:`~offloadsim.policies.plan_entry`, on floats and on arrays.  One trip
stays on the scalar path because a numpy operation on one element costs
several times a float operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    MBIT_PER_MB,
    AccessKind,
    EnergyModel,
    RouteProfile,
    TransferTask,
)
from .policies import (
    Channel,
    Floats,
    Policy,
    PolicyClassMismatch,
    plan_entry,
    plan_exit,
)
from .prediction import ErrorSpec, RealizedBatch, build_prediction

_BYTE_EPS = 1e-9  # MB; completion slack for float round-off
_DEADLINE_EPS = 1e-9  # s


@dataclass
class TransferState:
    """Mutable byte accounting for one trip.

    Every fetch step extends one received prefix of the object: a hotspot's
    hole is filled before its cache is drained, so no gap is ever left.
    """

    size_mb: float
    prefix: float = 0.0
    mobile_mb: float = 0.0
    wifi_local_mb: float = 0.0
    wifi_backhaul_mb: float = 0.0
    completion_time: Optional[float] = None

    @property
    def remaining(self) -> float:
        return max(0.0, self.size_mb - self.prefix)

    @property
    def complete(self) -> bool:
        return self.completion_time is not None


@dataclass(frozen=True)
class WifiVisit:
    """Interface-on window at one hotspot, for the idle-energy account."""

    entry_time: float
    leave_time: float
    busy_seconds: float


@dataclass(frozen=True)
class EnergyBreakdown:
    mobile_j: float
    wifi_transfer_j: float
    wifi_idle_j: float

    @property
    def total_j(self) -> float:
        return self.mobile_j + self.wifi_transfer_j + self.wifi_idle_j


@dataclass(frozen=True)
class RunOutcome:
    """Realized result of one trip: byte split, timing, energy."""

    offload_pct: float
    transfer_delay: float
    deadline_met: bool
    completed: bool
    energy: EnergyBreakdown
    mobile_mb: float
    wifi_local_mb: float
    wifi_backhaul_mb: float
    cache_bytes_used: float
    plan_infeasible: bool
    completion_time: Optional[float]

    @property
    def energy_j(self) -> float:
        return self.energy.total_j


def integrate_transfer(
    state: TransferState,
    rate: float,
    max_seconds: float,
    channel: Channel,
    now: float,
    window_hi: Optional[float] = None,
) -> float:
    """Extend the received prefix toward ``window_hi`` (None: the object
    end) for up to ``max_seconds`` at ``rate``; returns the seconds spent.

    Updates the channel total, and interpolates ``state.completion_time``
    exactly when the object finishes mid-way.
    """
    if rate < 0 or max_seconds < 0:
        raise ValueError("rate and duration must be >= 0")
    if rate == 0 or max_seconds == 0 or state.complete:
        return 0.0
    hi = state.size_mb if window_hi is None else min(window_hi, state.size_mb)
    need = hi - state.prefix
    if need <= 0:
        return 0.0
    missing_total = state.size_mb - state.prefix
    moved = min(need, rate * max_seconds / MBIT_PER_MB)
    state.prefix += moved

    if channel is Channel.MOBILE:
        state.mobile_mb += moved
    elif channel is Channel.WIFI_LOCAL:
        state.wifi_local_mb += moved
    else:
        state.wifi_backhaul_mb += moved

    if moved >= missing_total - _BYTE_EPS:
        state.completion_time = now + missing_total * MBIT_PER_MB / rate
    return moved * MBIT_PER_MB / rate


def account_energy(
    visits: list[WifiVisit],
    mobile_mb: float,
    wifi_mb: float,
    model: EnergyModel,
    stop_time: float,
) -> EnergyBreakdown:
    """Price a trip: flat per-MB transfer costs plus WiFi idle power.

    The WiFi interface is on from ``preactivation`` seconds before each
    hotspot entry (never before the trip start) until the hotspot is left or
    the transfer finishes; idle time is that window minus the transfer-busy
    seconds inside it.
    """
    idle_s = 0.0
    for v in visits:
        on_start = max(0.0, v.entry_time - model.wifi_preactivation_s)
        on_end = min(v.leave_time, stop_time)
        idle_s += max(0.0, (on_end - on_start) - v.busy_seconds)
    return EnergyBreakdown(
        mobile_j=model.mobile_transfer_j_per_mb * mobile_mb,
        wifi_transfer_j=model.wifi_transfer_j_per_mb * wifi_mb,
        wifi_idle_j=model.wifi_idle_w * idle_s,
    )


def _check_same_structure(realized: RouteProfile, nominal: RouteProfile) -> None:
    if len(realized.segments) != len(nominal.segments):
        raise ValueError("realized and nominal routes differ in segment count")
    for r, n in zip(realized.segments, nominal.segments):
        if r.kind is not n.kind or r.hotspot_index != n.hotspot_index:
            raise ValueError("realized and nominal routes differ in structure")


def _window_mobile_segment(route: RouteProfile, index: int) -> Optional[int]:
    """The mobile segment whose rate is available while inside WiFi segment
    ``index``: the nearest one, preceding first, else following; None when
    the route has none."""
    segments = route.segments
    for j in range(index - 1, -1, -1):
        if segments[j].kind is AccessKind.MOBILE:
            return j
    for j in range(index + 1, len(segments)):
        if segments[j].kind is AccessKind.MOBILE:
            return j
    return None


def _window_mobile_rate(route: RouteProfile, index: int) -> float:
    """Mobile rate available while inside WiFi segment ``index`` (0 when the
    route has no mobile segment)."""
    j = _window_mobile_segment(route, index)
    return 0.0 if j is None else route.segments[j].mobile_rate


def run_trip(
    route_realized: RouteProfile,
    route_nominal: RouteProfile,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> RunOutcome:
    """Execute one trip under ``policy`` and return the realized outcome.

    Plans are (re)built at the route start and at every realized hotspot
    exit, always from the nominal route (the planner sees predictions, never
    the realization).  During mobile coverage (and, for mobile-only,
    through the WiFi windows, at the nearest mobile segment's rate) a
    rate-limited policy transfers at its planned rate capped by the realized
    channel, the others at whatever the channel realizes; inside hotspots
    the node runs the policy's entry steps against the realized dwell.
    """
    _check_same_structure(route_realized, route_nominal)
    if not policy.admits(task.traffic_class):
        raise PolicyClassMismatch(
            f"{policy.cli_name} cannot serve {task.traffic_class.value} traffic"
        )

    deadline = task.effective_deadline()
    horizon = None if math.isinf(deadline) else deadline
    state = TransferState(size_mb=task.size_mb)
    visits: list[WifiVisit] = []
    caches: dict[int, tuple[float, float]] = {}  # offset, amount
    cache_provisioned = 0.0
    infeasible = False

    def replan(now_nominal: float, now_realized: float) -> float:
        nonlocal cache_provisioned, infeasible
        pred = build_prediction(
            route_nominal,
            now_nominal,
            errors,
            use_local_rate=policy.prefetches,
            horizon=horizon,
        )
        rate, flagged, cache = plan_exit(
            policy, state.remaining, deadline - now_realized, pred, state.prefix)
        infeasible = infeasible or flagged
        if cache is not None and cache[1] > 0:
            index, amount, offset = cache
            caches[index] = (offset, amount)
            cache_provisioned += amount
        return rate

    plan_rate = replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(route_realized.segments,
                                           route_nominal.segments)):
        if state.complete:
            break
        t0 = seg.start_time
        if seg.kind is AccessKind.MOBILE:
            mobile_rate = seg.mobile_rate
        else:
            mobile_rate = _window_mobile_rate(route_realized, i)
        if seg.kind is AccessKind.MOBILE or policy is Policy.MOBILE_ONLY:
            rate = min(plan_rate, mobile_rate) if policy.rate_limited else mobile_rate
            if rate > 0:
                integrate_transfer(state, rate, seg.duration, Channel.MOBILE, now=t0)
        else:
            steps = plan_entry(
                policy,
                state.prefix,
                caches.get(seg.hotspot_index),
                local_rate=seg.wifi_local_rate,
                backhaul_rate=seg.backhaul_rate,
                mobile_rate=mobile_rate,
                size_mb=task.size_mb,
            )
            budget = seg.duration
            cursor = t0
            busy = 0.0
            for taken, action in steps:
                if budget <= 1e-12 or state.complete:
                    break
                if not taken:
                    continue
                used = integrate_transfer(
                    state,
                    action.rate,
                    budget,
                    action.channel,
                    now=cursor,
                    window_hi=action.window_hi,
                )
                if action.channel is not Channel.MOBILE:
                    busy += used
                cursor += used
                budget -= used
            leave = state.completion_time if state.complete else seg.end_time
            visits.append(WifiVisit(entry_time=t0, leave_time=leave, busy_seconds=busy))
        if seg.kind is AccessKind.WIFI and not state.complete:
            plan_rate = replan(seg_nom.end_time, seg.end_time)

    completed = state.complete
    transfer_delay = state.completion_time if completed else route_realized.total_time
    deadline_met = completed and transfer_delay <= deadline + _DEADLINE_EPS
    stop = state.completion_time if completed else route_realized.total_time
    energy = account_energy(
        visits,
        state.mobile_mb,
        state.wifi_local_mb + state.wifi_backhaul_mb,
        energy_model,
        stop_time=stop,
    )
    offload = (state.wifi_local_mb + state.wifi_backhaul_mb) / task.size_mb * 100.0
    return RunOutcome(
        offload_pct=min(100.0, offload),
        transfer_delay=transfer_delay,
        deadline_met=deadline_met,
        completed=completed,
        energy=energy,
        mobile_mb=state.mobile_mb,
        wifi_local_mb=state.wifi_local_mb,
        wifi_backhaul_mb=state.wifi_backhaul_mb,
        cache_bytes_used=cache_provisioned,
        plan_infeasible=infeasible,
        completion_time=state.completion_time,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """Realized results of one policy over a batch of runs: one entry per
    run in each field, which is the :class:`RunOutcome` field of that name."""

    offload_pct: np.ndarray
    transfer_delay: np.ndarray
    deadline_met: np.ndarray
    energy_j: np.ndarray
    mobile_mb: np.ndarray
    wifi_local_mb: np.ndarray
    wifi_backhaul_mb: np.ndarray
    cache_bytes_used: np.ndarray
    plan_infeasible: np.ndarray


class _BatchState:
    """:class:`TransferState` of every run of a batch, one entry per run."""

    def __init__(self, size_mb: float, runs: int) -> None:
        self.size_mb = size_mb
        self.prefix = np.zeros(runs)
        self.channel_mb = {channel: np.zeros(runs) for channel in Channel}
        self.completion_time = np.zeros(runs)  # read only where complete
        self.complete = np.zeros(runs, dtype=bool)

    def integrate(self, runs: np.ndarray, rate: Floats, max_seconds: Floats,
                  channel: Channel, now: Floats, hi: Floats) -> np.ndarray:
        """:func:`integrate_transfer` for the runs selected by ``runs``, with
        fill target ``hi`` (at most the object size); returns the seconds
        spent per run, 0 for the runs left out."""
        need = hi - self.prefix
        go = runs & ~self.complete & (rate != 0) & (max_seconds != 0) & (need > 0)
        rate = np.where(go, rate, 1.0)  # no division by zero in runs left out
        missing = self.size_mb - self.prefix
        moved = np.where(go, np.minimum(need, rate * max_seconds / MBIT_PER_MB), 0.0)
        self.prefix = self.prefix + moved
        self.channel_mb[channel] += moved
        done = go & (moved >= missing - _BYTE_EPS)
        self.completion_time = np.where(done, now + missing * MBIT_PER_MB / rate,
                                        self.completion_time)
        self.complete |= done
        return moved * MBIT_PER_MB / rate


def run_batch(
    batch: RealizedBatch,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> BatchOutcome:
    """Execute every realization of ``batch`` under ``policy``.

    Run k's outcome equals, bit for bit, :func:`run_trip` on realization k
    and ``batch.route``: one pass over the segments moves all runs together,
    each branch of :func:`run_trip` becomes a mask over the runs, and the
    float operations are the same, in the same order.  A forecast is built
    once per replan point for the whole batch.
    """
    if not policy.admits(task.traffic_class):
        raise PolicyClassMismatch(
            f"{policy.cli_name} cannot serve {task.traffic_class.value} traffic"
        )

    route, n, size = batch.route, batch.runs, task.size_mb
    deadline = task.effective_deadline()
    horizon = None if math.isinf(deadline) else deadline
    state = _BatchState(size, n)
    plan_rate: Floats = 0.0
    infeasible = np.zeros(n, dtype=bool)
    cache_provisioned = np.zeros(n)
    caches: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # offset, amount
    visits = []  # (runs inside, entry, leave, busy seconds) per hotspot

    def replan(now_nominal: float, now_realized: Floats, runs: np.ndarray) -> None:
        nonlocal plan_rate, infeasible, cache_provisioned
        pred = build_prediction(route, now_nominal, errors,
                                use_local_rate=policy.prefetches, horizon=horizon)
        plan_rate, flagged, cache = plan_exit(
            policy, np.maximum(0.0, size - state.prefix), deadline - now_realized,
            pred, state.prefix)
        infeasible = infeasible | (runs & flagged)
        if cache is not None:
            index, amount, offset = cache
            kept = runs & (amount > 0)
            if kept.any():
                offsets, amounts = caches.setdefault(index, (np.zeros(n), np.zeros(n)))
                offsets[kept] = offset[kept]
                amounts[kept] = amount[kept]
                cache_provisioned = cache_provisioned + np.where(kept, amount, 0.0)

    replan(0.0, 0.0, ~state.complete)

    for i, seg in enumerate(route.segments):
        runs = ~state.complete
        if not runs.any():
            break
        t0 = batch.start[i]
        if seg.kind is AccessKind.MOBILE:
            mobile_rate = batch.mobile_rate[i]
        else:
            j = _window_mobile_segment(route, i)
            mobile_rate = np.zeros(n) if j is None else batch.mobile_rate[j]
        if seg.kind is AccessKind.MOBILE or policy is Policy.MOBILE_ONLY:
            rate = np.minimum(plan_rate, mobile_rate) if policy.rate_limited else mobile_rate
            state.integrate(runs & (rate > 0), rate, batch.duration[i], Channel.MOBILE,
                            t0, size)
        else:
            steps = plan_entry(
                policy,
                state.prefix,
                caches.get(seg.hotspot_index),
                local_rate=batch.wifi_local_rate[i],
                backhaul_rate=batch.backhaul_rate[i],
                mobile_rate=mobile_rate,
                size_mb=size,
            )
            budget = batch.duration[i]
            cursor = t0
            busy = np.zeros(n)
            for taken, action in steps:
                used = state.integrate(
                    runs & taken & (budget > 1e-12),
                    action.rate,
                    budget,
                    action.channel,
                    now=cursor,
                    hi=action.window_hi,
                )
                if action.channel is not Channel.MOBILE:
                    busy = busy + used
                cursor = cursor + used
                budget = budget - used
            leave = np.where(state.complete, state.completion_time, batch.end[i])
            visits.append((runs, t0, leave, busy))
        if seg.kind is AccessKind.WIFI and not state.complete.all():
            replan(seg.end_time, batch.end[i], ~state.complete)

    completed = state.complete
    transfer_delay = np.where(completed, state.completion_time, batch.end[-1])
    idle_s = np.zeros(n)
    for inside, entry, leave, busy in visits:
        on_start = np.maximum(0.0, entry - energy_model.wifi_preactivation_s)
        on_end = np.minimum(leave, transfer_delay)
        idle_s = idle_s + np.where(inside, np.maximum(0.0, (on_end - on_start) - busy), 0.0)
    mobile_mb = state.channel_mb[Channel.MOBILE]
    wifi_local_mb = state.channel_mb[Channel.WIFI_LOCAL]
    wifi_backhaul_mb = state.channel_mb[Channel.WIFI_BACKHAUL]
    wifi_mb = wifi_local_mb + wifi_backhaul_mb
    energy_j = (energy_model.mobile_transfer_j_per_mb * mobile_mb
                + energy_model.wifi_transfer_j_per_mb * wifi_mb
                + energy_model.wifi_idle_w * idle_s)
    return BatchOutcome(
        offload_pct=np.minimum(100.0, wifi_mb / size * 100.0),
        transfer_delay=transfer_delay,
        deadline_met=completed & (transfer_delay <= deadline + _DEADLINE_EPS),
        energy_j=energy_j,
        mobile_mb=mobile_mb,
        wifi_local_mb=wifi_local_mb,
        wifi_backhaul_mb=wifi_backhaul_mb,
        cache_bytes_used=cache_provisioned,
        plan_infeasible=infeasible,
    )
