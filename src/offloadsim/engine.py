"""Trip executor: fluid-flow integration of one realized route.

The planner side sees only the nominal route plus error bounds; this module
executes the plans against the realized route, keeps the received prefix
and the per-channel accounting, and prices the energy spent.  Transfers are
fluid: bytes moved = rate x time, with exact interpolation of the completion
crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import (
    MBIT_PER_MB,
    AccessKind,
    EnergyModel,
    RouteProfile,
    TransferTask,
)
from .policies import (
    CachePlan,
    Channel,
    Policy,
    PolicyClassMismatch,
    TransferPlan,
    plan_entry,
    plan_exit,
)
from .prediction import ErrorSpec, build_prediction

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

    def channel_total(self) -> float:
        return self.mobile_mb + self.wifi_local_mb + self.wifi_backhaul_mb


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


def _window_mobile_rate(route: RouteProfile, index: int) -> float:
    """Mobile rate available while inside WiFi segment ``index``: the nearest
    mobile segment's rate (preceding first, else following)."""
    for seg in reversed(route.segments[:index]):
        if seg.kind is AccessKind.MOBILE:
            return seg.mobile_rate
    for seg in route.segments[index + 1:]:
        if seg.kind is AccessKind.MOBILE:
            return seg.mobile_rate
    return 0.0


def _mobile_rate_in_use(policy: Policy, plan: TransferPlan, channel_rate: float) -> float:
    """Rate-limited policies transfer at their planned rate capped by the
    channel; maximum-throughput policies use whatever the channel realizes."""
    if policy.rate_limited:
        return min(plan.mobile_rate, channel_rate)
    return channel_rate


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
    the realization).  During mobile coverage the node transfers at the
    planned rate capped by the realized channel; inside hotspots it runs the
    policy's entry actions against the realized dwell.
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
    caches: dict[int, CachePlan] = {}
    cache_provisioned = 0.0
    infeasible = False

    def replan(now_nominal: float, now_realized: float) -> TransferPlan:
        nonlocal cache_provisioned, infeasible
        pred = build_prediction(
            route_nominal,
            now_nominal,
            errors,
            use_local_rate=policy.prefetches,
            horizon=horizon,
        )
        plan, cache = plan_exit(
            policy,
            state.remaining,
            deadline - now_realized if not math.isinf(deadline) else math.inf,
            pred,
            received_prefix_mb=state.prefix,
            valid_from=now_realized,
        )
        infeasible = infeasible or plan.infeasible
        if cache is not None and cache.amount_mb > 0 and cache.hotspot_index is not None:
            caches[cache.hotspot_index] = cache
            cache_provisioned += cache.amount_mb
        return plan

    plan = replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(route_realized.segments,
                                           route_nominal.segments)):
        if state.complete:
            break
        t0 = seg.start_time
        if seg.kind is AccessKind.MOBILE:
            rate = _mobile_rate_in_use(policy, plan, seg.mobile_rate)
            if rate > 0:
                integrate_transfer(state, rate, seg.duration, Channel.MOBILE, now=t0)
        elif policy is Policy.MOBILE_ONLY:
            # Stays on the mobile network through the WiFi window; the rate
            # there is inherited from the nearest mobile segment.
            rate = _mobile_rate_in_use(policy, plan,
                                       _window_mobile_rate(route_realized, i))
            if rate > 0:
                integrate_transfer(state, rate, seg.duration, Channel.MOBILE, now=t0)
        else:
            actions = plan_entry(
                policy,
                state.prefix,
                caches.get(seg.hotspot_index),
                local_rate=seg.wifi_local_rate,
                backhaul_rate=seg.backhaul_rate,
                mobile_rate=_window_mobile_rate(route_realized, i),
                size_mb=task.size_mb,
            )
            budget = seg.duration
            cursor = t0
            busy = 0.0
            for action in actions:
                if budget <= 1e-12 or state.complete:
                    break
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
            plan = replan(seg_nom.end_time, seg.end_time)

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
