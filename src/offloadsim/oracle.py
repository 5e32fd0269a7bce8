"""Brute-force time-stepped trip simulator, used to cross-check the engine.

Same event rules and planners as :mod:`offloadsim.engine`, but the transfer
integration is a forward time march with a fixed step instead of closed-form
phase algebra, over its own received prefix and its own phase list for each
segment.  Agreement between the two is the correctness check for the
analytic engine.

Each segment is still ``ceil(duration / dt)`` steps taken in order; no step
is solved in closed form.  Most steps are *plain*: a full step inside one
phase that moves ``rate * h / 8`` MB and ends neither the phase nor the
object.  A run of plain steps is advanced with ``np.cumsum`` in chunks of at
most ``STEP_CHUNK`` steps, testing each step with the scalar step's own float
expressions.  ``cumsum`` adds in sequence, so every step performs the same
float addition as the scalar step, and the result is bit for bit that of the
step-by-step loop.  Every other step (a phase end, the completion, a step
that carries time into the next phase) runs the scalar step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import MBIT_PER_MB, AccessKind, RouteProfile, TransferTask
from .policies import Channel, Policy, PolicyClassMismatch, plan_exit
from .prediction import ErrorSpec, build_prediction
from .engine import RunOutcome, _check_same_structure, _window_mobile_rate

DEFAULT_DT = 0.01

# Most plain steps one cumsum advances; bounds the march's memory for any dt.
STEP_CHUNK = 4096

# Tolerances for engine/oracle agreement: bytes relative to the object size,
# completion time absolute.
BYTE_TOL_FRACTION = 0.001
TIME_TOL_S = 0.05


@dataclass(frozen=True)
class StepOutcome:
    mobile_mb: float
    wifi_local_mb: float
    wifi_backhaul_mb: float
    completion_time: Optional[float]

    @property
    def completed(self) -> bool:
        return self.completion_time is not None


def run_trip_stepped(
    route_realized: RouteProfile,
    route_nominal: RouteProfile,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    dt: float = DEFAULT_DT,
) -> StepOutcome:
    """March through the realized route in steps of at most ``dt`` seconds."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    _check_same_structure(route_realized, route_nominal)
    if not policy.admits(task.traffic_class):
        raise PolicyClassMismatch(
            f"{policy.cli_name} cannot serve {task.traffic_class.value} traffic"
        )

    size = task.size_mb
    deadline = task.effective_deadline()
    horizon = None if math.isinf(deadline) else deadline
    prefix = 0.0
    totals = {Channel.MOBILE: 0.0, Channel.WIFI_LOCAL: 0.0, Channel.WIFI_BACKHAUL: 0.0}
    caches: dict[int, object] = {}
    completion: Optional[float] = None

    def replan(now_nominal: float, now_realized: float) -> object:
        pred = build_prediction(
            route_nominal, now_nominal, errors,
            use_local_rate=policy.prefetches, horizon=horizon,
        )
        plan, cache = plan_exit(
            policy,
            max(0.0, size - prefix),
            deadline - now_realized if not math.isinf(deadline) else math.inf,
            pred,
            received_prefix_mb=prefix,
        )
        if cache is not None and cache.amount_mb > 0 and cache.hotspot_index is not None:
            caches[cache.hotspot_index] = cache
        return plan

    plan = replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(route_realized.segments,
                                           route_nominal.segments)):
        if completion is not None:
            break

        # Phase list: (channel, rate, fill-up-to position). The prefix is
        # contiguous, so each phase just extends it toward its limit.
        if seg.kind is AccessKind.MOBILE:
            rate = (min(plan.mobile_rate, seg.mobile_rate)
                    if policy.rate_limited else seg.mobile_rate)
            phases = [(Channel.MOBILE, rate, size)]
        elif policy is Policy.MOBILE_ONLY:
            window = _window_mobile_rate(route_realized, i)
            rate = min(plan.mobile_rate, window) if policy.rate_limited else window
            phases = [(Channel.MOBILE, rate, size)]
        else:
            cache = caches.get(seg.hotspot_index) if policy.prefetches else None
            if cache is not None:
                if policy.hole_channel is Channel.MOBILE:
                    hole_rate = _window_mobile_rate(route_realized, i)
                    hole = (Channel.MOBILE, hole_rate, min(cache.offset_mb, size))
                else:
                    hole = (Channel.WIFI_BACKHAUL, seg.backhaul_rate,
                            min(cache.offset_mb, size))
                phases = [
                    hole,
                    (Channel.WIFI_LOCAL, seg.wifi_local_rate,
                     min(cache.offset_mb + cache.amount_mb, size)),
                    (Channel.WIFI_BACKHAUL, seg.backhaul_rate, size),
                ]
            else:
                phases = [(Channel.WIFI_BACKHAUL, seg.backhaul_rate, size)]

        n_steps = max(1, math.ceil(seg.duration / dt))
        h = seg.duration / n_steps
        ai = 0
        k = 0
        while k < n_steps:
            if ai < len(phases):
                # Plain steps (see the module docstring): each leaves at most
                # 1e-15 s of the step over and ends neither phase nor object.
                channel, rate, limit = phases[ai]
                cap = rate * h / MBIT_PER_MB
                if rate > 0 and h - cap * MBIT_PER_MB / rate <= 1e-15:
                    run = np.full(min(STEP_CHUNK, n_steps - k) + 1, cap)
                    run[0] = prefix
                    pos = np.cumsum(run)
                    need = min(limit, size) - pos[:-1]
                    plain = (need > 1e-15) & (cap < need - 1e-15) & (size - pos[1:] > 1e-12)
                    m = len(plain) if plain.all() else int(plain.argmin())
                    if m:
                        prefix = float(pos[m])
                        run[0] = totals[channel]
                        totals[channel] = float(np.cumsum(run[:m + 1])[m])
                        k += m
                        if m == len(plain):
                            continue
            rem = h
            while rem > 1e-15 and ai < len(phases):
                channel, rate, limit = phases[ai]
                need = min(limit, size) - prefix
                if need <= 1e-15 or rate <= 0:
                    ai += 1
                    continue
                cap = rate * rem / MBIT_PER_MB
                moved = min(need, cap)
                prefix += moved
                totals[channel] += moved
                rem -= moved * MBIT_PER_MB / rate
                if moved >= need - 1e-15:
                    ai += 1
                if size - prefix <= 1e-12:
                    completion = seg.start_time + k * h + (h - rem)
                    break
            if completion is not None:
                break
            k += 1

        if completion is None and seg.kind is AccessKind.WIFI:
            plan = replan(seg_nom.end_time, seg.end_time)

    return StepOutcome(
        mobile_mb=totals[Channel.MOBILE],
        wifi_local_mb=totals[Channel.WIFI_LOCAL],
        wifi_backhaul_mb=totals[Channel.WIFI_BACKHAUL],
        completion_time=completion,
    )


@dataclass(frozen=True)
class AgreementReport:
    """Worst engine/oracle deviation for one trip."""

    byte_dev_mb: float
    time_dev_s: float
    status_match: bool

    def within(self, size_mb: float, dt: float = DEFAULT_DT) -> bool:
        return (
            self.status_match
            and self.byte_dev_mb <= BYTE_TOL_FRACTION * size_mb
            and self.time_dev_s <= TIME_TOL_S + dt
        )


def compare_runs(
    analytic: RunOutcome,
    stepped: StepOutcome,
    size_mb: float,
    route_end: float,
    dt: float = DEFAULT_DT,
) -> AgreementReport:
    """Quantify how far the analytic engine and the stepped march disagree.

    When exactly one side reports completion right at the route end (within
    the step quantum), the runs are treated as matching in status and judged
    on bytes alone.
    """
    byte_dev = max(
        abs(analytic.mobile_mb - stepped.mobile_mb),
        abs(analytic.wifi_local_mb - stepped.wifi_local_mb),
        abs(analytic.wifi_backhaul_mb - stepped.wifi_backhaul_mb),
    )
    a_t, s_t = analytic.completion_time, stepped.completion_time
    if a_t is not None and s_t is not None:
        return AgreementReport(byte_dev, abs(a_t - s_t), True)
    if a_t is None and s_t is None:
        return AgreementReport(byte_dev, 0.0, True)
    done_t = a_t if a_t is not None else s_t
    boundary = done_t >= route_end - (TIME_TOL_S + dt)
    return AgreementReport(byte_dev, 0.0, boundary)
