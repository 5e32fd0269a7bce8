"""Trip executor: fluid-flow integration of realized routes.

The planner side sees only the nominal route plus error bounds; this module
executes the plans against the realized route, keeps the received prefix
and the per-channel accounting, and prices the energy spent.  Transfers are
fluid: bytes moved = rate x time, with exact interpolation of the completion
crossing.

One trip loop serves both entry points.  :func:`run_trip` executes one
realized route on floats; :func:`run_policies`, what a Monte-Carlo scenario
uses, executes many realizations of one nominal route under P policies in
one pass, one numpy entry per run.  With one policy every per-run value is a
``(runs,)`` array; with P > 1 it is ``(P, runs)``, policy p in row p, and the
realized rows, ``(runs,)`` each, broadcast along the policy axis.  A trait
the policies do not share (rate limiting, prefetching, entering hotspots) is
a ``(P, 1)`` mask, and a masked step is skipped where no row takes it; with
one policy the traits are bools.  The elementwise operations are chosen once
per call from the input kind (:func:`~offloadsim.policies.elementwise`), and
each entry goes through :func:`run_trip`'s float operations in the same
order, so run k of policy p equals :func:`run_trip` on realization k bit for
bit.  Both plan through the same :func:`~offloadsim.policies.plan_exit` and
:func:`~offloadsim.policies.plan_entry`.  Only a policy that reads a plan, a
rate-limited or a prefetching one, replans; the others never build a forecast.

Energy is priced in the same loop: per-MB transfer costs on the bytes each
channel moved, plus WiFi idle power.  At each hotspot visit the loop adds
the seconds the WiFi interface was on but not transferring: from
``wifi_preactivation_s`` before the entry (never before the trip start)
until the hotspot is left or the object is complete, minus the WiFi-busy
seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import MBIT_PER_MB, AccessKind, EnergyModel, RouteProfile, TransferTask
from .policies import (Channel, Floats, Policy, check_admitted, elementwise, plan_entry,
                       plan_exit, policy_columns)
from .prediction import ErrorSpec, RealizedBatch, build_prediction

_BYTE_SLACK = 2.0 ** -40  # of the object size; completion slack for float round-off
_DEADLINE_EPS = 1e-9  # s


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one trip, or of every run of a batch (one entry per run)."""

    mobile_j: Floats
    wifi_transfer_j: Floats
    wifi_idle_j: Floats

    @property
    def total_j(self) -> Floats:
        return self.mobile_j + self.wifi_transfer_j + self.wifi_idle_j


@dataclass(frozen=True)
class RunOutcome:
    """Realized result of one trip, or of every run of a batch under one
    policy (one entry per run in each field): byte split, timing, and the
    energy the trip loop priced (see the module docstring)."""

    offload_pct: Floats
    transfer_delay: Floats
    deadline_met: Union[bool, np.ndarray]
    completed: Union[bool, np.ndarray]
    energy: EnergyBreakdown
    mobile_mb: Floats
    wifi_local_mb: Floats
    wifi_backhaul_mb: Floats
    cache_bytes_used: Floats
    plan_infeasible: Union[bool, np.ndarray]

    @property
    def energy_j(self) -> Floats:
        return self.energy.total_j

    @property
    def completion_time(self) -> Optional[Floats]:
        """When the object was complete: the transfer delay, or None (in
        each run of a batch) where it never was."""
        return elementwise(self.completed).where(self.completed, self.transfer_delay, None)


class _ByteState:
    """Byte accounting of one trip (floats) or of every run of a batch
    (arrays, one entry per run and policy), in the form of ``like``.

    Every fetch step extends one received prefix of the object: a hotspot's
    hole is filled before its cache is drained, so no gap is ever left.

    ``pending`` is ``not complete``: the runs still transferring.  A fill
    writes ``completion_time``, ``complete`` and ``pending`` only when a run
    finishes in it, and then replaces them, never changing one in place,
    since the trip loop keeps the mask each hotspot visit saw.
    """

    def __init__(self, size_mb: float, like: Floats) -> None:
        self.ops = ops = elementwise(like)
        self.size_mb = size_mb
        self.prefix = ops.zeros(like)
        self.mobile_mb = ops.zeros(like)
        self.wifi_local_mb = ops.zeros(like)
        self.wifi_backhaul_mb = ops.zeros(like)
        self.completion_time = ops.zeros(like)  # read only where complete
        self.complete = ops.zeros(like, bool)
        self.pending = ops.not_(self.complete)

    def fill(self, runs, rate: Floats, max_seconds: Floats, channel: Channel,
             now: Floats, hi: Floats) -> Floats:
        """Extend the received prefix toward ``hi`` (at most the object size)
        for up to ``max_seconds`` (positive in the runs selected by ``runs``)
        at ``rate`` over ``channel``, in those runs; returns the seconds
        spent, 0 in the runs left out.  The completion time is interpolated
        exactly where the object finishes mid-way."""
        ops = self.ops
        need = hi - self.prefix
        go = runs & self.pending & (rate != 0) & (need > 0)
        if not ops.any(go):
            return 0.0
        rate = ops.where(go, rate, 1.0)  # no division by zero in runs left out
        missing = self.size_mb - self.prefix
        moved = ops.where(go, ops.minimum(need, rate * max_seconds / MBIT_PER_MB), 0.0)
        self.prefix = self.prefix + moved
        if channel is Channel.MOBILE:
            self.mobile_mb = self.mobile_mb + moved
        elif channel is Channel.WIFI_LOCAL:
            self.wifi_local_mb = self.wifi_local_mb + moved
        else:
            self.wifi_backhaul_mb = self.wifi_backhaul_mb + moved
        done = go & (moved >= missing - _BYTE_SLACK * self.size_mb)
        if ops.any(done):
            self.completion_time = ops.where(done, now + missing * MBIT_PER_MB / rate,
                                             self.completion_time)
            self.complete = self.complete | done
            self.pending = ops.not_(self.complete)
        return moved * MBIT_PER_MB / rate


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


def _run(
    segments: Sequence,
    end: Floats,
    nominal: RouteProfile,
    task: TransferTask,
    policies: Sequence[Policy],
    errors: ErrorSpec,
    energy_model: EnergyModel,
) -> RunOutcome:
    """The trip loop, on one trip or on every run of a batch.

    ``segments`` are the realized segments, each with the
    :class:`~offloadsim.model.RouteSegment` attributes ``start_time``,
    ``duration``, ``end_time`` and the rates: floats for one trip, one entry
    per run for a batch.  ``end`` is the realized route end, in the same
    form, and so are the outcome's fields for one policy; for P > 1 they are
    ``(P, runs)``, policy p in row p.  The rules are :func:`run_trip`'s; in a
    batch each branch is a mask over the runs still transferring.
    """
    check_admitted(policies, task.traffic_class)
    size = task.size_mb
    deadline = task.effective_deadline()
    horizon = None if math.isinf(deadline) else deadline
    if len(policies) == 1:
        policy, like = policies[0], end
    else:
        policy, like = policy_columns(policies), np.broadcast_to(end, (len(policies), len(end)))
    state = _ByteState(size, like)
    ops = state.ops
    zero = ops.zeros(like)
    plan_rate: Floats = 0.0
    infeasible = ops.zeros(like, bool)
    provisioned = ops.zeros(like)
    caches: dict[int, tuple[Floats, Floats]] = {}  # offset, amount
    idle_s = zero  # seconds the WiFi interface is on but not transferring
    limited, prefetches, associates = policy.rate_limited, policy.prefetches, policy.associates
    # only a rate-limited policy reads the planned rate and only a
    # prefetching one the caches; for the others a plan changes nothing
    plans = limited is not False or prefetches is not False
    # beside prefetching rows, a rate-limited one that does not plans on backhaul rates
    two_forecasts = not isinstance(prefetches, bool) and ops.any(limited & ~prefetches) > 0

    def replan(now_nominal: float, now_realized: Floats) -> None:
        nonlocal plan_rate, infeasible, provisioned
        runs = state.pending
        pred = build_prediction(nominal, now_nominal, errors,
                                use_local_rate=prefetches is not False, horizon=horizon)
        backhaul_pred = (build_prediction(nominal, now_nominal, errors, use_local_rate=False,
                                          horizon=horizon) if two_forecasts else None)
        plan_rate, flagged, cache = plan_exit(
            policy, ops.maximum(0.0, size - state.prefix), deadline - now_realized,
            pred, state.prefix, backhaul_pred)
        infeasible = infeasible | (runs & flagged)
        if cache is not None:
            index, amount, offset = cache
            kept = runs & (amount > 0)
            if ops.any(kept):
                old_offset, old_amount = caches.get(index, (0.0, 0.0))
                caches[index] = (ops.where(kept, offset, old_offset),
                                 ops.where(kept, amount, old_amount))
                provisioned = provisioned + ops.where(kept, amount, 0.0)

    if plans:
        replan(0.0, 0.0)

    for i, (seg, seg_nom) in enumerate(zip(segments, nominal.segments)):
        runs = state.pending
        if not ops.any(runs):
            break
        t0 = seg.start_time
        wifi = seg_nom.kind is AccessKind.WIFI
        if wifi:
            j = _window_mobile_segment(nominal, i)
            mobile_rate = zero if j is None else segments[j].mobile_rate
        else:
            mobile_rate = seg.mobile_rate
        if not wifi or associates is not True:  # in a hotspot, the mobile-only rows
            rate = mobile_rate if limited is False else ops.pick(
                limited, ops.minimum(plan_rate, mobile_rate), mobile_rate)
            state.fill(runs if not wifi or associates is False else runs & ~associates,
                       rate, seg.duration, Channel.MOBILE, t0, size)
        if wifi and associates is not False:
            steps = plan_entry(policy, state.prefix, caches.get(seg_nom.hotspot_index),
                               local_rate=seg.wifi_local_rate,
                               backhaul_rate=seg.backhaul_rate,
                               mobile_rate=mobile_rate, size_mb=size)
            budget = seg.duration
            cursor = t0
            busy = zero
            for taken, action in steps:
                used = state.fill(runs & taken & (budget > 1e-12), action.rate, budget,
                                  action.channel, cursor, action.window_hi)
                if action.channel is not Channel.MOBILE:
                    busy = busy + used
                cursor = cursor + used
                budget = budget - used
            leave = ops.where(state.complete, state.completion_time, seg.end_time)
            on = ops.maximum(0.0, t0 - energy_model.wifi_preactivation_s)
            idle_s = idle_s + ops.where(runs & associates,
                                        ops.maximum(0.0, (leave - on) - busy), 0.0)
        if wifi and plans and ops.any(state.pending):
            replan(seg_nom.end_time, seg.end_time)

    completed = state.complete
    transfer_delay = ops.where(completed, state.completion_time, end)
    wifi_mb = state.wifi_local_mb + state.wifi_backhaul_mb
    return RunOutcome(
        offload_pct=ops.minimum(100.0, wifi_mb / size * 100.0),
        transfer_delay=transfer_delay,
        deadline_met=completed & (transfer_delay <= deadline + _DEADLINE_EPS),
        completed=completed,
        energy=EnergyBreakdown(
            mobile_j=energy_model.mobile_transfer_j_per_mb * state.mobile_mb,
            wifi_transfer_j=energy_model.wifi_transfer_j_per_mb * wifi_mb,
            wifi_idle_j=energy_model.wifi_idle_w * idle_s,
        ),
        mobile_mb=state.mobile_mb,
        wifi_local_mb=state.wifi_local_mb,
        wifi_backhaul_mb=state.wifi_backhaul_mb,
        cache_bytes_used=provisioned,
        plan_infeasible=infeasible,
    )


def run_trip(
    route_realized: RouteProfile,
    route_nominal: RouteProfile,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> RunOutcome:
    """Execute one trip under ``policy`` and return the realized outcome.

    A rate-limited or prefetching policy (re)plans at the route start and
    at every realized hotspot exit, always from the nominal route (the
    planner sees predictions, never the realization); the other policies
    read no plan and make none.  During mobile coverage (and, for mobile-only,
    through the WiFi windows, at the nearest mobile segment's rate) a
    rate-limited policy transfers at its planned rate capped by the realized
    channel, the others at whatever the channel realizes; inside hotspots
    the node runs the policy's entry steps against the realized dwell.
    """
    _check_same_structure(route_realized, route_nominal)
    return _run(route_realized.segments, route_realized.total_time, route_nominal, task,
                (policy,), errors, energy_model)


def run_policies(
    batch: RealizedBatch,
    task: TransferTask,
    policies: Sequence[Policy],
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> dict[Policy, RunOutcome]:
    """Execute every realization of ``batch`` under each of ``policies``, all
    in one pass; each field of an outcome holds one entry per run, and run k's
    equals :func:`run_trip` on realization k bit for bit, whatever other
    policies share the pass.  With several policies, each outcome is a view
    of its row of the pass's ``(P, runs)`` arrays.  A forecast is built once
    per replan point for the whole batch."""
    out = _run(batch.segments, batch.segments[-1].end_time, batch.route, task,
               tuple(policies), errors, energy_model)
    if len(policies) == 1:
        return {policies[0]: out}

    def row(x, p: int):  # an outcome or its energy, every array cut to row p
        return type(x)(**{name: row(v, p) if isinstance(v, EnergyBreakdown) else v[p]
                          for name, v in vars(x).items()})

    return {policy: row(out, p) for p, policy in enumerate(policies)}
