"""Trip executor: fluid-flow integration of realized routes.

The planner side sees only the nominal route plus error bounds; this module
executes the plans against the realized route, keeps the received prefix
and the per-channel accounting, and prices the energy spent.  Transfers are
fluid: bytes moved = rate x time, with exact interpolation of the completion
crossing.  A round-off slack is a share of what it is compared with (the
object size, a dwell, the deadline), so no result depends on the units.

One trip loop serves both entry points, and both read a
:class:`~offloadsim.prediction.RealizedBatch`: its rows carry the realized
times and rates, its nominal route each segment's kind.  :func:`run_trip`
executes one realization, whose rows hold floats; :func:`run_policies`,
what a Monte-Carlo scenario uses, executes many realizations of one nominal
route under P >= 1 policies in one pass: every per-run value is a
``(P, runs)`` array, policy p in row p, and the realized rows, ``(runs,)``
each, broadcast along the policy axis.
A trait the policies do not share (rate limiting, prefetching, entering
hotspots) is a ``(P, 1)`` mask, and a masked step is skipped where no row
takes it; a shared trait, and so every trait of one policy, is a bool.  The
elementwise operations are chosen once per call from the input kind
(:func:`~offloadsim.policies.elementwise`), and each entry goes through
:func:`run_trip`'s float operations in the same order, so run k of policy p
equals :func:`run_trip` on realization k bit for bit.  Both plan through the
same :func:`~offloadsim.policies.plan_exit` and
:func:`~offloadsim.policies.plan_entry`.  Only a policy that reads a plan, a
rate-limited or a prefetching one, replans; the others never build a forecast.
A trip reads its forecasts in one call, one per count of hotspots passed,
and each replan point reads the one for its count, summing both WiFi rates,
for every policy of the pass: the planner picks the rate each plans on.
Forecast k names hotspot k + 1 or none, so the loop holds one staged cache,
the next hotspot's, which each replan resets.

Energy is priced in the same loop: per-MB transfer costs on the bytes each
channel moved, plus WiFi idle power.  At each hotspot visit the loop adds
the seconds the WiFi interface was on but not transferring: from
``wifi_preactivation_s`` before the entry (never before the trip start)
until the hotspot is left or the object is complete, minus the WiFi-busy
seconds.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import MBIT_PER_MB, EnergyModel, RouteProfile, TransferTask, check_types
from .policies import (_LOCAL, _MOBILE, Channel, Floats, Policy, PolicyColumns, check_admitted,
                       elementwise, plan_entry, plan_exit, policy_columns)
from .prediction import (ErrorSpec, RealizedBatch, _route_index, build_prediction,
                         check_one_realization)

_SLACK = 2.0 ** -40  # of what it is compared with; see the module docstring


class EnergyBreakdown(NamedTuple):
    """Energy of one trip, or of every run of a batch (one entry per run)."""

    mobile_j: Floats
    wifi_transfer_j: Floats
    wifi_idle_j: Floats

    @property
    def total_j(self) -> Floats:
        return self.mobile_j + self.wifi_transfer_j + self.wifi_idle_j


class RunOutcome(NamedTuple):
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
             now: Floats, hi: Floats, stops: bool = False) -> Floats:
        """Extend the received prefix toward ``hi`` (at most the object size)
        for up to ``max_seconds`` (positive in the runs selected by ``runs``,
        which are pending) at ``rate`` over ``channel``, in those runs;
        returns the seconds spent, 0 in the runs left out.  The completion
        time is interpolated exactly where the object finishes mid-way.
        ``stops`` says the rate can be 0 (a planned rate, or the window rate
        of a route with no mobile segment); a realized rate is positive."""
        ops, prefix, size = self.ops, self.prefix, self.size_mb
        need = hi - prefix
        go = runs & (need > 0) & (rate != 0) if stops else runs & (need > 0)
        if not ops.any(go):
            return 0.0
        if stops:
            rate = ops.where(go, rate, 1.0)  # no division by zero in runs left out
        missing = need if hi is size else size - prefix
        # 0 in the runs left out: exact, as every value is finite
        moved = ops.minimum(need, rate * max_seconds / MBIT_PER_MB) * go
        self.prefix = prefix + moved
        if channel is _MOBILE:
            self.mobile_mb = self.mobile_mb + moved
        elif channel is _LOCAL:
            self.wifi_local_mb = self.wifi_local_mb + moved
        else:
            self.wifi_backhaul_mb = self.wifi_backhaul_mb + moved
        done = go & (moved >= missing - _SLACK * size)
        if ops.any(done):
            self.completion_time = ops.where(done, now + missing * MBIT_PER_MB / rate,
                                             self.completion_time)
            self.complete = self.complete | done
            self.pending = ops.not_(self.complete)
        return moved * MBIT_PER_MB / rate


def _run(
    segments: Sequence,
    end: Floats,
    nominal: RouteProfile,
    task: TransferTask,
    policy: Union[Policy, PolicyColumns],
    errors: ErrorSpec,
    energy_model: EnergyModel,
) -> RunOutcome:
    """The trip loop, on one trip or on every run of a batch.

    ``segments`` are the rows of a realization of ``nominal`` (see
    :class:`~offloadsim.prediction.RealizedBatch`), each with ``start_time``,
    ``duration``, ``end_time`` and its kind's rates: floats for one trip,
    ``(runs,)`` arrays for a batch.  ``end``, the realized route end, has the
    outcome's form: a float beside a :class:`Policy`, or ``(P, runs)`` beside
    :func:`policy_columns` of P policies.  The rules are :func:`run_trip`'s;
    in a batch each branch is a mask over the runs still transferring.
    """
    size = task.size_mb
    deadline = task.effective_deadline()
    state = _ByteState(size, end)
    ops, fill = state.ops, state.fill  # bound once per call: the loop reads them per segment
    where, any_, minimum, maximum = ops.where, ops.any, ops.minimum, ops.maximum
    zero = ops.zeros(end)
    plan_rate: Floats = 0.0
    infeasible = ops.zeros(end, bool)
    provisioned = ops.zeros(end)
    staged: Optional[tuple[Floats, Floats]] = None  # the next hotspot's cache: offset, amount
    idle_s = zero  # seconds the WiFi interface is on but not transferring
    limited, prefetches, associates = policy.rate_limited, policy.prefetches, policy.associates
    # only a rate-limited policy reads the planned rate and only a
    # prefetching one the staged cache; for the others a plan changes nothing
    plans = limited is not False or prefetches is not False

    def replan(passed: int, now: Floats) -> None:
        nonlocal plan_rate, infeasible, provisioned, staged
        runs = state.pending
        plan_rate, flagged, amount, offset = plan_exit(
            policy, maximum(0.0, size - state.prefix), deadline - now,
            forecasts[passed], state.prefix)
        infeasible = infeasible | (runs & flagged)
        staged = None  # a plan stages only the next hotspot, the one entered next
        if prefetches is not False:
            kept = runs & (amount > 0)
            if any_(kept):
                staged = (offset * kept, amount * kept)
                provisioned = provisioned + staged[1]

    if plans:
        forecasts = build_prediction(nominal, errors, horizon=deadline)
        replan(0, 0.0)

    preactivation_s = energy_model.wifi_preactivation_s
    index = _route_index(nominal)
    passed = 0  # hotspots left so far
    for seg, wifi, j in zip(segments, index.wifi, index.window):
        runs = state.pending
        if not any_(runs):
            break
        t0 = seg.start_time
        mobile_rate = zero if j is None else segments[j].mobile_rate
        if not wifi or associates is not True:  # in a hotspot, the mobile-only rows
            rate = mobile_rate
            if limited is not False:  # a bool takes its side, a (P, 1) mask each row its own
                rate = minimum(plan_rate, mobile_rate)
                rate = rate if limited is True else where(limited, rate, mobile_rate)
            fill(runs if not wifi or associates is False else runs & ~associates,
                 rate, seg.duration, _MOBILE, t0, size, limited is not False or j is None)
        if not wifi:
            continue
        t1 = seg.end_time
        if associates is not False:
            steps = plan_entry(policy, state.prefix, staged,
                               local_rate=seg.wifi_local_rate,
                               backhaul_rate=seg.backhaul_rate,
                               mobile_rate=mobile_rate, size_mb=size)
            budget = seg.duration
            least = _SLACK * budget  # a step takes no budget left below it
            cursor = t0
            busy = zero
            for taken, (channel, rate, window_hi) in steps:
                used = fill(state.pending & taken & (budget > least), rate, budget, channel,
                            cursor, window_hi, j is None)
                if channel is not _MOBILE:
                    busy = busy + used
                cursor = cursor + used
                budget = budget - used
            leave = where(state.complete, state.completion_time, t1)
            on = maximum(0.0, t0 - preactivation_s)
            idle_s = idle_s + maximum(0.0, (leave - on) - busy) * (runs & associates)
        passed += 1
        if plans and any_(state.pending):
            replan(passed, t1)

    completed = state.complete
    transfer_delay = where(completed, state.completion_time, end)
    wifi_mb = state.wifi_local_mb + state.wifi_backhaul_mb
    return tuple.__new__(RunOutcome, (  # with no Python-level __new__
        minimum(100.0, wifi_mb / size * 100.0),  # offload_pct
        transfer_delay,
        completed & (transfer_delay <= deadline + _SLACK * deadline),  # deadline_met
        completed,
        tuple.__new__(EnergyBreakdown, (
            energy_model.mobile_transfer_j_per_mb * state.mobile_mb,
            energy_model.wifi_transfer_j_per_mb * wifi_mb,
            energy_model.wifi_idle_w * idle_s)),
        state.mobile_mb,
        state.wifi_local_mb,
        state.wifi_backhaul_mb,
        provisioned,  # cache_bytes_used
        infeasible,  # plan_infeasible
    ))


def run_trip(
    route_realized: RealizedBatch,
    route_nominal: RouteProfile,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> RunOutcome:
    """Execute one trip under ``policy`` and return the realized outcome.
    ``route_realized`` is one realization of ``route_nominal``, as
    :func:`~offloadsim.prediction.realize_route` draws it; a batch, or a
    realization of another route, raises ``ValueError``.

    A rate-limited or prefetching policy (re)plans at the route start and
    at every realized hotspot exit, on the nominal route's forecast for the
    count of hotspots passed, all read in one call (the planner sees
    predictions, never the realization), and the realized time left; the
    others never plan.  During mobile coverage (and, for mobile-only,
    through the WiFi windows, at the realized rate of the nearest mobile
    segment, preceding first, else following, as the nominal route's index
    records it; at 0 on a route without one) a rate-limited policy transfers
    at its planned rate capped by the realized channel, the others at
    whatever the channel realizes; inside hotspots the node runs the
    policy's entry steps against the realized dwell.
    """
    check_types(("route_realized", route_realized, RealizedBatch),
                ("route_nominal", route_nominal, RouteProfile), ("task", task, TransferTask),
                ("errors", errors, ErrorSpec), ("energy_model", energy_model, EnergyModel))
    check_one_realization(route_realized, route_nominal)
    check_admitted((policy,), task.traffic_class)
    return _run(route_realized.segments, route_realized.total_time, route_nominal, task,
                policy, errors, energy_model)


def run_policies(
    batch: RealizedBatch,
    task: TransferTask,
    policies: Union[Policy, Sequence[Policy]],
    errors: ErrorSpec,
    energy_model: EnergyModel = EnergyModel(),
) -> dict[Policy, RunOutcome]:
    """Execute every realization of ``batch`` under each of ``policies`` (a
    lone Policy is one), all in one pass over ``(P, runs)`` arrays; each
    policy's outcome is a view of its row, one entry per run in each field,
    and run k's equals :func:`run_trip` on realization k bit for bit,
    whatever other policies share the pass.  One call gives the forecasts of
    every replan point, for the whole batch and every policy in it."""
    check_types(("batch", batch, RealizedBatch), ("task", task, TransferTask),
                ("errors", errors, ErrorSpec), ("energy_model", energy_model, EnergyModel))
    policies = check_admitted(policies, task.traffic_class)
    end = batch.total_time
    out = _run(batch.segments, np.broadcast_to(end, (len(policies), len(end))), batch.route,
               task, policy_columns(policies), errors, energy_model)

    def row(x, p: int):  # an outcome or its energy, every array cut to row p
        return x._make(row(v, p) if type(v) is EnergyBreakdown else v[p] for v in x)

    return {policy: row(out, p) for p, policy in enumerate(policies)}
