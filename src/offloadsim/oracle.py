"""Brute-force time-stepped trip simulator, used to cross-check the engine.

Same event rules as :mod:`offloadsim.engine`, but the transfer integration
is a forward time march with a fixed step instead of closed-form fills, over
its own received prefix and its own phase list for each hotspot.  It shares
:func:`~offloadsim.prediction.build_prediction` and
:func:`~offloadsim.policies.plan_exit` with the engine (one forecast call
per trip, read by the count of hotspots passed, and the planner's pick of
WiFi rate), so agreement between the two checks the byte integration, the
completion crossings, the phase order, the hotspot phase list the oracle
builds itself (in place of :func:`~offloadsim.policies.plan_entry`) and the
mobile rate of each WiFi window, which it finds by its own scan of the
nominal route (in place of the engine's route index).  Like the engine, it
reads each segment's kind and hotspot index from the nominal route and its
times and rates from the realized rows.  It does not check the planning or
the forecasts: ``tests/test_policies.py`` checks the planners, and
``reference_forecast`` in ``tests/conftest.py`` the forecasts.

Each segment is still ``ceil(duration / dt)`` steps taken in order; no step
is solved in closed form.  Most steps are *plain*: a full step inside one
phase that moves ``cap = rate * h / 8`` MB and ends neither the phase nor the
object.  ``_advance`` does ``k`` plain additions ``x += cap`` bit for bit, in
one loop turn per binade.  Inside a binade ``[top/2, top)`` floats are ``u``
apart, and a step from that grid adds ``cap`` rounded to a multiple of ``u``,
the same from every point unless ``cap`` is a tie (an odd multiple of
``u/2``), which rounds to even and so depends on where the step starts.  A
turn takes the step in, which may land on either parity and whose ``frexp``
gives ``top``; the settling step, which ends inside on an even point; and the
fixed step, which gives the exact ``d = (x + cap) - x`` that every later step
inside adds.  One exact ``x += j * d`` then takes the steps up to the top (a
step landing on the top rounds to it from either side).  A step that leaves
the binade sooner is the next turn's step in.  A step that adds nothing is a
stall, and so is every step after it.  The prefix and the phase's channel
total take the same steps, so a total that stands at the prefix when a run
starts ends at the prefix's sum and is not walked again.

The plain steps come first in a run, as the prefix only grows; their count is
estimated from the distance to the phase's limit and confirmed with the
scalar step's own rule.  Every other step (a phase end, the completion, a
step that carries time into the next phase) runs the scalar step, and a
segment's steps end once its phases are done.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .model import (_MOBILE_KIND, _WIFI_KIND, MBIT_PER_MB, RouteProfile, TransferTask,
                    check_real, check_types)
from .policies import _MOBILE as _MOBILE_CHANNEL, Policy, check_admitted, plan_exit
from .prediction import ErrorSpec, RealizedBatch, build_prediction, check_one_realization
from .engine import RunOutcome

DEFAULT_DT = 0.01

# Tolerances for engine/oracle agreement: bytes relative to the object size,
# completion time absolute.
BYTE_TOL_FRACTION = 0.001
TIME_TOL_S = 0.05

# A phase's channel, as the slot of the trip's totals that it fills.
_MOBILE, _LOCAL, _BACKHAUL = 0, 1, 2


class StepOutcome(NamedTuple):
    mobile_mb: float
    wifi_local_mb: float
    wifi_backhaul_mb: float
    completion_time: Optional[float]


def check_dt(dt: float, longest: float) -> None:
    """Reject a step ``dt`` that is not a positive, finite real number (a bool
    is none), or whose step count over a segment of ``longest`` seconds
    overflows."""
    check_real("dt", dt)
    steps = longest / dt
    if not 0.0 < steps < math.inf:  # the label is built only for the message
        check_real(f"{longest:g} s / dt", steps)


def run_trip_stepped(
    route_realized: RealizedBatch,
    route_nominal: RouteProfile,
    task: TransferTask,
    policy: Policy,
    errors: ErrorSpec,
    dt: float = DEFAULT_DT,
) -> StepOutcome:
    """March through ``route_realized``, one realization of ``route_nominal``
    as :func:`~offloadsim.engine.run_trip` takes it, in steps of at most
    ``dt`` seconds."""
    check_types(("route_realized", route_realized, RealizedBatch),
                ("route_nominal", route_nominal, RouteProfile), ("task", task, TransferTask),
                ("errors", errors, ErrorSpec))
    check_one_realization(route_realized, route_nominal)
    rows = route_realized.segments
    check_dt(dt, max(row.duration for row in rows))
    check_admitted((policy,), task.traffic_class)

    size = task.size_mb
    deadline = task.effective_deadline()
    prefix = 0.0
    totals = [0.0, 0.0, 0.0]  # MB per slot: mobile, local WiFi, backhaul
    caches: dict[int, tuple[float, float]] = {}  # offset, amount
    completion: Optional[float] = None

    def replan(passed: int, now: float) -> float:
        pred, remaining = forecasts[passed], size - prefix
        rate, _, amount, offset = plan_exit(policy, remaining if remaining > 0.0 else 0.0,
                                            deadline - now, pred, prefix)
        if amount > 0:
            caches[pred.next_hotspot] = (offset, amount)
        return rate

    forecasts = build_prediction(route_nominal, errors, horizon=deadline)
    plan_rate = replan(0, 0.0)
    passed = 0  # hotspots left so far

    for i, (seg, row) in enumerate(zip(route_nominal.segments, rows)):
        if completion is not None:
            break

        # Phase list: (slot, rate, fill-up-to position). The prefix is
        # contiguous, so each phase just extends it toward its limit.
        if seg.kind is _MOBILE_KIND:
            rate = row.mobile_rate
            if policy.rate_limited:
                rate = rate if rate < plan_rate else plan_rate
            phases = [(_MOBILE, rate, size)]
        elif not policy.associates:  # mobile-only, which is never rate-limited
            phases = [(_MOBILE, _window_mobile_rate(route_nominal, rows, i), size)]
        else:
            cache = caches.get(seg.hotspot_index) if policy.prefetches else None
            if cache is not None:
                offset, amount = cache
                hole_end, cached_end = size if size < offset else offset, offset + amount
                cached_end = size if size < cached_end else cached_end
                if policy.hole_channel is _MOBILE_CHANNEL:
                    hole_rate = _window_mobile_rate(route_nominal, rows, i)
                    hole = (_MOBILE, hole_rate, hole_end)
                else:
                    hole = (_BACKHAUL, row.backhaul_rate, hole_end)
                phases = [
                    hole,
                    (_LOCAL, row.wifi_local_rate, cached_end),
                    (_BACKHAUL, row.backhaul_rate, size),
                ]
            else:
                phases = [(_BACKHAUL, row.backhaul_rate, size)]

        n_steps = math.ceil(row.duration / dt)
        n_steps = n_steps if n_steps > 1 else 1
        h = row.duration / n_steps
        ai = 0
        k = 0
        while k < n_steps and ai < len(phases):
            # Plain steps (see the module docstring): each leaves at most
            # 1e-15 s of the step over and ends neither phase nor object.
            slot, rate, limit = phases[ai]
            cap = rate * h / MBIT_PER_MB
            if rate > 0 and h - cap * MBIT_PER_MB / rate <= 1e-15:
                start, total = prefix, totals[slot]
                m, prefix = _plain_steps(prefix, cap, limit, size, n_steps - k)
                totals[slot] = prefix if total == start else _advance(total, cap, m)
                k += m
                if k == n_steps:
                    break
            rem = h
            while rem > 1e-15 and ai < len(phases):
                slot, rate, limit = phases[ai]
                need = limit - prefix
                if need <= 1e-15 or rate <= 0:
                    ai += 1
                    continue
                cap = rate * rem / MBIT_PER_MB
                moved = cap if cap < need else need
                prefix += moved
                totals[slot] += moved
                rem -= moved * MBIT_PER_MB / rate
                if moved >= need - 1e-15:
                    ai += 1
                if size - prefix <= 1e-12:
                    completion = row.start_time + k * h + (h - rem)
                    break
            if completion is not None:
                break
            k += 1

        if completion is None and seg.kind is _WIFI_KIND:
            passed += 1
            plan_rate = replan(passed, row.end_time)

    return StepOutcome(
        mobile_mb=totals[_MOBILE],
        wifi_local_mb=totals[_LOCAL],
        wifi_backhaul_mb=totals[_BACKHAUL],
        completion_time=completion,
    )


def _window_mobile_segment(route: RouteProfile, index: int) -> Optional[int]:
    """The mobile segment whose rate is available while inside WiFi segment
    ``index``: the nearest one, preceding first, else following; None when
    the route has none."""
    segments = route.segments
    for j in range(index - 1, -1, -1):
        if segments[j].kind is _MOBILE_KIND:
            return j
    for j in range(index + 1, len(segments)):
        if segments[j].kind is _MOBILE_KIND:
            return j
    return None


def _window_mobile_rate(route: RouteProfile, rows, index: int) -> float:
    """Realized mobile rate available while inside WiFi segment ``index`` of
    ``route``, read from the realized ``rows`` (0 when the route has no
    mobile segment)."""
    j = _window_mobile_segment(route, index)
    return 0.0 if j is None else rows[j].mobile_rate


def _advance(x: float, c: float, k: int) -> float:
    """``x`` after ``k`` steps of ``x += c`` (``x, c >= 0``), bit for bit, in
    one loop turn per binade: the step in, the settling step, the fixed step
    and one exact jump toward the top (see the module docstring)."""
    while k > 0:
        y = x + c  # the step in
        if y == x or k == 1:  # a stall (every later step stalls too), or the last step
            return y
        top = y / math.frexp(y)[0]  # y = f * 2**e with f in [0.5, 1), so this is 2**e
        x, k = y + c, k - 2  # the settling step: inside, it ends on an even point
        if k and x < top:
            y, k = x + c, k - 1
            d = y - x  # the fixed step: each later step inside adds d
            if y < top:
                if top - y >= k * d:
                    return y + k * d
                n = (top - y) // d
                y += n * d
                k -= n  # a float from here on, still a whole number
            x = y
    return x


def _plain_steps(prefix: float, cap: float, end: float, size: float,
                 most: int) -> tuple[int, float]:
    """How many of the next ``most`` full steps moving ``cap`` toward ``end``
    are plain, and the prefix after them; by bisection if the estimate fails."""
    m = most
    if cap > 0:
        reach = (end - prefix) / cap
        reach = reach if reach > 0.0 else 0.0
        m = int(reach if reach < most else most)
    last = _advance(prefix, cap, m - 1) if m else prefix
    at = last + cap if m else prefix
    if (m and not _plain(last, cap, end, size)) or (m < most and _plain(at, cap, end, size)):
        lo, hi = 0, most
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = ((mid + 1, hi) if _plain(_advance(prefix, cap, mid), cap, end, size)
                      else (lo, mid))
        m, at = lo, _advance(prefix, cap, lo)
    return m, at


def _plain(p: float, cap: float, end: float, size: float) -> bool:
    """Whether a full step moving ``cap`` from prefix ``p`` is plain."""
    need = end - p
    return need > 1e-15 and cap < need - 1e-15 and size - (p + cap) > 1e-12


class AgreementReport(NamedTuple):
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
