"""Planner-visible forecasts and realized (perturbed) route draws.

The planner never sees the realized route.  It sees the nominal timeline
plus symmetric uncertainty bounds derived from the configured error
fractions; the engine separately executes against an independently drawn
realization of the same route.

Forecasts are read from an index of the nominal route, built on the route's
first forecast and memoized with the forecasts it has served.  It holds the
mobile segments' start times, end times and rates as lists sorted by time (a
:class:`RouteProfile` is ordered), and, per ``(time_error,
throughput_error, use_local_rate, hi)``, the tuple of every hotspot's
forecast up to the clipped horizon ``hi`` with the hotspots' start times
beside it.  A hotspot's forecast depends on ``hi`` but not on the replan
time ``now``, so the hotspots ahead of ``now`` are a suffix of that tuple,
found by one bisect; the mobile rates before the next hotspot and before
``hi`` are each a run of consecutive mobile segments, found by two more.
So a new forecast costs five bisects and three slices, not a scan of the
route, and only the first forecast per error pair, rate kind and ``hi``
walks the hotspots.  A forecast reads the horizon only through ``hi``, so
its memo key holds ``hi`` too: no horizon and every horizon at or past the
route end share one forecast.

Realizations draw uniform(-1, 1) numbers, one generator per run seeded with
:func:`derive_run_seed` of the base seed and the run index.  A batch's draw
matrix depends only on ``(seed, runs, draw count)``, so it is memoized under
that key in a small LRU of read-only arrays: every later batch with the same
key (a figure's sweep points vary the rates, sizes and errors, not the
seed) skips the seeding and drawing and gets the numbers a fresh draw would
give, bit for bit.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .model import AccessKind, RouteProfile, RouteSegment


@dataclass(frozen=True)
class ErrorSpec:
    """Fractional half-widths of the uniform perturbation intervals.

    A time error of 0.10 means every realized segment duration is drawn
    uniformly from [0.9 d, 1.1 d]; throughput errors perturb each rate the
    same way, independently per segment and per rate.
    """

    time_error: float = 0.0
    throughput_error: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.time_error < 1:
            raise ValueError(f"time_error must be in [0, 1), got {self.time_error}")
        if not 0 <= self.throughput_error < 1:
            raise ValueError(
                f"throughput_error must be in [0, 1), got {self.throughput_error}"
            )


class HotspotForecast(NamedTuple):
    """Duration and rate bounds for one future hotspot, as the planner sees it:
    ``1 ∓ e`` times a positive nominal value, e in [0, 1), so min <= max."""

    hotspot_index: int
    duration_min: float
    duration_max: float
    rate_min: float
    rate_max: float


class PredictionProfile(NamedTuple):
    """Everything a planner may consult when (re)planning at a hotspot exit.

    ``max_mobile_rate`` is the highest nominal mobile rate expected before
    the next hotspot (or to the route end when none remains); it is the rate
    a maximum-throughput policy requests and it prices the cache offset.
    ``sustainable_mobile_rate`` is the lowest nominal mobile rate over the
    remaining planning horizon: the largest constant rate the mobile network
    can carry everywhere, hence the cap for delay-tolerant plans.
    """

    hotspots: tuple[HotspotForecast, ...]
    time_to_next_wifi: float
    max_mobile_rate: float
    sustainable_mobile_rate: float


class _RouteIndex:
    """What forecasts of one nominal route share; see the module docstring.

    ``hotspot_forecasts`` maps ``(time_error, throughput_error,
    use_local_rate, hi)`` to ``(starts, forecasts)``; ``predictions`` maps
    :func:`build_prediction`'s key to the forecast it returned.
    """

    __slots__ = ("route", "mobile_start", "mobile_end", "mobile_rate",
                 "hotspot_forecasts", "predictions")

    def __init__(self, route: RouteProfile) -> None:
        mobile = [s for s in route.segments if not s.is_wifi]
        self.route = route
        self.mobile_start = [s.start_time for s in mobile]
        self.mobile_end = [s.end_time for s in mobile]
        self.mobile_rate = [s.mobile_rate for s in mobile]
        self.hotspot_forecasts: dict = {}
        self.predictions: dict = {}

    def mobile_rates_in(self, now: float, window_end: float) -> list[float]:
        """Nominal mobile rates in [now, window_end); falls back to the
        remaining route, then the whole route, when the window has none."""
        first = bisect_right(self.mobile_end, now + 1e-12)
        stop = bisect_left(self.mobile_start, window_end - 1e-12)
        if first < stop:
            return self.mobile_rate[first:stop]
        if first < len(self.mobile_rate):
            return self.mobile_rate[first:]
        return self.mobile_rate


def _hotspot_forecasts(
    route: RouteProfile,
    time_error: float,
    throughput_error: float,
    use_local_rate: bool,
    hi: float,
) -> tuple[list[float], tuple[HotspotForecast, ...]]:
    """Every hotspot usable before ``hi`` and its start time, in route order."""
    te, re = time_error, throughput_error
    starts = []
    forecasts = []
    for seg in route.hotspots:
        usable = min(seg.end_time, hi) - seg.start_time
        if usable <= 1e-12:
            continue
        rate = seg.wifi_local_rate if use_local_rate else seg.backhaul_rate
        starts.append(seg.start_time)
        forecasts.append(
            HotspotForecast(
                hotspot_index=seg.hotspot_index,
                duration_min=(1 - te) * usable,
                duration_max=(1 + te) * usable,
                rate_min=(1 - re) * rate,
                rate_max=(1 + re) * rate,
            )
        )
    return starts, tuple(forecasts)


# The index of the most recent nominal route.  A forecast depends on the
# route, the replan time, the two error magnitudes, the rate kind and the
# horizon, never on the run seed, so every realization of a route reuses the
# index.  The route is compared by identity and held by the index, so its id
# cannot be reused while the index lives; a new route starts a new index.
# Routes are frozen, so nothing held goes stale.
_memo: Optional[_RouteIndex] = None


def build_prediction(
    route: RouteProfile,
    now: float,
    errors: ErrorSpec,
    use_local_rate: bool = True,
    horizon: Optional[float] = None,
) -> PredictionProfile:
    """Forecast the remaining hotspots of the nominal route from time ``now``.

    ``use_local_rate`` selects which WiFi rate the bounds describe: the
    local-cache rate (prefetching schemes) or the backhaul rate (the
    prediction-only scheme, which always fetches from the origin).

    ``horizon`` truncates the forecast at a deadline: hotspots starting at or
    after it are dropped and a window straddling it only counts the part
    before it.

    The result does not depend on ``errors.seed``.  The most recently seen
    route is indexed once (see the module docstring): a call with the same
    ``now``, errors, rate kind and horizon clipped to the route end returns
    the forecast returned before, and a new one costs a few bisects and
    slices of the index, plus one walk over the hotspots the first time its
    errors, rate kind and clipped horizon come up.
    """
    global _memo
    if not -1e-9 <= now <= route.total_time + 1e-6:  # NaN fails too
        raise ValueError(f"now={now} outside route [0, {route.total_time}]")
    index = _memo
    if index is None or index.route is not route:
        index = _memo = _RouteIndex(route)
    hi = route.total_time if horizon is None else min(horizon, route.total_time)
    key = (now, errors.time_error, errors.throughput_error, use_local_rate, hi)
    pred = index.predictions.get(key)
    if pred is None:
        pred = index.predictions[key] = _forecast(index, *key)
    return pred


def _forecast(
    index: _RouteIndex,
    now: float,
    time_error: float,
    throughput_error: float,
    use_local_rate: bool,
    hi: float,
) -> PredictionProfile:
    """The forecast behind :func:`build_prediction` up to the clipped
    horizon ``hi``, read from the index."""
    route = index.route
    key = (time_error, throughput_error, use_local_rate, hi)
    ahead = index.hotspot_forecasts.get(key)
    if ahead is None:
        ahead = index.hotspot_forecasts[key] = _hotspot_forecasts(route, *key)
    starts, forecasts = ahead
    # the first hotspot not started before now (within 1e-9 s)
    cut = bisect_left(starts, now - 1e-9)

    if cut == len(starts):
        time_to_next = 0.0
        gap_end = route.total_time
    else:
        time_to_next = max(0.0, starts[cut] - now)
        gap_end = starts[cut]

    gap_rates = index.mobile_rates_in(now, gap_end)
    horizon_rates = index.mobile_rates_in(now, hi)
    return PredictionProfile(
        hotspots=forecasts[cut:],
        time_to_next_wifi=time_to_next,
        max_mobile_rate=max(gap_rates) if gap_rates else 0.0,
        sustainable_mobile_rate=min(horizon_rates) if horizon_rates else 0.0,
    )


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed: SeedSequence entropy (base_seed, run_index)."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(run_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _draws(seed: int, n: int) -> np.ndarray:
    """The ``n`` uniform(-1, 1) draws of one realization of a route with
    ``_draw_count(route) == n``.  One vector draw equals the same number of
    scalar draws from the generator, bit for bit."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)


# The draw matrices of the most recent (seed, runs, draw count) keys.  The
# draws of a batch depend on nothing else: not on the route's durations or
# rates, the errors, the task or the policies.  So the sweep points of a
# figure share one matrix per route layout.  The arrays are read-only, and
# realize_batch only reads them, so a shared entry cannot change.
@functools.lru_cache(maxsize=8)
def _draw_matrix(seed: int, runs: int, n: int) -> np.ndarray:
    """Column k holds the ``n`` draws of run k, seeded
    ``derive_run_seed(seed, k)``, for k < ``runs``."""
    draws = np.stack([_draws(derive_run_seed(seed, k), n) for k in range(runs)], axis=1)
    draws.flags.writeable = False
    return draws


def _draw_count(route: RouteProfile) -> int:
    """Draws per realization, consumed in segment order as duration, then
    local and backhaul rate (WiFi) or mobile rate."""
    return sum(3 if seg.is_wifi else 2 for seg in route.segments)


def realize_route(route: RouteProfile, errors: ErrorSpec) -> RouteProfile:
    """Draw one perturbed realization of a nominal route.

    Segment durations and rates are drawn uniformly and independently from
    their error intervals; start times are rebuilt cumulatively.  The draw is
    deterministic for a given ``errors.seed``.  A drawn backhaul rate is
    capped at the drawn local rate, same physical constraint as in
    :func:`offloadsim.model.scale_route`.
    """
    te, re = errors.time_error, errors.throughput_error
    draw = iter(_draws(errors.seed, _draw_count(route)).tolist()).__next__

    def jitter(value: float, err: float) -> float:
        return value * (1.0 + err * draw())

    out = []
    cursor = 0.0
    for seg in route.segments:
        dur = jitter(seg.duration, te)
        if seg.is_wifi:
            local = jitter(seg.wifi_local_rate, re)
            back = min(jitter(seg.backhaul_rate, re), local)
            out.append(
                RouteSegment(
                    kind=AccessKind.WIFI,
                    start_time=cursor,
                    duration=dur,
                    wifi_local_rate=local,
                    backhaul_rate=back,
                    hotspot_index=seg.hotspot_index,
                )
            )
        else:
            out.append(
                RouteSegment(
                    kind=AccessKind.MOBILE,
                    start_time=cursor,
                    duration=dur,
                    mobile_rate=jitter(seg.mobile_rate, re),
                )
            )
        cursor += dur
    return RouteProfile(tuple(out), cursor)


@dataclass(frozen=True)
class RealizedBatch:
    """Realizations of one nominal route, one entry per run.

    ``segments[i]`` is segment i of every realization, under the
    :class:`RouteSegment` attribute names (``start_time``, ``duration``,
    ``end_time`` and the rates), each a ``(runs,)`` array; a rate the
    segment's kind does not carry is 0.  The last row's ``end_time`` is each
    run's realized total time.  One batch serves any number of policies: the
    trip loop broadcasts its rows along the policy axis.
    """

    route: RouteProfile
    segments: tuple[SimpleNamespace, ...]


def realize_batch(route: RouteProfile, errors: ErrorSpec, seed: int,
                  runs: int) -> RealizedBatch:
    """Draw ``runs`` realizations of ``route`` from base seed ``seed``, all at once.

    Run k holds, bit for bit, the values of
    ``realize_route(route, replace(errors, seed=derive_run_seed(seed, k)))``:
    the same draws in the same order go through the same float operations,
    and a start time is the running sum of the durations before it.
    ``errors.seed`` is not used.  The draws are read from the memo above,
    which holds the same numbers a fresh draw would give.
    """
    te, re = errors.time_error, errors.throughput_error
    draws = _draw_matrix(seed, runs, _draw_count(route))
    wifi = np.array([seg.is_wifi for seg in route.segments])
    # draw row of each segment's duration; its first rate follows it, and a
    # WiFi segment's backhaul rate follows that
    first = np.cumsum([0] + [3 if w else 2 for w in wifi[:-1]])
    rate_nominal = np.array([seg.wifi_local_rate if seg.is_wifi else seg.mobile_rate
                             for seg in route.segments])
    duration = (np.array([seg.duration for seg in route.segments])[:, None]
                * (1.0 + te * draws[first]))
    rate = rate_nominal[:, None] * (1.0 + re * draws[first + 1])
    backhaul = np.zeros_like(rate)
    back_nominal = np.array([seg.backhaul_rate for seg in route.segments if seg.is_wifi])
    backhaul[wifi] = np.minimum(back_nominal[:, None] * (1.0 + re * draws[first[wifi] + 2]),
                                rate[wifi])
    end = np.cumsum(duration, axis=0)
    start = np.zeros_like(end)
    start[1:] = end[:-1]
    # RouteSegment's range checks, for every run at once
    for label, values in (("duration", duration), ("end time", end),
                          ("rate", rate), ("backhaul rate", backhaul[wifi])):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError(f"realized {label} must be positive and finite")
    rows = zip(start, duration, end, np.where(wifi[:, None], 0.0, rate),
               np.where(wifi[:, None], rate, 0.0), backhaul)
    return RealizedBatch(route, tuple(
        SimpleNamespace(start_time=s, duration=d, end_time=e, mobile_rate=m,
                        wifi_local_rate=w, backhaul_rate=b)
        for s, d, e, m, w, b in rows))
