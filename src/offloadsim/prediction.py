"""Planner-visible forecasts and realized (perturbed) route draws.

The planner never sees the realized route.  It sees the nominal timeline
plus symmetric uncertainty bounds derived from the configured error
fractions; the engine separately executes against an independently drawn
realization of the same route.

Every trip on a nominal route reads one index of the route, built on its
first realization or trip.  It holds each segment's kind, the mobile segment
whose rate is available during it (its window) and the draw count.

A node forecasts only where it replans: at the route start and at each
hotspot exit.  So :func:`build_prediction` returns a route's forecasts as
one tuple, element k for a node that has left k hotspots, which
:func:`_walk` builds per route, error pair and clipped horizon ``hi`` in one
scan from the route end.  The scan keeps the pessimistic Mbit and dwell of
each hotspot usable before ``hi`` ahead of its position, the nearest one's
index, cache cap and start, the highest mobile rate before it, the highest
and lowest to the route end, and the lowest of the mobile segments starting
before ``hi``; at each hotspot, and at the start, it emits the forecast of a
node just past that point: scalars only, the WiFi sums summed anew from the
nearest hotspot.  No horizon and every horizon at or past the route end clip
to one ``hi``.

Every memo here is a ``functools.lru_cache`` on the pure function it
caches, keyed by that function's arguments, and every cached value is
immutable: a tuple, a NamedTuple or a read-only array.  Routes are keyed by
value, which a route hashes once, on first use.

Realizations draw uniform(-1, 1) numbers.  Run k of base seed s reads the
stream of ``numpy.random.default_rng(derive_run_seed(s, k))``, where
:func:`derive_run_seed` is the first 64-bit word of
``SeedSequence(entropy=(s, k))``.  The package computes these streams
itself, bit for bit, and never imports ``numpy.random``: SeedSequence's
hashing, PCG64's seeding, its 128-bit LCG step, its XSL-RR output and
numpy's conversion to uniform(-1, 1), as integer arithmetic.  The hashing
and seeding run on Python ints for :func:`realize_route` and on uint64
arrays for a batch.  One realization then steps its stream on Python ints;
a batch computes all its runs' draws at once, jumping r steps ahead for row
r.  The draw matrix of each ``(seed, runs, draw count)`` is cached, so the
figures' three route layouts draw their runs once each.

One loop, :func:`_realized`, turns draws into the rows of a
:class:`RealizedBatch`: floats for :func:`realize_route`, ``(runs,)`` arrays
for :func:`realize_batch`.  So run k of a batch equals the single realization
with run k's seed bit for bit by construction, not by a second copy of the
formulas kept in step.  Neither builds a ``RouteSegment``: both run
:func:`check_realizable` before any draw, which proves every value a row can
hold positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .model import (_WIFI_KIND, MBIT_PER_MB, RouteProfile, check_integer, check_real, check_types,
                    min2)


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
        check_real("time_error", self.time_error, 0.0, 1.0, True)
        check_real("throughput_error", self.throughput_error, 0.0, 1.0, True)
        check_integer("seed", self.seed)


class PredictionProfile(NamedTuple):
    """Everything a planner may consult when (re)planning at a hotspot exit.

    The hotspots ahead that start before the horizon, at ``1 - e`` times
    their nominal dwells and rates (e in [0, 1)), deliver ``wifi_local_mbit``
    at their local (cache) rates or ``wifi_backhaul_mbit`` at their backhaul
    rates in ``wifi_seconds``, each summed left to right, nearest first.  The
    nearest is ``next_hotspot`` (None: none), whose cache holds at most
    ``next_cache_mb``, at ``1 + e`` times both (0.0: none).

    ``max_mobile_rate`` is the highest nominal mobile rate expected before
    the next hotspot (or to the route end when none remains); it is the rate
    a maximum-throughput policy requests and it prices the cache offset.
    ``sustainable_mobile_rate`` is the lowest nominal mobile rate over the
    remaining planning horizon: the largest constant rate the mobile network
    can carry everywhere, hence the cap for delay-tolerant plans.
    """

    wifi_local_mbit: float
    wifi_backhaul_mbit: float
    wifi_seconds: float
    next_hotspot: Optional[int]
    next_cache_mb: float
    time_to_next_wifi: float
    max_mobile_rate: float
    sustainable_mobile_rate: float


class _RouteIndex(NamedTuple):
    """What every trip and forecast on one nominal route shares; see the
    module docstring.

    Per segment, ``wifi`` flags a WiFi segment and ``window`` names the
    mobile segment whose rate is available during it: the segment itself
    when mobile; for a WiFi segment the nearest mobile one, preceding first,
    else following; None when the route has none.
    """

    route: RouteProfile
    wifi: tuple[bool, ...]
    window: tuple[Optional[int], ...]
    draw_count: int


@lru_cache(maxsize=64)  # the 20 figure recipes walk 18 keys, in any order
def _walk(
    route: RouteProfile,
    time_error: float,
    throughput_error: float,
    hi: float,
) -> tuple[PredictionProfile, ...]:
    """The forecast after each count of hotspots passed, from none to all of
    them, up to the clipped horizon ``hi``: one scan of the route from its
    end, which emits a forecast on reaching each hotspot and the start."""
    te, re = time_error, throughput_error
    rates = [seg.mobile_rate for seg in route.segments if seg.kind is not _WIFI_KIND]
    most, least = max(rates, default=0.0), min(rates, default=0.0)  # the last fallbacks
    # per hotspot usable before hi, farthest first: its pessimistic local and
    # backhaul Mbit and dwell; then the nearest one's index, cache cap and start
    ahead = []
    next_hotspot, next_cap, next_start = None, 0.0, None
    # the highest mobile rate before it, and the highest and lowest to the
    # route end; the lowest of those starting before hi (-inf or inf: none)
    gap_max = rest_max = -math.inf
    rest_min = horizon_min = math.inf
    profiles = []

    def profile(at: float) -> PredictionProfile:  # of a node at the scan's position, time at
        high = gap_max if gap_max > -math.inf else rest_max if rest_max > -math.inf else most
        low = horizon_min if horizon_min < math.inf else rest_min if rest_min < math.inf else least
        # nearest first, afresh and by +: a running sum from the far end has
        # other bits, and builtin sum() is compensated from Python 3.12 on
        local = backhaul = seconds = 0.0
        for mbit_local, mbit_backhaul, dwell in reversed(ahead):
            local, backhaul, seconds = local + mbit_local, backhaul + mbit_backhaul, seconds + dwell
        wait = 0.0 if next_start is None else next_start - at
        return tuple.__new__(PredictionProfile, (  # with no Python-level __new__
            local, backhaul, seconds, next_hotspot, next_cap,
            wait if wait > 0.0 else 0.0, high, low))

    for seg in reversed(route.segments):
        if seg.kind is not _WIFI_KIND:
            rate = seg.mobile_rate
            # as builtin min() and max() compare, at a fraction of their call's cost
            if rate > gap_max:
                gap_max = rate
            if rate > rest_max:
                rest_max = rate
            if rate < rest_min:
                rest_min = rate
            if seg.start_time < hi and rate < horizon_min:
                horizon_min = rate
            continue
        start, end = seg.start_time, seg.end_time
        profiles.append(profile(end))  # the node has just left seg
        usable = (hi if hi < end else end) - start
        if usable > 0:
            local, dwell = seg.wifi_local_rate, (1 - te) * usable
            ahead.append(((1 - re) * local * dwell, (1 - re) * seg.backhaul_rate * dwell, dwell))
            next_hotspot, next_start, gap_max = seg.hotspot_index, start, -math.inf
            next_cap = (1 + re) * local * ((1 + te) * usable) / MBIT_PER_MB
    profiles.append(profile(0.0))
    return tuple(reversed(profiles))


@lru_cache(maxsize=16)  # the 20 figure recipes index 12 routes
def _route_index(route: RouteProfile) -> _RouteIndex:
    """The index of ``route``, built on its first use."""
    wifi = tuple([seg.kind is _WIFI_KIND for seg in route.segments])
    window = []
    last = next((i for i, w in enumerate(wifi) if not w), None)
    for i, w in enumerate(wifi):
        if not w:
            last = i
        window.append(last)
    # drawn per segment: duration, then local and backhaul rate or the mobile rate
    return _RouteIndex(route, wifi, tuple(window), 2 * len(wifi) + sum(wifi))


def build_prediction(
    route: RouteProfile,
    errors: ErrorSpec,
    horizon: Optional[float] = None,
) -> tuple[PredictionProfile, ...]:
    """Forecast the rest of the nominal route at every replan point: element
    k is the forecast for a node that has left k of its hotspots, from 0 at
    the route start to all of them.

    Each forecast sums the hotspots ahead at both their local (cache) and
    their backhaul rate, so one forecast serves every policy at a replan point.

    ``horizon`` truncates the forecasts at a deadline: hotspots starting at or
    after it are dropped and a window straddling it only counts the part
    before it.  None, inf or any horizon past the route end truncates
    nothing; any other horizon that is not a finite real number >= 0 raises
    ``ValueError``.

    The result does not depend on ``errors.seed``, and it is cached (see
    the module docstring).
    """
    if horizon is None or horizon == math.inf:
        hi = route.total_time
    else:
        check_real("horizon", horizon, 0.0, math.inf, True)
        total = route.total_time
        hi = total if total < horizon else horizon
    return _walk(route, errors.time_error, errors.throughput_error, hi)


# numpy's SeedSequence (a pool of four 32-bit words, no spawn key) and PCG64,
# as integer arithmetic that runs on Python ints and on uint64 arrays alike:
# every 32- and 64-bit result is masked, as a Python int does not wrap.
_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 1 << 16  # states per broadcast pass of _uniforms, bounding its temporaries


def _words32(n: int) -> list[int]:
    """SeedSequence's 32-bit words of the int ``n`` >= 0, least significant
    first; [0] for 0."""
    return [(n >> shift) & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed_words(entropy: list, n: int) -> list:
    """The first ``n`` 32-bit words ``SeedSequence`` generates from the
    ``entropy`` words, each a Python int or a uint64 array of them.  Zero
    words past the last nonzero one change nothing while there are at most
    four, as the pool is padded with zeros."""
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = (h * mult) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, mult = 0x8B51F9DD, 0x58F38DED  # the output hash
    return [hashmix(pool[i % 4]) for i in range(n)]


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed: the first 64-bit word of
    ``numpy.random.SeedSequence(entropy=(base_seed, run_index))``.  A
    negative or non-integer argument raises ``ValueError``."""
    check_integer("base_seed", base_seed)
    check_integer("run_index", run_index)
    lo, hi = _seed_words(_words32(int(base_seed)) + _words32(int(run_index)), 2)
    return lo | (hi << 32)


def _mul128(ah, al, bh, bl):
    """``(ah, al) * (bh, bl)`` mod 2**128 on (high, low) 64-bit limbs."""
    a1, a0 = al >> 32, al & _M32
    b1, b0 = bl >> 32, bl & _M32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return ((a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + ah * bl + al * bh) & _M64,
            (al * bl) & _M64)


def _add128(ah, al, bh, bl):
    """``(ah, al) + (bh, bl)`` mod 2**128 on (high, low) 64-bit limbs."""
    lo = (al + bl) & _M64
    return (ah + bh + (lo < al)) & _M64, lo


def _pcg64(words: list) -> tuple:
    """PCG64 seeded from the first eight words of a ``SeedSequence``: its
    (state high, state low, increment high, increment low) limbs, Python
    ints or uint64 arrays as the words are."""
    s_hi, s_lo, q_hi, q_lo = [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]
    inc_hi, inc_lo = ((q_hi << 1) | (q_lo >> 63)) & _M64, ((q_lo << 1) | 1) & _M64
    # state 0, a step (to inc), add the initial state, a step
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi, lo = _add128(*_mul128(hi, lo, _PCG_MULT >> 64, _PCG_MULT & _M64), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _seeded(seed: int, runs: int) -> np.ndarray:
    """The PCG64 state of ``default_rng(derive_run_seed(seed, k))`` for each
    run k < ``runs``, as the rows (state high, state low, increment high,
    increment low) of a (4, runs) uint64 array."""
    k = np.arange(runs, dtype=np.uint64)  # one 32-bit word each below 2**32 runs
    # each run seed as two words (a zero high word hashes as the one it would
    # drop), then the words PCG64 seeds from
    return np.stack(_pcg64(_seed_words(_seed_words(_words32(int(seed)) + [k], 2), 8)))


def _stream(seed: int, n: int) -> list[float]:
    """The first ``n`` uniform(-1, 1) draws of ``default_rng(seed)``, one
    PCG64 step at a time on Python ints: for one run, cheaper than
    :func:`_uniforms`, which builds its jump-ahead constants on each call."""
    hi, lo, inc_hi, inc_lo = _pcg64(_seed_words(_words32(int(seed)), 8))
    state, inc = hi << 64 | lo, inc_hi << 64 | inc_lo
    draws = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        hi = state >> 64
        # XSL-RR: hi ^ lo rotated right by hi's top 6 bits.  Doubled, the word
        # repeats, so one shift rotates it and takes the top 53 bits as
        # numpy's uniform(-1, 1) does: -1 + 2 * (bits * 2**-53), exactly.
        x = ((hi ^ state) & _M64) * ((1 << 64) + 1)
        draws.append(((x >> (hi >> 58) + 11) & _M53) * 2.0 ** -52 - 1.0)
    return draws


def _uniforms(state: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``n`` uniform(-1, 1) draws of each run from its PCG64 state
    (as :func:`_seeded` gives it), as an (n, runs) array, and the state after
    them.  The state r steps on is ``M**r * state + (M**(r-1) + ... + 1) *
    increment`` for the LCG multiplier M, so a pass computes rows at once."""
    s_hi, s_lo, inc_hi, inc_lo = state
    rows = max(1, min(n, _BLOCK // len(s_hi)))
    jumps, a, c = [], 1, 0
    for _ in range(rows):
        a, c = (a * _PCG_MULT) & _M128, (c * _PCG_MULT + 1) & _M128
        jumps.append((a >> 64, a & _M64, c >> 64, c & _M64))
    a_hi, a_lo, c_hi, c_lo = np.array(jumps, dtype=np.uint64).T[:, :, None]
    c_hi, c_lo = _mul128(c_hi, c_lo, inc_hi, inc_lo)
    blocks = []
    for start in range(0, n, rows):
        m = min(rows, n - start)
        hi, lo = _add128(*_mul128(a_hi[:m], a_lo[:m], s_hi, s_lo), c_hi[:m], c_lo[:m])
        s_hi, s_lo = hi[-1], lo[-1]
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output, then numpy's uniform(-1, 1)
        x = (x >> rot) | (x << ((64 - rot) & 63))
        blocks.append(-1.0 + 2.0 * ((x >> 11) * 2.0 ** -53))
    return np.concatenate(blocks), np.stack([s_hi, s_lo, inc_hi, inc_lo])


@lru_cache(maxsize=4)  # the figure recipes draw 3 shapes, one per route layout
def _draw_matrix(seed: int, runs: int, n: int) -> np.ndarray:
    """Column k holds the first ``n`` draws of run k, seeded
    ``derive_run_seed(seed, k)``, for k < ``runs``: a read-only array, so
    every batch that reads it shares it."""
    draws = _uniforms(_seeded(seed, runs), n)[0]
    draws.flags.writeable = False
    return draws


class RealizedRow:
    """One realized segment: ``start_time``, ``duration``, ``end_time`` and
    the rates its kind carries, under the ``RouteSegment`` names; a rate it
    does not carry is an unset slot, so reading it raises AttributeError."""

    __slots__ = ("start_time", "duration", "end_time", "mobile_rate", "wifi_local_rate",
                 "backhaul_rate")


def _realized(index: _RouteIndex, errors: ErrorSpec, draws, start, minimum) -> tuple:
    """The rows of a realization of the indexed route, in order; each row
    starts at the previous row's ``end_time``.

    The values are floats for one realization (a list of draws, ``start``
    0.0, :func:`~offloadsim.model.min2`) and ``(runs,)`` arrays for a batch
    (the rows of a draw matrix, ``start`` zeros, :func:`numpy.minimum`).  A
    drawn backhaul rate is capped at the drawn local rate, as in
    :func:`~offloadsim.model.scale_route`.
    """
    te, re = errors.time_error, errors.throughput_error
    draw = iter(draws).__next__
    rows = []
    for seg, wifi in zip(index.route.segments, index.wifi):
        row = RealizedRow()  # slots set one by one: no Python-level __init__ call
        row.start_time = start
        row.duration = duration = seg.duration * (1.0 + te * draw())
        if wifi:
            row.wifi_local_rate = local = seg.wifi_local_rate * (1.0 + re * draw())
            row.backhaul_rate = minimum(seg.backhaul_rate * (1.0 + re * draw()), local)
        else:
            row.mobile_rate = seg.mobile_rate * (1.0 + re * draw())
        row.end_time = start = start + duration
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=32)  # the 20 figure recipes check 18 keys; a raise is not cached
def check_realizable(route: RouteProfile, time_error: float, throughput_error: float) -> float:
    """The longest realized total time of ``route`` at these errors: its
    durations times ``1 + time_error``, summed in order.  Rounding is
    monotone, so this bounds every realized end, and ``1 -/+ e`` every value
    :func:`_realized` draws.  A realized value that could leave (0, inf), or
    a realized rate times this time that could overflow, raises
    ``ValueError`` naming the first such segment.

    By the same monotony the extremes decide, as each term of the total is
    at most the total: the shortest duration and the lowest rate, each times
    ``1 - e``, and the highest rate times ``1 + e`` times the total.  Only a
    route they reject is walked segment by segment, to name the segment."""
    te, re = time_error, throughput_error
    longest, durations, rates = 0.0, [], []
    for seg in route.segments:  # left to right by +: builtin sum() is compensated from 3.12 on
        longest += seg.duration * (1 + te)
        durations.append(seg.duration)
        if seg.kind is _WIFI_KIND:
            rates += (seg.wifi_local_rate, seg.backhaul_rate)
        else:
            rates.append(seg.mobile_rate)
    if not longest < math.inf:
        raise ValueError(f"the realized total time overflows at time error {te}")
    if (min(durations) * (1 - te) > 0 and min(rates) * (1 - re) > 0
            and max(rates) * (1 + re) * longest < math.inf):
        return longest
    for i, seg in enumerate(route.segments):
        drawn = ([("wifi local rate", seg.wifi_local_rate, re),
                  ("backhaul rate", seg.backhaul_rate, re)] if seg.kind is _WIFI_KIND
                 else [("mobile rate", seg.mobile_rate, re)])
        for name, value, e in [("duration", seg.duration, te), *drawn]:
            if not (value * (1 - e) > 0 and value * (1 + e) < math.inf):
                raise ValueError(f"segment {i}: a realized {name} leaves (0, inf) at error {e}")
            if name != "duration" and not value * (1 + e) * longest < math.inf:  # bytes moved
                raise ValueError(f"segment {i}: a realized {name} times the realized "
                                 "total time overflows")
    return longest


def realize_route(route: RouteProfile, errors: ErrorSpec) -> RealizedBatch:
    """Draw one perturbed realization of a nominal route: every duration and
    rate uniformly and independently from its error interval, deterministic
    for a given ``errors.seed``.  It is a one-run :class:`RealizedBatch`
    whose rows hold floats.  Before any draw, a route that
    :func:`check_realizable` rejects raises ``ValueError``."""
    check_types(("route", route, RouteProfile), ("errors", errors, ErrorSpec))
    check_realizable(route, errors.time_error, errors.throughput_error)
    index = _route_index(route)
    return RealizedBatch(route, _realized(index, errors, _stream(errors.seed, index.draw_count),
                                          0.0, min2))


# A batch on the 8-hotspot layout and its cached draws hold 776 B a run: 77.6 MB at most.
MAX_RUNS = 100_000


@dataclass(frozen=True, eq=False)
class RealizedBatch:
    """Realizations of one nominal route, one entry per run.

    ``segments[i]`` is segment i of every realization, a
    :class:`RealizedRow`: floats for one run (:func:`realize_route`),
    ``(runs,)`` arrays for a batch (:func:`realize_batch`).  Row i's
    ``end_time`` is row i + 1's ``start_time``, and the last row's is each
    run's realized total time, ``total_time``.  One batch serves any number
    of policies: the trip loop broadcasts its rows along the policy axis.

    A batch is equal only to itself and hashes by identity: two draws of one
    seed are two objects, equal row for row in their values.
    """

    route: RouteProfile
    segments: tuple[RealizedRow, ...]

    @property
    def total_time(self):
        return self.segments[-1].end_time


def check_one_realization(realized: RealizedBatch, nominal: RouteProfile) -> None:
    """Raise ``ValueError`` naming ``route_realized`` unless ``realized`` is
    one realization of ``nominal``: float rows, one per segment, drawn from
    ``nominal`` itself or a route equal to it."""
    rows, route = realized.segments, realized.route
    if not (route is nominal or route == nominal) or len(rows) != len(nominal.segments):
        raise ValueError("route_realized must be a realization of route_nominal")
    if isinstance(rows[-1].end_time, np.ndarray):
        raise ValueError("route_realized must hold one realization's floats, not a batch's arrays")


def realize_batch(route: RouteProfile, errors: ErrorSpec, seed: int,
                  runs: int) -> RealizedBatch:
    """Draw ``runs`` realizations of ``route`` from base seed ``seed``, all at once.

    Run k holds, bit for bit, the values of
    ``realize_route(route, replace(errors, seed=derive_run_seed(seed, k)))``:
    both come from :func:`_realized` on the same draws, read from a cache;
    ``errors.seed`` is not used.  Before any draw, a ``runs`` that is not an
    integer in [1, ``MAX_RUNS``], a ``seed`` that is not one >= 0, or a route
    that :func:`check_realizable` rejects raises ``ValueError``.
    """
    check_types(("route", route, RouteProfile), ("errors", errors, ErrorSpec))
    check_integer("runs", runs, 1, MAX_RUNS)
    check_integer("seed", seed)
    check_realizable(route, errors.time_error, errors.throughput_error)
    index = _route_index(route)
    draws = _draw_matrix(seed, runs, index.draw_count)
    return RealizedBatch(route, _realized(index, errors, draws, np.zeros(runs), np.minimum))
