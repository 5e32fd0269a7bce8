"""Monte-Carlo orchestration and statistics.

Each run draws one realized route and evaluates every policy on that same
realization (paired comparison), then metrics are aggregated into means with
Student-t 95% confidence intervals.  A scenario's realizations are drawn
together, once, and all its policies run over them in one pass of the trip
loop (:func:`offloadsim.engine.run_policies`), policy p in row p of its
``(P, runs)`` arrays.  It is aggregated in one pass: every policy's metric
arrays are stacked as the rows of one array, and the means and CIs are taken
along its last axis, each row bit for bit as its own 1-D array would give
them.  Each row is divided once by the power of two that brings its peak
magnitude into [0.5, 1), and its mean and CI are both taken on that scaled
row and scaled back, so no sum or square overflows; outside the subnormal
range a power of two commutes with every rounding, so the scaling changes no
digit.  ``ci_halfwidth`` takes its half-widths the same way.  The t quantile
comes from ``t_quantile_975``, a standard-library Newton solve on the t tail,
so the package needs no statistics library.  Per-run seeds are derived from the
scenario seed with a stable hash, so adding a policy or rerunning a sweep
never reshuffles the realizations.

Besides ``t_quantile_975``, two memos here are ``functools.lru_cache`` on the
pure functions they cache, as in :mod:`offloadsim.prediction`, each holding
only immutable values.
``_scale`` keeps the scaled route of each ``(route, rate factors)`` pair,
keyed by the route's value, which a route hashes once, so the points of a
sweep that leave the rates alone, and recipes on one layout, share a scaled
route; :meth:`ScenarioSpec.scaled_route` reads it there.  ``_aggregate``
keeps each policy's :class:`MetricSummary` values and miss count per
:class:`ScenarioSpec`, whose equality ignores ``scenario_id``: so
``run_scenario`` runs each distinct scenario once per process, and a hit
builds a new :class:`AggregateResult` with the caller's id and new dicts,
equal with ``==`` to a fresh run.  The per-run outcome
arrays are never cached: ``scenario_outcomes`` hands them out fresh and
writable on every call.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .engine import RunOutcome, run_policies
from .model import (MBIT_PER_MB, EnergyModel, RouteProfile, TransferTask, as_tuple,
                    check_integer, check_rate_factors, check_real, check_types, scale_route)
from .policies import T_MOBILE_FLOOR, Policy, check_admitted
# derive_run_seed is defined beside the draws it seeds and stays public here
from .prediction import (MAX_RUNS, ErrorSpec, check_realizable, derive_run_seed,  # noqa: F401
                         realize_batch)

# each output metric, in CSV row order, and the RunOutcome field behind it
_METRIC_FIELDS = {"offload_pct": "offload_pct", "transfer_delay_s": "transfer_delay",
                  "energy_j": "energy_j", "cache_mb": "cache_bytes_used"}
METRICS = tuple(_METRIC_FIELDS)

CSV_COLUMNS = ("scenario_id", "policy", "metric", "mean", "ci95", "n",
               "infeasible_count")

HOTSPOT_COUNTS = (2, 4, 8)  # the bundled route layouts, route_<n>ap.json


class InsufficientSamples(ValueError):
    """Fewer than two samples: no confidence interval exists."""


def _exp_sinh_nodes() -> tuple[tuple[float, float], ...]:
    """Nodes ``w`` and weights for int_0^inf e^-w g(w) dw, e^-w folded in.

    Trapezoid rule in tau after w = exp(pi/2 sinh tau).  Step 1/16 on
    tau in [-4.5, 2] keeps ``_t_mills_ratio`` within 3e-16 of its exact value
    for df from 3 to 1e6 at t = 0 and at t from 1.9 to 3.2, where the
    quantile search evaluates it (checked against mpmath).  The left end is
    set by the 1/sqrt(w) singularity of the t = 0 integrand; past the right
    end the weights are below 1e-120.
    """
    h = 1.0 / 16.0
    nodes = []
    for j in range(-72, 33):
        w = math.exp(math.pi / 2 * math.sinh(j * h))
        nodes.append((w, h * math.pi / 2 * math.cosh(j * h) * w * math.exp(-w)))
    return tuple(nodes)


_NODES = _exp_sinh_nodes()


def _t_mills_ratio(t: float, nu: float) -> float:
    """Upper tail over density, Q(t)/f(t), of Student's t with ``nu`` df, t >= 0.

    Substituting w = log f(t) - log f(s) turns the tail integral of f over
    [t, inf) into f(t) times the integral of e^-w ds/dw over w in [0, inf),
    with s^2 = t^2 + (nu + t^2) expm1(2w/(nu + 1)) and
    ds/dw = (nu + s^2) / ((nu + 1) s).  Every term is positive, so the sum
    keeps full relative precision at any ``nu``; the regularized incomplete
    beta's continued fraction, by contrast, loses digits in proportion to
    ``nu`` in double precision.
    """
    k = 2.0 / (nu + 1.0)
    c = nu + t * t
    terms = []
    for w, weight in _NODES:
        e = math.expm1(k * w)
        terms.append(weight * (1.0 + e) / math.sqrt(t * t + c * e))
    return c / (nu + 1.0) * math.fsum(terms)


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom,
    an integer no larger than 2^53, so that it is exact as a float; computed
    once per ``df``.

    df 1 and 2 have closed forms.  Above them Newton's method, started from
    the Cornish-Fisher expansion (Abramowitz & Stegun 26.7.5), solves
    Q(t) = 0.025 for the upper tail Q = f M (density times Mills ratio).
    Since Q(0) = 1/2, the density's constant is f(0) = 1/(2 M(0)), so the
    Newton step (Q(t) - 0.025) / f(t) is M(t) - 0.05 M(0) (1 + t^2/df)^((df+1)/2)
    and no gamma function is needed.  Checked against mpmath, the result is
    within 3e-16 of the exact quantile for every df sampled from 3 to 1e7.
    """
    check_integer("df", df, 1, 2 ** 53)  # before the cache, which would hash a list
    return _t_quantile_975(df)


@functools.cache
def _t_quantile_975(df: int) -> float:
    """:func:`t_quantile_975` of a checked ``df``."""
    if df == 1:
        return math.tan(0.475 * math.pi)
    if df == 2:
        p = 0.975
        return (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    nu = float(df)
    z = 1.959963984540054  # standard normal 0.975 quantile
    z2 = z * z
    g1 = (z2 + 1) * z / 4
    g2 = ((5 * z2 + 16) * z2 + 3) * z / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160
    t = z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu
    scale = 0.05 * _t_mills_ratio(0.0, nu)
    for _ in range(20):
        step = _t_mills_ratio(t, nu) - scale * math.exp((nu + 1) / 2 * math.log1p(t * t / nu))
        t += step
        # convergence is quadratic: after a step this small the error is far below an ulp
        if abs(step) <= 1e-11 * t:
            break
    return t


def _means_and_cis(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and CI half-width (samples along the last axis), both
    taken on the row divided once by the 2^k that brings its peak magnitude
    into [0.5, 1) (k = 0 for a row of zeros or a non-finite peak) and scaled
    back.  A row of equal samples, or of one, gets a half-width of exactly 0."""
    n = samples.shape[-1]
    k = np.frexp(np.abs(samples).max(axis=-1))[1]
    scaled = np.ldexp(samples, -k[..., None])
    means = np.ldexp(np.mean(scaled, axis=-1), k)
    if n < 2:
        return means, np.zeros_like(means)
    s = np.std(scaled, axis=-1, ddof=1)
    constant = scaled.min(axis=-1) == scaled.max(axis=-1)
    return means, np.ldexp(np.where(constant, 0.0, t_quantile_975(n - 1) * s / math.sqrt(n)), k)


def ci_halfwidth(samples: Union[Sequence[float], np.ndarray]) -> Union[float, np.ndarray]:
    """Two-sided 95% confidence half-width, Student-t: t(0.975, n-1) s/sqrt(n).

    The samples lie along the last axis: a float for one sequence, one
    half-width per row for a 2-D array, each equal to the 1-D call on that
    row.  A row whose samples are all equal gets exactly 0, not a float-noise
    std.  The rows are scaled as in the module docstring.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1] if samples.ndim else 1
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    half = _means_and_cis(samples)[1]
    return float(half) if samples.ndim == 1 else half


def relative_gain(a_mean: float, b_mean: float, lower_is_better: bool = False) -> float:
    """Percent advantage of ``a`` over baseline ``b``.

    For higher-is-better metrics (offload): (a - b) / b * 100.  For
    lower-is-better ones (delay, energy): (b - a) / b * 100, so a positive
    number always means ``a`` wins.  A baseline that is not positive and
    finite raises ``ValueError``, and so does an ``a_mean`` that is not finite
    and >= 0, as every metric's mean is.
    """
    check_real("a_mean", a_mean, 0.0, math.inf, True)
    check_real("baseline mean", b_mean)
    if lower_is_better:
        return (b_mean - a_mean) / b_mean * 100.0
    return (a_mean - b_mean) / b_mean * 100.0


@functools.lru_cache(maxsize=16)  # the 20 figure recipes hold 12 distinct pairs
def _scale(route: RouteProfile, factors: tuple[float, float, float]) -> RouteProfile:
    """``scale_route`` at ``factors``."""
    return scale_route(route, *factors)


def metric_names(names: Union[str, Sequence[str]], label: str = "metrics") -> tuple[str, ...]:
    """An output metric list as a tuple, a lone name one entry: at least one
    metric, each known and once, else ``ValueError`` naming ``label`` or its
    entry ``label[i]``.  Only None, which callers read first, means all."""
    names = (names,) if isinstance(names, str) else as_tuple(label, names, "metric names")
    if not names:
        raise ValueError(f"{label}: expected at least one metric")
    for i, name in enumerate(names):
        if name not in METRICS:
            raise ValueError(f"{label}[{i}]: unknown metric {name!r}; expected one of {METRICS}")
        if name in names[:i]:
            raise ValueError(f"{label}[{i}]: metric {name} is listed twice")
    return names


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte-Carlo experiment: route, rates, task, errors and policies.
    Equality and hashing ignore ``scenario_id``, which changes no result."""

    scenario_id: str = field(compare=False)
    route: RouteProfile
    task: TransferTask
    policies: tuple[Policy, ...]
    mobile_factor: float = 1.0 / 3.0
    wifi_factor: float = 1.0 / 3.0
    backhaul_factor: float = 1.0 / 3.0
    errors: ErrorSpec = ErrorSpec(time_error=0.10, throughput_error=0.20)
    runs: int = 120
    seed: int = 0
    energy: EnergyModel = EnergyModel()

    def __post_init__(self) -> None:
        check_types(("scenario_id", self.scenario_id, str), ("route", self.route, RouteProfile),
                    ("task", self.task, TransferTask), ("errors", self.errors, ErrorSpec),
                    ("energy", self.energy, EnergyModel))
        # a float run count would be served by the memoized aggregate of its
        # integer twin; a single run is allowed (its CI is reported as zero-width)
        check_integer("runs", self.runs, 1, MAX_RUNS)
        check_integer("seed", self.seed)
        # a list would fail to hash in the memo
        object.__setattr__(self, "policies",
                           check_admitted(self.policies, self.task.traffic_class))
        if self.errors.seed != 0:  # seed seeds the runs; this would split the memo
            raise ValueError(f"errors.seed must be 0, got {self.errors.seed}")
        # before the memo, which would hash them
        check_rate_factors(self.mobile_factor, self.wifi_factor, self.backhaul_factor)
        longest = check_realizable(self.scaled_route(), self.errors.time_error,
                                   self.errors.throughput_error)
        size = self.task.size_mb
        # each message is built only when its product overflows
        if not size * MBIT_PER_MB / T_MOBILE_FLOOR < math.inf:
            raise ValueError(f"task.size_mb {size:g} in Mbit over the planner's "
                             f"{T_MOBILE_FLOOR:g} s time floor overflows")
        for f, x, of in [("mobile_transfer_j_per_mb", size, "task.size_mb"),
                         ("wifi_transfer_j_per_mb", size, "task.size_mb"),
                         ("wifi_idle_w", longest, "the realized total time")]:
            if not getattr(self.energy, f) * x < math.inf:
                raise ValueError(f"energy.{f} times {of} overflows")

    def scaled_route(self) -> RouteProfile:
        """The route at this scenario's rate factors, built once per
        (route, rate factors) pair while it is cached."""
        return _scale(self.route, (self.mobile_factor, self.wifi_factor, self.backhaul_factor))


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    ci95: float
    n: int


@dataclass(frozen=True)
class AggregateResult:
    scenario_id: str
    summaries: dict[Policy, dict[str, MetricSummary]]
    infeasible: dict[Policy, int]
    policies: tuple[Policy, ...]

    def mean(self, policy: Policy, metric: str) -> float:
        return self.summaries[policy][metric].mean


def scenario_outcomes(spec: ScenarioSpec) -> dict[Policy, RunOutcome]:
    """Every policy's outcome on each of ``spec.runs`` paired realizations.

    Run k is drawn with seed ``derive_run_seed(spec.seed, k)``, and every
    policy runs over the same realizations, each in its row of one pass.
    """
    batch = realize_batch(spec.scaled_route(), spec.errors, spec.seed, spec.runs)
    return run_policies(batch, spec.task, spec.policies, spec.errors, spec.energy)


# one (summaries in METRICS order, deadline misses) per policy
_Aggregate = tuple[tuple[tuple[MetricSummary, ...], int], ...]


@functools.lru_cache(maxsize=64)  # the 20 figure recipes hold 44 distinct scenarios
def _aggregate(spec: ScenarioSpec) -> _Aggregate:
    """Each policy's summaries and misses.  One C-contiguous row per (policy,
    metric), reduced as the 1-D array would be and scaled once for both its
    mean and CI, so one pass gives every mean and CI bit for bit."""
    outcomes = scenario_outcomes(spec)
    rows = np.array([getattr(o, _METRIC_FIELDS[m]) for o in outcomes.values()
                     for m in METRICS])
    n = rows.shape[1]
    means, cis = _means_and_cis(rows)
    stats = iter(zip(means.tolist(), cis.tolist()))
    return tuple((tuple(MetricSummary(*next(stats), n=n) for _ in METRICS),
                  int(np.count_nonzero(~o.deadline_met))) for o in outcomes.values())


def run_scenario(spec: ScenarioSpec) -> AggregateResult:
    """Run every policy over ``spec.runs`` paired realizations and aggregate.

    A scenario equal to a recent one (equality ignores ``scenario_id``) is
    not run again: its result is rebuilt from the cached aggregate, with new
    dicts.
    """
    per_policy = _aggregate(spec)
    return AggregateResult(
        scenario_id=spec.scenario_id,
        summaries={p: dict(zip(METRICS, s)) for p, (s, _) in zip(spec.policies, per_policy)},
        infeasible={p: misses for p, (_, misses) in zip(spec.policies, per_policy)},
        policies=spec.policies,
    )


def _hotspot_layout(spec: ScenarioSpec, count: float) -> dict:
    from .config import bundled_route  # deferred: config builds on these types

    if count not in HOTSPOT_COUNTS:  # a bundled layout, never a file of its name
        raise ValueError(f"hotspot_count must be one of {HOTSPOT_COUNTS}, got {count:g}")
    return {"route": bundled_route(f"{int(count)}ap")}


# each sweepable parameter and the fields a sweep point at value v replaces
# in the base scenario s
_SWEEP_AXES = {
    "size_mb": lambda s, v: {"task": replace(s.task, size_mb=v)},
    "mobile_factor": lambda s, v: {"mobile_factor": v},
    "wifi_factor": lambda s, v: {"wifi_factor": v},
    "backhaul_factor": lambda s, v: {"backhaul_factor": v},
    "time_error": lambda s, v: {"errors": replace(s.errors, time_error=v)},
    "throughput_error": lambda s, v: {"errors": replace(s.errors, throughput_error=v)},
    "hotspot_count": _hotspot_layout,
}
SWEEPABLE = tuple(_SWEEP_AXES)


@dataclass(frozen=True)
class SweepSpec:
    """A scenario re-run across the values of one swept parameter.

    ``points`` holds one scenario per value, built and checked once here:
    point i is ``base`` with the swept field at ``values[i]``, its id
    ``<base id>@<parameter>=<value:g>``.  A point the model rejects raises
    ``ValueError`` naming ``values[i]`` and the point's id.  ``metrics``
    names the output metrics of the figure's CSV rows (None: all of them)."""

    base: ScenarioSpec
    parameter: str
    values: tuple[float, ...]
    metrics: Optional[tuple[str, ...]] = None
    points: tuple[ScenarioSpec, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_types(("base", self.base, ScenarioSpec))
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEPABLE}"
            )
        if self.metrics is not None:
            object.__setattr__(self, "metrics", metric_names(self.metrics))
        values = as_tuple("values", self.values, "numbers")
        if not values:
            raise ValueError("sweep needs at least one value")
        base, axis, points = self.base, _SWEEP_AXES[self.parameter], []
        for i, v in enumerate(values):
            check_real(f"values[{i}]", v, 0.0, math.inf, True)
            v = float(v)
            point_id = f"{base.scenario_id}@{self.parameter}={v:g}"
            try:
                points.append(replace(base, scenario_id=point_id, **axis(base, v)))
            except ValueError as exc:
                raise ValueError(f"values[{i}] ({point_id}): {exc}") from exc
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "points", tuple(points))


def run_sweep(sweep: SweepSpec) -> list[AggregateResult]:
    return [run_scenario(point) for point in sweep.points]


def render_csv(results: Sequence[AggregateResult],
               metrics: Union[str, Sequence[str], None] = None) -> str:
    """Deterministic CSV text: one row per result, policy and metric (all
    metrics when ``metrics`` is None, else :func:`metric_names` of it), in the
    fixed column order."""
    keep = METRICS if metrics is None else metric_names(metrics)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        for p in r.policies:
            for m in keep:
                s = r.summaries[p][m]
                writer.writerow((r.scenario_id, p.cli_name, m, f"{s.mean:.10g}",
                                 f"{s.ci95:.10g}", s.n, r.infeasible[p]))
    return buf.getvalue()
