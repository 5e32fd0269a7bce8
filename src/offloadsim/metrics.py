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

``run_scenario`` runs each distinct scenario once per process.  Its result
depends on every compared :class:`ScenarioSpec` field but ``scenario_id`` and
``metrics``, so those fields' values (read from ``dataclasses.fields``; a
field added later joins the key by itself) key a small LRU of aggregates:
each policy's :class:`MetricSummary` values and miss count, never the
per-run outcome arrays, which ``scenario_outcomes`` hands out fresh and
writable on every call.  A hit builds a new :class:`AggregateResult` with the
caller's id and new dicts, equal with ``==`` to a fresh run.  A scenario
also shares the scaled route of the one built before it when its route and
rate factors are the same (a size or error sweep point and its base), and
with it that route's forecast index.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, Union

import numpy as np

from .engine import RunOutcome, run_policies
from .model import MBIT_PER_MB, EnergyModel, RouteProfile, TransferTask, scale_route
from .policies import T_MOBILE_FLOOR, Policy, check_admitted
# derive_run_seed is defined beside the draws it seeds and stays public here
from .prediction import ErrorSpec, derive_run_seed, realize_batch  # noqa: F401

# each output metric, in CSV row order, and the RunOutcome field behind it
_METRIC_FIELDS = {"offload_pct": "offload_pct", "transfer_delay_s": "transfer_delay",
                  "energy_j": "energy_j", "cache_mb": "cache_bytes_used"}
METRICS = tuple(_METRIC_FIELDS)

CSV_COLUMNS = ("scenario_id", "policy", "metric", "mean", "ci95", "n",
               "infeasible_count")

HOTSPOT_COUNTS = (2, 4, 8)  # the bundled route layouts, route_<n>ap.json

# A batch holds about 1 kB per run on the 8-hotspot layout (its draws and
# realized rows), so this many runs stay near 100 MB.
MAX_RUNS = 100_000


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


@functools.cache
def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom.

    df 1 and 2 have closed forms.  Above them Newton's method, started from
    the Cornish-Fisher expansion (Abramowitz & Stegun 26.7.5), solves
    Q(t) = 0.025 for the upper tail Q = f M (density times Mills ratio).
    Since Q(0) = 1/2, the density's constant is f(0) = 1/(2 M(0)), so the
    Newton step (Q(t) - 0.025) / f(t) is M(t) - 0.05 M(0) (1 + t^2/df)^((df+1)/2)
    and no gamma function is needed.  Checked against mpmath, the result is
    within 3e-16 of the exact quantile for every df sampled from 3 to 1e7.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
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
    n = samples.shape[-1]
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    half = _means_and_cis(samples)[1]
    return float(half) if samples.ndim == 1 else half


def relative_gain(a_mean: float, b_mean: float, lower_is_better: bool = False) -> float:
    """Percent advantage of ``a`` over baseline ``b``.

    For higher-is-better metrics (offload): (a - b) / b * 100.  For
    lower-is-better ones (delay, energy): (b - a) / b * 100, so a positive
    number always means ``a`` wins.
    """
    if b_mean <= 0:
        raise ValueError(f"baseline mean must be positive, got {b_mean}")
    if lower_is_better:
        return (b_mean - a_mean) / b_mean * 100.0
    return (a_mean - b_mean) / b_mean * 100.0


# The most recently scaled route: (route, factors, scaled route).  The route
# is compared by identity and held here, so its id cannot be reused while it
# is; routes are frozen, so the scaled route never goes stale.
_last_scaled: Optional[tuple[RouteProfile, tuple[float, float, float], RouteProfile]] = None


def _scale(route: RouteProfile, factors: tuple[float, float, float]) -> RouteProfile:
    """``scale_route`` at ``factors``, reusing the last result for the same
    route object and factors (a size or error sweep point and its base)."""
    global _last_scaled
    last = _last_scaled
    if last is None or last[0] is not route or last[1] != factors:
        last = _last_scaled = (route, factors, scale_route(route, *factors))
    return last[2]


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte-Carlo experiment: route, rates, task, errors, policies, and
    the output metrics its CSV rows show (None: all of them)."""

    scenario_id: str
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
    metrics: Optional[tuple[str, ...]] = None
    _scaled: RouteProfile = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # a single run is allowed (its CI is reported as zero-width)
        if not 1 <= self.runs <= MAX_RUNS:
            raise ValueError(f"runs must be in [1, {MAX_RUNS}], got {self.runs}")
        if self.seed < 0:  # SeedSequence takes non-negative entropy only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.policies:
            raise ValueError("scenario needs at least one policy")
        for i, p in enumerate(self.policies):
            if p in self.policies[:i]:
                raise ValueError(f"policy {p.cli_name} is listed twice")
        unknown = [m for m in self.metrics or () if m not in METRICS]
        if unknown:
            raise ValueError(f"unknown metric {unknown[0]!r}; expected one of {METRICS}")
        check_admitted(self.policies, self.task.traffic_class)
        # scale_route checks the factors; a realized value is a scaled one times
        # 1 + e u with u in [-1, 1), and rounding is monotone, so 1 -/+ e bound it
        object.__setattr__(self, "_scaled", _scale(
            self.route, (self.mobile_factor, self.wifi_factor, self.backhaul_factor)))
        te, re = self.errors.time_error, self.errors.throughput_error
        longest = self.route.total_time * (1 + te)  # no realized total time is longer
        if not longest < math.inf:
            raise ValueError(f"the realized total time overflows at time error {te}")
        for i, seg in enumerate(self._scaled.segments):
            drawn = ([("wifi local rate", seg.wifi_local_rate, re),
                      ("backhaul rate", seg.backhaul_rate, re)] if seg.is_wifi
                     else [("mobile rate", seg.mobile_rate, re)])
            for name, value, error in [("duration", seg.duration, te), *drawn]:
                if not (value * (1 - error) > 0 and value * (1 + error) < math.inf):
                    raise ValueError(f"segment {i}: a realized {name} leaves (0, inf) "
                                     f"at error {error}")
                if name != "duration" and not value * (1 + error) * longest < math.inf:
                    raise ValueError(f"segment {i}: a realized {name} times the realized "
                                     "total time overflows")  # the bytes it moves
        size = self.task.size_mb
        for product, message in [
                (size * MBIT_PER_MB / T_MOBILE_FLOOR, f"task.size_mb {size:g} in Mbit over "
                 f"the planner's {T_MOBILE_FLOOR:g} s time floor overflows"),
                *((getattr(self.energy, f) * x, f"energy.{f} times {of} overflows")
                  for f, x, of in [("mobile_transfer_j_per_mb", size, "task.size_mb"),
                                   ("wifi_transfer_j_per_mb", size, "task.size_mb"),
                                   ("wifi_idle_w", longest, "the realized total time")])]:
            if not product < math.inf:
                raise ValueError(message)

    def scaled_route(self) -> RouteProfile:
        """The route at this scenario's rate factors, built once."""
        return self._scaled


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


# Every compared field but the id and the output metrics decides a
# scenario's aggregate; their values key the memo of run_scenario.
_KEY_FIELDS = tuple(f.name for f in fields(ScenarioSpec)
                    if f.compare and f.name not in ("scenario_id", "metrics"))
AGGREGATES_KEPT = 64  # the 20 figure recipes hold 44 distinct scenarios

# one (summaries in METRICS order, deadline misses) per policy
_Aggregate = tuple[tuple[tuple[MetricSummary, ...], int], ...]
_aggregates: dict[tuple, _Aggregate] = {}  # least recently used first


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

    A scenario equal to one of the last ``AGGREGATES_KEPT`` in every field but
    ``scenario_id`` and ``metrics`` is not run again: its result is rebuilt
    from the memoized aggregate, with new dicts.
    """
    key = tuple(getattr(spec, name) for name in _KEY_FIELDS)
    per_policy = _aggregates.pop(key, None)  # reinserted last: the most recent
    if per_policy is None:
        per_policy = _aggregate(spec)
        if len(_aggregates) >= AGGREGATES_KEPT:
            del _aggregates[next(iter(_aggregates))]
    _aggregates[key] = per_policy
    return AggregateResult(
        scenario_id=spec.scenario_id,
        summaries={p: dict(zip(METRICS, s)) for p, (s, _) in zip(spec.policies, per_policy)},
        infeasible={p: misses for p, (_, misses) in zip(spec.policies, per_policy)},
        policies=spec.policies,
    )


def _hotspot_layout(spec: ScenarioSpec, count: float) -> dict:
    from .config import load_route  # deferred: config builds on these types

    if count not in HOTSPOT_COUNTS:  # any other key would be read as a file path
        raise ValueError(f"hotspot_count must be one of {HOTSPOT_COUNTS}, got {count:g}")
    return {"route": load_route(f"{int(count)}ap")}


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
    """A scenario re-run across the values of one swept parameter."""

    base: ScenarioSpec
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEPABLE}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")

    @property
    def metrics(self) -> Optional[tuple[str, ...]]:
        """The metrics of the CSV rows: the base scenario's."""
        return self.base.metrics


def apply_sweep_value(spec: ScenarioSpec, parameter: str, value: float) -> ScenarioSpec:
    """Derive the scenario for one sweep point; ids become 'base@param=value'."""
    if parameter not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return replace(spec, scenario_id=f"{spec.scenario_id}@{parameter}={value:g}",
                   **_SWEEP_AXES[parameter](spec, float(value)))


def run_sweep(sweep: SweepSpec) -> list[AggregateResult]:
    return [
        run_scenario(apply_sweep_value(sweep.base, sweep.parameter, v))
        for v in sweep.values
    ]


def render_csv(results: Sequence[AggregateResult],
               metrics: Optional[Sequence[str]] = None) -> str:
    """Deterministic CSV text: one row per result, policy and metric (all
    metrics unless ``metrics`` names some), in the fixed column order."""
    keep = tuple(metrics) if metrics else METRICS
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
