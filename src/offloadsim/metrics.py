"""Monte-Carlo orchestration and statistics.

Each run draws one realized route and evaluates every policy on that same
realization (paired comparison), then metrics are aggregated into means with
Student-t 95% confidence intervals.  A scenario's realizations are drawn
together and each policy runs over all of them in one batched pass
(:func:`offloadsim.engine.run_batch`).  The t quantile comes from
``t_quantile_975``, a standard-library Newton solve on the t tail, so the
package needs no statistics library.  Per-run seeds are derived from the
scenario seed with a stable hash, so adding a policy or rerunning a sweep
never reshuffles the realizations.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .engine import BatchOutcome, run_batch
from .model import EnergyModel, RouteProfile, TransferTask, scale_route
from .policies import Policy
from .prediction import ErrorSpec, realize_batch

METRICS = ("offload_pct", "transfer_delay_s", "energy_j", "cache_mb")

# the BatchOutcome field behind each metric
_METRIC_FIELDS = {"offload_pct": "offload_pct", "transfer_delay_s": "transfer_delay",
                  "energy_j": "energy_j", "cache_mb": "cache_bytes_used"}

CSV_COLUMNS = ("scenario_id", "policy", "metric", "mean", "ci95", "n",
               "infeasible_count")

SWEEPABLE = ("size_mb", "mobile_factor", "wifi_factor", "backhaul_factor",
             "time_error", "throughput_error", "hotspot_count")


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


def ci_halfwidth(samples: Sequence[float]) -> float:
    """Two-sided 95% confidence half-width, Student-t: t(0.975, n-1) s/sqrt(n)."""
    n = len(samples)
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    samples = np.asarray(samples, dtype=float)
    if samples.min() == samples.max():  # exact, not a float-noise std
        return 0.0
    s = float(np.std(samples, ddof=1))
    return t_quantile_975(n - 1) * s / math.sqrt(n)


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


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed: SeedSequence entropy (base_seed, run_index)."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(run_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_metrics(metrics: Optional[Sequence[str]]) -> None:
    unknown = [m for m in metrics or () if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metric {unknown[0]!r}; expected one of {METRICS}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte-Carlo experiment: route, rates, task, errors, policies."""

    scenario_id: str
    route: RouteProfile
    route_id: str
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

    def __post_init__(self) -> None:
        # a single run is allowed (its CI is reported as zero-width)
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not self.policies:
            raise ValueError("scenario needs at least one policy")
        for i, p in enumerate(self.policies):
            if p in self.policies[:i]:
                raise ValueError(f"policy {p.cli_name} is listed twice")
        _check_metrics(self.metrics)
        for p in self.policies:
            if not p.admits(self.task.traffic_class):
                raise ValueError(
                    f"policy {p.cli_name} cannot serve {self.task.traffic_class.value}"
                )

    def scaled_route(self) -> RouteProfile:
        return scale_route(
            self.route,
            mobile_factor=self.mobile_factor,
            wifi_factor=self.wifi_factor,
            backhaul_factor=self.backhaul_factor,
        )


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
    runs: int
    policies: tuple[Policy, ...]

    def mean(self, policy: Policy, metric: str) -> float:
        return self.summaries[policy][metric].mean


def scenario_outcomes(spec: ScenarioSpec) -> dict[Policy, BatchOutcome]:
    """Every policy's outcome on each of ``spec.runs`` paired realizations.

    Run k is drawn with seed ``derive_run_seed(spec.seed, k)``, and every
    policy runs over the same realizations, all at once.
    """
    nominal = spec.scaled_route()
    seeds = [derive_run_seed(spec.seed, k) for k in range(spec.runs)]
    batch = realize_batch(nominal, spec.errors, seeds)
    return {p: run_batch(batch, spec.task, p, spec.errors, spec.energy)
            for p in spec.policies}


def run_scenario(spec: ScenarioSpec) -> AggregateResult:
    """Run every policy over ``spec.runs`` paired realizations and aggregate."""
    outcomes = scenario_outcomes(spec)
    summaries = {}
    for p, outcome in outcomes.items():
        summaries[p] = {}
        for m in METRICS:
            vals = getattr(outcome, _METRIC_FIELDS[m])
            summaries[p][m] = MetricSummary(
                mean=float(np.mean(vals)),
                ci95=ci_halfwidth(vals) if len(vals) >= 2 else 0.0,
                n=len(vals),
            )
    return AggregateResult(
        scenario_id=spec.scenario_id,
        summaries=summaries,
        infeasible={p: int(np.count_nonzero(~o.deadline_met)) for p, o in outcomes.items()},
        runs=spec.runs,
        policies=spec.policies,
    )


@dataclass(frozen=True)
class SweepSpec:
    """A scenario re-run across the values of one swept parameter."""

    base: ScenarioSpec
    parameter: str
    values: tuple[float, ...]
    metrics: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEPABLE}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")
        _check_metrics(self.metrics)


def apply_sweep_value(spec: ScenarioSpec, parameter: str, value: float) -> ScenarioSpec:
    """Derive the scenario for one sweep point; ids become 'base@param=value'."""
    sid = f"{spec.scenario_id}@{parameter}={value:g}"
    if parameter == "size_mb":
        return replace(spec, scenario_id=sid, task=replace(spec.task, size_mb=float(value)))
    if parameter == "mobile_factor":
        return replace(spec, scenario_id=sid, mobile_factor=float(value))
    if parameter == "wifi_factor":
        return replace(spec, scenario_id=sid, wifi_factor=float(value))
    if parameter == "backhaul_factor":
        return replace(spec, scenario_id=sid, backhaul_factor=float(value))
    if parameter == "time_error":
        return replace(spec, scenario_id=sid,
                       errors=replace(spec.errors, time_error=float(value)))
    if parameter == "throughput_error":
        return replace(spec, scenario_id=sid,
                       errors=replace(spec.errors, throughput_error=float(value)))
    if parameter == "hotspot_count":
        from .config import load_route  # deferred: config builds on these types

        key = f"{int(value)}ap"
        return replace(spec, scenario_id=sid, route=load_route(key), route_id=key)
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def run_sweep(sweep: SweepSpec) -> list[AggregateResult]:
    return [
        run_scenario(apply_sweep_value(sweep.base, sweep.parameter, v))
        for v in sweep.values
    ]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def result_rows(
    result: AggregateResult, metrics: Optional[Sequence[str]] = None
) -> Iterable[tuple[str, ...]]:
    """Rows in the fixed CSV column order; one per (policy, metric)."""
    keep = tuple(metrics) if metrics else METRICS
    for p in result.policies:
        for m in keep:
            s = result.summaries[p][m]
            yield (
                result.scenario_id,
                p.cli_name,
                m,
                _fmt(s.mean),
                _fmt(s.ci95),
                str(s.n),
                str(result.infeasible[p]),
            )


def render_csv(
    results: Union[AggregateResult, Sequence[AggregateResult]],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Deterministic CSV text for one or many aggregate results."""
    if isinstance(results, AggregateResult):
        results = [results]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        for row in result_rows(r, metrics):
            writer.writerow(row)
    return buf.getvalue()

