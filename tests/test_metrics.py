import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import offloadsim
from conftest import (RECIPES, clear_memos, edge_routes, make_task, random_route,
                      row_fields)
from offloadsim import metrics, prediction
from offloadsim.config import (bundled_recipe_path, bundled_scenario_path, load_scenario,
                               load_sweep)
from offloadsim.engine import run_policies, run_trip
from offloadsim.model import AccessKind, EnergyModel, RouteProfile, RouteSegment, scale_route
from offloadsim.metrics import (
    METRICS,
    InsufficientSamples,
    MetricSummary,
    ScenarioSpec,
    SweepSpec,
    ci_halfwidth,
    derive_run_seed,
    metric_names,
    relative_gain,
    render_csv,
    run_scenario,
    run_sweep,
    scenario_outcomes,
    t_quantile_975,
)
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, realize_route

DT_POLICIES = (Policy.PREFETCH_DELAY_TOLERANT, Policy.PREDICTION_ONLY_DELAY_TOLERANT,
               Policy.NO_PREDICTION_OFFLOAD)


def make_spec(route, runs=40, seed=0, time_error=0.10, throughput_error=0.20,
              policies=DT_POLICIES, size=60.0, scenario_id="test"):
    return ScenarioSpec(
        scenario_id=scenario_id,
        route=route,
        task=make_task(size),
        policies=policies,
        errors=ErrorSpec(time_error, throughput_error),
        runs=runs,
        seed=seed,
    )


def count_scale_route(monkeypatch) -> list:
    """The argument tuples of every later scale_route call by the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scale_route(*args, **kwargs)

    for module in list(sys.modules.values()):  # every module that calls it
        if module.__name__.startswith("offloadsim") \
                and getattr(module, "scale_route", None) is scale_route:
            monkeypatch.setattr(module, "scale_route", counted)
    return calls


def assert_runs_equal_single_trips(spec):
    """run_scenario's per-run outcomes and its aggregates against run_trip on
    ``realize_route(nominal, replace(errors, seed=derive_run_seed(seed, k)))``."""
    outcomes = scenario_outcomes(spec)
    nominal = spec.scaled_route()
    single = {p: [] for p in spec.policies}
    for k in range(spec.runs):
        errors = replace(spec.errors, seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, errors)
        for p in spec.policies:
            one = run_trip(realized, nominal, spec.task, p, errors, spec.energy)
            single[p].append(one)
            batch = outcomes[p]
            got = (batch.offload_pct[k], batch.transfer_delay[k], batch.energy_j[k],
                   batch.cache_bytes_used[k], batch.deadline_met[k], batch.mobile_mb[k],
                   batch.wifi_local_mb[k], batch.wifi_backhaul_mb[k],
                   batch.plan_infeasible[k])
            want = (one.offload_pct, one.transfer_delay, one.energy_j,
                    one.cache_bytes_used, one.deadline_met, one.mobile_mb,
                    one.wifi_local_mb, one.wifi_backhaul_mb, one.plan_infeasible)
            assert got == want, (spec.scenario_id, k, p)
    result = run_scenario(spec)
    for p, runs in single.items():
        values = {"offload_pct": [o.offload_pct for o in runs],
                  "transfer_delay_s": [o.transfer_delay for o in runs],
                  "energy_j": [o.energy_j for o in runs],
                  "cache_mb": [o.cache_bytes_used for o in runs]}
        for m in METRICS:
            assert result.mean(p, m) == float(np.mean(values[m])), (spec.scenario_id, p, m)
        assert result.infeasible[p] == sum(not o.deadline_met for o in runs)


class TestCiHalfwidth:
    def test_constant_samples(self):
        assert ci_halfwidth([4.2] * 50) == 0.0

    def test_two_point_closed_form(self):
        # t(0.975, 1) * std / sqrt(2) = 12.70620... * 0.70710... / 1.41421...
        assert ci_halfwidth([0.0, 1.0]) == pytest.approx(6.3531023680161837, rel=1e-9)

    def test_uniform_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 1, size=120)
        # closed form: ~1.98 * sqrt(1/12) / sqrt(120) = 0.0517
        assert ci_halfwidth(samples) == pytest.approx(0.0517, rel=0.20)

    def test_unit_variance_noise(self):
        rng = np.random.default_rng(1)
        widths = [ci_halfwidth(rng.normal(0, 1, size=120)) for _ in range(100)]
        assert np.mean(widths) == pytest.approx(1.96 / math.sqrt(120), rel=0.15)

    @pytest.mark.parametrize("samples", [[], [1.0], np.zeros((3, 1)), np.zeros((2, 0))])
    def test_insufficient_samples(self, samples):
        with pytest.raises(InsufficientSamples):
            ci_halfwidth(samples)

    def test_one_number_is_one_sample(self):
        """A 0-d input has no last axis: it once raised a bare IndexError."""
        for sample in (5.0, np.float64(5.0), np.array(5.0)):
            with pytest.raises(InsufficientSamples, match="need at least 2 samples, got 1"):
                ci_halfwidth(sample)

    def test_float_for_one_dimension(self):
        assert type(ci_halfwidth([0.0, 1.0])) is float
        assert type(ci_halfwidth(np.array([4.2, 4.2]))) is float

    @pytest.mark.parametrize("runs", [2, 3, 120, 1000])
    def test_rows_equal_one_dimensional_calls(self, runs):
        """Along the last axis: each row of a 2-D input gets exactly the 1-D
        call's value, constant rows 0.0, for arrays and for nested lists
        alike (1000 samples exercise numpy's blocked summation)."""
        rng = np.random.default_rng(runs)
        rows = np.vstack([rng.normal(50.0, 9.0, (3, runs)), np.full((1, runs), 4.2),
                          rng.uniform(0.0, 1e4, (2, runs))])
        want = [ci_halfwidth(row) for row in rows]
        assert want[3] == 0.0
        for samples in (rows, rows.tolist()):
            got = ci_halfwidth(samples)
            assert got.shape == (len(rows),)
            assert got.tolist() == want

    def test_huge_rows_are_scaled_by_a_power_of_two(self):
        """A row too large to square in np.std is scaled by an exact power of
        two to near 1 first: no overflow, and its half-width is 2^k times the
        scaled row's, as the 1-D call gives it; a row that needs no scale
        keeps its own value."""
        rng = np.random.default_rng(5)
        huge = rng.uniform(1.0, 2.0, (50, 120)) * 10.0 ** rng.uniform(151, 300, (50, 1))
        huge[::2] *= -1.0
        small = rng.uniform(1.0, 2.0, 120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ci_halfwidth(np.vstack([huge, small]))
            k = np.frexp(np.abs(huge).max(axis=1))[1]
            want = np.ldexp(ci_halfwidth(np.ldexp(huge, -k[:, None])), k)
            assert got[:-1].tolist() == want.tolist() == [ci_halfwidth(r) for r in huge]
        assert np.isfinite(got).all() and got[-1] == ci_halfwidth(small)


# t(0.975, df) to 30 significant digits, computed with mpmath 1.3.0 as the
# root of betainc(df/2, 1/2, 0, df/(df + t^2), regularized=True)/2 = 0.025.
T_975 = [
    (1, "12.7062047361747046460216799788"),
    (2, "4.30265272974946385232094389262"),
    (3, "3.18244630528370959272322542578"),
    (4, "2.77644510519779435780310484675"),
    (5, "2.57058183563631551469624621744"),
    (6, "2.44691185114496997107129684555"),
    (7, "2.36462425159278534168090147378"),
    (8, "2.3060041352041666832951209546"),
    (9, "2.26215716279820554260776963794"),
    (10, "2.2281388519862747483954906632"),
    (11, "2.2009851600916398678772003617"),
    (12, "2.17881282966722886632634438349"),
    (13, "2.16036865646279250153067817049"),
    (14, "2.14478668791780382867141224353"),
    (15, "2.13144954555977568214507262373"),
    (16, "2.11990529922125467445570144977"),
    (17, "2.1098155778333170859295550823"),
    (18, "2.10092204024103848806087164373"),
    (19, "2.09302405440830976917731528219"),
    (20, "2.08596344726586484271736086636"),
    (21, "2.07961384472768039512166246231"),
    (22, "2.07387306790402616584647829245"),
    (23, "2.06865761041904865150852478228"),
    (24, "2.06389856162802584924578412368"),
    (25, "2.05953855275329774889290909012"),
    (26, "2.05552943864287321354201677612"),
    (27, "2.05183051648028555615209051521"),
    (28, "2.04840714179524515989388443608"),
    (29, "2.04522964213270429819377222151"),
    (30, "2.04227245630123830995804223203"),
    (40, "2.02107539030627342130113190132"),
    (60, "2.00029782201426050450347266818"),
    (119, "1.98009987645693988874605320174"),
    (120, "1.97993040508244084673127707078"),
    (999, "1.96234146113344997866262468382"),
    (9999, "1.9602012636213576803711134371"),
]


class TestTQuantile:
    @pytest.mark.parametrize("df,exact", T_975)
    def test_reference_table(self, df, exact):
        got = t_quantile_975(df)
        assert abs(Decimal(got) - Decimal(exact)) / Decimal(exact) <= Decimal("4e-15")

    def test_closed_forms(self):
        p = 0.975
        assert t_quantile_975(1) == math.tan(0.475 * math.pi)
        assert t_quantile_975(2) == (2 * p - 1) / math.sqrt(2 * p * (1 - p))

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError):
            t_quantile_975(0)

    def test_halfwidth_uses_quantile(self):
        samples = [0.0, 1.0, 3.0]
        s = float(np.std(samples, ddof=1))
        assert ci_halfwidth(samples) == t_quantile_975(2) * s / math.sqrt(3)


def test_package_import_loads_no_scipy():
    """Importing the package and its CLI must not pull in scipy, the slowest import it had."""
    env = dict(os.environ, PYTHONPATH=str(Path(offloadsim.__file__).resolve().parents[1]))
    code = ("import sys, offloadsim, offloadsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestRelativeGain:
    def test_equal_means(self):
        assert relative_gain(5.0, 5.0) == 0.0

    def test_higher_is_better(self):
        assert relative_gain(1.65 * 3.0, 3.0) == pytest.approx(65.0)

    def test_lower_is_better(self):
        assert relative_gain(0.7 * 80.0, 80.0, lower_is_better=True) == pytest.approx(30.0)

    def test_zero_baseline_guarded(self):
        with pytest.raises(ValueError):
            relative_gain(1.0, 0.0)

    @pytest.mark.parametrize("baseline", [math.nan, math.inf, -math.inf, -1.0])
    def test_baseline_not_positive_and_finite(self, baseline):
        """A NaN or infinite baseline once returned NaN."""
        with pytest.raises(ValueError, match="baseline mean must be positive"):
            relative_gain(1.0, baseline)


class TestDeriveRunSeed:
    def test_stable_and_distinct(self):
        a = derive_run_seed(0, 0)
        assert a == derive_run_seed(0, 0)
        assert len({derive_run_seed(0, k) for k in range(100)}) == 100
        assert derive_run_seed(0, 1) != derive_run_seed(1, 0)


class TestRunScenario:
    def test_zero_error_collapses_ci(self, route_4ap):
        spec = make_spec(route_4ap, runs=10, time_error=0.0, throughput_error=0.0)
        result = run_scenario(spec)
        for p in spec.policies:
            for metric in METRICS:
                assert result.summaries[p][metric].ci95 == 0.0

    def test_deterministic_metric_mean_is_single_run_value(self, route_4ap):
        spec = make_spec(route_4ap, runs=5, time_error=0.0, throughput_error=0.0)
        result = run_scenario(spec)
        spec1 = replace(spec, runs=2)
        result1 = run_scenario(spec1)
        for p in spec.policies:
            assert result.mean(p, "offload_pct") == pytest.approx(
                result1.mean(p, "offload_pct"), abs=1e-12)

    def test_policy_ordering_at_defaults(self, route_4ap):
        spec = make_spec(route_4ap, runs=60)
        result = run_scenario(spec)
        prefetch = result.mean(Policy.PREFETCH_DELAY_TOLERANT, "offload_pct")
        prediction = result.mean(Policy.PREDICTION_ONLY_DELAY_TOLERANT, "offload_pct")
        nothing = result.mean(Policy.NO_PREDICTION_OFFLOAD, "offload_pct")
        assert prefetch > prediction > nothing

    def test_runs_equal_single_trips(self, route_2ap, route_4ap, route_8ap):
        """Each run of a scenario equals run_trip on its own realization, with
        no tolerance, so every policy of a run saw the same realized route and
        the trip loop's array form agrees with its float form."""
        rng = np.random.default_rng(41)
        in_hotspot = 0
        cases = [(route, 1 / 3, 8) for route in (route_2ap, route_4ap, route_8ap)]
        cases += [(random_route(rng), 1.0, 5) for _ in range(30)]
        cases += [(r, 1.0, 5) for _ in range(2) for r in edge_routes(rng)]
        for case, (route, factor, runs) in enumerate(cases):
            if route.hotspots and rng.random() < 0.5:
                hotspot = route.hotspots[int(rng.integers(route.n_hotspots))]
                threshold = hotspot.start_time + hotspot.duration * float(rng.uniform(0.1, 0.9))
                in_hotspot += 1
            else:
                threshold = route.total_time * float(rng.uniform(0.3, 1.2))
            size = float(rng.uniform(0.5, 120))
            errors = ErrorSpec(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.8)))
            for sensitive in (False, True):
                task = make_task(size, threshold=threshold, sensitive=sensitive)
                spec = ScenarioSpec(
                    scenario_id=f"case{case}", route=route, task=task,
                    policies=tuple(p for p in Policy if p.admits(task.traffic_class)),
                    mobile_factor=factor, wifi_factor=factor, backhaul_factor=factor,
                    errors=errors, runs=runs, seed=case)
                assert_runs_equal_single_trips(spec)
        assert in_hotspot >= 10

    @pytest.mark.parametrize("name", ["scenario_dt_default", "scenario_ds_default"])
    @pytest.mark.parametrize("runs", [1, 2, 120])
    def test_summaries_equal_one_dimensional_aggregates(self, name, runs):
        """The one-pass aggregation gives, for every policy and metric, the
        mean and CI of that metric's own 1-D array, bit for bit."""
        spec = replace(load_scenario(str(bundled_scenario_path(name))), runs=runs)
        outcomes = scenario_outcomes(spec)
        result = run_scenario(spec)
        for p in spec.policies:
            for m, field in (("offload_pct", "offload_pct"),
                             ("transfer_delay_s", "transfer_delay"),
                             ("energy_j", "energy_j"), ("cache_mb", "cache_bytes_used")):
                vals = getattr(outcomes[p], field)
                s = result.summaries[p][m]
                assert type(s.mean) is float and type(s.ci95) is float
                assert s.mean == float(np.mean(vals)), (name, p, m)
                assert s.ci95 == (ci_halfwidth(vals) if runs >= 2 else 0.0), (name, p, m)
                assert s.n == runs

    def test_ci_shrinks_with_sqrt_n(self, route_4ap):
        small = run_scenario(make_spec(route_4ap, runs=120))
        large = run_scenario(make_spec(route_4ap, runs=480))
        p = Policy.PREFETCH_DELAY_TOLERANT
        ratio = (large.summaries[p]["offload_pct"].ci95
                 / small.summaries[p]["offload_pct"].ci95)
        assert ratio == pytest.approx(0.5, rel=0.25)

    def test_run_count_floor(self, route_4ap):
        with pytest.raises(ValueError):
            make_spec(route_4ap, runs=0)

    @pytest.mark.parametrize("name,value", [("runs", 3.0), ("runs", True), ("seed", 0.9),
                                            ("seed", 1.0), ("seed", False)])
    def test_run_count_and_seed_are_integers(self, route_4ap, fresh_memos, name, value):
        """A fractional seed would run as its integer part, and a float run
        count would be served by the memoized aggregate of its integer twin."""
        spec = make_spec(route_4ap, runs=3)
        run_scenario(spec)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            replace(spec, **{name: value})

    def test_lists_become_tuples(self, route_4ap):
        """Policies given as a list run, and equal the scenario given a tuple:
        a list failed to hash in the aggregate memo.  A sweep's metrics list
        becomes a tuple too."""
        spec = replace(make_spec(route_4ap, runs=3), policies=list(DT_POLICIES))
        assert spec.policies == DT_POLICIES
        assert run_scenario(spec).summaries == run_scenario(make_spec(route_4ap,
                                                                      runs=3)).summaries
        sweep = SweepSpec(spec, "size_mb", (60.0,), metrics=["offload_pct", "energy_j"])
        assert sweep.metrics == ("offload_pct", "energy_j")

    def test_a_lone_name_is_one_entry(self, route_4ap):
        """A string or a bare Policy given as a scenario's policies, and a
        string given as a sweep's metrics, is one entry: a string was split
        into its characters."""
        spec = replace(make_spec(route_4ap, runs=3), policies=DT_POLICIES[0])
        assert spec.policies == DT_POLICIES[:1]
        assert SweepSpec(spec, "size_mb", (60.0,), metrics="offload_pct").metrics \
            == ("offload_pct",)

    @pytest.mark.parametrize("name,value,message", [
        ("policies", ("prefetch-dt",), r"policies\[0\] must be a Policy, got 'prefetch-dt'"),
        ("policies", "prefetch-dt", r"policies\[0\] must be a Policy, got 'prefetch-dt'"),
        ("policies", (None,), r"policies\[0\] must be a Policy, got None"),
        ("sweep.metrics", "offload-pct", "unknown metric 'offload-pct'"),
        ("task", {"size_mb": 60.0}, "task must be TransferTask, got {"),
        ("errors", (0.1, 0.2), r"errors must be ErrorSpec, got \(0.1"),
        ("energy", {}, "energy must be EnergyModel, got {"),
        ("route", "4ap", "route must be RouteProfile, got .4ap"),
        ("mobile_factor", "1/3", "mobile_factor must be positive and finite"),
        ("wifi_factor", True, "wifi_factor must be positive and finite")],
        ids=["policy-name", "policy-string", "policy-none", "metric-string", "task-dict", "errors-tuple",
             "energy-dict", "route-name", "factor-string", "factor-bool"])
    def test_mistyped_input_names_its_field(self, name, value, message):
        """A value of the wrong type raises ValueError naming the field: it
        raised AttributeError or TypeError from deep inside the checks, or
        ran a bool as 1.  A ``sweep.`` field is a field of a sweep of the
        scenario."""
        spec = load_scenario(str(bundled_scenario_path("scenario_dt_default")))
        with pytest.raises(ValueError, match=message):
            if name.startswith("sweep."):
                SweepSpec(spec, "size_mb", (60.0,), **{name.removeprefix("sweep."): value})
            else:
                replace(spec, **{name: value})

    def test_a_realized_total_time_past_the_float_range_is_rejected(self):
        """A 1.5e308 s route is finite, but at time error 0.5 a realization
        of it may last 2.25e308 s, past the float range."""
        route = RouteProfile((RouteSegment(AccessKind.MOBILE, 0.0, 1.5e308, mobile_rate=1.0),),
                             1.5e308)
        with pytest.raises(ValueError, match="realized total time overflows at time error 0.5"):
            ScenarioSpec("long", route, make_task(1.0), (Policy.MOBILE_ONLY,),
                         errors=ErrorSpec(0.5, 0.0))

    def test_the_total_time_bound_sums_the_realized_durations(self):
        """The bound on every realized end is the durations times ``1 + te``
        summed left to right by ``+``, bit for bit, as a realization sums
        them: not ``math.fsum`` (nor builtin ``sum()``, compensated from
        Python 3.12 on), and not ``total_time * (1 + te)``."""
        te = 0.5
        route = RouteProfile(tuple(RouteSegment(AccessKind.MOBILE, start, d, mobile_rate=1.0)
                                   for start, d in ((0.0, 1.0), (1.0, 1e-16), (1.0, 1e-16))),
                             1.0)
        longest = 0.0
        for seg in route.segments:
            longest += seg.duration * (1 + te)
        grown = [seg.duration * (1 + te) for seg in route.segments]
        assert longest != math.fsum(grown) and longest != route.total_time * (1 + te)
        assert prediction.check_realizable(route, te, 0.0) == longest
        assert all(realize_route(route, ErrorSpec(te, 0.0, seed)).total_time <= longest
                   for seed in range(200))

    def test_errors_carry_no_run_seed(self, route_4ap):
        """The runs are seeded by the scenario's ``seed``; an ``errors.seed``
        would change no result but split the aggregate memo, so it must be 0."""
        spec = make_spec(route_4ap)
        with pytest.raises(ValueError, match="errors.seed must be 0, got 5"):
            replace(spec, errors=replace(spec.errors, seed=5))

    def test_scaled_route_is_built_once(self, route_4ap):
        """The spec's scaled route is the one scale_route builds at its
        factors, built once; a replaced factor gets a route of its own."""
        spec = make_spec(route_4ap)
        assert spec.scaled_route() is spec.scaled_route()
        assert spec.scaled_route() == scale_route(route_4ap, 1 / 3, 1 / 3, 1 / 3)
        faster = replace(spec, mobile_factor=1.0)
        assert faster.scaled_route() == scale_route(route_4ap, 1.0, 1 / 3, 1 / 3)
        assert replace(spec) == spec and hash(replace(spec)) == hash(spec)

    @pytest.mark.parametrize("name,built", [("dt-default", 1), ("fig2a", 1)])
    def test_loading_scales_each_route_once(self, monkeypatch, fresh_memos, name, built):
        """Loading builds each scenario's scaled route once: dt-default its
        own, fig2a its base's, which its 5 size points share; no throwaway
        route checks the rate factors, and a recipe's metrics list goes into
        its base as the base is built."""
        calls = count_scale_route(monkeypatch)
        if name == "fig2a":
            load_sweep(str(bundled_recipe_path(name)))
        else:
            load_scenario(str(bundled_scenario_path("scenario_dt_default")))
        assert len(calls) == built

    @pytest.mark.parametrize("parameter,value,shared", [
        ("size_mb", 30, True), ("time_error", 0.3, True), ("throughput_error", 0.4, True),
        ("mobile_factor", 0.5, False), ("backhaul_factor", 1.0, False),
        ("hotspot_count", 8, False)])
    def test_sweep_points_share_the_scaled_route(self, route_4ap, parameter, value,
                                                 shared):
        """A point whose parameter leaves the rates alone reuses its base's
        scaled route object; any other point gets its own."""
        base = make_spec(route_4ap)
        (point,) = SweepSpec(base, parameter, (value,)).points
        assert (point.scaled_route() is base.scaled_route()) == shared
        assert point.scaled_route() == scale_route(point.route, point.mobile_factor,
                                                   point.wifi_factor, point.backhaul_factor)

    def test_single_run_reports_zero_ci(self, route_4ap):
        result = run_scenario(make_spec(route_4ap, runs=1))
        for p in DT_POLICIES:
            s = result.summaries[p]["offload_pct"]
            assert s.n == 1 and s.ci95 == 0.0

    def test_infeasible_runs_reported(self, route_4ap):
        spec = make_spec(route_4ap, runs=10, size=10_000.0)
        result = run_scenario(spec)
        assert result.infeasible[Policy.PREFETCH_DELAY_TOLERANT] == 10


class TestDrawMemo:
    """The draws are cached per (seed, runs, draw count)."""

    def test_results_do_not_depend_on_call_order(self, fresh_memos, route_2ap, route_4ap,
                                                 route_8ap):
        """A, then points that differ from it in route length, seed, run count
        or rates only, then A again: each equals run_trip on its own
        realizations, and A's two results are equal."""
        a = make_spec(route_4ap, runs=30, seed=0, scenario_id="A")
        points = [
            a,
            replace(a, scenario_id="B", route=route_8ap),  # more draws per run
            replace(a, scenario_id="B2", route=route_2ap),  # fewer
            replace(a, scenario_id="C", seed=7),
            replace(a, scenario_id="D", runs=17),
            replace(a, scenario_id="D2", runs=45),
            replace(a, scenario_id="E", mobile_factor=0.5,
                    errors=ErrorSpec(0.3, 0.1)),  # the same draws as A
            a,
        ]
        results = []
        for spec in points:
            assert all(o.offload_pct.shape == (spec.runs,)
                       for o in scenario_outcomes(spec).values())
            assert_runs_equal_single_trips(spec)
            results.append(run_scenario(spec))
        assert results[-1] == results[0]

    def test_memoized_draws_are_read_only(self, route_4ap):
        spec = make_spec(route_4ap, runs=5, seed=3)
        batch = prediction.realize_batch(spec.scaled_route(), spec.errors, 3, 5)
        n = prediction._route_index(route_4ap).draw_count
        draws = prediction._draw_matrix(3, 5, n)
        assert draws.shape == (n, 5)
        with pytest.raises(ValueError):
            draws[0, 0] = 0.0
        # the batch is the caller's own: new writable arrays, not views of the memo
        for row in batch.segments:
            for values in row_fields(row).values():
                assert values.flags.writeable
                assert not np.shares_memory(values, draws)

    def test_figures_fill_each_cache_once_per_key(self):
        """All 20 recipes in one process, from empty caches, in recipe order
        and in two shuffled ones: each cache misses once per distinct key and
        evicts nothing, so each bound holds the recipes whole.  They hold 44
        distinct scenarios, 12 (route, rate factors) pairs, so 12 route
        indexes, and 3 draw shapes (seed 0 and 120 runs on the 2-, 4- and
        8-hotspot layouts); the forecast cache walks 18 keys, each building
        all of its route's forecasts, in any order, and the realizability
        check runs once for each of 18 (route, time error, throughput error)
        keys, loading included."""
        for shuffle in (None, 8, 3):
            clear_memos()
            order = list(RECIPES)
            if shuffle is not None:
                random.Random(shuffle).shuffle(order)
            sweeps = [load_sweep(str(bundled_recipe_path(name))) for name in order]
            for sweep in sweeps:
                run_sweep(sweep)
            bases = [sweep.base for sweep in sweeps]
            points = [point for s in sweeps for point in s.points]
            assert len(points) == 82
            pairs = {(s.route, (s.mobile_factor, s.wifi_factor, s.backhaul_factor))
                     for s in bases + points}
            keys = {
                metrics._aggregate: len(set(points)),
                metrics._scale: len(pairs),
                prediction._route_index: len({scale_route(r, *f) for r, f in pairs}),
                prediction._draw_matrix: len({(s.seed, s.runs, 2 * len(s.route.segments)
                                               + s.route.n_hotspots) for s in points}),
                prediction._walk: 18,
                prediction.check_realizable: 18,
            }
            assert list(keys.values())[:4] == [44, 12, 12, 3]
            for cache, distinct in keys.items():
                info = cache.cache_info()
                assert info.misses == info.currsize == distinct, (shuffle, cache.__name__)

    def test_a_second_load_hashes_no_segment(self, monkeypatch):
        """Once the 20 recipes are loaded and run, loading and running them
        again hashes no route segment: each route hashes its value once."""
        def load_and_run():
            for name in RECIPES:
                run_sweep(load_sweep(str(bundled_recipe_path(name))))

        load_and_run()
        hashed = []
        segment_hash = RouteSegment.__hash__

        def counted(seg):
            hashed.append(seg)
            return segment_hash(seg)

        monkeypatch.setattr(RouteSegment, "__hash__", counted)
        hash(RouteSegment(AccessKind.MOBILE, 0.0, 1.0, mobile_rate=1.0))
        assert len(hashed) == 1  # the counter counts
        load_and_run()
        assert len(hashed) == 1

    @pytest.mark.parametrize("seed", [3, 8])
    def test_figures_scale_each_route_once(self, monkeypatch, fresh_memos, seed):
        """Loading and running all 20 recipes in one process, in any order,
        builds each of their 12 distinct (route, rate factors) pairs once."""
        calls = count_scale_route(monkeypatch)
        order = list(RECIPES)
        random.Random(seed).shuffle(order)
        sweeps = [load_sweep(str(bundled_recipe_path(name))) for name in order]
        for sweep in sweeps:
            for value in sweep.values:  # as perfbench runs them: one point at a time
                run_sweep(replace(sweep, values=(value,)))
        assert len(calls) == len({(id(args[0]), args[1:]) for args in calls}) == 12


def figure_points():
    return [point for name in RECIPES
            for point in load_sweep(str(bundled_recipe_path(name))).points]


class TestAggregateMemo:
    """run_scenario runs each distinct scenario once per process, keyed by
    every compared field but scenario_id and metrics, and hands back results
    equal to fresh runs."""

    @staticmethod
    def fresh(spec):
        metrics._aggregate.cache_clear()
        return run_scenario(spec)

    @pytest.fixture
    def ran(self, monkeypatch, fresh_memos):
        """The specs that reach the trip loop, in call order."""
        specs = []

        def counted(spec):
            specs.append(spec)
            return scenario_outcomes(spec)

        monkeypatch.setattr(metrics, "scenario_outcomes", counted)
        return specs

    def test_figure_points_equal_fresh_runs(self):
        """All 82 figure points, twice in shuffled orders through the memo,
        each equal to its own memo-free run; 44 of them are distinct."""
        points = figure_points()
        assert len(points) == 82
        want = [self.fresh(spec) for spec in points]
        metrics._aggregate.cache_clear()
        for seed in (1, 2):
            order = list(range(len(points)))
            random.Random(seed).shuffle(order)
            for i in order:
                got = run_scenario(points[i])
                assert got == want[i], points[i].scenario_id
                assert render_csv([got]) == render_csv([want[i]])
            assert metrics._aggregate.cache_info().currsize == 44

    def test_results_do_not_share_dicts(self, route_4ap):
        spec = make_spec(route_4ap, runs=5)
        want = self.fresh(spec)
        first = run_scenario(spec)
        p = spec.policies[0]
        first.summaries[p]["offload_pct"] = MetricSummary(-1.0, -1.0, 0)
        del first.summaries[spec.policies[1]]
        first.infeasible[p] = 99
        first.infeasible.clear()
        again = run_scenario(spec)
        assert again == want and again.summaries is not first.summaries

    def test_every_keyed_field_misses_and_id_or_metrics_hit(self, route_4ap, route_8ap,
                                                            ran):
        """Every compared field is a key; the id is not, and output metrics,
        a sweep's, are no field of the scenario at all."""
        base = make_spec(route_4ap, runs=4)
        misses = [
            replace(base, seed=1),
            replace(base, runs=5),
            replace(base, policies=base.policies[::-1]),
            replace(base, task=make_task(61.0)),
            replace(base, errors=ErrorSpec(0.15, 0.20)),
            replace(base, errors=ErrorSpec(0.10, 0.25)),
            replace(base, mobile_factor=0.5),
            replace(base, wifi_factor=0.5),
            replace(base, backhaul_factor=0.5),
            replace(base, energy=EnergyModel(mobile_transfer_j_per_mb=90.0)),
            replace(base, route=route_8ap),
        ]
        hits = [
            replace(base, scenario_id="other"),
            replace(base, route=RouteProfile(route_4ap.segments, route_4ap.total_time)),
        ]
        # the key is every compared field, the id is not compared, and the
        # misses change each keyed field
        assert [f.name for f in fields(ScenarioSpec) if not f.compare] == ["scenario_id"]
        keyed = {f.name for f in fields(ScenarioSpec) if f.compare}
        assert {f for spec in misses for f in keyed
                if getattr(spec, f) != getattr(base, f)} == keyed
        want = run_scenario(base)
        for spec in hits:
            got = run_scenario(spec)
            assert got.scenario_id == spec.scenario_id and got.policies == spec.policies
            assert got._replace(scenario_id=base.scenario_id) == want
        assert ran == [base]
        for spec in misses:
            got = run_scenario(spec)
            assert ran[-1] is spec
            assert got.policies == spec.policies
        assert len(ran) == 1 + len(misses)
        assert run_scenario(replace(base, policies=base.policies[::-1])) \
            == self.fresh(replace(base, policies=base.policies[::-1]))

    def test_memo_is_bounded_lru(self, route_2ap, ran):
        kept = metrics._aggregate.cache_parameters()["maxsize"]
        assert kept >= 64
        specs = [make_spec(route_2ap, runs=2, seed=seed, policies=DT_POLICIES[:1])
                 for seed in range(kept + 2)]
        for spec in specs[:kept]:
            run_scenario(spec)
        run_scenario(specs[0])  # now the most recent
        for spec in specs[kept:]:
            run_scenario(spec)
        assert metrics._aggregate.cache_info().currsize == kept and len(ran) == kept + 2
        run_scenario(specs[0])  # kept: used after the others
        assert len(ran) == kept + 2
        run_scenario(specs[1])  # evicted: the least recently used
        assert ran[-1] is specs[1] and len(ran) == kept + 3
        assert metrics._aggregate.cache_info().currsize == kept


# every per-run field of a RunOutcome, and of its energy
OUTCOME_FIELDS = ("offload_pct", "transfer_delay", "mobile_mb", "wifi_local_mb",
                  "wifi_backhaul_mb", "cache_bytes_used", "completed", "deadline_met",
                  "plan_infeasible")
ENERGY_FIELDS = ("mobile_j", "wifi_transfer_j", "wifi_idle_j")


def assert_outcomes_equal(got, want, label):
    for name in OUTCOME_FIELDS:
        assert (getattr(got, name) == getattr(want, name)).all(), (label, name)
    for name in ENERGY_FIELDS:
        assert (getattr(got.energy, name) == getattr(want.energy, name)).all(), (label, name)


class TestColumnPass:
    """A scenario runs its policies in one pass over its one batch, policy p
    in row p of the pass's (P, runs) arrays; every row equals its policy's
    own single-policy run_policies on the same batch."""

    def test_every_figure_point_equals_single_policy_batches(self):
        points = 0
        for name in RECIPES:
            for spec in load_sweep(str(bundled_recipe_path(name))).points:
                outcomes = scenario_outcomes(spec)
                assert tuple(outcomes) == spec.policies
                batch = prediction.realize_batch(spec.scaled_route(), spec.errors,
                                                 spec.seed, spec.runs)
                for p, got in outcomes.items():
                    assert got.offload_pct.shape == (spec.runs,)
                    want = run_policies(batch, spec.task, (p,), spec.errors, spec.energy)[p]
                    assert_outcomes_equal(got, want, (spec.scenario_id, p))
                points += 1
        assert points == 82

    def test_blocks_are_views_of_one_pass(self, route_4ap):
        """Each policy's outcome is a view of its row of one (P, runs) array."""
        outcomes = list(scenario_outcomes(make_spec(route_4ap, runs=7)).values())
        whole = outcomes[0].offload_pct.base
        assert whole is not None and whole.shape == (3, 7)
        assert all(o.offload_pct.base is whole for o in outcomes)
        assert [o.offload_pct.shape for o in outcomes] == [(7,)] * 3

    def test_realized_rows_hold_each_run_once(self, monkeypatch, route_4ap):
        """A 3-policy scenario realizes (runs,) rows, not one copy per policy."""
        batches = []

        def kept(*args):
            batches.append(prediction.realize_batch(*args))
            return batches[-1]

        monkeypatch.setattr(metrics, "realize_batch", kept)
        scenario_outcomes(make_spec(route_4ap, runs=7))
        (batch,) = batches
        for row in batch.segments:
            assert all(values.shape == (7,) for values in row_fields(row).values())


class TestSweep:
    def test_values_required(self, route_4ap):
        with pytest.raises(ValueError):
            SweepSpec(base=make_spec(route_4ap), parameter="size_mb", values=())

    def test_unknown_parameter_rejected(self, route_4ap):
        with pytest.raises(ValueError):
            SweepSpec(base=make_spec(route_4ap), parameter="nonsense", values=(1,))

    def test_each_parameter_applies(self, route_4ap):
        spec = make_spec(route_4ap)

        def point(parameter, value):
            (built,) = SweepSpec(spec, parameter, (value,)).points
            return built

        assert point("size_mb", 30).task.size_mb == 30
        assert point("mobile_factor", 0.5).mobile_factor == 0.5
        assert point("wifi_factor", 0.5).wifi_factor == 0.5
        assert point("backhaul_factor", 1.0).backhaul_factor == 1.0
        assert point("time_error", 0.3).errors.time_error == 0.3
        assert point("throughput_error", 0.6).errors.throughput_error == 0.6
        swapped = point("hotspot_count", 2)
        assert swapped.route.n_hotspots == 2
        assert swapped.scenario_id == "test@hotspot_count=2"

    def test_run_sweep_keys_results(self, route_4ap):
        sweep = SweepSpec(base=make_spec(route_4ap, runs=4, time_error=0.0,
                                         throughput_error=0.0),
                          parameter="size_mb", values=(30.0, 60.0))
        results = run_sweep(sweep)
        assert [r.scenario_id for r in results] == ["test@size_mb=30", "test@size_mb=60"]


class TestCsv:
    def test_fixed_columns_and_determinism(self, route_4ap):
        spec = make_spec(route_4ap, runs=4)
        result = run_scenario(spec)
        text = render_csv([result])
        again = render_csv([run_scenario(spec)])
        assert text == again
        header = text.splitlines()[0]
        assert header == "scenario_id,policy,metric,mean,ci95,n,infeasible_count"
        rows = text.splitlines()[1:]
        assert len(rows) == len(spec.policies) * len(METRICS)

    @pytest.mark.parametrize("names,message", [
        ((), "expected at least one metric"),
        (("offload_pct", "offload_pct"), "metric offload_pct is listed twice"),
        (("energy_j", "bogus"), "unknown metric 'bogus'")])
    def test_metric_list_rule(self, route_4ap, names, message):
        """metric_names is the one rule for a metric list, which a sweep and
        render_csv both take: at least one metric, each known and once.  Only
        None means every metric."""
        spec = make_spec(route_4ap, runs=3)
        with pytest.raises(ValueError, match=message):
            metric_names(names)
        with pytest.raises(ValueError, match=message):
            SweepSpec(spec, "size_mb", (60.0,), metrics=names)
        result = run_scenario(spec)
        with pytest.raises(ValueError, match=message):
            render_csv([result], names)
        rows = render_csv([result], None).splitlines()[1:]
        assert len(rows) == len(spec.policies) * len(METRICS)

    def test_a_lone_metric_name_is_one_entry(self, route_4ap):
        """render_csv reads a lone name as one entry, as a sweep does: it
        raised ``metrics[0]: unknown metric 'o'``."""
        results = [run_scenario(make_spec(route_4ap, runs=3))]
        assert render_csv(results, "offload_pct") == render_csv(results, ("offload_pct",))
        assert metric_names("offload_pct") == ("offload_pct",)

    def test_metric_filter(self, route_4ap):
        spec = make_spec(route_4ap, runs=4)
        text = render_csv([run_scenario(spec)], metrics=("offload_pct",))
        rows = text.splitlines()[1:]
        assert len(rows) == len(spec.policies)
        assert all(",offload_pct," in r for r in rows)
