"""One field rule on the Python API: every field of every public constructor,
and the checked arguments of ``scale_route``, ``realize_batch``,
``run_trip_stepped``, ``build_prediction``, ``relative_gain`` and
``t_quantile_975``, raises ``ValueError`` naming the field for each bad
value of one pool, never ``TypeError``, ``AttributeError`` or
``OverflowError``, and never runs a bool as a number.

Each value is tried in every field in turn, all other arguments valid, so
the search is exhaustive and needs no seed.  A pool value that is valid for
a field (0 or -0.0 as a start time or an error, None as an optional rate
or a sweep's metric list, a string as a scenario id, a list as a sweep's
values, a huge integer as a seed or hotspot index, None, inf or 0 as a
forecast horizon) must build.
"""

import dataclasses
import math

import numpy as np
import pytest

from offloadsim.config import bundled_scenario_path, load_route, load_scenario
from offloadsim.metrics import (ScenarioSpec, SweepSpec, relative_gain, render_csv,
                                t_quantile_975)
from offloadsim.model import (AccessKind, EnergyModel, RouteProfile, RouteSegment, TrafficClass,
                              TransferTask, scale_route)
from offloadsim.oracle import run_trip_stepped
from offloadsim.policies import Channel, Policy
from offloadsim.prediction import ErrorSpec, build_prediction, realize_batch, realize_route

POOL = {"bool": True, "str": "1", "None": None, "nan": math.nan, "np-nan": np.float64("nan"),
        "inf": math.inf, "-inf": -math.inf, "zero": 0, "-0.0": -0.0, "negative": -1,
        "tiny-negative": -9e-10, "list": [1.0], "huge": 10 ** 400, "enum": Channel.MOBILE}

MOBILE = dict(kind=AccessKind.MOBILE, start_time=0.0, duration=10.0, mobile_rate=5.0)
WIFI = dict(kind=AccessKind.WIFI, start_time=0.0, duration=10.0, wifi_local_rate=10.0,
            backhaul_rate=5.0, hotspot_index=1)
ROUTE = load_route("2ap")
TASK = TransferTask(20.0, 200.0)
SPEC = load_scenario(str(bundled_scenario_path("scenario_dt_default")))


def route(**kw):
    return RouteProfile(**{"segments": (RouteSegment(**MOBILE),), "total_time": 10.0, **kw})


def scaled(**kw):
    return scale_route(**{"route": ROUTE, **kw})


def batch(**kw):
    return realize_batch(**{"route": ROUTE, "errors": ErrorSpec(), "seed": 0, "runs": 2, **kw})


def scenario(**kw):
    return dataclasses.replace(SPEC, **kw)


def sweep(**kw):
    return SweepSpec(**{"base": SPEC, "parameter": "size_mb", "values": (20.0,), **kw})


def stepped(dt):
    return run_trip_stepped(realize_route(ROUTE, ErrorSpec()), ROUTE, TASK,
                            Policy.NO_PREDICTION_OFFLOAD, ErrorSpec(), dt=dt)


# (name, builder of the keyword arguments, the fields, the pool values valid there)
CASES = [
    ("mobile-segment", lambda **kw: RouteSegment(**{**MOBILE, **kw}), {
        "kind": (), "start_time": ("zero", "-0.0"), "duration": (), "mobile_rate": (),
        "wifi_local_rate": ("None",), "backhaul_rate": ("None",), "hotspot_index": ("None",)}),
    ("wifi-segment", lambda **kw: RouteSegment(**{**WIFI, **kw}), {
        "kind": (), "start_time": ("zero", "-0.0"), "duration": (), "mobile_rate": ("None",),
        "wifi_local_rate": (), "backhaul_rate": (), "hotspot_index": ("huge",)}),
    ("route", route, {"segments": (), "total_time": ()}),
    ("task", lambda **kw: TransferTask(**{"size_mb": 20.0, "delay_threshold": 200.0, **kw}), {
        "size_mb": (), "delay_threshold": (), "traffic_class": ()}),
    ("energy", EnergyModel, {f.name: ("zero", "-0.0") for f in dataclasses.fields(EnergyModel)}),
    ("errors", ErrorSpec, {"time_error": ("zero", "-0.0"), "throughput_error": ("zero", "-0.0"),
                           "seed": ("zero", "huge")}),
    ("scenario", scenario, {
        "scenario_id": ("str",), "route": (), "task": (), "policies": (), "mobile_factor": (),
        "wifi_factor": (), "backhaul_factor": (), "errors": (), "runs": (),
        "seed": ("zero", "huge"), "energy": ()}),
    ("sweep", sweep, {"base": (), "parameter": (), "values": ("list",), "metrics": ("None",)}),
    ("scale_route", scaled, {"route": (), "mobile_factor": (), "wifi_factor": (),
                             "backhaul_factor": ()}),
    ("realize_batch", batch, {"seed": ("zero", "huge"), "runs": ()}),
    ("run_trip_stepped", stepped, {"dt": ()}),
    ("build_prediction", lambda horizon: build_prediction(ROUTE, ErrorSpec(), horizon),
     {"horizon": ("None", "inf", "zero", "-0.0")}),
    ("relative_gain", lambda a_mean: relative_gain(a_mean, 1.0), {"a_mean": ("zero", "-0.0")}),
    ("t_quantile_975", t_quantile_975, {"df": ()}),
]


@pytest.mark.parametrize("make,field,valid", [
    pytest.param(make, field, valid, id=f"{name}.{field}")
    for name, make, fields in CASES for field, valid in fields.items()])
def test_every_bad_value_is_named_by_its_field(make, field, valid):
    for label, value in POOL.items():
        if label in valid:
            make(**{field: value})
            continue
        with pytest.raises(ValueError, match=field):
            make(**{field: value})


def test_every_constructor_field_is_covered():
    """A field added later must join the table; a field the constructor
    computes (a sweep's points) takes no argument."""
    covered = {name: set(fields) for name, _, fields in CASES}
    for name, cls in [("mobile-segment", RouteSegment), ("wifi-segment", RouteSegment),
                      ("route", RouteProfile), ("task", TransferTask), ("energy", EnergyModel),
                      ("errors", ErrorSpec), ("scenario", ScenarioSpec), ("sweep", SweepSpec)]:
        assert covered[name] == {f.name for f in dataclasses.fields(cls) if f.init}, name


def test_a_negative_zero_start_is_stored_as_zero(tmp_path):
    """-0.0 is a start of 0.  The segment keeps it as given, but a route
    stores the running sum, 0.0, so every stored start is that sum bit for
    bit, and the route equals the one that starts at 0.0."""
    segment = RouteSegment(**{**MOBILE, "start_time": -0.0})
    assert math.copysign(1.0, segment.start_time) == -1.0
    path = tmp_path / "route.json"
    path.write_text('{"segments": [{"kind": "mobile", "start_time": -0.0, "duration": 10.0, '
                    '"mobile_rate": 5.0}], "total_time": 10.0}')
    for got in (route(segments=(segment,)), load_route(str(path))):
        start = got.segments[0].start_time
        assert start == 0.0 and math.copysign(1.0, start) == 1.0
        assert got == route()


@pytest.mark.parametrize("make,field,value,message", [
    (scenario, "policies", 0, "policies must be a sequence of Policies, got 0"),
    (scenario, "policies", TrafficClass.DELAY_TOLERANT, "policies must be a sequence"),
    (sweep, "metrics", 0, "metrics must be a sequence of metric names, got 0"),
    (scenario, "mobile_factor", [1.0],
     r"mobile_factor must be positive and finite, got \[1.0\]")],
    ids=["policies-int", "policies-enum", "metrics-int", "factor-list"])
def test_a_scenario_names_what_raised_type_error(make, field, value, message):
    """Each raised TypeError: a non-iterable policy list, or metric list
    (once a scenario's, now a sweep's), in the tuple conversion, and a list
    factor in the scaled-route memo's hash."""
    with pytest.raises(ValueError, match=message):
        make(**{field: value})


@pytest.mark.parametrize("values,message", [
    (5, "values must be a sequence of numbers, got 5"),
    (("1",), r"values\[0\] must be finite and >= 0, got '1'"),
    ((20.0, True), r"values\[1\] must be finite and >= 0, got True")],
    ids=["int", "string", "bool"])
def test_a_sweep_takes_its_values_through_the_rule(values, message):
    """5 built and then failed in run_sweep with TypeError, "1" failed on a
    format code, and True ran a 1 MB object."""
    with pytest.raises(ValueError, match=message):
        SweepSpec(SPEC, "size_mb", values)


def test_render_csv_names_a_metrics_list_that_is_no_sequence():
    """It raised TypeError: 'int' object is not iterable."""
    with pytest.raises(ValueError, match="metrics must be a sequence of metric names, got 0"):
        render_csv([], 0)
