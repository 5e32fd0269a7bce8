"""JSON configuration: routes, energy model, scenarios, sweeps.

Bundled under ``offloadsim/data``: three route layouts (``2ap``, ``4ap``,
``8ap``), two default scenarios (``dt-default``, ``ds-default``), and one
sweep recipe per result figure under ``data/recipes``, each naming the
default scenario it sweeps.

Every JSON object is read by :class:`_Object`: each value is parsed under its
dotted path (``dt-default.task.size_mb``), a value the model rejects is named
by the path of its object, and a key nothing reads is an error, except the
free-text notes ``comment``, ``figure`` and ``name``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .metrics import HOTSPOT_COUNTS, SWEEPABLE, ScenarioSpec, SweepSpec, metric_names
from .model import (AccessKind, EnergyModel, RouteProfile, RouteSegment, TrafficClass,
                    TransferTask, check_rate_factors)
from .policies import Policy
from .prediction import ErrorSpec


class ConfigError(Exception):
    """A configuration file is missing, malformed, or inconsistent."""


_BUNDLED_ROUTES = {f"{n}ap" for n in HOTSPOT_COUNTS}
# each bundled scenario's name, as a sweep or the CLI gives it, and its data file
BUNDLED_SCENARIOS = {"dt-default": "scenario_dt_default", "ds-default": "scenario_ds_default"}
_NOTES = frozenset({"comment", "figure", "name"})  # free text, never read
_REQUIRED = object()


def _read_json(source: Union[str, Path], label: str) -> Any:
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal past int's digit limit
        raise ConfigError(f"{label}: invalid JSON in {source}: {exc}") from exc


def checked(path: str, make: Callable, *args, **kwargs) -> Any:
    """``make(*args, **kwargs)``; a ValueError it raises is named by ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class _Object:
    """A JSON object read under its dotted ``path``."""

    def __init__(self, data: Any, path: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {data!r}")
        self.data, self.path, self.read = data, path, set(_NOTES)

    def get(self, key: str, parse: Callable[[Any, str], Any], default: Any = _REQUIRED) -> Any:
        """``parse(value, path)`` of the value at ``key``, or of the JSON value
        ``default`` when the key is absent.  With no default the key is
        required; with default None an absent key reads as None."""
        self.read.add(key)
        path = f"{self.path}.{key}"
        if key in self.data:
            return parse(self.data[key], path)
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing key")
        return None if default is None else parse(default, path)

    def done(self) -> None:
        """Reject the first key nothing read: a misspelt key is not ignored."""
        unknown = sorted(self.data.keys() - self.read)
        if unknown:
            raise ConfigError(f"{self.path}.{unknown[0]}: unknown key")

    def build(self, make: Callable, *args, **kwargs) -> Any:
        """The model object ``make(*args, **kwargs)``, once every key is read;
        a value the model rejects is named by this object's path."""
        self.done()
        return checked(self.path, make, *args, **kwargs)


def parse_factor(value: Union[str, int, float], label: str = "factor") -> float:
    """Accept 0.5, 1, or fraction strings like "1/3"."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{label}: cannot parse rate factor {value!r}") from exc
    return parse_float(value, label)


def parse_float(value: Any, label: str) -> float:
    """A JSON number: ``float`` would read true as 1.0 and "60" as 60.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal past the float range
        raise ConfigError(f"{label}: number out of the float range") from exc


def parse_integer(value: Any, label: str) -> int:
    """A whole JSON number: ``int`` would truncate 3.7 to 3 and read true as 1
    and "7" as 7."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    return int(value)


def json_string(value: Any, label: str) -> str:
    """A string: ``str`` would turn any value into one, and a list is no key."""
    if not isinstance(value, str):
        raise ConfigError(f"{label}: expected a JSON string, got {value!r}")
    return value


def _choice(by_name: dict, kind: str) -> Callable[[Any, str], Any]:
    """A parser of a string that names one of ``by_name``'s values."""
    def parse(value: Any, label: str) -> Any:
        name = json_string(value, label)
        if name not in by_name:
            raise ConfigError(f"{label}: unknown {kind} {name!r}; "
                              f"expected one of {sorted(by_name)}")
        return by_name[name]
    return parse


def _array(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    """A parser of a JSON array whose entries ``parse`` reads, each under its
    index: iterating a string would read it one character at a time."""
    def parse_all(value: Any, label: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{label}: expected a JSON array, got {value!r}")
        return tuple(parse(v, f"{label}[{i}]") for i, v in enumerate(value))
    return parse_all


_policy = _choice({p.cli_name: p for p in Policy}, "policy")


def _metrics(value: Any, label: str) -> tuple:
    """Output metric names, checked by the model's rule under ``label``."""
    try:
        return metric_names(_array(json_string)(value, label), label)
    except ValueError as exc:  # the message names label or its entry
        raise ConfigError(str(exc)) from exc


def parse_policy(name: Any, label: str = "policy") -> Policy:
    return _policy(name, label)


def _segment(data: Any, path: str) -> RouteSegment:
    obj = _Object(data, path)
    kind = obj.get("kind", _choice({k.value: k for k in AccessKind}, "segment kind"))
    names = ("start_time", "duration") + (
        ("mobile_rate",) if kind is AccessKind.MOBILE
        else ("wifi_local_rate", "backhaul_rate"))
    fields = {name: obj.get(name, parse_float) for name in names}
    if kind is AccessKind.WIFI:
        fields["hotspot_index"] = obj.get("hotspot_index", parse_integer)
    return obj.build(RouteSegment, kind=kind, **fields)


def _route_file(data: Any, path: str) -> RouteProfile:
    obj = _Object(data, path)
    return obj.build(RouteProfile, obj.get("segments", _array(_segment)),
                     obj.get("total_time", parse_float))


@functools.cache
def _bundled_route(key: str) -> RouteProfile:
    """A bundled route, parsed once per process (routes are frozen)."""
    return _route_file(_read_json(bundled_scenario_path(f"route_{key}"), key), key)


def _route(ref: Any, label: str) -> RouteProfile:
    """The bundled route ``ref`` names, or the route file at path ``ref``;
    ``label`` names the reference."""
    if json_string(ref, label) in _BUNDLED_ROUTES:
        return _bundled_route(ref)
    return _route_file(_read_json(ref, label), ref)


def load_route(key_or_path: str) -> RouteProfile:
    """Load a bundled route by key ('4ap', '2ap', '8ap') or any JSON path;
    a path is read again on every call."""
    return _route(key_or_path, "route")


def _energy(data: Any, path: str) -> EnergyModel:
    obj = _Object(data, path)
    return obj.build(EnergyModel, **{f.name: obj.get(f.name, parse_float)
                                     for f in dataclasses.fields(EnergyModel)})


def load_energy_model(path: Optional[str] = None) -> EnergyModel:
    """The energy model file at ``path``; with no path, ``EnergyModel()``."""
    return EnergyModel() if path is None else _energy(_read_json(path, "energy model"),
                                                      "energy model")


def _scenario(data: Any, path: str, name: Optional[str] = None) -> ScenarioSpec:
    """The scenario ``data`` read under ``path``; a sweep's base is named ``name``."""
    obj = _Object(data, path)
    route = _route(obj.get("route", json_string, "4ap"), f"{path}.route")
    rates = obj.get("rate_factors", _Object, {})
    factors = {f"{name}_factor": rates.get(name, parse_factor, "1/3")
               for name in ("mobile", "wifi", "backhaul")}
    rates.build(check_rate_factors, **factors)  # named here; the spec scales the route
    task_d = obj.get("task", _Object)
    task = task_d.build(
        TransferTask, size_mb=task_d.get("size_mb", parse_float),
        delay_threshold=task_d.get("delay_threshold_s", parse_float, route.total_time),
        traffic_class=task_d.get("class", _choice({c.value: c for c in TrafficClass},
                                                  "traffic class"), "delay-tolerant"))
    err_d = obj.get("errors", _Object, {})
    errors = err_d.build(ErrorSpec, time_error=err_d.get("time_error", parse_float, 0.10),
                         throughput_error=err_d.get("throughput_error", parse_float, 0.20))
    scenario_id = obj.get("scenario_id", json_string, path)
    return obj.build(
        ScenarioSpec,
        scenario_id=scenario_id if name is None else name,
        route=route,
        task=task,
        policies=obj.get("policies", _array(_policy)),
        **factors,
        errors=errors,
        runs=obj.get("runs", parse_integer, 120),
        seed=obj.get("seed", parse_integer, 0),
        energy=obj.get("energy", _energy, None) or EnergyModel(),
    )


def _sweep(data: Any, path: str) -> SweepSpec:
    """A sweep of the bundled scenario or scenario file its ``scenario`` names,
    resolved as a scenario's ``route`` is; its points are named after ``path``."""
    obj = _Object(data, path)
    metrics = obj.get("metrics", _metrics, None)  # a figure's metrics, read only here
    ref = obj.get("scenario", json_string)
    source = bundled_scenario_path(BUNDLED_SCENARIOS[ref]) if ref in BUNDLED_SCENARIOS else ref
    base = _scenario(_read_json(source, f"{path}.scenario"), ref, path)
    axis = obj.get("sweep", _Object)
    obj.done()
    parameter = axis.get("parameter", _choice({p: p for p in SWEEPABLE}, "sweep parameter"))
    # the spec builds and checks every point, so a bad one fails here, not mid-sweep
    return axis.build(SweepSpec, base=base, parameter=parameter,
                      values=axis.get("values", _array(parse_factor)), metrics=metrics)


def load_scenario(path: str) -> ScenarioSpec:
    return _scenario(_read_json(path, "scenario"), Path(path).stem)


def load_sweep(path: str) -> SweepSpec:
    return _sweep(_read_json(path, "sweep"), Path(path).stem)


def load_experiment(path: str) -> Union[ScenarioSpec, SweepSpec]:
    """Load either kind of file; sweep files carry a 'sweep' key."""
    data = _read_json(path, "experiment")
    parse = _sweep if isinstance(data, dict) and "sweep" in data else _scenario
    return parse(data, Path(path).stem)


def bundled_recipe_path(name: str) -> Path:
    """Filesystem path of a bundled sweep recipe, e.g. 'fig2a'."""
    return bundled_scenario_path(f"recipes/{name}")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled data file, e.g. 'scenario_dt_default'."""
    fname = name if name.endswith(".json") else f"{name}.json"
    with resources.as_file(resources.files("offloadsim.data").joinpath(fname)) as path:
        return Path(path)
