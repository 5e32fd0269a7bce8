"""JSON configuration: routes, energy model, scenarios, sweeps.

Bundled under ``offloadsim/data``: three route layouts (``2ap``, ``4ap``,
``8ap``), two default scenarios (``dt-default``, ``ds-default``), and one
sweep recipe per result figure (``fig2a`` ... ``fig9b``), each naming the
default scenario it sweeps.  A loader's argument, a scenario's ``route`` and a
sweep's ``scenario`` each name a file or a bundled name by one rule, :func:`_resolve`.

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
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .metrics import HOTSPOT_COUNTS, SWEEPABLE, ScenarioSpec, SweepSpec, metric_names
from .model import (AccessKind, EnergyModel, RouteProfile, RouteSegment, TrafficClass,
                    TransferTask, check_rate_factors)
from .policies import Policy
from .prediction import ErrorSpec


class ConfigError(Exception):
    """A configuration file is missing, malformed, or inconsistent."""


# each bundled name, as a reference gives it, and its data file
ROUTES = {f"{n}ap": f"route_{n}ap" for n in HOTSPOT_COUNTS}
BUNDLED_SCENARIOS = {"dt-default": "scenario_dt_default", "ds-default": "scenario_ds_default"}
RECIPES = {f"fig{n}": f"recipes/fig{n}" for n in
           "2a 2b 3a 3b 3c 3d 4a 4b 5a 5b 6a 6b 7a 7b 7c 7d 8a 8b 9a 9b".split()}
_EXPERIMENTS = {**BUNDLED_SCENARIOS, **RECIPES}  # what a loader or the CLI names
_DATA = Path(__file__).with_name("data")  # the package data, installed beside this module
_NOTES = frozenset({"comment", "figure", "name"})  # free text, never read
_REQUIRED = object()


def _read_json(source: Union[str, Path], label: str) -> Any:
    try:
        text = Path(source).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # also a NUL in the path, or a non-UTF-8 file
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


def _resolve(ref: Any, label: str, names: dict[str, str],
             base: Path = Path()) -> tuple[Path, Optional[str]]:
    """The file at ``ref``, a relative ``ref`` taken from ``base`` (the directory
    of the file that names it), and None; else the data file and name of the
    bundled name ``ref``, with or without ``.json``, in ``names``; else the path
    tried, whose read fails under ``label``."""
    path = base / json_string(ref, label)
    name = ref.removesuffix(".json")
    if path.is_file() or name not in names:
        return path, None
    return bundled_scenario_path(names[name]), name


@functools.cache
def bundled_route(name: str) -> RouteProfile:
    """A bundled route by name, parsed once per process (routes are frozen)."""
    return _route_file(_read_json(bundled_scenario_path(ROUTES[name]), name), name)


def _route(ref: Any, label: str, base: Path = Path()) -> RouteProfile:
    """The route ``ref`` names, from ``base``; ``label`` names the reference."""
    path, name = _resolve(ref, label, ROUTES, base)
    return bundled_route(name) if name else _route_file(_read_json(path, label), ref)


def load_route(ref: str) -> RouteProfile:
    """A route file or bundled name ('2ap', '4ap', '8ap'); a file is read
    again on every call."""
    return _route(ref, "route")


def _energy(data: Any, path: str) -> EnergyModel:
    obj = _Object(data, path)
    return obj.build(EnergyModel, **{f.name: obj.get(f.name, parse_float)
                                     for f in dataclasses.fields(EnergyModel)})


def load_energy_model(path: Optional[str] = None) -> EnergyModel:
    """The energy model file at ``path``; with no path, ``EnergyModel()``."""
    return EnergyModel() if path is None else _energy(_read_json(path, "energy model"),
                                                      "energy model")


def _scenario(data: Any, path: str, base: Path, name: Optional[str] = None) -> ScenarioSpec:
    """The scenario ``data`` of a file in ``base``, under ``path``; a sweep's base is ``name``."""
    obj = _Object(data, path)
    route = obj.get("route", functools.partial(_route, base=base), None) or bundled_route("4ap")
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


def _sweep(data: Any, path: str, base: Path) -> SweepSpec:
    """A sweep of a file in ``base``, of the scenario its ``scenario`` names;
    its points are named after ``path``."""
    obj = _Object(data, path)
    metrics = obj.get("metrics", _metrics, None)  # a figure's metrics, read only here
    ref = obj.get("scenario", json_string)
    source, _ = _resolve(ref, f"{path}.scenario", BUNDLED_SCENARIOS, base)
    scenario = _scenario(_read_json(source, f"{path}.scenario"), ref, source.parent, path)
    axis = obj.get("sweep", _Object)
    obj.done()
    parameter = axis.get("parameter", _choice({p: p for p in SWEEPABLE}, "sweep parameter"))
    # the spec builds and checks every point, so a bad one fails here, not mid-sweep
    return axis.build(SweepSpec, base=scenario, parameter=parameter,
                      values=axis.get("values", _array(parse_factor)), metrics=metrics)


def _file(ref: str, label: str) -> tuple[Any, str, Path]:
    """The data, stem and directory of the file or bundled name ``ref``."""
    path, _ = _resolve(ref, label, _EXPERIMENTS)
    return _read_json(path, label), path.stem, path.parent


def load_scenario(ref: str) -> ScenarioSpec:
    return _scenario(*_file(ref, "scenario"))


def load_sweep(ref: str) -> SweepSpec:
    return _sweep(*_file(ref, "sweep"))


def load_experiment(ref: str) -> Union[ScenarioSpec, SweepSpec]:
    """Load either kind of file or bundled name; sweep files carry a 'sweep' key."""
    data, stem, base = _file(ref, "experiment")
    return (_sweep if isinstance(data, dict) and "sweep" in data else _scenario)(data, stem, base)


def bundled_recipe_path(name: str) -> Path:
    """Filesystem path of a bundled sweep recipe, e.g. 'fig2a'."""
    return bundled_scenario_path(f"recipes/{name}")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled data file, e.g. 'scenario_dt_default'."""
    return _DATA / (name if name.endswith(".json") else f"{name}.json")
