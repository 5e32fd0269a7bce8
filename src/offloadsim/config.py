"""JSON configuration: routes, energy model, scenarios, sweeps.

Bundled under ``offloadsim/data``: three route layouts (``2ap``, ``4ap``,
``8ap``), the energy model, two default scenarios, and one sweep recipe per
result figure under ``data/recipes``.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

from .metrics import METRICS, SWEEPABLE, ScenarioSpec, SweepSpec, apply_sweep_value
from .model import (
    AccessKind,
    EnergyModel,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
    scale_route,
)
from .policies import Policy
from .prediction import ErrorSpec


class ConfigError(Exception):
    """A configuration file is missing, malformed, or inconsistent."""


_BUNDLED_ROUTES = {"2ap": "route_2ap.json", "4ap": "route_4ap.json",
                   "8ap": "route_8ap.json"}

_POLICY_BY_NAME = {p.cli_name: p for p in Policy}

_CLASS_BY_NAME = {c.value: c for c in TrafficClass}


def _data_file(name: str):
    return resources.files("offloadsim.data").joinpath(name)


def _read_json(source: Union[str, Path], label: str) -> Any:
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: invalid JSON in {source}: {exc}") from exc


def _read_bundled(name: str) -> Any:
    with resources.as_file(_data_file(name)) as path:
        return _read_json(path, name)


def parse_factor(value: Union[str, int, float], label: str = "factor") -> float:
    """Accept 0.5, 1, or fraction strings like "1/3"."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{label}: cannot parse rate factor {value!r}") from exc
    return parse_float(value, label)


def parse_float(value: Any, label: str) -> float:
    """A JSON number: ``float`` would read true as 1.0 and "60" as 60.0."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: expected a number, got {value!r}") from exc


def parse_integer(value: Any, label: str) -> int:
    """A whole JSON number: ``int`` would truncate 3.7 to 3 and read true as 1
    and "7" as 7."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: expected an integer, got {value!r}") from exc


def json_object(value: Any, label: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{label}: expected a JSON object, got {value!r}")
    return value


def json_string(value: Any, label: str) -> str:
    """A string: ``str`` would turn any value into one, and a list is no key."""
    if not isinstance(value, str):
        raise ConfigError(f"{label}: expected a JSON string, got {value!r}")
    return value


def json_array(value: Any, label: str) -> list:
    """A list: iterating a string would read it one character at a time."""
    if not isinstance(value, list):
        raise ConfigError(f"{label}: expected a JSON array, got {value!r}")
    return value


def parse_name(value: Any, label: str, names, kind: str) -> str:
    """A string from ``names``; an unknown one is named by its field."""
    name = json_string(value, label)
    if name not in names:
        raise ConfigError(f"{label}: unknown {kind} {name!r}; expected one of {sorted(names)}")
    return name


def parse_names(value: Any, label: str, names, kind: str) -> tuple[str, ...]:
    """A list of strings from ``names``; a bad entry is named by its index."""
    return tuple(parse_name(v, f"{label}[{i}]", names, kind)
                 for i, v in enumerate(json_array(value, label)))


def parse_policy(name: Any, label: str = "policy") -> Policy:
    return _POLICY_BY_NAME[parse_name(name, label, _POLICY_BY_NAME, "policy")]


def route_from_dict(data: dict, label: str = "route") -> RouteProfile:
    try:
        segments = []
        for i, seg in enumerate(data["segments"]):
            at = f"{label}.segments[{i}]"
            kind = AccessKind(seg["kind"])
            names = ("start_time", "duration") + (
                ("mobile_rate",) if kind is AccessKind.MOBILE
                else ("wifi_local_rate", "backhaul_rate"))
            fields = {name: parse_float(seg[name], f"{at}.{name}") for name in names}
            if kind is AccessKind.WIFI:
                fields["hotspot_index"] = parse_integer(seg["hotspot_index"],
                                                        f"{at}.hotspot_index")
            segments.append(RouteSegment(kind=kind, **fields))
        return RouteProfile(tuple(segments), parse_float(data["total_time"], f"{label}.total_time"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


@functools.cache
def _bundled_route(key: str) -> RouteProfile:
    """A bundled route, parsed once per process (routes are frozen)."""
    return route_from_dict(_read_bundled(_BUNDLED_ROUTES[key]), label=key)


def load_route(key_or_path: str) -> RouteProfile:
    """Load a bundled route by key ('4ap', '2ap', '8ap') or any JSON path;
    a path is read again on every call."""
    if key_or_path in _BUNDLED_ROUTES:
        return _bundled_route(key_or_path)
    return route_from_dict(_read_json(key_or_path, "route"), label=key_or_path)


def load_energy_model(path: Optional[str] = None) -> EnergyModel:
    data = _read_bundled("energy.json") if path is None else _read_json(path, "energy model")
    return energy_from_dict(data)


def energy_from_dict(data: dict, label: str = "energy model") -> EnergyModel:
    names = ("mobile_transfer_j_per_mb", "wifi_transfer_j_per_mb", "wifi_idle_w",
             "wifi_preactivation_s")
    try:
        return EnergyModel(**{name: parse_float(data[name], f"{label}.{name}")
                              for name in names})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def scenario_from_dict(data: dict, label: str = "scenario") -> ScenarioSpec:
    try:
        route_id = json_string(data.get("route", "4ap"), f"{label}.route")
        route = load_route(route_id)

        factors = json_object(data.get("rate_factors", {}), f"{label}.rate_factors")
        mobile_f = parse_factor(factors.get("mobile", "1/3"), f"{label}.rate_factors.mobile")
        wifi_f = parse_factor(factors.get("wifi", "1/3"), f"{label}.rate_factors.wifi")
        back_f = parse_factor(factors.get("backhaul", "1/3"), f"{label}.rate_factors.backhaul")
        scale_route(route, mobile_f, wifi_f, back_f)  # a bad factor fails here, not mid-run

        task_d = json_object(data["task"], f"{label}.task")
        klass = _CLASS_BY_NAME.get(
            json_string(task_d.get("class", "delay-tolerant"), f"{label}.task.class"))
        if klass is None:
            raise ConfigError(
                f"{label}.task.class: expected one of {sorted(_CLASS_BY_NAME)}"
            )
        task = TransferTask(
            size_mb=parse_float(task_d["size_mb"], f"{label}.task.size_mb"),
            delay_threshold=parse_float(task_d.get("delay_threshold_s", route.total_time),
                                        f"{label}.task.delay_threshold_s"),
            traffic_class=klass,
        )

        err_d = json_object(data.get("errors", {}), f"{label}.errors")
        errors = ErrorSpec(
            time_error=parse_float(err_d.get("time_error", 0.10), f"{label}.errors.time_error"),
            throughput_error=parse_float(err_d.get("throughput_error", 0.20),
                                         f"{label}.errors.throughput_error"),
        )

        policies = tuple(_POLICY_BY_NAME[p] for p in parse_names(
            data["policies"], f"{label}.policies", _POLICY_BY_NAME, "policy"))
        energy = (energy_from_dict(data["energy"], f"{label}.energy")
                  if "energy" in data else EnergyModel())
        metrics = (parse_names(data["metrics"], f"{label}.metrics", METRICS, "metric")
                   if "metrics" in data else None)

        return ScenarioSpec(
            scenario_id=json_string(data.get("scenario_id", label), f"{label}.scenario_id"),
            route=route,
            route_id=route_id,
            task=task,
            policies=policies,
            mobile_factor=mobile_f,
            wifi_factor=wifi_f,
            backhaul_factor=back_f,
            errors=errors,
            runs=parse_integer(data.get("runs", 120), f"{label}.runs"),
            seed=parse_integer(data.get("seed", 0), f"{label}.seed"),
            energy=energy,
            metrics=metrics,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def sweep_from_dict(data: dict, label: str = "sweep") -> SweepSpec:
    try:
        base = scenario_from_dict(json_object(data["scenario"], f"{label}.scenario"),
                                  label=f"{label}.scenario")
        sweep_d = json_object(data["sweep"], f"{label}.sweep")
        values = tuple(
            parse_factor(v, f"{label}.sweep.values")
            for v in json_array(sweep_d["values"], f"{label}.sweep.values")
        )
        metrics = (parse_names(data["metrics"], f"{label}.metrics", METRICS, "metric")
                   if "metrics" in data else base.metrics)
        sweep = SweepSpec(
            base=base,
            parameter=parse_name(sweep_d["parameter"], f"{label}.sweep.parameter",
                                 SWEEPABLE, "sweep parameter"),
            values=values,
            metrics=metrics,
        )
        for v in values:  # a bad point fails here, not mid-sweep
            apply_sweep_value(base, sweep.parameter, v).scaled_route()
        return sweep
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def load_scenario(path: str) -> ScenarioSpec:
    data = _read_json(path, "scenario")
    if not isinstance(data, dict):
        raise ConfigError(f"scenario: {path} must contain a JSON object")
    return scenario_from_dict(data, label=Path(path).stem)


def load_sweep(path: str) -> SweepSpec:
    data = _read_json(path, "sweep")
    if not isinstance(data, dict) or "sweep" not in data:
        raise ConfigError(f"sweep: {path} must contain a JSON object with a 'sweep' key")
    return sweep_from_dict(data, label=Path(path).stem)


def load_experiment(path: str) -> Union[ScenarioSpec, SweepSpec]:
    """Load either kind of file; sweep files carry a 'sweep' key."""
    data = _read_json(path, "experiment")
    if not isinstance(data, dict):
        raise ConfigError(f"experiment: {path} must contain a JSON object")
    label = Path(path).stem
    if "sweep" in data:
        return sweep_from_dict(data, label=label)
    return scenario_from_dict(data, label=label)


def bundled_recipe_path(name: str) -> Path:
    """Filesystem path of a bundled sweep recipe, e.g. 'fig2a'."""
    fname = name if name.endswith(".json") else f"{name}.json"
    with resources.as_file(_data_file(f"recipes/{fname}")) as path:
        return Path(path)


def bundled_scenario_path(name: str) -> Path:
    fname = name if name.endswith(".json") else f"{name}.json"
    with resources.as_file(_data_file(fname)) as path:
        return Path(path)
