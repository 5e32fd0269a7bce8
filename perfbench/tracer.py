"""Per-layer spans recorded by wrapping offloadsim's functions at their call sites.

Nothing in the package changes: every module global (and class attribute)
that is bound to a target function is swapped for a timing wrapper, so calls
from the benchmark and calls between modules are both seen.  A target that no
longer exists is reported as ``absent``, never as a failure, so the traced run
survives refactors that delete or rename a function.

Spans nest on one stack (all work is single-threaded).  A span's self time
is its duration minus the durations of the spans it directly caused, so the
self times of all spans sum to at most the wall time covered by the
outermost ones.  Spans are aggregated per function as they close instead of
being kept one by one: a figure reproduction makes millions of them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from typing import Any, Callable, Optional

# (layer, owner, attribute): owner is a module of the package, or
# "module:Class" for methods.  The layer is the module the function lives in.
TARGETS = (
    ("cli", "cli", "main"),
    ("config", "config", "load_experiment"),
    ("config", "config", "load_scenario"),
    ("config", "config", "load_sweep"),
    ("config", "config", "load_route"),
    ("config", "config", "load_energy_model"),
    ("model", "model", "scale_route"),
    ("prediction", "prediction", "build_prediction"),
    ("prediction", "prediction", "realize_route"),
    ("policies", "policies", "policy_dispatch"),
    ("policies", "policies", "plan_entry"),
    ("policies", "policies", "plan_entry_delay_sensitive"),
    ("policies", "policies", "plan_exit_delay_tolerant"),
    ("policies", "policies", "plan_exit_prediction_only"),
    ("policies", "policies", "plan_exit_delay_sensitive"),
    ("engine", "engine", "run_trip"),
    ("engine", "engine", "integrate_transfer"),
    ("engine", "engine", "account_energy"),
    ("ranges", "ranges:RangeSet", "add"),
    ("ranges", "ranges:RangeSet", "gaps"),
    ("ranges", "ranges:RangeSet", "missing_within"),
    ("ranges", "ranges:RangeSet", "fill_in_order"),
    ("ranges", "ranges:RangeSet", "prefix_end"),
    ("ranges", "ranges:RangeSet", "total"),
    ("ranges", "ranges:RangeSet", "covers"),
    ("metrics", "metrics", "run_sweep"),
    ("metrics", "metrics", "run_scenario"),
    ("metrics", "metrics", "derive_run_seed"),
    ("metrics", "metrics", "ci_halfwidth"),
    ("metrics", "metrics", "render_csv"),
    ("oracle", "oracle", "run_trip_stepped"),
    ("oracle", "oracle", "compare_runs"),
)

LAYERS = ("cli", "config", "model", "prediction", "policies", "engine",
          "ranges", "metrics", "oracle")

PACKAGE = "offloadsim"


class Tracer:
    """Installs timing wrappers for one process and aggregates their spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.entries = {layer: 0 for layer in LAYERS}  # calls from another layer
        self.absent: list[str] = []
        self.unobserved: set[str] = set()  # targets whose counts could not be read
        self.counts = {
            "prediction_inputs": 0,
            "deadline_misses": 0,
            "plan_infeasible": 0,
            "max_intervals": 0,
            "oracle_steps": 0,
        }
        self._prediction_keys: set = set()
        self._route_ids: dict[int, tuple[Any, int]] = {}
        self._route_values: dict[Any, int] = {}
        self._field_names: dict[type, tuple[str, ...]] = {}
        self._stack: list[list] = [[None, 0.0]]  # [layer, child seconds]
        self.wall_start: Optional[float] = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                pass
        for layer, owner, attr in TARGETS:
            name = f"{owner.replace(':', '.')}.{attr}"
            module_name, _, class_name = owner.partition(":")
            try:
                holder = importlib.import_module(f"{PACKAGE}.{module_name}")
                if class_name:
                    holder = getattr(holder, class_name)
                fn = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, fn, *self._observer(name))
            if class_name:
                setattr(holder, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        self.wall_start = time.perf_counter()

    def _wrap(self, name: str, layer: str, fn: Callable,
              observe: Optional[Callable], by_name: bool) -> Callable:
        self.calls[name] = 0
        self.self_s[name] = 0.0
        calls, self_s, entries, stack = self.calls, self.self_s, self.entries, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if by_name else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - t0
                stack.pop()
                parent[1] += spent
                calls[name] += 1
                self_s[name] += spent - frame[1]
                if parent[0] != layer:
                    entries[layer] += 1
            if observe is not None:
                # the tracer's own bookkeeping is nobody's self time
                t1 = clock()
                self._observe(name, observe, signature, args, kwargs, result)
                parent[1] += clock() - t1
            return result

        return wrapper

    # -- exact counts observed at the boundaries ----------------------------

    def _observe(self, name, observe, signature, args, kwargs, result) -> None:
        """Feed one call's arguments to its observer, by parameter name when
        it has a signature to bind them to.

        A refactor that renames a parameter or a result field makes the
        count unreadable, not the run fail: the target is listed instead.
        """
        try:
            if signature is None:
                observe(args, result)
                return
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(bound.arguments, result)
        except (TypeError, AttributeError, KeyError, ValueError):
            self.unobserved.add(name)

    def _observer(self, name: str) -> tuple[Optional[Callable], bool]:
        """(observer, reads arguments by name) of a target whose calls are counted."""
        return {
            "prediction.build_prediction": (self._observe_prediction, True),
            "engine.run_trip": (self._observe_trip, False),
            "ranges.RangeSet.add": (self._observe_intervals, False),
            "ranges.RangeSet.fill_in_order": (self._observe_intervals, False),
            "oracle.run_trip_stepped": (self._observe_stepped, True),
        }.get(name, (None, False))

    def _route_key(self, route: Any) -> int:
        """Value identity of a route, hashed once per route object."""
        hit = self._route_ids.get(id(route))
        if hit is None:
            # the route is kept alive so its id cannot be reused
            hit = (route, self._route_values.setdefault(route, len(self._route_values)))
            self._route_ids[id(route)] = hit
        return hit[1]

    def _observe_prediction(self, arguments, result) -> None:
        # The run seed is left out of the key: a forecast never depends on it.
        key = []
        for name, value in arguments.items():
            if type(value).__name__ == "RouteProfile":
                value = self._route_key(value)
            elif dataclasses.is_dataclass(value):
                value = tuple(getattr(value, f) for f in self._unseeded_fields(type(value)))
            key.append((name, value))
        self._prediction_keys.add(tuple(key))

    def _unseeded_fields(self, cls: type) -> tuple[str, ...]:
        names = self._field_names.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(cls) if f.name != "seed")
            self._field_names[cls] = names
        return names

    def _observe_trip(self, args, outcome) -> None:
        if not outcome.deadline_met:
            self.counts["deadline_misses"] += 1
        if outcome.plan_infeasible:
            self.counts["plan_infeasible"] += 1

    def _observe_intervals(self, args, result) -> None:
        n = len(args[0])  # the RangeSet itself
        if n > self.counts["max_intervals"]:
            self.counts["max_intervals"] = n

    def _observe_stepped(self, arguments, result) -> None:
        # Computed, not counted: steps the march takes if it runs every
        # segment to its end (it stops early once the object completes).
        route, dt = arguments["route_realized"], arguments["dt"]
        self.counts["oracle_steps"] += sum(
            max(1, math.ceil(seg.duration / dt)) for seg in route.segments
        )

    # -- report --------------------------------------------------------------

    def report(self, wall_end: float, untraced_s: float = 0.0) -> dict:
        """Aggregates; ``untraced_s`` is benchmark time inside the traced
        interval (reference runs) that belongs to no layer."""
        self.counts["prediction_inputs"] = len(self._prediction_keys)
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "unobserved": sorted(self.unobserved),
            "wall_s": wall_end - self.wall_start - untraced_s,
        }
