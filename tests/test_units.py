"""Results do not depend on the units: no absolute epsilon decides an outcome.

Three scalings by a power of two 2**k move the same bytes, so every outcome
must be the same with ``==`` (floats included), once the fields that carry
the scaled unit are scaled back:

- time: every start time, duration and total time, the deadline and
  ``wifi_preactivation_s`` times 2**k; every rate and ``wifi_idle_w`` times
  2**-k.  Only ``transfer_delay`` scales, by 2**k.
- size: the object size and every rate times 2**k, times unchanged.  Each
  channel's MB, the staged cache and the transfer energies scale by 2**k.
- price: ``mobile_transfer_j_per_mb``, ``wifi_transfer_j_per_mb`` and
  ``wifi_idle_w`` times 2**k.  Only the three energies scale, by 2**k.

With no subnormal or overflow, a power of two commutes with every rounding,
so the realized draws, the forecasts and each fill scale exactly, and only
an absolute threshold can tell the two apart.  The bundled scenarios run in
one batch pass each (the array form of the trip loop), and random routes
one trip at a time (the float form).
"""

import dataclasses
import functools

import numpy as np
import pytest

from conftest import make_task, random_route
from offloadsim.config import bundled_scenario_path, load_scenario
from offloadsim.engine import run_policies, run_trip
from offloadsim.model import EnergyModel, RouteProfile
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, realize_batch, realize_route

RATES = ("mobile_rate", "wifi_local_rate", "backhaul_rate")
KS = [-60, -40, -20, 20, 40, 60]
SIZES = (0.5, 20.0, 150.0)
ERRORS = ErrorSpec(0.1, 0.2)
ENERGY = EnergyModel()
# the fields each scaling scales, all others must be equal
SCALED = {"time": {"transfer_delay"},
          "size": {"mobile_mb", "wifi_local_mb", "wifi_backhaul_mb", "cache_bytes_used",
                   "mobile_j", "wifi_transfer_j"},
          "price": {"mobile_j", "wifi_transfer_j", "wifi_idle_j"}}


def scaled_route(route: RouteProfile, time: float, rate: float) -> RouteProfile:
    """``route`` with every time times ``time`` and every rate times ``rate``."""
    return RouteProfile(tuple(
        dataclasses.replace(seg, start_time=seg.start_time * time, duration=seg.duration * time,
                            **{r: getattr(seg, r) * rate for r in RATES
                               if getattr(seg, r) is not None})
        for seg in route.segments), route.total_time * time)


def scaled(scaling: str, k: int, route, task, energy):
    """The route, task and energy model under ``scaling`` by 2**k (k = 0: as
    given, as every product is then exact)."""
    f = 2.0 ** k
    time, rate, size, price = {"time": (f, 1 / f, 1.0, 1.0), "size": (1.0, f, f, 1.0),
                               "price": (1.0, 1.0, 1.0, f)}[scaling]
    return (scaled_route(route, time, rate),
            dataclasses.replace(task, size_mb=task.size_mb * size,
                                delay_threshold=task.delay_threshold * time),
            dataclasses.replace(
                energy, mobile_transfer_j_per_mb=energy.mobile_transfer_j_per_mb * price,
                wifi_transfer_j_per_mb=energy.wifi_transfer_j_per_mb * price,
                wifi_idle_w=energy.wifi_idle_w * price / time,
                wifi_preactivation_s=energy.wifi_preactivation_s * time))


def fields(outcome) -> dict:
    out = {f.name: getattr(outcome, f.name) for f in dataclasses.fields(outcome)}
    energy = out.pop("energy")
    out.update((f.name, getattr(energy, f.name)) for f in dataclasses.fields(energy))
    return out


def differing(scaling: str, k: int, base, got) -> list[str]:
    """The fields of ``got`` that are not ``base``'s, scaled back where
    ``scaling`` scales them."""
    f = 2.0 ** k
    want, have = fields(base), fields(got)
    return [name for name in want
            if not np.array_equal(have[name],
                                  want[name] * f if name in SCALED[scaling] else want[name])]


@functools.lru_cache(maxsize=None)
def scenarios():
    return [load_scenario(str(bundled_scenario_path(f"scenario_{name}")))
            for name in ("dt_default", "ds_default")]


def scenario_outcomes(spec, scaling="time", k=0):
    route, task, energy = scaled(scaling, k, spec.scaled_route(), spec.task, spec.energy)
    batch = realize_batch(route, spec.errors, spec.seed, spec.runs)
    return run_policies(batch, task, spec.policies, spec.errors, energy)


@functools.lru_cache(maxsize=None)
def trip_cases():
    """40 random routes (rng seed 7), each with a deadline in 0.3-1.2 of its
    total time and its own error seed, every size, both classes and every
    policy the class admits."""
    rng = np.random.default_rng(7)
    cases = []
    for j in range(40):
        route = random_route(rng)
        deadline = float(rng.uniform(0.3, 1.2)) * route.total_time
        trips = []
        for size in SIZES:
            for sensitive in (False, True):
                task = make_task(size, deadline, sensitive)
                trips += [(task, p) for p in Policy if p.admits(task.traffic_class)]
        cases.append((route, dataclasses.replace(ERRORS, seed=j), trips))
    return cases


def trip_outcomes(scaling="time", k=0):
    out = []
    for route, errors, trips in trip_cases():
        realized = None
        for task, policy in trips:
            nominal, task, energy = scaled(scaling, k, route, task, ENERGY)
            realized = realized or realize_route(nominal, errors)
            out.append(run_trip(realized, nominal, task, policy, errors, energy))
    return out


@functools.lru_cache(maxsize=None)
def base_trips():
    return trip_outcomes()


@functools.lru_cache(maxsize=None)
def base_scenarios():
    return [scenario_outcomes(spec) for spec in scenarios()]


@pytest.mark.parametrize("scaling", ["time", "size", "price"])
@pytest.mark.parametrize("k", KS)
def test_bundled_scenarios_are_unit_free(scaling, k):
    for spec, base in zip(scenarios(), base_scenarios()):
        got = scenario_outcomes(spec, scaling, k)
        for policy in spec.policies:
            bad = differing(scaling, k, base[policy], got[policy])
            assert not bad, (spec.scenario_id, policy.cli_name, bad)


@pytest.mark.parametrize("scaling", ["time", "size", "price"])
@pytest.mark.parametrize("k", KS)
def test_random_trips_are_unit_free(scaling, k):
    base = base_trips()
    assert len(base) == 40 * len(SIZES) * 7
    bad = [(i, names) for i, (b, g) in enumerate(zip(base, trip_outcomes(scaling, k)))
           if (names := differing(scaling, k, b, g))]
    assert not bad, f"{len(bad)} of {len(base)} trips differ, first {bad[:3]}"
