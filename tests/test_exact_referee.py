"""The float trip loop against its exact-arithmetic twin.

:func:`exact.exact_trip` runs the engine's own trip loop on the realized
segments as exact rationals, so its bytes and times carry no rounding.  The
float trip must stay within bounds derived from each trip's inputs, with
``n`` its segment count and ``eps`` the float epsilon:

- bytes, on each channel: ``n * eps * size``, as each segment adds at most a
  few roundings of quantities no larger than the object;
- completion time: ``n * eps * (end + 8 * size / r)``, ``end`` the realized
  route end and ``r`` the slowest positive rate the trip moved bytes at, a
  realized rate or a planned one.  A rate-limited plan can be far slower
  than any realized rate, and its completion time then inherits the byte gap
  divided by that rate: on these routes with a deadline at 0.9 of the route
  end, ``n * eps * end`` alone was exceeded 1.8-fold by a correct trip.

Each energy component must stay within its price times the bound of what
it prices: a transfer energy within the byte bound times its J/MB, the idle
energy within ``wifi_idle_w * time bound * v``, ``v`` the hotspots the exact
trip visits while transferring, as each visit adds idle seconds from one
leave time and one busy sum.

``completed`` and ``deadline_met`` must match, unless the completion time of
the side that completed lies within the time bound of the deadline or of the
route end, where the round-off slack itself decides.  On these inputs the
worst gaps were 0.22 of the byte bound, 0.10 of the time bound and 0.27 of
an energy bound on the random trips, 0.15, 0.03 and 0.16 on the bundled
scenarios, with no flag flips; a trip loop that rounds its float prefix to
float32 exceeds the byte bound 10^7- to 10^8-fold.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import edge_routes, make_task, random_route, row_fields
from exact import Exact, exact_trip
from offloadsim import engine
from offloadsim.config import bundled_scenario_path, load_scenario
from offloadsim.engine import run_trip
from offloadsim.metrics import derive_run_seed
from offloadsim.model import EnergyModel
from offloadsim.policies import Policy, plan_exit
from offloadsim.prediction import ErrorSpec, realize_route

EPS = sys.float_info.epsilon
BYTES = ("mobile_mb", "wifi_local_mb", "wifi_backhaul_mb")
ENERGY = ("mobile_j", "wifi_transfer_j", "wifi_idle_j")


@pytest.fixture
def planned_rates(monkeypatch):
    """Every mobile rate the trip loop plans, in order, from now on."""
    rates = []

    def recorded(*args, **kwargs):
        plan = plan_exit(*args, **kwargs)
        rates.append(plan[0])
        return plan

    monkeypatch.setattr(engine, "plan_exit", recorded)
    return rates


def share(gap, bound) -> float:
    """``gap`` as a share of ``bound``; a bound of 0 admits no gap."""
    return float(gap / bound) if bound else 0.0 if gap == 0 else math.inf


def gaps(realized, nominal, task, policy, errors, energy, planned_rates):
    """The float trip's byte, time and energy gaps from the exact trip, each
    as a share of its bound (energy: the largest component's); an
    unexplained flag flip fails here."""
    got = run_trip(realized, nominal, task, policy, errors, energy)
    planned_rates.clear()
    want = exact_trip(realized, nominal, task, policy, errors, energy)
    for name in BYTES + ("transfer_delay",):  # a plain Fraction would round beside a float
        assert type(getattr(want, name)) in (Exact, float), name
    rates = [r for row in realized.segments for name, r in row_fields(row).items()
             if name.endswith("_rate")]
    slowest = min(r for r in rates + planned_rates if r > 0)
    n, size, end = len(realized.segments), task.size_mb, realized.total_time
    byte_bound = n * EPS * size
    time_bound = n * EPS * (end + 8 * size / slowest)
    byte_gap = max(abs(Fraction(getattr(got, name)) - getattr(want, name)) for name in BYTES)
    time_gap = 0.0
    if (got.completed, got.deadline_met) == (want.completed, want.deadline_met):
        time_gap = abs(Fraction(got.transfer_delay) - want.transfer_delay)
    else:
        done = want.transfer_delay if want.completed else got.transfer_delay
        edge = min(abs(done - task.effective_deadline()), abs(done - end))
        assert edge <= time_bound, (policy, "flag flip away from the deadline and route end")
    visits = sum(seg.is_wifi and not (want.completed and row.start_time > want.transfer_delay)
                 for row, seg in zip(realized.segments, nominal.segments))
    energy_bounds = (energy.mobile_transfer_j_per_mb * byte_bound,
                     energy.wifi_transfer_j_per_mb * byte_bound,
                     energy.wifi_idle_w * time_bound * visits)
    energy_share = max(share(abs(Fraction(getattr(got.energy, name))
                                 - getattr(want.energy, name)), bound)
                       for name, bound in zip(ENERGY, energy_bounds))
    return share(byte_gap, byte_bound), share(time_gap, time_bound), energy_share


def test_random_trips_stay_within_the_bounds(planned_rates):
    """40 random routes and the edge routes, three error pairs, three sizes,
    both traffic classes and every admitted policy."""
    rng = np.random.default_rng(7)
    routes = [random_route(rng) for _ in range(40)] + edge_routes(rng)
    shares = []
    for route in routes:
        for time_error, throughput_error in ((0.0, 0.0), (0.1, 0.2), (0.3, 0.5)):
            errors = ErrorSpec(time_error, throughput_error, seed=int(rng.integers(1 << 32)))
            realized = realize_route(route, errors)
            for size in (5.0, 60.0, 500.0):
                for sensitive in (False, True):
                    task = make_task(size, threshold=0.9 * route.total_time,
                                     sensitive=sensitive)
                    for policy in Policy:
                        if policy.admits(task.traffic_class):
                            shares.append(gaps(realized, route, task, policy, errors,
                                              EnergyModel(), planned_rates))
    assert len(shares) == len(routes) * 3 * 3 * 7
    assert max(max(s) for s in shares) <= 1


@pytest.mark.parametrize("name", ["scenario_dt_default", "scenario_ds_default"])
def test_bundled_scenarios_stay_within_the_bounds(name, planned_rates):
    """The first 20 realizations of each default scenario, every policy."""
    spec = load_scenario(str(bundled_scenario_path(name)))
    nominal = spec.scaled_route()
    for k in range(20):
        errors = ErrorSpec(spec.errors.time_error, spec.errors.throughput_error,
                           seed=derive_run_seed(spec.seed, k))
        realized = realize_route(nominal, errors)
        for policy in spec.policies:
            assert max(gaps(realized, nominal, spec.task, policy, errors, spec.energy,
                            planned_rates)) <= 1, (k, policy)
