"""Property search: a batch's policies as the rows of one pass.

Over random routes (WiFi-only and one-segment routes among them), errors,
objects and run counts, every admissible ordered subset of the policies runs
over one batch in one :func:`run_policies` pass.  Each policy's row must
equal, field by field with ``==``, its own single-policy pass on the same
batch, whatever the other policies and their order; and run k of that pass
must equal :func:`run_trip` on realization k bit for bit, sign of zero
included.  The search is derandomized with a fixed example budget, so the
test is deterministic.  No per-run outcome holds a negative zero, which a
CSV would print as ``-0``.
"""

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offloadsim.engine import run_policies, run_trip
from offloadsim.metrics import scenario_outcomes
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, TrafficClass, TransferTask
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, derive_run_seed, realize_batch, realize_route

from conftest import make_task, random_route
from test_metrics import ENERGY_FIELDS, OUTCOME_FIELDS, assert_outcomes_equal, figure_points

MAX_RUNS = 6


def bits(x):
    """The float64 bit patterns of ``x``, so that ``-0.0`` differs from ``0.0``."""
    return np.asarray(x, np.float64).view(np.int64)


def per_run_values(outcome):
    """Every per-run field of ``outcome`` and of its energy, by name."""
    return ([(name, getattr(outcome, name)) for name in OUTCOME_FIELDS]
            + [(name, getattr(outcome.energy, name)) for name in ENERGY_FIELDS])


@st.composite
def routes(draw):
    """1-7 segments of either kind, WiFi-only routes included."""
    segments, t, hotspot = [], 0.0, 0
    for wifi in draw(st.lists(st.booleans(), min_size=1, max_size=7)):
        duration = draw(st.floats(0.5, 120.0))
        if wifi:
            hotspot += 1
            local = draw(st.floats(0.1, 50.0))
            segments.append(RouteSegment(AccessKind.WIFI, t, duration, wifi_local_rate=local,
                                         backhaul_rate=local * draw(st.floats(0.05, 1.0)),
                                         hotspot_index=hotspot))
        else:
            segments.append(RouteSegment(AccessKind.MOBILE, t, duration,
                                         mobile_rate=draw(st.floats(0.1, 50.0))))
        t += duration
    return RouteProfile(tuple(segments), t)


@st.composite
def trips(draw):
    route = draw(routes())
    capacity = sum(s.duration * (s.wifi_local_rate if s.is_wifi else s.mobile_rate)
                   for s in route.segments) / 8
    task = TransferTask(
        size_mb=capacity * draw(st.floats(0.01, 2.0)),
        delay_threshold=route.total_time * draw(st.floats(0.1, 1.5)),
        traffic_class=draw(st.sampled_from(TrafficClass)))
    errors = ErrorSpec(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.9)))
    return route, task, errors, draw(st.integers(0, 2**32)), draw(st.integers(1, MAX_RUNS))


@settings(derandomize=True, max_examples=160, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trips())
def test_each_block_equals_its_own_batch_in_any_company_and_order(trip):
    route, task, errors, seed, runs = trip
    admitted = [p for p in Policy if p.admits(task.traffic_class)]
    batch = realize_batch(route, errors, seed, runs)
    own = {p: run_policies(batch, task, (p,), errors)[p] for p in admitted}
    k = seed % runs
    realized = realize_route(route, replace(errors, seed=derive_run_seed(seed, k)))
    for p in admitted:
        trip_k = run_trip(realized, route, task, p, errors)
        for (name, want), (_, got) in zip(per_run_values(trip_k), per_run_values(own[p])):
            assert bits(want) == bits(got[k]), (p, name)
    for size in range(1, len(admitted) + 1):
        for policies in itertools.permutations(admitted, size):
            outcomes = run_policies(batch, task, policies, errors)
            assert tuple(outcomes) == policies
            for p, got in outcomes.items():
                assert_outcomes_equal(got, own[p], (policies, p))


def test_no_outcome_holds_a_negative_zero():
    """A step zeroes the runs it leaves out by multiplying by its mask, which
    gives ``-0.0`` where the value was negative; no such zero reaches an
    outcome, on the 44 distinct figure points or on random routes under
    every admissible policy."""
    specs = list(dict.fromkeys(figure_points()))
    assert len(specs) == 44
    outcomes = [o for spec in specs for o in scenario_outcomes(spec).values()]
    rng = np.random.default_rng(40)
    errors = ErrorSpec(0.1, 0.2)
    for seed in range(40):
        route = random_route(rng)
        batch = realize_batch(route, errors, seed, 30)
        for sensitive in (False, True):
            task = make_task(float(rng.uniform(1.0, 300.0)),
                             route.total_time * float(rng.uniform(0.3, 1.5)), sensitive)
            outcomes += run_policies(batch, task, [p for p in Policy if p.admits(
                task.traffic_class)], errors).values()
    for outcome in outcomes:
        for name, values in per_run_values(outcome):
            assert not (bits(values) == bits(-0.0)).any(), name
