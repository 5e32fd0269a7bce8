"""Property search: a batch's policies as the rows of one pass.

Over random routes (WiFi-only and one-segment routes among them), errors,
objects and run counts, every admissible ordered subset of the policies runs
over one batch in one :func:`run_policies` pass.  Each policy's row must
equal, field by field with ``==``, its own single-policy pass on the same
batch, whatever the other policies and their order; and run k of that pass
must equal :func:`run_trip` on realization k.  The search is derandomized with a fixed
example budget, so the test is deterministic.
"""

import itertools
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offloadsim.engine import run_policies, run_trip
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, TrafficClass, TransferTask
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, derive_run_seed, realize_batch, realize_route

from test_metrics import ENERGY_FIELDS, OUTCOME_FIELDS, assert_outcomes_equal

MAX_RUNS = 6


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
        for name in OUTCOME_FIELDS:
            assert getattr(trip_k, name) == getattr(own[p], name)[k], (p, name)
        for name in ENERGY_FIELDS:
            assert getattr(trip_k.energy, name) == getattr(own[p].energy, name)[k], (p, name)
    for size in range(1, len(admitted) + 1):
        for policies in itertools.permutations(admitted, size):
            outcomes = run_policies(batch, task, policies, errors)
            assert tuple(outcomes) == policies
            for p, got in outcomes.items():
                assert_outcomes_equal(got, own[p], (policies, p))
