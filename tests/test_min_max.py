"""Scalar minima and maxima by comparison.

One trip takes each two-argument minimum and maximum by the comparison the
builtin makes: :func:`~offloadsim.model.min2` and :func:`~offloadsim.model.max2`
where a callable is needed, an inline conditional in float-only code.  The
helpers must return the very object the builtins return, and a profiler that
records every call of ``builtins.min`` and ``builtins.max`` (a stored
reference too) must find none in the hot functions beyond the one-iterable
calls named here.
"""

import builtins
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task, random_route
from exact import Exact
from offloadsim import prediction
from offloadsim.engine import run_trip
from offloadsim.model import max2, min2, scale_route
from offloadsim.oracle import run_trip_stepped
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, build_prediction, realize_route

NAN = math.nan
POOL = [0.0, -0.0, 5e-324, 1.0, math.inf, -math.inf, NAN, 0, 1, 2 ** 70, True, False,
        Fraction(1, 3), Exact(1, 3)]


def test_helpers_return_the_builtins_object():
    for a, b in itertools.product(POOL, repeat=2):
        assert min2(a, b) is min(a, b), (a, b)
        assert max2(a, b) is max(a, b), (a, b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(allow_nan=True), st.floats(allow_nan=True))
def test_helpers_match_the_builtins_on_floats(a, b):
    assert min2(a, b) is min(a, b)
    assert max2(a, b) is max(a, b)


# (module, name) of each function of one trip's scalar path; each name is
# one function's in its module (replan is _run's or run_trip_stepped's,
# fill _ByteState's, profile _walk's)
HOT = {
    ("offloadsim.engine", "_run"),
    ("offloadsim.engine", "replan"),
    ("offloadsim.engine", "fill"),
    ("offloadsim.policies", "plan_exit"),
    ("offloadsim.policies", "plan_entry"),
    ("offloadsim.prediction", "_realized"),
    ("offloadsim.prediction", "realize_route"),
    ("offloadsim.prediction", "_walk"),
    ("offloadsim.prediction", "profile"),
    ("offloadsim.prediction", "build_prediction"),
    ("offloadsim.model", "scale_route"),
    ("offloadsim.oracle", "run_trip_stepped"),
    ("offloadsim.oracle", "replan"),
    ("offloadsim.oracle", "_plain_steps"),
}
# The one-iterable calls each call of these makes: _walk's two ``default=``
# fallbacks, and the longest segment that run_trip_stepped hands check_dt.
ONE_ITERABLE = {("offloadsim.prediction", "_walk"): 2,
                ("offloadsim.oracle", "run_trip_stepped"): 1}


def min_max_calls(work) -> tuple[Counter, Counter]:
    """Run ``work()`` under a profiler: the calls of builtin ``min`` or ``max``
    by the function that made them, and the entries of each Python function
    (a generator's every resumption), each keyed (module, function name)."""
    made, entered = Counter(), Counter()

    def profiler(frame, event, arg):
        if event == "call" or (event == "c_call" and (arg is builtins.min or arg is builtins.max)):
            where = (frame.f_globals.get("__name__"), frame.f_code.co_name)
            (entered if event == "call" else made)[where] += 1

    old = sys.getprofile()
    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(old)
    return made, entered


def test_no_builtin_min_max_on_the_scalar_paths(route_2ap, route_4ap, route_8ap):
    rng = np.random.default_rng(42)
    routes = ([scale_route(r, 1 / 3, 1 / 3, 1 / 3) for r in (route_2ap, route_4ap, route_8ap)]
              + [random_route(rng) for _ in range(5)])
    errors = ErrorSpec(0.1, 0.2, seed=3)

    def work():
        for route in routes:
            scale_route(route, 0.5, 2.0, 3.0)
            realized = realize_route(route, errors)
            prediction._walk.cache_clear()
            build_prediction(route, errors)
            for size in (5.0, 60.0):
                for sensitive in (False, True):
                    task = make_task(size, threshold=0.9 * route.total_time, sensitive=sensitive)
                    for policy in Policy:
                        if policy.admits(task.traffic_class):
                            run_trip(realized, route, task, policy, errors)
                            run_trip_stepped(realized, route, task, policy, errors, dt=0.5)

    made, entered = min_max_calls(work)
    assert HOT <= set(entered), HOT - set(entered)
    assert {key: made[key] for key in HOT} == {
        key: ONE_ITERABLE.get(key, 0) * entered[key] for key in HOT}
