"""The process-wide memos: emptied by ``fresh_memos``, bounded, and the draw
memo's prefixes equal to fresh draws whatever the order of requests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import engine, metrics, prediction
from offloadsim.engine import run_trip
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, _draws, derive_run_seed, realize_route

from test_draw_kernel import SEEDS
from test_metrics import make_spec


def test_fresh_memos_empties_each_memo(route_4ap, request):
    """After one scenario run and one trip every process-wide memo holds an
    entry, and the fixture empties each."""
    spec = make_spec(route_4ap, runs=3)
    metrics.run_scenario(spec)
    nominal = spec.scaled_route()
    run_trip(realize_route(nominal, ErrorSpec(0.1, 0.2, seed=1)), nominal, spec.task,
             Policy.PREFETCH_DELAY_TOLERANT, spec.errors)
    assert metrics._aggregates and metrics._scaled_routes and prediction._draw_streams
    assert prediction._memo is not None and engine._checked is not None
    request.getfixturevalue("fresh_memos")
    assert not metrics._aggregates and not metrics._scaled_routes
    assert not prediction._draw_streams
    assert prediction._memo is None and engine._checked is None


# each LRU memo, its bound, and a call that puts key i in it (the aggregate
# memo's bound is tested in test_metrics.TestAggregateMemo)
LRU_MEMOS = {
    "scaled routes": (lambda: metrics._scaled_routes, metrics.SCALED_ROUTES_KEPT,
                      lambda route, i: metrics._scale(route, (1.0, 1.0, 1 / (i + 1)))),
    "draw streams": (lambda: prediction._draw_streams, prediction.DRAW_STREAMS_KEPT,
                     lambda route, i: prediction._draw_matrix(i, 2, 3)),
}


@pytest.mark.parametrize("name", LRU_MEMOS)
def test_each_memo_stays_within_its_bound(fresh_memos, route_2ap, name):
    """Past its bound a memo drops the least recently used key."""
    memo, kept, put = LRU_MEMOS[name]
    for i in range(kept):
        put(route_2ap, i)
    keys = list(memo())
    put(route_2ap, 0)  # now the most recent
    for i in range(kept, kept + 3):
        put(route_2ap, i)
        assert len(memo()) == kept
    assert keys[0] in memo() and not any(key in memo() for key in keys[1:4])


def test_route_index_holds_one_route(fresh_memos, route_2ap, route_4ap):
    for route in (route_2ap, route_4ap):
        prediction._route_index(route)
        assert prediction._memo.route is route


def test_draw_memo_costs_little_per_run(fresh_memos):
    """Besides its draws, the memo keeps each run's PCG64 state only, four
    uint64 words: under 64 B a run, where a kept Generator would cost about
    2 KB.  What the memo holds after continuing every run is traced."""
    runs = 20_000
    prediction._draw_matrix(5, runs, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        draws = prediction._draw_matrix(5, runs, 2)
        extra = tracemalloc.get_traced_memory()[0] - before - draws.base.nbytes
    finally:
        tracemalloc.stop()
    assert 0 < extra / runs < 64


def assert_fresh_draws(seed, runs, n, got):
    assert got.shape == (n, runs) and not got.flags.writeable
    for k in range(runs):
        assert np.array_equal(got[:, k], _draws(derive_run_seed(seed, k), n))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), keys=st.lists(st.tuples(SEEDS, st.integers(1, 5)),
                                     min_size=1, max_size=prediction.DRAW_STREAMS_KEPT + 1,
                                     unique=True))
def test_draw_requests_in_any_order_equal_fresh_draws(data, keys):
    """Draw counts growing and shrinking in any order, on (seed, runs) keys
    taken in any order, more of them than the memo keeps: every returned
    column is the run's fresh draws, bit for bit, and read-only."""
    prediction._draw_streams.clear()
    requests = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(1, 50)),
                                  min_size=1, max_size=8))
    for (seed, runs), n in requests:
        assert_fresh_draws(seed, runs, n, prediction._draw_matrix(seed, runs, n))
        assert len(prediction._draw_streams) <= prediction.DRAW_STREAMS_KEPT


def test_a_prefix_handed_out_survives_growth(fresh_memos):
    short = prediction._draw_matrix(2, 4, 20)
    kept = short.copy()
    prediction._draw_matrix(2, 4, 40)
    assert np.array_equal(short, kept)
    assert_fresh_draws(2, 4, 20, short)
