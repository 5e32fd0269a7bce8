"""The process-wide memos: emptied by ``fresh_memos``, bounded, and the
cached draws equal to fresh draws whatever the order of requests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import metrics, prediction
from offloadsim.engine import run_trip
from offloadsim.model import AccessKind, RouteProfile, RouteSegment, scale_route
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, build_prediction, derive_run_seed, realize_route

from conftest import memo_caches
from test_draw_kernel import SEEDS
from test_metrics import make_spec


def test_fresh_memos_empties_each_memo(route_4ap, request):
    """After one scenario run and one trip every cache the fixture finds, the
    route index among them, holds an entry, and the fixture empties each."""
    spec = make_spec(route_4ap, runs=3)
    metrics.run_scenario(spec)
    nominal = spec.scaled_route()
    run_trip(realize_route(nominal, ErrorSpec(0.1, 0.2, seed=1)), nominal, spec.task,
             Policy.PREFETCH_DELAY_TOLERANT, spec.errors)
    caches = memo_caches()
    assert {"_scale", "_aggregate", "_draw_matrix", "_route_index", "_walk",
            "check_realizable"} <= {
        cache.__name__ for cache in caches}
    assert all(cache.cache_info().currsize for cache in caches)
    request.getfixturevalue("fresh_memos")
    assert not any(cache.cache_info().currsize for cache in caches)


# caches with a bound to test, and a call that puts key i in each (the
# aggregate cache's bound is tested in test_metrics.TestAggregateMemo)
LRU_MEMOS = {
    "scaled routes": (metrics._scale,
                      lambda route, i: metrics._scale(route, (1.0, 1.0, 1 / (i + 1)))),
    "draw streams": (prediction._draw_matrix, lambda route, i: prediction._draw_matrix(i, 2, 3)),
    "route indexes": (prediction._route_index,
                      lambda route, i: prediction._route_index(scale_route(route, i + 1))),
    "forecast walks": (prediction._walk,
                       lambda route, i: build_prediction(route, ErrorSpec(),
                                                         horizon=(i + 1) / 100)),
    "realizability checks": (prediction.check_realizable,
                             lambda route, i: prediction.check_realizable(route, 0.0, i / 100)),
}


@pytest.mark.parametrize("name", LRU_MEMOS)
def test_each_memo_stays_within_its_bound(fresh_memos, route_2ap, name):
    """Past its bound a cache drops the least recently used key."""
    cache, put = LRU_MEMOS[name]
    kept = cache.cache_parameters()["maxsize"]
    for i in range(kept):
        put(route_2ap, i)
    put(route_2ap, 0)  # now the most recent
    for i in range(kept, kept + 3):
        put(route_2ap, i)
        assert cache.cache_info().currsize == kept
    misses = cache.cache_info().misses
    put(route_2ap, 0)  # kept: used after the others
    assert cache.cache_info().misses == misses
    put(route_2ap, 1)  # evicted: the least recently used
    assert cache.cache_info().misses == misses + 1


def test_a_rejected_route_raises_on_every_call(fresh_memos):
    """The realizability memo keeps only what the check returns: a route it
    rejects raises again on every call, directly or through a batch, and
    leaves no entry."""
    route = RouteProfile((RouteSegment(AccessKind.MOBILE, 0.0, 1.0, mobile_rate=1.5e308),), 1.0)
    for check in (lambda: prediction.check_realizable(route, 0.5, 0.5),
                  lambda: prediction.realize_batch(route, ErrorSpec(0.5, 0.5), 0, 2)) * 2:
        with pytest.raises(ValueError, match=r"mobile rate leaves \(0, inf\) at error 0.5"):
            check()
    info = prediction.check_realizable.cache_info()
    assert info.currsize == 0 and info.misses == 4
    assert not prediction._draw_matrix.cache_info().currsize


def test_draw_memo_costs_little_per_run(fresh_memos):
    """The draw cache keeps the draws and nothing per run besides: what a
    call leaves traced beyond the array it returns is under 1 B a run."""
    runs = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        draws = prediction._draw_matrix(5, runs, 2)
        extra = tracemalloc.get_traced_memory()[0] - before - draws.nbytes
    finally:
        tracemalloc.stop()
    assert 0 <= extra / runs < 1


def test_a_batch_peaks_near_what_it_holds(fresh_memos, route_8ap):
    """With its draws cached, a batch allocates little beyond the rows it
    returns: no copy of them and no temporaries that outlive a row.  At
    20,000 runs on the 8-hotspot layout the traced peak is at most 1.1 times
    the bytes of the distinct arrays the batch holds."""
    runs, errors = 20_000, ErrorSpec(0.1, 0.2)
    prediction.realize_batch(route_8ap, errors, 0, runs)  # fills the draw memo
    tracemalloc.start()
    try:
        batch = prediction.realize_batch(route_8ap, errors, 0, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = {id(a): a.nbytes for row in batch.segments for a in vars(row).values()}
    assert peak <= 1.1 * sum(held.values())


def assert_fresh_draws(seed, runs, n, got):
    assert got.shape == (n, runs) and not got.flags.writeable
    for k in range(runs):
        want = np.random.default_rng(derive_run_seed(seed, k)).uniform(-1.0, 1.0, size=n)
        assert np.array_equal(got[:, k], want)


DRAWS_KEPT = prediction._draw_matrix.cache_parameters()["maxsize"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), keys=st.lists(st.tuples(SEEDS, st.integers(1, 5)),
                                     min_size=1, max_size=DRAWS_KEPT + 1,
                                     unique=True))
def test_draw_requests_in_any_order_equal_fresh_draws(data, keys):
    """Draw counts growing and shrinking in any order, on (seed, runs) keys
    taken in any order, more of them than the cache keeps: every returned
    column is the run's fresh draws, bit for bit, and read-only."""
    prediction._draw_matrix.cache_clear()
    requests = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(1, 50)),
                                  min_size=1, max_size=8))
    for (seed, runs), n in requests:
        assert_fresh_draws(seed, runs, n, prediction._draw_matrix(seed, runs, n))
        assert prediction._draw_matrix.cache_info().currsize <= DRAWS_KEPT


def test_a_prefix_handed_out_survives_growth(fresh_memos):
    short = prediction._draw_matrix(2, 4, 20)
    kept = short.copy()
    prediction._draw_matrix(2, 4, 40)
    assert np.array_equal(short, kept)
    assert_fresh_draws(2, 4, 20, short)
