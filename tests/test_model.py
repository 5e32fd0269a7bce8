import copy
import dataclasses
import math
import numbers
import os
import pickle
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offloadsim
from offloadsim.model import (
    AccessKind,
    EnergyModel,
    RouteProfile,
    RouteSegment,
    TrafficClass,
    TransferTask,
    check_integer,
    check_real,
    scale_route,
)


HUGE = 10 ** 400  # an int past the float range


def mobile(t, d, r):
    return RouteSegment(AccessKind.MOBILE, t, d, mobile_rate=r)


def wifi(t, d, local, back, idx):
    return RouteSegment(AccessKind.WIFI, t, d, wifi_local_rate=local,
                        backhaul_rate=back, hotspot_index=idx)


class TestRouteSegment:
    def test_mobile_segment_needs_rate(self):
        with pytest.raises(ValueError):
            RouteSegment(AccessKind.MOBILE, 0.0, 10.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError):
                mobile(0.0, 10.0, rate)
            with pytest.raises(ValueError):
                wifi(0.0, 10.0, rate, 5.0, 1)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            mobile(0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            mobile(0.0, -3.0, 5.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                mobile(0.0, bad, 5.0)
            with pytest.raises(ValueError):
                mobile(bad, 10.0, 5.0)

    def test_start_time_must_be_a_real_number(self):
        # a string raised TypeError from math.isfinite, and True was kept
        for bad in ("0", True, None, math.nan, -1.0):
            with pytest.raises(ValueError, match="start_time"):
                mobile(bad, 10.0, 5.0)
        assert mobile(Fraction(0), 10.0, 5.0).start_time == 0

    def test_kind_must_be_an_access_kind(self):
        # a string kind was read as WiFi and failed on its rates
        for bad in ("mobile", "wifi", None):
            with pytest.raises(ValueError, match="kind"):
                RouteSegment(bad, 0.0, 10.0, mobile_rate=5.0)

    def test_backhaul_cannot_exceed_local(self):
        with pytest.raises(ValueError):
            wifi(0.0, 10.0, 5.0, 6.0, 1)

    @pytest.mark.parametrize("local", [16.16, 1e-300, 1e300])
    def test_backhaul_may_equal_local_and_no_more(self, local):
        """The rule is exact: a backhaul rate one float above its local
        rate is rejected, where a 1e-12 relative slack let it through."""
        assert wifi(0.0, 10.0, local, local, 1).backhaul_rate == local
        above = math.nextafter(local, math.inf)
        with pytest.raises(ValueError, match=re.escape(
                f"backhaul_rate {above!r} exceeds wifi_local_rate {local!r}")):
            wifi(0.0, 10.0, local, above, 1)

    def test_wifi_needs_hotspot_index(self):
        with pytest.raises(ValueError):
            RouteSegment(AccessKind.WIFI, 0.0, 10.0, wifi_local_rate=10.0,
                         backhaul_rate=5.0)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None, 0, -1, [1]])
    def test_wifi_hotspot_index_is_an_integer_from_1(self, index):
        """1.5 and True were kept as given, and "1" raised TypeError."""
        with pytest.raises(ValueError, match="hotspot_index must be an integer >= 1"):
            wifi(0.0, 10.0, 10.0, 5.0, index)

    def test_wifi_hotspot_index_takes_a_numpy_integer(self):
        assert wifi(0.0, 10.0, 10.0, 5.0, np.int64(2)).hotspot_index == 2

    @pytest.mark.parametrize("rate", [1.0, math.nan, "1", [1.0], True])
    def test_wifi_rejects_a_mobile_rate(self, rate):
        """A WiFi segment kept any mobile_rate, NaN, a string and a list
        included, where a mobile segment rejects WiFi rates."""
        with pytest.raises(ValueError, match="mobile_rate"):
            RouteSegment(AccessKind.WIFI, 0.0, 10.0, mobile_rate=rate, wifi_local_rate=10.0,
                         backhaul_rate=5.0, hotspot_index=1)

    def test_mobile_rejects_wifi_rates(self):
        with pytest.raises(ValueError):
            RouteSegment(AccessKind.MOBILE, 0.0, 10.0, mobile_rate=5.0,
                         wifi_local_rate=10.0)

    @pytest.mark.parametrize("index", [3, 0, -1])
    def test_mobile_rejects_a_hotspot_index(self, index):
        """A mobile segment's index was once kept, carried into realized
        routes and compared by the structure check."""
        with pytest.raises(ValueError, match="hotspot_index"):
            RouteSegment(AccessKind.MOBILE, 0, 1, mobile_rate=1, hotspot_index=index)


class TestRouteProfile:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            RouteProfile((mobile(0, 10, 5), mobile(11, 10, 5)), 21.0)

    def test_order_enforced(self):
        """Segments that ended or started before their predecessor, and so
        overlapped it, once passed an absolute 1e-6 s slack; they are off the
        running sum and raise, naming the segment."""
        with pytest.raises(ValueError, match=r"segment 1 starts at 9\.9999995, expected 10\.0"):
            RouteProfile((wifi(0, 10, 10, 5, 1), mobile(9.9999995, 1e-7, 5)), 10.0000001)
        with pytest.raises(ValueError, match=r"segment 0 starts at 5e-07, expected 0\.0"):
            RouteProfile((mobile(5e-7, 1e-7, 5), mobile(0, 10, 5)), 10.0000001)
        with pytest.raises(ValueError, match=r"segment 1 starts at 9\.9999995, expected 10\.0"):
            RouteProfile((mobile(0, 10, 5), mobile(9.9999995, 10, 5)), 20.0)

    def test_total_time_must_match(self):
        with pytest.raises(ValueError):
            RouteProfile((mobile(0, 10, 5),), 11.0)
        # a string or None raised TypeError from math.isclose
        for bad in ("10", None, True, math.nan):
            with pytest.raises(ValueError, match="total_time"):
                RouteProfile((mobile(0, 10, 5),), bad)

    @pytest.mark.parametrize("entry", [1, None, "mobile", (0.0, 10.0)])
    def test_every_segment_is_a_route_segment(self, entry):
        """RouteProfile((1,), 1.0) raised AttributeError."""
        with pytest.raises(ValueError, match=r"segments\[1\] must be a RouteSegment"):
            RouteProfile((mobile(0, 10, 5), entry), 10.0)
        with pytest.raises(ValueError, match=r"segments\[0\] must be a RouteSegment"):
            RouteProfile((entry,), 1.0)

    @pytest.mark.parametrize("segments", [5, 1.0, None, object()],
                             ids=["int", "float", "None", "object"])
    def test_segments_that_are_no_sequence_are_named(self, segments):
        """RouteProfile(5, 1.0) raised TypeError: 'int' object is not iterable."""
        with pytest.raises(ValueError, match="segments must be a sequence of RouteSegments"):
            RouteProfile(segments, 1.0)

    def test_a_route_needs_a_segment(self):
        with pytest.raises(ValueError, match="route needs at least one segment"):
            RouteProfile((), 0.0)

    def test_hotspot_indices_increasing(self):
        with pytest.raises(ValueError):
            RouteProfile(
                (wifi(0, 10, 10, 5, 2), wifi(10, 10, 10, 5, 1)), 20.0
            )

    # relative offsets from the running sum: those under 1e-9 are inside the
    # tolerance, the rest outside; the first start is 0 or off it
    INSIDE = [0.0, 1e-16, -1e-16, 5e-10, -5e-10, 0.99e-9, -0.99e-9]
    OUTSIDE = [1.01e-9, -1.01e-9, 2e-9, -2e-9, 1e-6, -1e-6]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 5e-7]),
           st.lists(st.tuples(st.floats(1e-9, 1e9), st.sampled_from(INSIDE + OUTSIDE)),
                    min_size=1, max_size=6),
           st.sampled_from(INSIDE + OUTSIDE))
    def test_contiguity_is_the_running_sum_rule(self, first, steps, total_offset):
        """A start or total within a relative 1e-9 of the running sum of the
        durations, taken by ``+=`` in order, is stored as that sum, bit for
        bit; one further off raises ``ValueError`` naming it."""
        cursor, sums, segments, bad = 0.0, [], [], None
        for i, (duration, offset) in enumerate(steps):
            start = first if i == 0 else cursor * (1 + offset)
            if bad is None and (start != 0.0 if i == 0 else offset in self.OUTSIDE):
                bad = f"segment {i} starts at"
            segments.append(mobile(start, duration, 5.0))
            sums.append(cursor)
            cursor += duration
        if bad is None and total_offset in self.OUTSIDE:
            bad = "total_time"
        if bad is not None:
            with pytest.raises(ValueError, match=bad):
                RouteProfile(tuple(segments), cursor * (1 + total_offset))
            return
        route = RouteProfile(tuple(segments), cursor * (1 + total_offset))
        assert [s.start_time for s in route.segments] == sums
        assert math.copysign(1.0, route.segments[0].start_time) == 1.0
        assert route.total_time == cursor

    def test_bundled_routes(self, route_4ap, route_2ap, route_8ap):
        for route, n in ((route_4ap, 4), (route_2ap, 2), (route_8ap, 8)):
            assert route.total_time == pytest.approx(269.0)
            assert route.n_hotspots == n
        # every layout keeps the same total WiFi window time
        for route in (route_4ap, route_8ap):
            assert sum(s.duration for s in route.hotspots) == pytest.approx(72.0)
        assert route_4ap.mobile_time() == pytest.approx(197.0)


class TestRouteHash:
    """A route hashes its value once; no copy or pickle carries that hash."""

    def test_copies_and_replacements_hash_as_fresh_routes(self, route_8ap):
        route = scale_route(route_8ap, 0.5, 0.5, 0.5)
        h = hash(route)
        assert hash(route) == h == hash(RouteProfile(route.segments, route.total_time))
        for same in (copy.copy(route), copy.deepcopy(route), dataclasses.replace(route),
                     pickle.loads(pickle.dumps(route))):
            assert same == route and hash(same) == h
        head = route.segments[0]
        shorter = dataclasses.replace(route, segments=(head,), total_time=head.duration)
        assert hash(shorter) == hash(RouteProfile((head,), head.duration)) != h

    def test_a_pickled_route_hashes_as_one_built_under_another_seed(self, tmp_path):
        """Enum hashes, and so a route's, change with PYTHONHASHSEED: a route
        hashed and pickled under one seed, loaded under another, hashes as
        an equal route built there."""
        code = textwrap.dedent("""
            import pickle, sys
            from offloadsim.config import load_route
            path, mode = sys.argv[1:]
            route = load_route("4ap")
            if mode == "dump":
                with open(path, "wb") as f:
                    pickle.dump((hash(route), route), f)
            else:
                with open(path, "rb") as f:
                    there, loaded = pickle.load(f)
                assert loaded == route and hash(loaded) == hash(route) != there
                assert {route: "built"}[loaded] == "built"
                print("ok")
        """)
        src = str(Path(offloadsim.__file__).resolve().parents[1])
        path = str(tmp_path / "route.pickle")
        outs = [subprocess.run([sys.executable, "-c", code, path, mode],
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                               capture_output=True, text=True, check=True).stdout
                for mode, seed in (("dump", "1"), ("load", "2"))]
        assert outs[1].strip() == "ok"


class TestScaleRoute:
    def test_identity(self, route_4ap):
        scaled = scale_route(route_4ap, 1.0, 1.0, 1.0)
        assert scaled == route_4ap

    def test_mobile_third(self, route_4ap):
        scaled = scale_route(route_4ap, mobile_factor=1 / 3)
        assert scaled.segments[0].mobile_rate == pytest.approx(1.61, abs=1e-12)

    def test_backhaul_third(self, route_4ap):
        scaled = scale_route(route_4ap, backhaul_factor=1 / 3)
        assert scaled.segments[1].backhaul_rate == pytest.approx(2.27, abs=1e-12)

    @pytest.mark.parametrize("first", [(0.25, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3)])
    @pytest.mark.parametrize("second", [(0.5, 0.5, 0.25), (1.0, 0.5, 0.5)])
    def test_composition(self, route_4ap, first, second):
        # factor pairs chosen so the backhaul cap never engages
        once = scale_route(scale_route(route_4ap, *first), *second)
        combined = scale_route(
            route_4ap,
            first[0] * second[0],
            first[1] * second[1],
            first[2] * second[2],
        )
        for a, b in zip(once.segments, combined.segments):
            for field in ("mobile_rate", "wifi_local_rate", "backhaul_rate"):
                x, y = getattr(a, field), getattr(b, field)
                if x is not None:
                    assert math.isclose(x, y, rel_tol=1e-12)

    def test_backhaul_capped_at_local(self, route_4ap):
        # W/4 with full A would put every backhaul above its radio link
        scaled = scale_route(route_4ap, wifi_factor=0.25, backhaul_factor=1.0)
        for seg in scaled.hotspots:
            assert seg.backhaul_rate == pytest.approx(seg.wifi_local_rate)

    def test_nonpositive_factor_rejected(self, route_4ap):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                scale_route(route_4ap, mobile_factor=bad)


class TestEnergyModel:
    def test_defaults(self):
        m = EnergyModel()
        assert m.mobile_transfer_j_per_mb == 100.0
        assert m.wifi_transfer_j_per_mb == 5.0
        assert m.wifi_idle_w == 0.77
        assert m.wifi_preactivation_s == 20.0

    def test_negative_rejected(self):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                EnergyModel(wifi_idle_w=bad)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EnergyModel)])
    def test_each_field_is_a_finite_real_number(self, field):
        # a string or None raised TypeError, True was kept, and an int past
        # the float range raised OverflowError
        for bad in ("1", None, True, HUGE, [1.0]):
            with pytest.raises(ValueError, match=field):
                EnergyModel(**{field: bad})
        assert getattr(EnergyModel(**{field: Fraction(1, 2)}), field) == 0.5


class TestTransferTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferTask(size_mb=0.0, delay_threshold=100.0)
        with pytest.raises(ValueError):
            TransferTask(size_mb=10.0, delay_threshold=0.0)
        # a bool ran as 1 MB or 1 s, and a string or a list raised TypeError
        for bad in (math.nan, math.inf, True, "1", [1.0]):
            with pytest.raises(ValueError, match="size_mb"):
                TransferTask(size_mb=bad, delay_threshold=100.0)
            with pytest.raises(ValueError, match="delay_threshold"):
                TransferTask(size_mb=10.0, delay_threshold=bad)

    def test_traffic_class_must_be_a_traffic_class(self):
        # a string class reached the policy check and raised AttributeError
        for bad in ("delay-tolerant", None):
            with pytest.raises(ValueError, match="traffic_class"):
                TransferTask(10.0, 100.0, bad)

    def test_delay_sensitive_ignores_threshold(self):
        task = TransferTask(50.0, 100.0, TrafficClass.DELAY_SENSITIVE)
        assert math.isinf(task.effective_deadline())
        task = TransferTask(50.0, 100.0, TrafficClass.DELAY_TOLERANT)
        assert task.effective_deadline() == 100.0


@pytest.mark.parametrize("make,field", [
    (lambda: TransferTask(size_mb=HUGE, delay_threshold=1.0), "size_mb"),
    (lambda: TransferTask(size_mb=1.0, delay_threshold=HUGE), "delay_threshold"),
    (lambda: RouteSegment(AccessKind.MOBILE, HUGE, 1.0, mobile_rate=1.0), "start_time"),
    (lambda: mobile(0.0, HUGE, 1.0), "duration"),
    (lambda: mobile(0.0, 1.0, -HUGE), "mobile_rate"),
    (lambda: wifi(0.0, 1.0, HUGE, 1.0, 1), "wifi_local_rate"),
    (lambda: EnergyModel(wifi_idle_w=HUGE), "wifi_idle_w"),
    (lambda: RouteProfile((mobile(0.0, 1.0, 1.0),), HUGE), "total_time"),
], ids=["size", "threshold", "start", "duration", "mobile-rate", "local-rate", "energy",
        "total"])
def test_an_int_past_the_float_range_names_its_field(make, field):
    """Such an int raised ``OverflowError`` from ``math.isfinite``."""
    with pytest.raises(ValueError, match=field):
        make()


def test_check_real_fast_path_keeps_the_abc_rule():
    """A float is told by its type, and every value gets the outcome and
    message of the ``numbers.Real`` rule, at each bound form the model uses:
    a real number, not a bool, that converts to a finite float in range."""
    forms = {(0.0, math.inf, False): "positive and finite",
             (0.0, math.inf, True): "finite and >= 0",
             (0.0, 1.0, True): "in [0, 1)"}

    def abc_rule(name, value, low, high, closed):
        x = math.nan
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                x = float(value)
            except OverflowError:
                pass
        if not (math.isfinite(x) and (low <= x if closed else low < x) and x < high):
            raise ValueError(f"{name} must be {forms[low, high, closed]}, got {value!r}")

    def outcome(check, value, form):
        try:
            check("x", value, *form)
        except ValueError as e:
            return str(e)
        return None

    floats = (0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0, 1.7976931348623157e308, math.nan,
              math.inf, -math.inf)
    pool = (*floats, *map(np.float64, floats), Fraction(1, 3), 10 ** 308, HUGE, -HUGE, 1,
            True, None, "1.0")
    for form in forms:
        for value in pool:
            assert outcome(check_real, value, form) == outcome(abc_rule, value, form), \
                (value, form)
    assert outcome(check_real, 5e-324, (0.0, math.inf, False)) is None
    assert outcome(check_real, 10 ** 308, (0.0, math.inf, False)) is None
    assert outcome(check_real, np.float64(0.5), (0.0, 1.0, True)) is None


def test_check_integer_fast_path_keeps_the_abc_rule():
    """A plain int is told by its type, and every value gets the outcome and
    message of the ``numbers.Integral`` rule: an int or numpy integer, not a
    bool, of at least ``least``."""
    def abc_rule(name, value, least):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    def outcome(check, value, least):
        try:
            check("n", value, least)
        except ValueError as e:
            return str(e)
        return None

    pool = (0, 1, -1, 2 ** 70, True, False, np.bool_(True), np.int64(3), np.uint64(3),
            3.0, "1", None)
    for least in (0, 1):
        for value in pool:
            assert outcome(check_integer, value, least) == outcome(abc_rule, value, least), \
                (value, least)
    assert outcome(check_integer, 2 ** 70, 1) is None
    assert outcome(check_integer, np.bool_(True), 0) is not None
