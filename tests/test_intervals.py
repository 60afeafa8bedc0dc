"""Integer interval set algebra, checked against membership enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nials.errors import InternalError
from nials.intervals import IntervalSet, nearest_to_zero

WINDOW = range(-20, 21)


def members_in_window(s):
    return {v for v in WINDOW if v in s}


def bound(inner):
    return st.one_of(st.none(), inner)


raw_intervals = st.lists(
    st.tuples(bound(st.integers(-15, 15)), bound(st.integers(-15, 15))),
    max_size=4)
interval_sets = raw_intervals.map(IntervalSet.from_intervals)


class TestCanonicalForm:
    def test_from_intervals_merges_adjacent(self):
        s = IntervalSet.from_intervals([(0, 2), (3, 5)])
        assert s.intervals == ((0, 5),)

    def test_from_intervals_drops_empty(self):
        s = IntervalSet.from_intervals([(5, 2), (0, 1)])
        assert s.intervals == ((0, 1),)

    def test_point_and_range(self):
        assert IntervalSet.point(3).singleton_value() == 3
        assert IntervalSet.range(2, 1).is_empty()
        assert IntervalSet.range(None, None) == IntervalSet.full()

    @given(raw_intervals)
    def test_canonical_invariants(self, ivs):
        s = IntervalSet.from_intervals(ivs)
        for (lo, hi) in s.intervals:
            assert lo is None or hi is None or lo <= hi
        for (_, hi), (nlo, _) in zip(s.intervals, s.intervals[1:]):
            assert hi is not None and nlo is not None
            assert nlo > hi + 1


class TestSetAlgebra:
    @given(interval_sets, interval_sets)
    def test_intersect_matches_membership(self, a, b):
        got = members_in_window(a.intersect(b))
        assert got == members_in_window(a) & members_in_window(b)

    @given(interval_sets)
    def test_complement_matches_membership(self, a):
        got = members_in_window(a.complement())
        assert got == set(WINDOW) - members_in_window(a)

    @given(interval_sets)
    def test_complement_involution(self, a):
        assert a.complement().complement() == a


class TestPickValue:
    def test_hint_wins_when_feasible(self):
        s = IntervalSet.from_intervals([(-5, 5), (40, 60)])
        assert s.pick_value(41) == 41
        assert s.pick_value(100) == 0

    def test_minimal_absolute_value(self):
        s = IntervalSet.from_intervals([(-10, -4), (3, 9)])
        assert s.pick_value() == 3

    def test_tie_prefers_nonnegative(self):
        s = IntervalSet.from_intervals([(-10, -3), (3, 9)])
        assert s.pick_value() == 3

    def test_zero_member(self):
        assert IntervalSet.range(-3, 3).pick_value() == 0

    def test_unbounded_side(self):
        assert IntervalSet.range(7, None).pick_value() == 7
        assert IntervalSet.range(None, -7).pick_value() == -7

    @given(interval_sets, st.one_of(st.none(), st.integers(-18, 18)))
    def test_pick_value_is_member(self, s, hint):
        if s.is_empty():
            return
        assert s.pick_value(hint) in s

    def test_nearest_to_zero(self):
        assert nearest_to_zero(40, 60) == 40
        assert nearest_to_zero(-5, 5) == 0
        assert nearest_to_zero(-60, -40) == -40
        assert nearest_to_zero(None, -3) == -3
        assert nearest_to_zero(3, None) == 3
        assert nearest_to_zero(None, None) == 0

    @given(interval_sets)
    def test_nearest_to_zero_is_pick_value_of_each_interval(self, s):
        for lo, hi in s.intervals:
            assert nearest_to_zero(lo, hi) == \
                IntervalSet.range(lo, hi).pick_value()


class TestNavigation:
    def test_containing_and_neighbors_inside(self):
        s = IntervalSet.from_intervals([(-5, 5), (40, 60), (100, None)])
        idx, left, right = s.containing_and_neighbors(42)
        assert idx == 1
        assert left == (-5, 5)
        assert right == (100, None)

    def test_containing_and_neighbors_gap(self):
        s = IntervalSet.from_intervals([(-5, 5), (40, 60)])
        idx, left, right = s.containing_and_neighbors(20)
        assert idx < 0
        assert left == (-5, 5)
        assert right == (40, 60)

    @given(interval_sets, st.integers(-18, 18))
    def test_find_agrees_with_contains(self, s, v):
        assert (v in s) == any(
            (lo is None or lo <= v) and (hi is None or v <= hi)
            for lo, hi in s.intervals)

    @given(interval_sets, st.integers(-18, 18))
    def test_interval_of_holds_the_member(self, s, v):
        if v in s:
            lo, hi = s.interval_of(v)
            assert (lo, hi) in s.intervals
            assert (lo is None or lo <= v) and (hi is None or v <= hi)

    def test_interval_of_a_non_member_is_an_internal_error(self):
        # A raise, not an assert: under -O an assert would give (0, 3),
        # an interval that 5 is not in.
        s = IntervalSet.from_intervals([(0, 3), (10, 20)])
        for v in (5, -1, 21):
            with pytest.raises(InternalError, match="not a member"):
                s.interval_of(v)
