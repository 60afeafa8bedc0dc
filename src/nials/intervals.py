"""Finite unions of disjoint integer intervals.

Bounds use ``None`` for −∞ (as a low bound) and +∞ (as a high bound).
Canonical form: intervals sorted, disjoint, with a gap of at least one
integer between consecutive intervals.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InternalError


def _lo_le(a: Optional[int], b: Optional[int]) -> bool:
    """a <= b where None means −∞."""
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def _hi_ge(a: Optional[int], b: Optional[int]) -> bool:
    """a >= b where None means +∞."""
    if a is None:
        return True
    if b is None:
        return False
    return a >= b


def nearest_to_zero(lo: Optional[int], hi: Optional[int]) -> int:
    """The member of the non-empty interval [lo, hi] with minimal |v|."""
    if lo is not None and lo > 0:
        return lo
    if hi is not None and hi < 0:
        return hi
    return 0


class IntervalSet:
    """Canonical finite union of integer intervals [lo, hi]."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple]):
        self.intervals = tuple(intervals)

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def full() -> "IntervalSet":
        return _FULL

    @staticmethod
    def point(v: int) -> "IntervalSet":
        return IntervalSet(((v, v),))

    @staticmethod
    def range(lo: Optional[int], hi: Optional[int]) -> "IntervalSet":
        if lo is not None and hi is not None and lo > hi:
            return _EMPTY
        return IntervalSet(((lo, hi),))

    @staticmethod
    def from_intervals(intervals: Iterable[tuple]) -> "IntervalSet":
        """Canonicalize arbitrary intervals: sort, drop empties, merge."""
        items = [
            (lo, hi)
            for lo, hi in intervals
            if lo is None or hi is None or lo <= hi
        ]
        items.sort(key=lambda iv: (iv[0] is not None, iv[0] if iv[0] is not None else 0))
        out: list[tuple] = []
        for lo, hi in items:
            if out:
                plo, phi = out[-1]
                if phi is None or lo is None or lo <= phi + 1:
                    if phi is None or hi is None:
                        nhi = None
                    else:
                        nhi = max(phi, hi)
                    out[-1] = (plo, nhi)
                    continue
            out.append((lo, hi))
        return IntervalSet(out)

    def is_empty(self) -> bool:
        return not self.intervals

    def singleton_value(self) -> Optional[int]:
        """The unique member, or None if not a singleton."""
        if len(self.intervals) == 1:
            lo, hi = self.intervals[0]
            if lo is not None and lo == hi:
                return lo
        return None

    def __contains__(self, v: int) -> bool:
        return self._find(v) >= 0

    def interval_of(self, v: int) -> tuple:
        """The interval (lo, hi) holding the member v; else InternalError."""
        i = self._find(v)
        if i < 0:
            raise InternalError(f"interval_of {v}: not a member of {self}")
        return self.intervals[i]

    def _find(self, v: int) -> int:
        """Index of the interval containing v, or ``−(gap+1)`` if absent.

        Gap g means v lies strictly between intervals g−1 and g.
        """
        ivs = self.intervals
        left, right = 0, len(ivs)
        while left < right:
            mid = (left + right) // 2
            lo = ivs[mid][0]
            if lo is None or lo <= v:
                left = mid + 1
            else:
                right = mid
        i = left - 1  # last interval with lo <= v, or −1
        if i >= 0 and _hi_ge(ivs[i][1], v):
            return i
        return -(i + 2)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            alo, ahi = a[i]
            blo, bhi = b[j]
            lo = blo if _lo_le(alo, blo) else alo
            if _hi_ge(bhi, ahi):
                hi = ahi
                hi_from_a = True
            else:
                hi = bhi
                hi_from_a = False
            if lo is None or hi is None or lo <= hi:
                out.append((lo, hi))
            if hi_from_a:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        if not self.intervals:
            return _FULL
        out = []
        first_lo = self.intervals[0][0]
        if first_lo is not None:
            out.append((None, first_lo - 1))
        for k in range(len(self.intervals) - 1):
            hi = self.intervals[k][1]
            nlo = self.intervals[k + 1][0]
            out.append((hi + 1, nlo - 1))
        last_hi = self.intervals[-1][1]
        if last_hi is not None:
            out.append((last_hi + 1, None))
        return IntervalSet(out)

    def pick_value(self, hint: Optional[int] = None) -> int:
        """hint if a member, else the member with minimal |v| (ties → ≥ 0)."""
        if hint is not None and hint in self:
            return hint
        return self.nearest(0)

    def nearest(self, v: int) -> int:
        """The member closest to v (ties → the larger)."""
        assert self.intervals, "nearest on empty set"
        idx = self._find(v)
        if idx >= 0:
            return v
        gap = -(idx + 1)
        below = self.intervals[gap - 1][1] if gap > 0 else None
        above = (self.intervals[gap][0] if gap < len(self.intervals)
                 else None)
        if below is None or (above is not None and above - v <= v - below):
            return above
        return below

    def containing_and_neighbors(self, v: int):
        """(index-or-gap, left interval, right interval) around value v.

        If v lies in interval j, neighbors are intervals j−1 / j+1; if v lies
        in a gap, they are the nearest intervals on each side.  A gap position
        g is encoded as −(g+1).
        """
        assert self.intervals
        idx = self._find(v)
        if idx >= 0:
            left = self.intervals[idx - 1] if idx - 1 >= 0 else None
            right = self.intervals[idx + 1] if idx + 1 < len(self.intervals) else None
            return idx, left, right
        gap = -(idx + 1)
        left = self.intervals[gap - 1] if gap - 1 >= 0 else None
        right = self.intervals[gap] if gap < len(self.intervals) else None
        return idx, left, right

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        if not self.intervals:
            return "{}"

        def fmt(iv):
            lo, hi = iv
            return f"[{'-inf' if lo is None else lo}, {'+inf' if hi is None else hi}]"

        return " u ".join(fmt(iv) for iv in self.intervals)


_EMPTY = IntervalSet(())
_FULL = IntervalSet(((None, None),))
