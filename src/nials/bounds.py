"""Integer bounds that a multivariate literal implies over interval hulls.

`revise` is one HC4 revise step (Benhamou et al., ICLP 1999) rounded to
the integers, as in Jovanović, "Solving Nonlinear Integer Arithmetic with
MCSAT" (VMCAI 2017).  Each variable ranges over a hull [lo, hi], the least
and greatest member of its feasible set.  Forward, every monomial is
evaluated over the hulls.  Backward, one monomial is isolated, divided by
its other factors and taken to an integer k-th root.  The literal is read
as its `Atom.form` ``p ⋈ 0``: ``p = 0`` and ``p ≤ 0`` narrow, and a
disequality narrows nothing.

Only hulls are used.  A divisor whose hull contains 0 narrows nothing,
and no step divides by a union of intervals: on the criterion-8 guidance
instance, division by z's set [−E, −1] ∪ [1, T] would pin x to its two
model values and end a search that must stay open.
"""

from __future__ import annotations

from typing import Optional

from .terms import EQ, NEQ
from .univariate import iroot

INF = float("inf")      # hull ends are ints, or ±INF where unbounded


def hull(s) -> tuple:
    """(least, greatest) member of a non-empty IntervalSet, ±INF if none."""
    lo, hi = s.intervals[0][0], s.intervals[-1][1]
    return (-INF if lo is None else lo, INF if hi is None else hi)


def _mul(a, b):
    """a·b over ints and ±INF (the floats); 0·INF is 0, since a hull's
    infinite end is a limit that no member reaches."""
    if not a or not b:
        return 0
    if type(a) is float or type(b) is float:
        return INF if (a > 0) == (b > 0) else -INF
    return a * b


def _times(r: tuple, s: tuple) -> tuple:
    a, b = r
    c, d = s
    if type(a) is type(b) is type(c) is type(d) is int:
        ps = (a * c, a * d, b * c, b * d)
    else:
        ps = (_mul(a, c), _mul(a, d), _mul(b, c), _mul(b, d))
    return min(ps), max(ps)


def _pow(a, k: int):
    if type(a) is float:
        return INF if a > 0 or k % 2 == 0 else -INF
    return a ** k


def _power(r: tuple, k: int) -> tuple:
    lo, hi = r
    if k == 1:
        return r
    if k % 2 or lo >= 0:
        return _pow(lo, k), _pow(hi, k)
    if hi <= 0:
        return _pow(hi, k), _pow(lo, k)
    return 0, max(_pow(lo, k), _pow(hi, k))


def _quotient(r: tuple, d: tuple) -> tuple:
    """Integer hull of {a / b : a ∈ r, b ∈ d} for a divisor hull d that
    does not contain 0: the corners, rounded inwards to integers.

    At an infinite b, a / b tends to 0 without reaching it, unless a is 0:
    from above, the least integer near it is 1; from below, the greatest
    is −1.
    """
    lo, hi = INF, -INF
    for a in r:
        for b in d:
            if type(b) is float:
                if not a:
                    q_lo = q_hi = 0
                elif (a > 0) == (b > 0):
                    q_lo, q_hi = 1, 0
                else:
                    q_lo, q_hi = 0, -1
            elif type(a) is float:
                q_lo = q_hi = a if b > 0 else -a
            else:
                q_lo, q_hi = -(-a // b), a // b
            if q_lo < lo:
                lo = q_lo
            if q_hi > hi:
                hi = q_hi
    return lo, hi


def _ceil_root(n: int, k: int) -> int:
    r = iroot(n, k)
    return r + (r ** k != n)


def _floor_root(n, k: int):
    """⌊n^(1/k)⌋ for odd k, any sign of n, ±INF kept."""
    if type(n) is float:
        return n
    return iroot(n, k) if n >= 0 else -_ceil_root(-n, k)


def _root(r: tuple, k: int, own: tuple) -> tuple:
    """(lo, hi, uses_own): the integer hull of {v ∈ own : v^k ∈ r}, and
    whether it rests on ``own``; lo > hi when it is empty."""
    lo, hi = r
    if k == 1:
        return lo, hi, False
    if k % 2:
        return -_floor_root(-lo, k), _floor_root(hi, k), False
    if hi < 0:
        return 1, 0, False
    top = hi if type(hi) is float else iroot(hi, k)
    if lo <= 0:
        return -top, top, False
    # |v| ∈ [bottom, top]: a union of two intervals, of which `own` may
    # meet only one.
    bottom = _ceil_root(lo, k)
    if bottom > top:
        return 1, 0, False
    if own[0] > -bottom:
        return bottom, top, True
    if own[1] < bottom:
        return -top, -bottom, True
    return -top, top, False


def revise(atom, positive: bool, hulls: dict) -> Optional[list]:
    """The hulls that the literal narrows.

    ``hulls`` maps each variable id of the atom to its (lo, hi).  Returns
    None when no point of the hulls satisfies the literal, else a list of
    ``(vid, lo, hi, own)`` for each hull it narrows: wherever the literal
    holds in the hulls, v ∈ [lo, hi], a strict part of v's hull.  ``own``
    tells whether the bound rests on v's own hull besides the others.
    """
    p, rel = atom.form(positive)
    if rel is NEQ:
        return []
    is_eq = rel is EQ
    const = p.terms.get((), 0)
    terms = [(c, m) for m, c in p.terms.items() if m]
    # p = const + Σ c·m must meet [0, 0] (is_eq) or [−INF, 0].  The sums
    # keep their finite parts and count their infinite ones, so that each
    # c·m can take its own range back out.
    ranges = []                 # of each c·m
    uses: dict[int, int] = {}   # vid -> number of monomials it occurs in
    lo_sum = hi_sum = const
    lo_inf = hi_inf = 0
    for c, m in terms:
        lo, hi = c, c
        for vid, k in m:
            lo, hi = _times((lo, hi), _power(hulls[vid], k))
            uses[vid] = uses.get(vid, 0) + 1
        ranges.append((lo, hi))
        if type(lo) is float:
            lo_inf += 1
        else:
            lo_sum += lo
        if type(hi) is float:
            hi_inf += 1
        else:
            hi_sum += hi
        if lo_inf > 1 and (not is_eq or hi_inf > 1):
            return []           # every rest is unbounded where it counts
    if not lo_inf and lo_sum > 0 or is_eq and not hi_inf and hi_sum < 0:
        return None
    found: dict[int, list] = {}
    for (c, m), (r_lo, r_hi) in zip(terms, ranges):
        # c·m = p − rest, where rest = const + Σ of the other c_i·m_i.
        lo_free, hi_free = type(r_lo) is float, type(r_hi) is float
        if lo_inf - lo_free:
            if not is_eq or hi_inf - hi_free:
                continue        # no end of p − rest is finite
            rest_lo = -INF
        else:
            rest_lo = lo_sum if lo_free else lo_sum - r_lo
        if hi_inf - hi_free:
            rest_hi = INF
        else:
            rest_hi = hi_sum if hi_free else hi_sum - r_hi
        mono = _quotient((-rest_hi if is_eq else -INF, -rest_lo), (c, c))
        if mono[0] > mono[1]:
            return None
        for vid, k in m:
            d = (1, 1)
            for u, e in m:
                if u != vid:
                    d = _times(d, _power(hulls[u], e))
            if d[0] <= 0 <= d[1]:
                continue
            q = mono if d == (1, 1) else _quotient(mono, d)
            if q[0] > q[1]:
                return None
            own = hulls[vid]
            lo, hi, uses_own = _root(q, k, own)
            if lo <= own[0] and hi >= own[1]:
                continue
            lo, hi = max(lo, own[0]), min(hi, own[1])
            if lo > hi:
                return None
            prev = found.get(vid)
            if prev is None:
                found[vid] = [lo, hi, uses_own or uses[vid] > 1]
            else:
                prev[0], prev[1] = max(prev[0], lo), min(prev[1], hi)
                prev[2] = prev[2] or uses_own
                if prev[0] > prev[1]:
                    return None
    return [(vid, lo, hi, own) for vid, (lo, hi, own) in found.items()]
