"""Exact integer solution sets of univariate polynomial constraints.

``solve_univariate_coeffs`` maps ``p(x) ⋈ 0`` to a canonical IntervalSet of
its integer solutions.  All arithmetic is on integers.  Constant and linear
constraints are solved directly.  Above degree 1, ``_brackets`` walks the
derivative chain p, p′, p″, … from the linear end up and collects integers
that bracket every real root of each: between two consecutive brackets of
p′ that are at least 2 apart, p is monotone, so a sign change there is
exactly one root, found by integer bisection.  Every root lies strictly
inside the Cauchy bound ``2 + max|c| // |lead|`` of p, and by Gauss–Lucas so
does every root of its derivatives.  The sign of p is constant between
consecutive brackets, so one test per segment gives the solution set.
When every exponent of p is a multiple of g > 1, p(x) = q(x^g), and the
chain walks q instead: brackets of q's roots map back to x through the
integer g-th roots of `iroot`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .intervals import IntervalSet
from .terms import EQ, LT, NEQ, Rel

# Coefficient lists are dense, lowest degree first.


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _eval_poly(cs, x):
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def _derivative(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def iroot(n: int, k: int) -> int:
    """⌊n^(1/k)⌋ for n ≥ 0 and k ≥ 1, by integer Newton steps from above."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)       # 2^⌈bits/k⌉ > the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _root_brackets(us: list, g: int) -> list:
    """Sorted integers holding the floor and ceiling of every real x with
    x^g = u for each u of ``us``, plus 0.

    If ``us`` holds the floor a and ceiling b of a root u of q, the roots x
    of q(x^g) = 0 over u lie between the g-th roots of a and b, and no
    integer lies strictly between ⌊a^(1/g)⌋ and ⌈b^(1/g)⌉.
    """
    pts = {0}
    for u in us:
        if u < 0 and g % 2 == 0:
            continue
        r = iroot(abs(u), g)
        ends = (r, r + (r ** g != abs(u)))
        pts.update(-e if u < 0 else e for e in ends)
        if g % 2 == 0:
            pts.update(-e for e in ends)
    return sorted(pts)


def _brackets(cs: list, bound: int) -> list:
    """Sorted integers holding the floor and ceiling of each real root of
    ``cs`` (degree ≥ 1) and of its derivatives, all inside (-bound, bound).

    Each level scans the gaps between the points found so far; a root in a
    unit gap already has both neighbours among them.
    """
    chain = [cs]
    while len(chain[-1]) > 2:
        chain.append(_derivative(chain[-1]))
    b, a = chain.pop()
    pts = {-b // a, -(b // a)}      # floor and ceiling of -b/a
    for p in reversed(chain):
        ends = [-bound, *sorted(pts), bound]
        vals = [_eval_poly(p, x) for x in ends]
        for i in range(len(ends) - 1):
            if vals[i] * vals[i + 1] < 0:
                lo, hi = ends[i], ends[i + 1]
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if vals[i] * _eval_poly(p, mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                pts.add(lo)
                pts.add(hi)
    return sorted(pts)


@lru_cache(maxsize=65536)
def solve_univariate_coeffs(coeffs: tuple, rel: Rel) -> IntervalSet:
    """Integer solution set of ``p(x) ⋈ 0`` given dense coefficients."""
    cs = list(coeffs)
    _trim(cs)
    if not cs or len(cs) == 1:
        value = cs[0] if cs else 0
        return IntervalSet.full() if rel.holds(value) else IntervalSet.empty()
    if len(cs) == 2:
        return _solve_linear(cs[0], cs[1], rel)
    return _solve_general(cs, rel)


def _solve_linear(b: int, a: int, rel: Rel) -> IntervalSet:
    """Integer solutions of ``a·x + b ⋈ 0`` with a ≠ 0."""
    if rel is EQ:
        if b % a == 0:
            return IntervalSet.point(-b // a)
        return IntervalSet.empty()
    if rel is NEQ:
        return _solve_linear(b, a, EQ).complement()
    # a·x + b <= 0  <=>  x <= -b/a (a > 0)  or  x >= -b/a (a < 0)
    strict = rel is LT
    if a > 0:
        # x <= floor(-b/a), excluding the root itself when strict
        bound = -b // a  # floor division
        if strict and a * bound + b == 0:
            bound -= 1
        return IntervalSet.range(None, bound)
    bound = -(-b // -a)  # ceil(-b / a) for a < 0
    if strict and a * bound + b == 0:
        bound += 1
    return IntervalSet.range(bound, None)


def _solve_general(cs: list, rel: Rel) -> IntervalSet:
    # Cauchy bound: every root of cs, and by Gauss–Lucas of each of its
    # derivatives, lies strictly inside (-bound, bound); q has the same
    # coefficients, so the same bound.
    bound = 2 + max(abs(c) for c in cs) // abs(cs[-1])
    g = 0
    for e, c in enumerate(cs):
        if c:
            g = math.gcd(g, e)
    if g > 1:
        pts = _root_brackets(_brackets(cs[::g], bound), g)
    else:
        pts = _brackets(cs, bound)
    segments = []  # (lo, hi, representative)
    segments.append((None, pts[0] - 1, pts[0] - 1))
    for i, c in enumerate(pts):
        segments.append((c, c, c))
        if i + 1 < len(pts) and pts[i + 1] > c + 1:
            segments.append((c + 1, pts[i + 1] - 1, c + 1))
    segments.append((pts[-1] + 1, None, pts[-1] + 1))
    good = [
        (lo, hi)
        for lo, hi, rep in segments
        if rel.holds(_eval_poly(cs, rep))
    ]
    return IntervalSet.from_intervals(good)
