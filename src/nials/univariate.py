"""Exact integer solution sets of univariate polynomial constraints.

``solve_univariate_coeffs`` maps ``p(x) ⋈ 0`` to a canonical IntervalSet of
its integer solutions.  All arithmetic is on integers.  The squarefree part
of ``p`` is ``p / gcd(p, p')``, with the gcd taken by a primitive
pseudo-remainder sequence and the quotient by exact integer division.  Its
real roots are counted with a Sturm chain of primitive pseudo-remainders
and bracketed by bisection over integer endpoints, down to unit brackets;
the integer restriction then follows from sign tests at finitely many
integers (signs are constant between bracketed roots).
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


def _primitive(cs):
    """``cs`` divided by the gcd of its coefficients (a positive number)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _prem(a, b):
    """Pseudo-remainder of a by b: ``lc(b)^k · a mod b`` for some k ≥ 0.

    Returns ``(r, k)``; ``r`` is ``lc(b)^k`` times the rational remainder.
    The leading coefficient is multiplied in only where a step needs it.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    k = 0
    while r and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        if lr % lb == 0:
            q = lr // lb
        else:
            r = [lb * c for c in r]
            q = lr
            k += 1
        for i in range(db):
            r[shift + i] -= q * b[i]
        r.pop()
        _trim(r)
    return r, k


def _primitive_gcd(a, b):
    """Primitive gcd of two nonzero integer polynomials (sign unspecified)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r, _ = _prem(a, b)
        a, b = b, (_primitive(r) if r else r)
    return a


def _div_exact(a, b):
    """Exact quotient a / b over ℤ; b divides a and has an integral quotient."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        c = r[-1] // lb
        q[shift] = c
        for i in range(db):
            r[shift + i] -= c * b[i]
        r.pop()
        _trim(r)
    return q


def _sturm_chain(cs):
    """Sturm chain of a squarefree polynomial, every element primitive.

    Each next element is ``-sign(lc(b)^k) · prem(a, b) / content``: a
    positive multiple of the negated rational remainder, so the sign
    sequence at every point is that of the classical chain.
    """
    chain = [cs]
    d = _derivative(cs)
    if d:
        chain.append(_primitive(d))
        while True:
            a, b = chain[-2], chain[-1]
            r, k = _prem(a, b)
            if not r:
                break
            g = math.gcd(*r)
            if b[-1] > 0 or k % 2 == 0:     # lc(b)^k > 0
                g = -g
            chain.append([c // g for c in r])
    return chain


def _variations(chain, x) -> int:
    count = 0
    prev = 0
    for cs in chain:
        s = _eval_poly(cs, x)
        s = (s > 0) - (s < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _isolate_roots(cs) -> list:
    """Unit brackets (a, a + 1] holding every real root of a squarefree poly.

    Bisects integer brackets (a, b] from the integer Cauchy bound;
    ``V(a) - V(b)`` counts the distinct roots in (a, b].
    """
    chain = _sturm_chain(cs)
    bound = 2 + max(abs(c) for c in cs) // abs(cs[-1])
    brackets = []
    stack = [(-bound, _variations(chain, -bound),
              bound, _variations(chain, bound))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            brackets.append(a)
            continue
        mid = (a + b) // 2
        vm = _variations(chain, mid)
        stack.append((a, va, mid, vm))
        stack.append((mid, vm, b, vb))
    return brackets


def _breakpoints(cs) -> list:
    """Sorted integers bracketing every real root (floor/ceil superset)."""
    der = _derivative(cs)
    g = _primitive_gcd(cs, der)
    # Squarefree part p / gcd(p, p'): by Gauss's lemma the quotient by a
    # primitive divisor is integral.
    sf = _primitive(_div_exact(cs, g)) if len(g) > 1 else _primitive(cs)
    pts: set[int] = set()
    for a in _isolate_roots(sf):
        pts.add(a)
        pts.add(a + 1)
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
    pts = _breakpoints(cs)
    if not pts:
        # No real roots: sign is constant everywhere.
        return IntervalSet.full() if rel.holds(_eval_poly(cs, 0)) else IntervalSet.empty()
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
