"""Univariate constraint solving against brute-force sign checking."""

import math
import random
from fractions import Fraction

import pytest

from nials.feasibility import unit_solution_set
from nials.intervals import IntervalSet
from nials.terms import Atom, Literal, Polynomial, Rel
from nials.univariate import iroot, solve_univariate_coeffs

RELS = (Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT)


def members(s):
    """Sorted members of a fully bounded set."""
    return [v for lo, hi in s.intervals for v in range(lo, hi + 1)]


def cauchy_window(coeffs):
    """[-B, B] with B = 1 + Cauchy root bound (all real roots inside)."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return 2
    b = 1 + max(abs(Fraction(c, cs[-1])) for c in cs[:-1])
    return int(b) + 2


def evaluate(coeffs, v):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def brute(coeffs, rel, window):
    return {v for v in range(-window, window + 1)
            if rel.holds(evaluate(coeffs, v))}


def check(coeffs, rel):
    window = cauchy_window(coeffs)
    got = solve_univariate_coeffs(tuple(coeffs), rel)
    want = brute(coeffs, rel, window)
    got_members = {v for v in range(-window, window + 1) if v in got}
    assert got_members == want, (coeffs, rel)
    # Outside the window the sign is fixed: spot-check both far ends.
    for v in (-10 * window, 10 * window):
        assert (v in got) == rel.holds(evaluate(coeffs, v)), (coeffs, rel, v)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_roots(coeffs, roots, probes=()):
    """EQ members are exactly the distinct roots; every relation agrees
    with direct evaluation at r - 1, r, r + 1, the probes and far out."""
    assert members(solve_univariate_coeffs(tuple(coeffs), Rel.EQ)) \
        == sorted(set(roots)), coeffs
    window = cauchy_window(coeffs)
    points = {v for r in roots for v in (r - 1, r, r + 1)}
    points |= set(probes) | {-10 * window, 10 * window}
    for rel in RELS:
        got = solve_univariate_coeffs(tuple(coeffs), rel)
        for v in points:
            assert (v in got) == rel.holds(evaluate(coeffs, v)), \
                (coeffs, rel, v)


class TestConstantAndLinear:
    def test_constant(self):
        assert solve_univariate_coeffs((0,), Rel.EQ) == IntervalSet.full()
        assert solve_univariate_coeffs((3,), Rel.EQ).is_empty()
        assert solve_univariate_coeffs((-1,), Rel.LT) == IntervalSet.full()

    def test_linear_equality(self):
        assert solve_univariate_coeffs((-6, 2), Rel.EQ) == IntervalSet.point(3)
        assert solve_univariate_coeffs((-5, 2), Rel.EQ).is_empty()

    def test_linear_inequalities(self):
        # 2x - 6 <= 0  =>  x <= 3
        assert solve_univariate_coeffs((-6, 2), Rel.LEQ) == \
            IntervalSet.range(None, 3)
        # 2x - 6 < 0  =>  x <= 2
        assert solve_univariate_coeffs((-6, 2), Rel.LT) == \
            IntervalSet.range(None, 2)
        # -2x + 6 < 0  =>  x >= 4
        assert solve_univariate_coeffs((6, -2), Rel.LT) == \
            IntervalSet.range(4, None)

    def test_linear_neq(self):
        s = solve_univariate_coeffs((-6, 2), Rel.NEQ)
        assert 3 not in s
        assert 2 in s and 4 in s


class TestHigherDegree:
    def test_square_bound(self):
        # z^2 > 1  written as  1 - z^2 < 0
        s = solve_univariate_coeffs((1, 0, -1), Rel.LT)
        assert s == IntervalSet.from_intervals([(None, -2), (2, None)])

    def test_no_real_roots(self):
        assert solve_univariate_coeffs((1, 0, 1), Rel.LEQ).is_empty()
        assert solve_univariate_coeffs((1, 0, 1), Rel.NEQ) == \
            IntervalSet.full()

    def test_repeated_roots(self):
        # (x - 2)^2 <= 0 only at x = 2
        assert solve_univariate_coeffs((4, -4, 1), Rel.LEQ) == \
            IntervalSet.point(2)
        check([4, -4, 1], Rel.LT)

    def test_cubic(self):
        # x^3 - x = x(x-1)(x+1)
        s = solve_univariate_coeffs((0, -1, 0, 1), Rel.EQ)
        assert members(s) == [-1, 0, 1]

    def test_irrational_roots(self):
        # x^2 - 2 < 0 holds at -1, 0, 1 only
        s = solve_univariate_coeffs((-2, 0, 1), Rel.LT)
        assert members(s) == [-1, 0, 1]


class TestRandomizedOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[-1] = 1
            check(coeffs, rng.choice(RELS))

    @pytest.mark.parametrize("seed", range(4))
    def test_large_quadratics(self, seed):
        # Guidance-style -(x - 10^6)(x - c): coefficients up to about 10^9.
        rng = random.Random(100 + seed)
        for _ in range(50):
            c = rng.randint(-1000, 1000)
            check_roots((-c * 10**6, 10**6 + c, -1), [10**6, c])

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_roots_times_irreducible_quadratic(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(25):
            while True:
                a, b, c = (rng.randint(1, 5), rng.randint(-50, 50),
                           rng.randint(-50, 50))
                disc = b * b - 4 * a * c
                if disc < 0 or math.isqrt(disc) ** 2 != disc:
                    break
            coeffs = [c, b, a]
            probes = set()
            if disc > 0:
                # Integers around the quadratic's two irrational roots.
                for s in (-math.isqrt(disc), math.isqrt(disc)):
                    q = (-b + s) // (2 * a)
                    probes |= set(range(q - 2, q + 3))
            roots = [rng.randint(-10**6, 10**6)
                     for _ in range(rng.randint(1, 3))]
            for r in roots:
                for _ in range(rng.randint(1, 3)):
                    coeffs = poly_mul(coeffs, [-r, 1])
            check_roots(coeffs, roots, probes)


def check_rational_roots(coeffs, roots):
    """`check_roots`, probing every integer within 2 of each rational root
    and just outside the Cauchy bound."""
    bound = 2 + max(abs(c) for c in coeffs) // abs(coeffs[-1])
    probes = {-bound - 1, bound + 1}
    for r in roots:
        probes |= set(range(math.ceil(r - 2), math.floor(r + 2) + 1))
    check_roots(coeffs, [int(r) for r in roots if r.denominator == 1], probes)


class TestRationalRootProducts:
    """Products of factors q·x − p, roots repeated up to three times."""

    def test_explicit_product(self):
        # (2x − 1)²(3x + 2)³: a double root 1/2 and a triple root −2/3.
        coeffs = [1]
        for factor, m in (([-1, 2], 2), ([2, 3], 3)):
            for _ in range(m):
                coeffs = poly_mul(coeffs, factor)
        check_rational_roots(coeffs, [Fraction(1, 2), Fraction(-2, 3)])
        assert solve_univariate_coeffs(tuple(coeffs), Rel.LEQ) == \
            IntervalSet.range(None, -1)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_products(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(40):
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3))]
            if rng.random() < 0.5:
                # A root-free quadratic factor a·x² + b·x + c.
                a, c = rng.randint(1, 5), rng.randint(1, 30)
                b = rng.randint(-math.isqrt(4 * a * c - 1),
                                math.isqrt(4 * a * c - 1))
                coeffs = poly_mul(coeffs, [c, b, a])
            roots = []
            while True:
                q, p, m = rng.randint(1, 4), rng.randint(-30, 30), \
                    rng.randint(1, 3)
                if len(coeffs) - 1 + m > 12:
                    break
                for _ in range(m):
                    coeffs = poly_mul(coeffs, [-p, q])
                roots.append(Fraction(p, q))
            check_rational_roots(coeffs, roots)


def test_sparse_high_degree():
    # x^1100 − 5 ≤ 0: a derivative chain 1100 polynomials long.
    coeffs = (-5,) + (0,) * 1099 + (1,)
    assert members(solve_univariate_coeffs(coeffs, Rel.LEQ)) == [-1, 0, 1]


@pytest.mark.parametrize("deg", [1500, 1501])
def test_sparse_high_degree_is_solved_in_x_to_the_gcd(deg):
    # x^deg − 5 is u − 5 in u = x^deg: one linear solve, not a chain of
    # deg derivatives.
    coeffs = (-5,) + (0,) * (deg - 1) + (1,)
    got = solve_univariate_coeffs(coeffs, Rel.LEQ)
    if deg % 2:
        assert got == IntervalSet.range(None, 1)
    else:
        assert members(got) == [-1, 0, 1]
    assert solve_univariate_coeffs(coeffs, Rel.EQ).is_empty()


@pytest.mark.parametrize("rel", RELS)
def test_mixed_gcd(rel):
    # x^6 − 3x^3 + 2 = (x³ − 1)(x³ − 2): gcd 3, roots 1 and 2^(1/3); and
    # x^8 − 17x^4 + 16 = (x⁴ − 1)(x⁴ − 16): gcd 4, roots ±1 and ±2.
    for coeffs in ((2, 0, 0, -3, 0, 0, 1),
                   (16, 0, 0, 0, -17, 0, 0, 0, 1)):
        got = solve_univariate_coeffs(coeffs, rel)
        for v in range(-20, 21):
            value = sum(c * v ** i for i, c in enumerate(coeffs))
            assert (v in got) == rel.holds(value), (coeffs, v)


def test_iroot():
    rng = random.Random(12)
    cases = [(n, k) for n in range(200) for k in range(1, 7)]
    cases += [(rng.randrange(10 ** rng.randint(1, 60)), rng.randint(1, 9))
              for _ in range(2000)]
    cases += [(r ** k + d, k) for r in (2, 3, 10 ** 20 + 7)
              for k in (2, 3, 5, 1100) for d in (-1, 0, 1)]
    for n, k in cases:
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k, (n, k, r)


def test_polynomial_wrapper():
    x = Polynomial.var(3)
    p = x * x - Polynomial.const(4)
    s = unit_solution_set(Literal(True, atom=Atom(0, p, Rel.EQ)), 3, {})
    assert members(s) == [-2, 2]
