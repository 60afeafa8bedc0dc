"""Feasibility sets from unit constraints, with exact undo on backtracking."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import narrowed_coeffs
from nials.feasibility import (FeasibilityMap, decided, false_span,
                               unit_solution_set)
from nials.intervals import IntervalSet
from nials.terms import Atom, Literal, Polynomial, Rel, Sort, TermStore
from nials.trail import Trail

P = Polynomial


@pytest.fixture
def setup():
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    z = store.new_var("z", Sort.INT)
    return store, x, y, z


def unit(store, poly, rel, positive=True):
    return Literal(positive, atom=store.mk_atom(poly, rel, P.zero()))


class TestRestriction:
    def test_example_square_bound(self, setup):
        """z^2 > 1 over the integers narrows F(z) to (-inf,-2] u [2,inf)."""
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 1, decision=True)  # open level 1
        lit = unit(store, P.const(1) - P.var(z.id) * P.var(z.id), Rel.LT)
        res = feas.assert_unit_constraint(z, lit, trail)
        assert res == IntervalSet.from_intervals([(None, -2), (2, None)])
        assert feas.get(z.id) == res

    def test_example_singleton_propagation(self, setup):
        """With x = 1 on the trail, the unit xy = 1 forces y into {1}."""
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 1, decision=True)
        lit = unit(store, P.var(x.id) * P.var(y.id) - P.const(1), Rel.EQ)
        res = feas.assert_unit_constraint(y, lit, trail)
        assert res.singleton_value() == 1
        assert feas.get(y.id).singleton_value() == 1

    def test_negative_polarity_complements(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        lit = unit(store, P.var(y.id) - P.const(3), Rel.EQ, positive=False)
        feas.assert_unit_constraint(y, lit, trail)
        assert 3 not in feas.get(y.id)
        assert 2 in feas.get(y.id)

    def test_empty_conflict_carries_contributions(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        l1 = unit(store, P.var(y.id) - P.const(5), Rel.LEQ)   # y <= 5
        l2 = unit(store, P.const(7) - P.var(y.id), Rel.LEQ)   # y >= 7
        assert feas.assert_unit_constraint(y, l1, trail) == \
            IntervalSet.range(None, 5)
        res = feas.assert_unit_constraint(y, l2, trail)
        assert res.is_empty()
        assert feas.contributions(y.id) == (l1, l2)

    def test_used_vars_recorded(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 2, decision=True)
        lit = unit(store, P.var(x.id) * P.var(y.id) - P.const(4), Rel.EQ)
        feas.assert_unit_constraint(y, lit, trail)
        (con,) = feas.contributions(y.id)
        assert con is lit
        assert [v for v in con.atom.vars if v != y.id] == [x.id]

    def test_level0_contributions_not_recorded(self, setup):
        # Root-level constraints are formula consequences; conflict
        # explanations never need to cite them.
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        lit = unit(store, P.var(y.id) - P.const(5), Rel.LEQ)
        assert feas.assert_unit_constraint(y, lit, trail) == \
            IntervalSet.range(None, 5)
        assert feas.contributions(y.id) == ()
        assert feas.get(y.id) == IntervalSet.range(None, 5)


class TestFalseSpan:
    @pytest.mark.parametrize("values, span", [
        ({0: 5, 1: 1}, (4, None)),      # x0 ≤ 3 fails from 4 on
        ({0: -5, 1: -1}, (None, -4)),   # −x0 ≤ 3 fails up to −4
    ])
    def test_interval_around_the_value(self, setup, values, span):
        store, x, y, _ = setup
        lit = unit(store, P.var(x.id) * P.var(y.id) - P.const(3), Rel.LEQ)
        assert false_span([lit], x.id, values) == span

    def test_between_the_roots(self, setup):
        # x² > 4 is false on [−2, 2]; the negated literal on the rest.
        store, x, _, _ = setup
        lit = unit(store, P.const(4) - P.var(x.id) * P.var(x.id), Rel.LT)
        assert false_span([lit], x.id, {x.id: 1}) == (-2, 2)
        assert false_span([lit.negate()], x.id, {x.id: 7}) == (3, None)
        # Both, and x ≠ 1, are false at x = 1 on [1, 1] only.
        ne = unit(store, P.var(x.id) - P.const(1), Rel.EQ, positive=False)
        assert false_span([lit, ne], x.id, {x.id: 1}) == (1, 1)


class TestBacktracking:
    def test_exact_restore(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        l0 = unit(store, P.var(y.id) * P.var(y.id) - P.const(100), Rel.LEQ)
        feas.assert_unit_constraint(y, l0, trail)       # level 0
        before = feas.get(y.id)
        trail.push_model_assignment(x, 3, decision=True)
        l1 = unit(store, P.var(y.id) - P.var(x.id), Rel.LEQ)
        feas.assert_unit_constraint(y, l1, trail)       # level 1
        trail.push_model_assignment(z, 0, decision=True)
        l2 = unit(store, P.const(1) - P.var(y.id), Rel.LEQ)
        feas.assert_unit_constraint(y, l2, trail)       # level 2
        assert feas.get(y.id) == IntervalSet.range(1, 3)

        feas.backtrack_to(1)
        assert feas.get(y.id) == IntervalSet.range(-10, 3)
        assert len(feas.contributions(y.id)) == 1
        feas.backtrack_to(0)
        assert feas.get(y.id) == before
        assert feas.contributions(y.id) == ()

    def test_narrowings_on_one_level_undo_together(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        for c in (9, 7, 5):
            lit = unit(store, P.var(y.id) - P.const(c), Rel.LEQ)
            feas.assert_unit_constraint(y, lit, trail)
        assert feas.get(y.id) == IntervalSet.range(None, 5)
        feas.backtrack_to(0)
        assert feas.get(y.id) == IntervalSet.full()


# One step of a random FeasibilityMap history: open a decision level,
# assert a unit literal c2·x² + c1·x + c0 + cy·y (rel) 0 on x in {v0, v1}
# (y = v2 is fixed at level 0), or backtrack to a level at or below the
# current one (the drawn number is taken modulo the level plus one).
undo_steps = st.lists(st.one_of(
    st.just(("decide",)),
    st.tuples(st.just("assert"), st.integers(0, 1),
              st.tuples(*[st.integers(-3, 3)] * 4),
              st.sampled_from(list(Rel)), st.booleans()),
    st.tuples(st.just("backtrack"), st.integers(0, 5))), max_size=25)


class TestUndoLogProperties:
    @settings(deadline=None, max_examples=200)
    @given(undo_steps)
    def test_sets_and_contributions_follow_the_literals_in_force(
            self, steps):
        """Oracle: each set is the intersection of the solution sets of the
        literals asserted on it and not backtracked over, and its
        contributions are those above level 0, in order."""
        store = TermStore()
        xs = [store.new_var(f"v{i}", Sort.INT) for i in range(3)]
        flags = [store.new_var(f"b{i}", Sort.BOOL) for i in range(6)]
        trail = Trail()
        trail.push_model_assignment(xs[2], -2, decision=False)
        feas = FeasibilityMap()
        in_force = []           # (level, vid, lit), oldest first
        for step in steps:
            if step[0] == "decide":
                if trail.level < len(flags) - 1:
                    trail.push_decision(
                        Literal(True, bvar=flags[trail.level]))
            elif step[0] == "backtrack":
                level = step[1] % (trail.level + 1)
                trail.backtrack_to(level)
                feas.backtrack_to(level)
                in_force = [e for e in in_force if e[0] <= level]
            else:
                _, vid, (c2, c1, c0, cy), rel, positive = step
                x, y = P.var(xs[vid].id), P.var(xs[2].id)
                poly = (P.const(c2) * x * x + P.const(c1) * x
                        + P.const(c0) + P.const(cy) * y)
                lit = unit(store, poly, rel, positive)
                got = feas.assert_unit_constraint(xs[vid], lit, trail)
                assert got == feas.get(xs[vid].id)
                in_force.append((trail.level, xs[vid].id, lit))
            for x in xs[:2]:
                expected = IntervalSet.full()
                for _, vid, lit in in_force:
                    if vid == x.id:
                        expected = expected.intersect(unit_solution_set(
                            lit, vid, trail.values))
                assert feas.get(x.id) == expected
                assert feas.contributions(x.id) == tuple(
                    lit for level, vid, lit in in_force
                    if vid == x.id and level > 0)


class TestDirectCoefficients:
    """Dense coefficients read straight from the atom's terms."""

    X3 = ((0, 3),)
    XY, X, Y = ((0, 1), (1, 1)), ((0, 1),), ((1, 1),)

    @pytest.mark.parametrize("terms, values, coeffs", [
        ({X3: 1, X: -2, (): 5}, {}, (5, -2, 0, 1)),     # x^3 - 2x + 5
        ({X: 1, Y: 1}, {1: 3}, (3, 1)),                 # x + y at y = 3
        ({XY: 1, X3: 4, Y: -1}, {1: -2}, (2, -2, 0, 4)),
        # The narrowed variable's top terms cancel: x^3 y - 2x^3 + x at y = 2.
        ({((0, 3), (1, 1)): 1, X3: -2, X: 1}, {1: 2}, (0, 1)),
        # Everything cancels: the zero polynomial.
        ({XY: 1, X: -2}, {1: 2}, (0,)),
        ({}, {}, (0,)),
        ({(): -7}, {}, (-7,)),
        ({Y: 3, (): 1}, {1: -1}, (-2,)),
    ])
    def test_coefficients(self, terms, values, coeffs):
        assert narrowed_coeffs(terms, 0, values) == coeffs

    def test_matches_substitution(self):
        """The tuple the `Polynomial.substitute` path gave, term for term."""
        import random
        from helpers import random_poly
        rng = random.Random(5)
        for _ in range(300):
            p = random_poly(rng, [0, 1, 2], max_terms=5, max_deg=3, coeff=9)
            vid = rng.randrange(3)
            values = {v: rng.randint(-4, 4) for v in (0, 1, 2) if v != vid}
            uni = p.substitute(values)
            dense = [0] * 4
            for m, c in uni.terms.items():
                dense[m[0][1] if m else 0] += c
            while len(dense) > 1 and not dense[-1]:
                dense.pop()
            assert narrowed_coeffs(p.terms, vid, values) == tuple(dense)


@st.composite
def unit_cases(draw):
    """(terms, narrowed vid, trail values, rel, polarity) with 1-3
    variables, degree <= 3 and coefficients up to 10^6, sometimes with
    pairs of terms that cancel once the trail values are substituted."""
    n = draw(st.integers(1, 3))
    vid = draw(st.integers(0, n - 1))
    values = {v: draw(st.integers(-20, 20)) for v in range(n) if v != vid}
    mono = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                           max_size=3).filter(
        lambda d: sum(d.values()) <= 3).map(
        lambda d: tuple(sorted(d.items())))
    coeff = st.integers(-10 ** 6, 10 ** 6)
    terms = draw(st.dictionaries(mono, coeff, max_size=5))
    others = [v for v in range(n) if v != vid]
    if others and draw(st.booleans()):
        if draw(st.booleans()):
            terms = {}          # only cancelling pairs: the zero polynomial
        for _ in range(draw(st.integers(1, 3))):
            # c·x^e·y^k and −c·val(y)^k·x^e have the sum 0 at y = val(y).
            e = draw(st.integers(0, 2))
            y = draw(st.sampled_from(others))
            k = draw(st.integers(1, 3 - e))
            c = draw(coeff)
            x_e = ((vid, e),) if e else ()
            for m, cm in ((tuple(sorted(x_e + ((y, k),))), c),
                          (x_e, -c * values[y] ** k)):
                terms[m] = terms.get(m, 0) + cm
    rel = draw(st.sampled_from(list(Rel)))
    return terms, vid, values, rel, draw(st.booleans())


def substituted_coeffs(terms, vid, values) -> list:
    """Dense coefficients in ``vid`` of ``terms`` (degree <= 3) with the
    other variables at their values, trailing zeros trimmed."""
    coeffs = [0] * 4
    for m, c in P(terms).substitute(values).terms.items():
        coeffs[m[0][1] if m else 0] += c
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def probe_points(terms, vid, values) -> set:
    """Integers around the real roots of the substituted polynomial, around
    0, and beyond the Cauchy bound on both sides."""
    coeffs = substituted_coeffs(terms, vid, values)
    centres = [0]
    if len(coeffs) > 1:
        centres += [round(r.real) for r in np.roots(coeffs[::-1])]
        bound = 2 + max(abs(c) // abs(coeffs[-1]) for c in coeffs)
        centres += [-bound, bound]
    return {c + d for c in centres for d in range(-3, 4)}


class TestNarrowingProperties:
    @settings(deadline=None, max_examples=300)
    @given(unit_cases())
    @example(({((0, 1), (1, 1)): 1, ((0, 1),): -2}, 0, {1: 2}, Rel.EQ, True))
    @example(({((0, 2), (1, 1)): 3, ((0, 2),): 3, ((0, 1),): 1}, 0, {1: -1},
              Rel.LT, False))
    def test_solutions_are_the_integers_where_the_literal_holds(self, case):
        terms, vid, values, rel, positive = case
        lit = Literal(positive, atom=Atom(0, P(terms), rel))
        s = unit_solution_set(lit, vid, values)
        for v in probe_points(terms, vid, values):
            assert (v in s) == lit.holds({**values, vid: v}), v


@st.composite
def feasible_sets(draw):
    """A non-empty IntervalSet of up to three intervals, its outer ends
    sometimes unbounded, its members sometimes one point."""
    if draw(st.booleans()):
        return IntervalSet.point(draw(st.integers(-30, 30)))
    ends = sorted(draw(st.lists(st.integers(-30, 30), min_size=2,
                                max_size=6, unique=True)))
    ivs = [[lo, hi] for lo, hi in zip(ends[::2], ends[1::2])]
    if draw(st.booleans()):
        ivs[0][0] = None
    if draw(st.booleans()):
        ivs[-1][1] = None
    return IntervalSet.from_intervals(map(tuple, ivs))


def by_enumeration(holds, fs, points):
    """What `decided` answers if the members of ``fs`` among ``points``
    stand for all of ``fs``."""
    seen = {holds(v) for v in points if v in fs}
    assert seen, fs
    return True if seen == {True} else False if seen == {False} else None


class TestDecided:
    @settings(deadline=None, max_examples=400)
    @given(unit_cases(), feasible_sets())
    @example(({((0, 1),): -2, (): 3}, 0, {}, Rel.EQ, True),
             IntervalSet.full())        # 3 − 2x = 0 has no integer root
    @example(({((0, 1), (1, 1)): -2}, 0, {1: 0}, Rel.LT, True),
             IntervalSet.full())        # −2·x·y < 0 at y = 0
    @example(({((0, 1),): 1, (): -4}, 0, {}, Rel.LEQ, True),
             IntervalSet.range(None, 4))
    def test_matches_enumeration(self, case, fs):
        """True when the literal holds on all of F, False when on none of
        it, None otherwise and above degree 1.  The probe points and F's
        ends with their neighbours cut the line into runs on which a
        linear literal's truth and membership in F are constant, and
        every interval of F holds one of them."""
        terms, vid, values, rel, positive = case
        lit = Literal(positive, atom=Atom(0, P(terms), rel))
        poly, frel = lit.atom.form(positive)
        if len(substituted_coeffs(terms, vid, values)) > 2:
            expected = None
        else:
            ends = {e + d for lo, hi in fs.intervals for e in (lo, hi)
                    if e is not None for d in (-1, 0, 1)}
            points = probe_points(terms, vid, values) | ends
            expected = by_enumeration(
                lambda v: lit.holds({**values, vid: v}), fs, points)
        assert decided(poly, frel, vid, values, fs) is expected

    def test_linear_ends_and_roots(self):
        """Every a·x + b with small a and b against sets whose ends and
        points fall on and beside its root or bound, against each of the
        three relations, by enumeration over a window wider than every
        root and every end: beyond it nothing changes."""
        sets = [IntervalSet.full(), IntervalSet.range(None, 2),
                IntervalSet.range(-2, None), IntervalSet.range(-3, 3),
                IntervalSet.from_intervals([(None, -1), (1, None)]),
                IntervalSet.from_intervals([(-4, -2), (0, 0), (2, 5)])]
        sets += [IntervalSet.point(v) for v in range(-4, 5)]
        window = range(-10, 11)
        for a in (-3, -2, -1, 1, 2, 3):
            for b in range(-7, 8):
                poly = P({((0, 1),): a, (): b})
                for rel in (Rel.EQ, Rel.NEQ, Rel.LEQ):
                    for fs in sets:
                        expected = by_enumeration(
                            lambda v: rel.holds(a * v + b), fs, window)
                        assert decided(poly, rel, 0, {}, fs) is expected, \
                            (a, b, rel, fs)
