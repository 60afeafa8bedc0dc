"""Polynomials, atoms, literals, clauses, and the interning store."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (RELS, excl_pattern, lit_evaluate, narrowed_coeffs,
                     random_poly)
from nials.costfn import _violation, compile_clauses
from nials.feasibility import unit_solution_set
from nials.terms import (Atom, Clause, Literal, Polynomial, Rel, Sort,
                         TermStore, Variable, normalize_poly)
from nials.univariate import solve_univariate_coeffs

P = Polynomial


def poly_strategy(n_vars=3, max_terms=4, max_deg=3, coeff=6):
    mono = st.lists(
        st.tuples(st.integers(0, n_vars - 1), st.integers(1, max_deg)),
        max_size=2).map(lambda ps: tuple(sorted(dict(ps).items())))
    return st.dictionaries(mono, st.integers(-coeff, coeff),
                           max_size=max_terms).map(Polynomial)


values = st.fixed_dictionaries({0: st.integers(-5, 5),
                                1: st.integers(-5, 5),
                                2: st.integers(-5, 5)})


class TestPolynomial:
    def test_constructors(self):
        assert P.zero().is_constant()
        assert P.zero().constant_value() == 0
        assert P.const(7).constant_value() == 7
        assert P.var(0).terms == {((0, 1),): 1}
        assert P.var(0).variables == frozenset({0})

    def test_zero_coefficients_dropped(self):
        p = P.var(0) - P.var(0)
        assert p == P.zero()
        assert not p.terms

    def test_arithmetic_example(self):
        x, y = P.var(0), P.var(1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.terms == {((0, 2),): 1, ((1, 2),): -1}

    @given(poly_strategy(), poly_strategy(), values)
    def test_add_matches_evaluation(self, p, q, vals):
        assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)

    @given(poly_strategy(), poly_strategy(), values)
    def test_mul_matches_evaluation(self, p, q, vals):
        assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)

    @given(poly_strategy(), values)
    def test_neg_matches_evaluation(self, p, vals):
        assert (-p).evaluate(vals) == -p.evaluate(vals)

    @given(poly_strategy(), poly_strategy())
    def test_hash_consistent_with_eq(self, p, q):
        if p == q:
            assert hash(p) == hash(q)
        # Construction order changes the term maps' insertion order only.
        store = TermStore()
        for a, b in ((p + q, q + p), (p * q, q * p)):
            assert a == b
            assert hash(a) == hash(b)
            for rel in (Rel.EQ, Rel.LEQ):
                assert store.mk_atom(a, rel, P.zero()) is \
                    store.mk_atom(b, rel, P.zero())

    @given(poly_strategy(), st.integers(-5, 5), values)
    def test_substitute_partial_evaluation(self, p, v0, vals):
        sub = p.substitute({0: v0})
        assert 0 not in sub.variables
        full = dict(vals)
        full[0] = v0
        assert sub.evaluate(full) == p.evaluate(full)

    def test_univariate_coeffs(self):
        # Narrowing reads the dense coefficients in one variable straight
        # from the terms, other variables taking their trail values.
        x, y = P.var(0), P.var(1)
        p = x * x * x - x * P.const(2) + P.const(5)
        assert narrowed_coeffs(p.terms, 0, {}) == (5, -2, 0, 1)
        assert narrowed_coeffs((x + y).terms, 0, {1: 3}) == (3, 1)

    def test_content_and_leading_coeff(self):
        p = P.var(0) * P.const(6) + P.const(9)
        assert p.content() == 3
        assert P.zero().content() == 0
        assert (P.const(2) - P.var(0)).leading_coeff() == -1


class TestRel:
    @pytest.mark.parametrize("rel,holds,fails", [
        (Rel.EQ, 0, 1),
        (Rel.NEQ, 1, 0),
        (Rel.LEQ, 0, 1),
        (Rel.LT, -1, 0),
    ])
    def test_holds(self, rel, holds, fails):
        assert rel.holds(holds)
        assert not rel.holds(fails)


class TestNormalization:
    def test_content_divides_out(self):
        p = P.var(0) * P.const(4) + P.const(8)
        q, rel = normalize_poly(p, Rel.EQ)
        assert q == P.var(0) + P.const(2)
        assert rel is Rel.EQ

    def test_inexact_division_kept_for_leq(self):
        # 2x + 3 <= 0 must not become x + 1.5 <= 0 (or a rounded variant).
        p = P.var(0) * P.const(2) + P.const(3)
        q, _ = normalize_poly(p, Rel.LEQ)
        assert q == p

    def test_eq_sign_canonical(self):
        x = P.var(0)
        a, _ = normalize_poly(x - P.const(3), Rel.EQ)
        b, _ = normalize_poly(P.const(3) - x, Rel.EQ)
        assert a == b

    def test_normalization_preserves_solutions(self):
        rng = random.Random(7)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(sorted({0: rng.randint(1, 2)}.items())) \
                    if rng.random() < 0.7 else ()
                terms[m] = terms.get(m, 0) + rng.randint(-6, 6) * 2
            p = Polynomial(terms)
            for rel in (Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT):
                q, qrel = normalize_poly(p, rel)
                for v in range(-10, 11):
                    assert rel.holds(p.evaluate({0: v})) == \
                        qrel.holds(q.evaluate({0: v}))


class TestAtomForm:
    """`Atom.form` over atoms of every relation, in both polarities, on
    every point of the box [-3, 3]²."""

    BOX = [{0: a, 1: b} for a in range(-3, 4) for b in range(-3, 4)]

    @staticmethod
    def literals():
        store = TermStore()
        x, y = (P.var(store.new_var(n, Sort.INT).id) for n in "xy")
        polys = (x * y - P.const(2), x - y + P.const(1), x * x - P.const(4),
                 P.const(2) * x + P.const(3), y * y - x, P.const(-2) * x)
        return [Literal(positive, atom=store.mk_atom(p, rel, P.zero()))
                for p in polys for rel in RELS for positive in (True, False)]

    def test_holds_where_form_holds(self):
        for lit in self.literals():
            q, rel = lit.atom.form(lit.positive)
            assert rel in (Rel.EQ, Rel.NEQ, Rel.LEQ)
            for vals in self.BOX:
                assert lit.holds(vals) == rel.holds(q.evaluate(vals)), lit

    def test_violation_zero_exactly_where_literal_holds(self):
        for lit in self.literals():
            q, rel = lit.atom.form(lit.positive)
            for vals in self.BOX:
                cost = _violation(q.evaluate(vals), rel)
                assert cost >= 0
                assert (cost == 0) == lit.holds(vals), (lit, vals)

    def test_compiled_clauses_hold_no_strict_relation(self):
        lits = self.literals()
        for fixed in (None, {0: 2}, {1: -1}):
            cost = compile_clauses([[lit] for lit in lits], fixed)
            assert cost.clauses
            assert all(rel is not Rel.LT
                       for c in cost.clauses for _, rel in c.arith)

    def test_strict_univariate_is_shifted_leq(self):
        for coeffs in ((), (0,), (-1,), (3, 0), (5, -2), (0, 3), (-4, 0, 1),
                       (2, -3, 1), (0, 0, 0, 1), (1, 0, -2), (7, 0, 0)):
            shifted = ((coeffs[0] if coeffs else 0) + 1,) + coeffs[1:]
            assert solve_univariate_coeffs(coeffs, Rel.LT) == \
                solve_univariate_coeffs(shifted, Rel.LEQ), coeffs

    def test_negated_narrowing_is_complement(self):
        # The old definition of narrowing by a negated literal, kept here
        # as the reference.
        for lit in self.literals():
            if not lit.positive:
                continue
            for vid in lit.atom.vars:
                for vals in self.BOX:
                    pos = unit_solution_set(lit, vid, vals)
                    neg = unit_solution_set(lit.negate(), vid, vals)
                    assert neg == pos.complement(), (lit, vid, vals)

    def test_direct_atom_forms(self):
        x = P.var(0)
        p = x * x - x + P.const(1)
        cases = {
            (Rel.EQ, True): (p, Rel.EQ), (Rel.EQ, False): (p, Rel.NEQ),
            (Rel.NEQ, True): (p, Rel.NEQ), (Rel.NEQ, False): (p, Rel.EQ),
            (Rel.LEQ, True): (p, Rel.LEQ),
            (Rel.LEQ, False): (x - x * x, Rel.LEQ),
            (Rel.LT, True): (p + P.const(1), Rel.LEQ),
            (Rel.LT, False): (-p, Rel.LEQ),
        }
        for (rel, positive), expected in cases.items():
            atom = Atom(0, p, rel)
            form = atom.form(positive)
            assert form == expected
            assert atom.form(positive) is form      # built once
            assert [m for m in form[0].terms if m] == \
                [m for m in p.terms if m]           # monomial order kept


class TestLiteralsAndClauses:
    def setup_method(self):
        self.store = TermStore()
        self.x = self.store.new_var("x", Sort.INT)
        self.b = self.store.new_var("b", Sort.BOOL)

    def atom(self, poly, rel=Rel.EQ):
        return self.store.mk_atom(poly, rel, P.zero())

    def test_negate_roundtrip(self):
        lit = Literal(True, atom=self.atom(P.var(self.x.id)))
        assert lit.negate().negate() == lit
        assert lit.negate().key == lit.key
        assert lit.negate().skey != lit.skey

    def test_lit_evaluate(self):
        lit = Literal(True, atom=self.atom(P.var(self.x.id) - P.const(2)))
        assert lit_evaluate(lit, {self.x.id: 2}, {})
        assert not lit_evaluate(lit, {self.x.id: 3}, {})
        blit = Literal(False, bvar=self.b)
        assert lit_evaluate(blit, {}, {self.b.id: False})

    def test_equality_and_hash_follow_polarity_and_kind(self):
        store = TermStore()
        p = store.new_var("p", Sort.BOOL)
        y = store.new_var("y", Sort.INT)
        a = store.mk_atom(P.var(y.id), Rel.LEQ, P.zero())
        assert a.id == p.id == 0     # same id, different kind
        pos = Literal(True, atom=a)
        assert pos == Literal(True, atom=a)
        assert hash(pos) == hash(Literal(True, atom=a))
        assert pos != pos.negate() == Literal(False, atom=a)
        lits = [Literal(s, atom=a) for s in (True, False)] + \
            [Literal(s, bvar=p) for s in (True, False)]
        assert len(set(lits)) == len({lit.skey for lit in lits}) == 4
        assert [lit.key for lit in lits] == [0, 0, 1, 1]
        assert [lit.skey for lit in lits] == [0, 1, 2, 3]
        assert Literal(True, bvar=p) != Literal(True, atom=a)

    def test_holds_matches_reference(self):
        lits = [Literal(s, atom=self.atom(P.var(self.x.id) - P.const(2), r))
                for s in (True, False) for r in RELS]
        lits += [Literal(s, bvar=self.b) for s in (True, False)]
        for lit in lits:
            for v in range(-1, 5):
                for bv in (True, False):
                    iv, bvs = {self.x.id: v}, {self.b.id: bv}
                    assert (lit.holds({**iv, **bvs})
                            == lit_evaluate(lit, iv, bvs))

    def test_clause_dedup(self):
        lit = Literal(True, bvar=self.b)
        c = Clause([lit, lit, lit.negate()])
        assert len(c) == 2
        assert c.is_tautology()

    def test_clause_variables(self):
        lit = Literal(True, atom=self.atom(P.var(self.x.id)))
        assert Clause([lit]).variables() == {self.x.id}


class TestVariable:
    def test_store_numbers_variables(self):
        # The store does not resolve names: one variable per name is the
        # compiler's job (`TestErrors::test_symbol_declared_twice`).
        store = TermStore()
        x, b, x2 = (store.new_var(n, s) for n, s in
                    (("x", Sort.INT), ("b", Sort.BOOL), ("x", Sort.INT)))
        assert [v.id for v in (x, b, x2)] == [0, 1, 2]
        assert store.variables == [x, b, x2] and x2 is not x
        assert store.var_by_id(x.id) is x
        assert x != Variable(x.id, "x", Sort.INT)
        assert repr(x) == "x"


class TestTermStore:
    def test_atom_interning(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        a = store.mk_atom(P.var(x.id), Rel.EQ, P.const(1))
        b = store.mk_atom(P.var(x.id) * P.const(2), Rel.EQ, P.const(2))
        assert a is b

    @given(poly_strategy(), st.sampled_from(list(Rel)))
    def test_atom_search_fields(self, p, rel):
        a = TermStore().mk_atom(p, rel, P.zero())
        assert a.vars == tuple(a.poly.variables)
        assert a.key == Literal(True, atom=a).key == 2 * a.id
        assert a != Atom(a.id, a.poly, a.rel)

    def test_eq_atom_is_mk_atom_atom(self):
        for value, eq_first in itertools.product((5, 0, -3), (True, False)):
            store = TermStore()
            x = store.new_var("x", Sort.INT)
            if eq_first:
                a = store.eq_atom(x.id, value)
                b = store.mk_atom(P.const(value), Rel.EQ, P.var(x.id))
            else:
                b = store.mk_atom(P.const(value), Rel.EQ, P.var(x.id))
                a = store.eq_atom(x.id, value)
            assert a is b
            assert store.eq_atom(x.id, value) is a
            assert list(store._atoms.values()) == [a] and a.id == 0
            # A new `x = value` atom has the term order of x - value.
            c = TermStore().eq_atom(x.id, value)
            d = TermStore().mk_atom(P.var(x.id), Rel.EQ, P.const(value))
            assert list(c.poly.terms.items()) == list(d.poly.terms.items())
            assert excl_pattern(c) == excl_pattern(d) == (x.id, value)

    @pytest.mark.parametrize("lo, hi", [
        (3, 3), (None, 2), (-4, None), (-4, 2), (0, 5), (-6, -1)])
    def test_interval_atom_holds_on_its_interval(self, lo, hi):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        atom = store.interval_atom(x.id, lo, hi)
        for v in range(-10, 11):
            inside = (lo is None or lo <= v) and (hi is None or v <= hi)
            assert atom.evaluate({x.id: v}) == inside
        assert (excl_pattern(atom) is not None) == (lo == hi)

    @pytest.mark.parametrize("lhs, var_eq", [
        (P.var(0) * P.const(2) - P.const(4), (0, 2)),   # 2x - 4 = 0
        (P.var(0) * P.const(2) - P.const(3), None),     # 2x - 3 = 0
        (P.var(0) * P.var(0) - P.const(4), None),       # x^2 - 4 = 0
        (P.const(-7) - P.var(0), (0, -7)),
        (P.var(0), (0, 0)),
    ])
    def test_var_eq_matches_reference(self, lhs, var_eq):
        """``var_eq`` is the ``(x, c)`` of an atom ``x − c = 0``, by which
        `eq_atom` must find the atom that `mk_atom` made, and only such an
        atom is indexed."""
        store = TermStore()
        store.new_var("x", Sort.INT)
        atom = store.mk_atom(lhs, Rel.EQ, P.zero())
        assert excl_pattern(atom) == var_eq
        if var_eq is not None:
            assert store.eq_atom(*var_eq) is atom
        assert store._eq_atoms == ({} if var_eq is None else {var_eq: atom})

    def test_var_eq_matches_reference_randomized(self):
        rng = random.Random(17)
        store = TermStore()
        for i in range(3):
            store.new_var(f"x{i}", Sort.INT)
        for _ in range(500):
            p = random_poly(rng, [0, 1, 2], max_terms=2, max_deg=2, coeff=4)
            atom = store.mk_atom(p, rng.choice(RELS), P.zero())
            var_eq = excl_pattern(atom)
            if var_eq is not None:
                assert store.eq_atom(*var_eq) is atom
        assert all(excl_pattern(a) == k for k, a in store._eq_atoms.items())

    def test_fresh_var_names_unique(self):
        store = TermStore()
        v1 = store.fresh_var("def", Sort.BOOL)
        v2 = store.fresh_var("def", Sort.BOOL)
        assert v1.name != v2.name
        assert v1.is_aux and v2.is_aux
