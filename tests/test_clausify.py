"""Clausification: equisatisfiability and clause-form pass-through."""

import random

from helpers import assignments, clauses_sat
from nials import formula_ast as fa
from nials.clausify import clausify
from nials.terms import Literal, Polynomial, Rel, Sort, TermStore

P = Polynomial


def setup_vars(store, n_int=2, n_bool=2):
    ints = [store.new_var(f"x{i}", Sort.INT) for i in range(n_int)]
    bools = [store.new_var(f"b{i}", Sort.BOOL) for i in range(n_bool)]
    return ints, bools


def random_expr(rng, store, ints, bools, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            leaf = Literal(True, bvar=rng.choice(bools))
        else:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                v = rng.choice(ints)
                m = ((v.id, rng.randint(1, 2)),)
                terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
            terms[()] = rng.randint(-4, 4)
            atom = store.mk_atom(Polynomial(terms),
                                 rng.choice((Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT)),
                                 P.zero())
            leaf = Literal(True, atom=atom)
        return fa.mk_not(leaf) if rng.random() < 0.5 else leaf
    kind = rng.random()
    args = [random_expr(rng, store, ints, bools, depth - 1)
            for _ in range(rng.randint(2, 3))]
    if kind < 0.4:
        return fa.mk_and(args)
    if kind < 0.8:
        return fa.mk_or(args)
    if kind < 0.9:
        return fa.mk_not(args[0])
    return fa.Ite(args[0], args[1], args[-1])


def expr_sat(ast, ints, bools, lo=-3, hi=3):
    for iv, bv in assignments(ints, lo, hi, bools):
        if fa.evaluate(ast, iv, bv):
            return True
    return False


def formula_sat(formula, store, lo=-3, hi=3):
    ints = [v for v in formula.variables if v.sort is Sort.INT]
    bools = [v for v in formula.variables if v.sort is Sort.BOOL]
    for iv, bv in assignments(ints, lo, hi, bools):
        if clauses_sat(formula.clauses, iv, bv):
            return True
    return False


class TestStructure:
    def test_clause_form_passes_through(self):
        store = TermStore()
        ints, bools = setup_vars(store)
        a = Literal(True, atom=store.mk_atom(P.var(ints[0].id), Rel.LEQ, P.zero()))
        b = Literal(True, bvar=bools[0])
        ast = fa.mk_and([fa.mk_or([a, fa.mk_not(b)]), b])
        formula = clausify(store, ast)
        assert len(formula.clauses) == 2
        assert not any(v.is_aux for v in formula.variables)

    def test_nested_structure_gets_definitions(self):
        store = TermStore()
        ints, bools = setup_vars(store)
        b0, b1 = (Literal(True, bvar=v) for v in bools)
        inner = fa.mk_and([b0, b1])
        ast = fa.mk_or([inner, fa.mk_not(b0)])
        formula = clausify(store, ast)
        assert any(v.is_aux for v in formula.variables)

    def test_constants(self):
        store = TermStore()
        assert clausify(store, fa.TRUE).clauses == []
        f = clausify(store, fa.FALSE)
        assert any(not c.literals for c in f.clauses)

    def test_tautology_dropped(self):
        store = TermStore()
        _, bools = setup_vars(store, 0, 1)
        b = Literal(True, bvar=bools[0])
        formula = clausify(store, fa.mk_or([b, fa.mk_not(b)]))
        assert formula.clauses == []


class TestEquisatisfiability:
    def test_randomized(self):
        rng = random.Random(11)
        for _ in range(120):
            store = TermStore()
            ints, bools = setup_vars(store)
            ast = random_expr(rng, store, ints, bools, rng.randint(1, 3))
            formula = clausify(store, ast)
            assert expr_sat(ast, ints, bools) == formula_sat(formula, store)

    def test_models_project_back(self):
        # Any clause-set model restricted to original variables satisfies
        # the source expression (full-equivalence definitions).
        rng = random.Random(12)
        checked = 0
        for _ in range(60):
            store = TermStore()
            ints, bools = setup_vars(store)
            ast = random_expr(rng, store, ints, bools, 2)
            formula = clausify(store, ast)
            f_ints = [v for v in formula.variables if v.sort is Sort.INT]
            f_bools = [v for v in formula.variables if v.sort is Sort.BOOL]
            for iv, bv in assignments(f_ints, -2, 2, f_bools):
                if clauses_sat(formula.clauses, iv, bv):
                    full_iv = dict(iv)
                    full_bv = dict(bv)
                    for v in ints:
                        full_iv.setdefault(v.id, 0)
                    for v in bools:
                        full_bv.setdefault(v.id, True)
                    assert fa.evaluate(ast, full_iv, full_bv)
                    checked += 1
                    break
        assert checked > 10
