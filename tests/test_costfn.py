"""Cost compilation: zero exactly on satisfying assignments, exact integers."""

import os
import random
import subprocess
import sys

import nials
from helpers import assignments, clauses_sat, cost_at, random_instance
from nials.costfn import IncrementalCost, compile_clauses
from nials.terms import Literal, Polynomial, Rel, Sort, TermStore

P = Polynomial


def compile_literal(lit, fixed=None):
    return compile_clauses([[lit]], fixed)


class TestLiteralCosts:
    def setup_method(self):
        self.store = TermStore()
        self.x = self.store.new_var("x", Sort.INT)
        self.px = P.var(self.x.id)

    def lit(self, rel, positive=True):
        return Literal(positive, atom=self.store.mk_atom(self.px, rel, P.zero()))

    def test_equality_is_absolute_distance(self):
        c = compile_literal(self.lit(Rel.EQ))
        assert cost_at(c, {self.x.id: 0}, {}) == 0
        assert cost_at(c, {self.x.id: 7}, {}) == 7
        assert cost_at(c, {self.x.id: -7}, {}) == 7

    def test_leq_zero_when_holds(self):
        c = compile_literal(self.lit(Rel.LEQ))
        assert cost_at(c, {self.x.id: -9}, {}) == 0
        assert cost_at(c, {self.x.id: 0}, {}) == 0
        assert cost_at(c, {self.x.id: 4}, {}) == 4

    def test_lt_adds_epsilon_one(self):
        c = compile_literal(self.lit(Rel.LT))
        assert cost_at(c, {self.x.id: -1}, {}) == 0
        assert cost_at(c, {self.x.id: 0}, {}) == 1
        assert cost_at(c, {self.x.id: 4}, {}) == 5

    def test_neq_constant_one(self):
        c = compile_literal(self.lit(Rel.NEQ))
        assert cost_at(c, {self.x.id: 0}, {}) == 1
        assert cost_at(c, {self.x.id: 100}, {}) == 0

    def test_negative_polarity_complements(self):
        c = compile_literal(self.lit(Rel.LEQ, positive=False))  # x > 0
        assert cost_at(c, {self.x.id: 1}, {}) == 0
        assert cost_at(c, {self.x.id: 0}, {}) == 1

    def test_bool_literal(self):
        store = TermStore()
        b = store.new_var("b", Sort.BOOL)
        c = compile_literal(Literal(True, bvar=b))
        assert cost_at(c, {}, {b.id: True}) == 0
        assert cost_at(c, {}, {b.id: False}) == 1

    def test_fixed_variables_fold(self):
        c = compile_literal(self.lit(Rel.EQ), fixed={self.x.id: 5})
        assert cost_at(c, {}, {}) == 5

    def test_fixed_false_literal_becomes_factor(self):
        y = self.store.new_var("y", Sort.INT)
        ley = Literal(True, atom=self.store.mk_atom(P.var(y.id), Rel.LEQ,
                                                    P.zero()))
        c = compile_clauses([[self.lit(Rel.EQ), ley]], fixed={self.x.id: 3})
        assert cost_at(c, {y.id: 2}, {}) == 6
        assert cost_at(c, {y.id: -1}, {}) == 0
        c = compile_clauses([[self.lit(Rel.EQ), ley]], fixed={self.x.id: 0})
        assert c.clauses == []


class TestPaperExample:
    """The b and x = y^2 walkthrough with its 4 -> 3 -> 0 trajectory."""

    def setup_method(self):
        store = TermStore()
        self.b = store.new_var("b", Sort.BOOL)
        self.x = store.new_var("x", Sort.INT)
        self.y = store.new_var("y", Sort.INT)
        self.cost = compile_clauses([
            [Literal(True, bvar=self.b)],
            [Literal(True, atom=store.mk_atom(
                P.var(self.x.id), Rel.EQ,
                P.var(self.y.id) * P.var(self.y.id)))],
        ])

    def mu(self, b, x, y):
        return {self.x.id: x, self.y.id: y}, {self.b.id: b}

    def test_trajectory(self):
        assert cost_at(self.cost, *self.mu(False, 4, 1)) == 4
        assert cost_at(self.cost, *self.mu(True, 4, 1)) == 3
        assert cost_at(self.cost, *self.mu(True, 4, 2)) == 0


class TestZeroIffSat:
    def test_random_clause_sets(self):
        rng = random.Random(5)
        for _ in range(150):
            store, clauses, ints, bools = random_instance(
                rng, n_int=2, n_bool=2, n_clauses=3, max_deg=2, coeff=3)
            cost = compile_clauses(clauses)
            for iv, bv in assignments(ints, -3, 3, bools):
                c = cost_at(cost, iv, bv)
                assert c >= 0
                assert (c == 0) == clauses_sat(clauses, iv, bv)


class TestIncremental:
    def test_probe_commit_consistency(self):
        rng = random.Random(3)
        for _ in range(40):
            store, clauses, ints, bools = random_instance(
                rng, n_int=3, n_bool=2, n_clauses=4, max_deg=2, coeff=3)
            cost = compile_clauses(clauses)
            iv = {v.id: rng.randint(-3, 3) for v in ints}
            bv = {v.id: rng.random() < 0.5 for v in bools}
            inc = IncrementalCost(cost, {**iv, **bv})
            for _ in range(30):
                if bools and rng.random() < 0.3:
                    var = rng.choice(bools)
                    new = not inc.values[var.id]
                else:
                    var = rng.choice(ints)
                    new = rng.randint(-4, 4)
                exact = IncrementalCost(cost, {**inc.values, var.id: new}).value
                probed = inc.probe(var.id, new, exact + 1)
                assert probed == exact
                if rng.random() < 0.5:
                    inc.commit(var.id, new)
                    assert inc.value == probed
                assert inc.value == IncrementalCost(cost, inc.values).value

    def test_bounded_probe(self):
        # With a bound, a probe gives the exact total below it, else None.
        rng = random.Random(4)
        for _ in range(40):
            store, clauses, ints, bools = random_instance(
                rng, n_int=3, n_bool=2, n_clauses=5, max_deg=2, coeff=3)
            cost = compile_clauses(clauses)
            values = {v.id: rng.randint(-3, 3) for v in ints}
            values.update((v.id, rng.random() < 0.5) for v in bools)
            inc = IncrementalCost(cost, values)
            for _ in range(30):
                var = rng.choice(ints + bools)
                if var.sort is Sort.BOOL:
                    new = not inc.values[var.id]
                else:
                    new = rng.randint(-4, 4)
                exact = IncrementalCost(cost, {**inc.values, var.id: new}).value
                below = exact + rng.randint(-2, 2)
                got = inc.probe(var.id, new, below)
                assert got == (exact if exact < below else None)
                if rng.random() < 0.3:
                    inc.commit(var.id, new)

    def test_false_clauses_tracked(self):
        rng = random.Random(6)
        for _ in range(40):
            store, clauses, ints, bools = random_instance(
                rng, n_int=3, n_bool=2, n_clauses=5, max_deg=2, coeff=3)
            cost = compile_clauses(clauses)
            values = {v.id: rng.randint(-3, 3) for v in ints}
            values.update((v.id, rng.random() < 0.5) for v in bools)
            inc = IncrementalCost(cost, values)
            for _ in range(20):
                var = rng.choice(ints + bools)
                inc.commit(var.id, not inc.values[var.id]
                           if var.sort is Sort.BOOL else rng.randint(-4, 4))
                fresh = IncrementalCost(cost, inc.values)
                assert sorted(inc.false_clauses) == [
                    i for i, c in enumerate(fresh.clause_costs) if c]


def test_import_leaves_heavy_modules_out():
    """`import nials` adds none of numpy, dataclasses or inspect to a fresh
    interpreter: each costs milliseconds at every start-up."""
    src = os.path.dirname(os.path.dirname(nials.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import nials; "
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "nials.core" in added
    assert not added & {"numpy", "dataclasses", "inspect"}
