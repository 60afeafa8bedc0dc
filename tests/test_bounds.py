"""Level-0 bound propagation over interval hulls: the revise step, the
probes it ends, its work limit, and its explanation clauses."""

import random
import time

import pytest

from helpers import (box_clauses, brute_force, clauses_sat, entailed,
                     random_instance)
from nials import core, smtlib
from nials.bounds import INF, revise
from nials.core import Answer, Solver, SolverConfig
from nials.terms import Formula, Polynomial, Rel, Sort, TermStore

P = Polynomial


def atom_over(poly_of, rel, rhs=0):
    """An atom ``poly_of(x, y) rel rhs`` over a fresh store; x is id 0 and
    y is id 1."""
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    poly = poly_of(P.var(x.id), P.var(y.id))
    return store.mk_atom(poly, rel, P.const(rhs))


def narrowed(found):
    """{vid: (lo, hi)} of a `revise` result."""
    return {vid: (lo, hi) for vid, lo, hi, _own in found}


class TestRevise:
    def test_product_beyond_its_constant_is_infeasible(self):
        # x, y ≥ 7 puts x·y in [49, +inf), which misses 6.
        atom = atom_over(lambda x, y: x * y, Rel.EQ, 6)
        assert revise(atom, True, {0: (7, INF), 1: (7, INF)}) is None

    def test_product_divides_by_a_positive_hull(self):
        # x·y = 12 with y in [3, 10] gives x in [12/10, 12/3].
        atom = atom_over(lambda x, y: x * y, Rel.EQ, 12)
        got = revise(atom, True, {0: (-INF, INF), 1: (3, 10)})
        assert narrowed(got) == {0: (2, 4)}

    def test_product_rounds_the_open_end_inwards(self):
        # x·y ≥ 5 with y ≥ 1: x ≥ 5/y > 0, so x ≥ 1, not x ≥ 0.
        atom = atom_over(lambda x, y: x * y, Rel.LT, 5)
        got = revise(atom, False, {0: (-INF, INF), 1: (1, INF)})
        assert narrowed(got) == {0: (1, INF)}
        # x·y ≤ −5 with y ≥ 1: x < 0, so x ≤ −1.
        atom = atom_over(lambda x, y: x * y, Rel.LEQ, -5)
        got = revise(atom, True, {0: (-INF, INF), 1: (1, INF)})
        assert narrowed(got) == {0: (-INF, -1)}

    def test_squares(self):
        atom = atom_over(lambda x, y: x * x + y * y, Rel.EQ, 21)
        got = revise(atom, True, {0: (-INF, INF), 1: (-INF, INF)})
        assert narrowed(got) == {0: (-4, 4), 1: (-4, 4)}
        assert not any(own for *_, own in got)

    def test_square_takes_the_side_of_its_hull(self):
        # x² = 9 + y² in [9, 13] gives |x| = 3, and x ≥ 0 the side.
        atom = atom_over(lambda x, y: x * x - y * y, Rel.EQ, 9)
        got = revise(atom, True, {0: (0, 100), 1: (-2, 2)})
        assert got == [(0, 3, 3, True)]
        got = revise(atom, True, {0: (-100, 100), 1: (-2, 2)})
        assert got == [(0, -3, 3, False)]

    def test_sum(self):
        # x + y ≤ 3 with x ≥ 0 and y ≥ 1 gives x ≤ 2 and y ≤ 3.
        atom = atom_over(lambda x, y: x + y, Rel.LEQ, 3)
        got = revise(atom, True, {0: (0, INF), 1: (1, INF)})
        assert narrowed(got) == {0: (0, 2), 1: (1, 3)}

    def test_negated_relations_are_strict_complements(self):
        atom = atom_over(lambda x, y: x + y, Rel.LEQ, 3)    # ¬: x + y ≥ 4
        got = revise(atom, False, {0: (-INF, 1), 1: (-INF, 1)})
        assert got is None
        atom = atom_over(lambda x, y: x + y, Rel.LT, 3)     # ¬: x + y ≥ 3
        got = revise(atom, False, {0: (-INF, 1), 1: (-INF, 5)})
        assert narrowed(got) == {0: (-2, 1), 1: (2, 5)}

    def test_divisor_hull_with_zero_narrows_nothing(self):
        # x·y = 7 with y in [-5, 5]: no bound on x, although y ≠ 0.
        atom = atom_over(lambda x, y: x * y, Rel.EQ, 7)
        assert revise(atom, True, {0: (-INF, INF), 1: (-5, 5)}) == []

    def test_disequalities_give_nothing(self):
        atom = atom_over(lambda x, y: x * y, Rel.EQ, 7)
        assert revise(atom, False, {0: (1, 2), 1: (1, 2)}) == []
        atom = atom_over(lambda x, y: x * y, Rel.NEQ, 7)
        assert revise(atom, True, {0: (1, 2), 1: (1, 2)}) == []


# The probe constants of the benchmark's enumerate family.
PROD = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
SQUARES = (3, 6, 7, 11, 12, 14, 15, 19, 21, 22)
RATIO = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13)
DECLS = "(set-logic QF_NIA)(declare-const x Int)(declare-const y Int)"


def solve_text(asserts, **cfg):
    ans, _model, solver = smtlib.solve(
        smtlib.parse(f"{DECLS}{asserts}(check-sat)"), SolverConfig(**cfg))
    return ans, solver


class TestProbes:
    @pytest.mark.parametrize("k", PROD)
    def test_product_probe_is_unsat(self, k):
        ans, solver = solve_text(
            f"(assert (= (* x y) {k}))(assert (> x {k}))(assert (> y {k}))",
            max_conflicts=600)
        assert ans is Answer.UNSAT
        assert solver.stats.conflicts == 1 and solver.stats.decisions == 0

    @pytest.mark.parametrize("m", SQUARES)
    def test_squares_probe_is_unsat(self, m):
        ans, solver = solve_text(f"(assert (= (+ (* x x) (* y y)) {m}))",
                                 max_conflicts=350)
        assert ans is Answer.UNSAT
        assert solver.stats.bounds == 4         # |x|, |y| ≤ ⌊√m⌋

    @pytest.mark.parametrize("asserts", [
        "(assert (<= (+ (* x x) (* y y)) 25))",
        "(assert (not (> (+ (* x x) (* y y)) 25)))",
        "(assert (not (distinct (+ (* x x) (* y y)) 25)))",
    ])
    def test_negated_literals_are_revised(self, asserts):
        ans, solver = solve_text(asserts)
        assert ans is Answer.SAT
        assert solver.stats.bounds == 4         # |x|, |y| ≤ 5

    @pytest.mark.parametrize("n", RATIO)
    def test_ratio_probe_stays_open(self, n):
        # x² = n·y² bounds nothing, so each conflict excludes one value.
        ans, solver = solve_text(
            f"(assert (= (* x x) (* {n} y y)))(assert (> y 0))",
            max_conflicts=70)
        assert ans is Answer.UNKNOWN
        assert solver.stats.bounds == 0


class TestWorkLimit:
    CREEP = ("(assert (< x y))(assert (< y x))"
             "(assert (<= (- 1000000) x))(assert (<= x 1000000))"
             "(assert (<= (- 1000000) y))(assert (<= y 1000000))")

    def test_creeping_bounds_stop_at_the_cap(self):
        # Each revision moves one hull end by one: a million steps to the
        # empty hull.  Revising resumes at each level-0 fixpoint.
        t0 = time.monotonic()
        ans, solver = solve_text(self.CREEP, max_conflicts=20)
        assert ans is Answer.UNKNOWN
        assert time.monotonic() - t0 < 10
        st = solver.stats
        fixpoints = 1 + st.conflicts + st.restarts
        assert 0 < st.bounds <= 2 * core.BOUND_REVISIONS * fixpoints

    def test_deadline_holds_while_revising(self, monkeypatch):
        monkeypatch.setattr(core, "BOUND_REVISIONS", 10 ** 9)
        t0 = time.monotonic()
        ans, _ = solve_text(self.CREEP, timeout_ms=200)
        assert ans is Answer.UNKNOWN
        assert time.monotonic() - t0 < 10


def hull_instances(rng, count):
    """Random instances over two or three integer variables in a box,
    with short clauses, so that literals over two variables are often
    asserted at level 0."""
    for _ in range(count):
        store, clauses, ints, bools = random_instance(
            rng, n_int=rng.randint(2, 3), n_bool=rng.randint(0, 1),
            n_clauses=rng.randint(2, 5), max_len=2, max_deg=2, coeff=4)
        yield store, clauses + box_clauses(store, ints, -4, 4), ints, bools


class TestDifferential:
    @pytest.fixture
    def hull_clauses(self, monkeypatch):
        """Every clause `Solver._hull_clause` makes, as it makes them."""
        made = []
        real = Solver._hull_clause

        def record(solver, *args):
            clause = real(solver, *args)
            made.append(clause)
            return clause

        monkeypatch.setattr(Solver, "_hull_clause", record)
        return made

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_answers_and_explanations(self, ls_enabled, hull_clauses):
        rng = random.Random(1601 if ls_enabled else 1602)
        bounds = lemmas = 0
        for store, clauses, ints, bools in hull_instances(rng, 150):
            hull_clauses.clear()
            solver = Solver(store, Formula(list(clauses), ints + bools),
                            SolverConfig(ls_enabled=ls_enabled))
            ans = solver.check_sat()
            expected = brute_force(clauses, ints, -4, 4, bools)
            if expected is None:
                assert ans is Answer.UNSAT
            else:
                assert ans is Answer.SAT
                assert clauses_sat(clauses, solver.model, solver.model)
            bounds += solver.stats.bounds
            assert len(hull_clauses) >= solver.stats.bounds
            for clause in hull_clauses:
                assert clause.learned and any(
                    c is clause for c in solver.clauses)
                # An explanation holds at every integer point, not only
                # where the formula does: it cites every level-0 literal
                # its hulls came from, the box's too.
                assert entailed([], list(clause), ints, -6, 6, [])
            for lemma in solver.clauses:
                if lemma.learned:
                    assert entailed(clauses, list(lemma), ints, -4, 4, bools)
                    lemmas += 1
        assert bounds > 20 and lemmas > bounds

    def test_deterministic(self):
        def runs():
            out = []
            for store, clauses, ints, bools in hull_instances(
                    random.Random(1603), 40):
                solver = Solver(store, Formula(list(clauses), ints + bools))
                ans = solver.check_sat()
                out.append((ans, dict(solver.model), solver.stats.as_dict(),
                            [[lit.skey for lit in c] for c in solver.clauses
                             if c.learned]))
            return out
        assert runs() == runs()
