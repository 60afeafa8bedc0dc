"""The search loop: soundness against enumeration, conflicts, regressions."""

import hashlib
import random

import pytest

from helpers import (box_clauses, brute_force, clauses_sat, entailed,
                     excl_pattern, heap_ok, ls_constants, planted_instance,
                     product_probe, random_3cnf, random_instance, scan_atoms,
                     scan_clauses, watch_lists_ok)
from nials import localsearch
from nials.core import Answer, Solver, SolverConfig, Stats
from nials.errors import InternalError
from nials.terms import (Atom, Clause, Formula, Literal, Polynomial, Rel,
                         Sort, TermStore)
from nials.trail import Reason

P = Polynomial


def solve(store, clauses, variables, threshold_base=None, budget_per_var=None,
          **cfg):
    """Solve with `SolverConfig(**cfg)` and the local-search constants
    given."""
    formula = Formula(list(clauses), variables)
    with ls_constants(threshold_base, budget_per_var):
        solver = Solver(store, formula, SolverConfig(**cfg))
        return solver.check_sat(), solver


def example_formula():
    """(not(x >= 1) or xy = 1) and (not(xy = 1) or x + 2yz > 0) and z^2 > 1."""
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    z = store.new_var("z", Sort.INT)
    px, py, pz = (P.var(v.id) for v in (x, y, z))
    a_ge = store.mk_atom(P.const(1) - px, Rel.LEQ, P.zero())    # x >= 1
    a_xy = store.mk_atom(px * py - P.const(1), Rel.EQ, P.zero())
    a_sum = store.mk_atom(-(px + py * pz * P.const(2)), Rel.LT, P.zero())
    a_z = store.mk_atom(P.const(1) - pz * pz, Rel.LT, P.zero())
    clauses = [
        Clause([Literal(False, atom=a_ge), Literal(True, atom=a_xy)]),
        Clause([Literal(False, atom=a_xy), Literal(True, atom=a_sum)]),
        Clause([Literal(True, atom=a_z)]),
    ]
    return store, clauses, [x, y, z]


class TestExampleFormula:
    def test_sat_with_verified_model(self):
        store, clauses, variables = example_formula()
        ans, solver = solve(store, clauses, variables)
        assert ans is Answer.SAT
        for c in clauses:
            assert any(lit.atom.evaluate(solver.model) == lit.positive
                       for lit in c)

    def test_singleton_propagation_from_prefix(self):
        """Deciding x -> 1 after propagation forces y -> 1 via F(y) = {1}."""
        store, clauses, variables = example_formula()
        x, y, z = variables
        formula = Formula(clauses, variables)
        solver = Solver(store, formula, SolverConfig())
        assert solver.propagate() is None
        # F(z) from the unit z^2 > 1 clause, restricted to the integers.
        assert solver.feas.get(z.id).intervals == ((None, -2), (2, None))
        solver.trail.push_model_assignment(x, 1, decision=True)
        assert solver.propagate() is None
        elem = solver.trail.var_elem[y.id]
        assert elem.value == 1
        assert not elem.decision
        assert elem.reason[0] is Reason.FEASIBILITY_SINGLETON


class TestSmallFormulas:
    def test_unit_equality(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        c = Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id) * P.var(x.id), Rel.EQ, P.const(49)))])
        ans, solver = solve(store, [c], [x])
        assert ans is Answer.SAT
        assert solver.model[x.id] in (-7, 7)

    def test_unsat_square(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        c = Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id) * P.var(x.id), Rel.EQ, P.const(2)))])
        ans, _ = solve(store, [c], [x])
        assert ans is Answer.UNSAT

    def test_empty_clause_is_unsat(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        ans, _ = solve(store, [Clause([])], [x])
        assert ans is Answer.UNSAT

    def test_no_clauses_is_sat(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        ans, solver = solve(store, [], [x])
        assert ans is Answer.SAT
        assert x.id in solver.model

    def test_pure_boolean(self):
        store = TermStore()
        a = store.new_var("a", Sort.BOOL)
        b = store.new_var("b", Sort.BOOL)
        clauses = [
            Clause([Literal(True, bvar=a), Literal(True, bvar=b)]),
            Clause([Literal(False, bvar=a)]),
        ]
        ans, solver = solve(store, clauses, [a, b])
        assert ans is Answer.SAT
        assert solver.model == {a.id: False, b.id: True}

    def test_conflicting_units_unsat(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        p = P.var(x.id)
        clauses = [
            Clause([Literal(True, atom=store.mk_atom(p, Rel.LEQ, P.const(3)))]),
            Clause([Literal(True, atom=store.mk_atom(P.const(5), Rel.LEQ, p))]),
        ]
        ans, _ = solve(store, clauses, [x])
        assert ans is Answer.UNSAT


class TestInputRefutations:
    """An input refuted at its unit clauses: the first propagation
    returns the conflict, and conflict analysis answers unsat at level
    0, counting one conflict like any other."""

    @pytest.mark.parametrize("case", ["empty", "clashing", "constant"])
    def test_first_propagation_returns_the_conflict(self, case):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        b = store.new_var("b", Sort.BOOL)
        if case == "empty":
            clauses, conflict = [Clause([])], []
        elif case == "clashing":
            clauses = [Clause([Literal(True, bvar=b)]),
                       Clause([Literal(False, bvar=b)])]
            conflict = [Literal(False, bvar=b)]
        else:   # 2 < 1, which holds nowhere, asserted
            false = Literal(True, atom=store.mk_atom(P.const(2), Rel.LT,
                                                     P.const(1)))
            clauses, conflict = [Clause([false])], [false]
        assert Solver(store, Formula(clauses, [x, b])).propagate() == conflict
        ans, solver = solve(store, clauses, [x, b])
        assert ans is Answer.UNSAT
        assert solver.stats.conflicts == 1 and solver.stats.decisions == 0

    def test_units_follow_the_constant_atoms(self):
        """The trail holds the constant atoms' literals in registration
        order, then the unit clauses' literals in clause order, and then
        what propagation derives: a unit clause before a clause with a
        constant atom must not push its literal in between."""
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        b0, b1, b2 = (store.new_var(f"b{i}", Sort.BOOL) for i in range(3))
        one_leq_two = store.mk_atom(P.const(1), Rel.LEQ, P.const(2))
        three_lt_one = store.mk_atom(P.const(3), Rel.LT, P.const(1))
        one_neq_two = store.mk_atom(P.const(1), Rel.NEQ, P.const(2))
        assert len({one_leq_two.id, three_lt_one.id, one_neq_two.id}) == 3
        x_leq_5 = Literal(True, atom=store.mk_atom(P.var(x.id), Rel.LEQ,
                                                   P.const(5)))
        clauses = [
            Clause([Literal(True, bvar=b0)]),
            Clause([Literal(True, atom=one_leq_two), Literal(True, bvar=b1)]),
            Clause([x_leq_5]),
            Clause([Literal(True, atom=three_lt_one), Literal(True, bvar=b2)]),
            Clause([Literal(True, atom=one_neq_two)]),
        ]
        solver = Solver(store, Formula(clauses, [x, b0, b1, b2]))
        assert solver.propagate() is None
        assert [e.lit for e in solver.trail.elements] == [
            Literal(True, atom=one_leq_two), Literal(False, atom=three_lt_one),
            Literal(True, atom=one_neq_two),
            Literal(True, bvar=b0), x_leq_5,
            Literal(True, bvar=b2)]
        reasons = [e.reason for e in solver.trail.elements]
        assert reasons[:3] == [Reason.SEMANTIC] * 3
        assert reasons[3:5] == [clauses[0], clauses[2]]


class TestLimits:
    def hard_instance(self, bound=1000):
        """x, y in [-bound, bound] with x*y = p for a prime p > bound:
        unsat, and every conflict rules out a single candidate value.  The
        hulls contain 0, so level-0 bound propagation narrows nothing."""
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        y = store.new_var("y", Sort.INT)
        px, py = P.var(x.id), P.var(y.id)
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            px * py, Rel.EQ, P.const(1009)))])]
        clauses += box_clauses(store, [x, y], -bound, bound)
        return store, clauses, [x, y]

    def test_max_conflicts_yields_unknown(self):
        store, clauses, variables = self.hard_instance()
        ans, solver = solve(store, clauses, variables, max_conflicts=20)
        assert ans is Answer.UNKNOWN
        assert solver.stats.conflicts >= 20

    def test_zero_timeout_yields_unknown(self):
        store, clauses, variables = self.hard_instance()
        ans, _ = solve(store, clauses, variables, timeout_ms=0)
        assert ans is Answer.UNKNOWN

    def test_unbounded_run_finishes_unsat(self):
        store, clauses, variables = self.hard_instance(bound=200)
        ans, _ = solve(store, clauses, variables)
        assert ans is Answer.UNSAT


class TestStats:
    def test_keys_order(self):
        assert list(Stats().as_dict()) == [
            "conflicts", "decisions", "propagations", "theory_assignments",
            "ls_calls", "ls_moves_accepted", "ls_zero", "restarts", "bounds",
            "unit_props"]

    def test_counts_move(self):
        store, clauses, variables = example_formula()
        _, solver = solve(store, clauses, variables)
        assert solver.stats.decisions > 0
        assert solver.stats.theory_assignments > 0


class TestRandomizedOracle:
    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_matches_enumeration(self, ls_enabled):
        rng = random.Random(101 if ls_enabled else 202)
        for _ in range(120):
            store, clauses, ints, bools = random_instance(
                rng, n_int=rng.randint(1, 3), n_bool=rng.randint(0, 2),
                n_clauses=rng.randint(1, 4), max_deg=2, coeff=3)
            clauses = clauses + box_clauses(store, ints, -5, 5)
            expected = brute_force(clauses, ints, -5, 5, bools)
            ans, solver = solve(store, clauses, ints + bools,
                                ls_enabled=ls_enabled)
            if expected is None:
                assert ans is Answer.UNSAT
            else:
                assert ans is Answer.SAT
                assert clauses_sat(clauses, solver.model, solver.model)

    def test_determinism(self):
        rng = random.Random(303)
        for _ in range(20):
            n_int = rng.randint(1, 3)
            seeds = []
            results = []
            state = rng.getstate()
            for _run in range(2):
                rng.setstate(state)
                store, clauses, ints, bools = random_instance(
                    rng, n_int=n_int, n_bool=1, n_clauses=3,
                    max_deg=2, coeff=3)
                clauses = clauses + box_clauses(store, ints, -5, 5)
                ans, solver = solve(store, clauses, ints + bools)
                results.append((ans, dict(solver.model),
                                solver.stats.as_dict()))
            assert results[0] == results[1]


class TestLearnedLemmas:
    def test_lemmas_entailed_by_formula(self):
        from helpers import entailed
        rng = random.Random(404)
        checked = 0
        for _ in range(25):
            store, clauses, ints, bools = random_instance(
                rng, n_int=2, n_bool=1, n_clauses=3, max_deg=2, coeff=3)
            clauses = clauses + box_clauses(store, ints, -4, 4)
            ans, solver = solve(store, clauses, ints + bools)
            for lemma in solver.clauses:
                if not lemma.learned:
                    continue
                assert entailed(clauses, list(lemma), ints, -4, 4, bools)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_boolean_heavy_instances(self, ls_enabled):
        """2–4 Bool and 2–3 Int variables: clause propagation pushes atom
        literals before their variables have values, so conflicts come
        from evaluating them afterwards.  Every answer matches
        enumeration and every learned clause is entailed over the box."""
        rng = random.Random(909 if ls_enabled else 1010)
        checked = 0
        for _ in range(120):
            store, clauses, ints, bools = random_instance(
                rng, n_int=rng.randint(2, 3), n_bool=rng.randint(2, 4),
                n_clauses=rng.randint(4, 10), max_deg=2, coeff=3)
            clauses += box_clauses(store, ints, -3, 3)
            ans, solver = solve(store, clauses, ints + bools,
                                ls_enabled=ls_enabled, threshold_base=5)
            expected = brute_force(clauses, ints, -3, 3, bools)
            assert ans is (Answer.UNSAT if expected is None else Answer.SAT)
            for lemma in solver.clauses:
                if lemma.learned:
                    assert entailed(clauses, list(lemma), ints, -3, 3, bools)
                    checked += 1
        assert checked > 50


class TestWatches:
    """At every propagation fixpoint, the full scan of `scan_clauses`
    finds no clause unit or all false, and `scan_atoms` no atom left to
    evaluate or narrow: the watches and the atom anchors missed nothing.
    And `watch_lists_ok`: each clause sits on the lists of its two
    watches only; and `heap_ok`: every unassigned variable has a heap
    entry at its activity or above."""

    @pytest.fixture
    def fixpoints(self, monkeypatch):
        """Check every `propagate()` that returns None; count the learned
        clauses each check covered."""
        covered = []
        real = Solver.propagate

        def propagate(solver):
            conflict = real(solver)
            if conflict is None:
                assert scan_clauses(solver.clauses,
                                    solver.trail.lit_elem) == []
                assert scan_atoms(solver) == []
                assert watch_lists_ok(solver)
                assert heap_ok(solver)
                covered.append(sum(c.learned for c in solver.clauses))
            return conflict

        monkeypatch.setattr(Solver, "propagate", propagate)
        return covered

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_boxed_and_planted(self, ls_enabled, fixpoints):
        rng = random.Random(505 if ls_enabled else 606)

        def boxed(count):
            for _ in range(count):
                store, clauses, ints, bools = random_instance(
                    rng, n_int=4, n_bool=3, n_clauses=14, max_deg=2, coeff=4)
                clauses += box_clauses(store, ints, -8, 8)
                solve(store, clauses, ints + bools, max_conflicts=300,
                      ls_enabled=ls_enabled, threshold_base=5)

        boxed(20)
        for n_int, n_clauses in ((6, 40), (20, 150)):
            for _ in range(5):
                store, clauses, ints, bools = planted_instance(
                    rng, n_int=n_int, n_bool=3, n_clauses=n_clauses,
                    lo=-24, hi=24, max_deg=2, coeff=5)
                solve(store, clauses, ints + bools, max_conflicts=200,
                      ls_enabled=ls_enabled, threshold_base=5,
                      budget_per_var=2)
        # Feasible sets decide many atoms, so boxed searches end in fewer
        # fixpoints; 100 more instances keep the count past the guard.
        boxed(100)
        assert len(fixpoints) > 1000 and max(fixpoints) > 100

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_random_3cnf(self, ls_enabled, fixpoints):
        """Boolean 3-CNF near the threshold, against enumeration: long
        watch lists and conflicts found by clause propagation, which the
        theory-driven instances above seldom reach."""
        rng = random.Random(707 if ls_enabled else 808)
        answers = []
        for _ in range(200):
            store, clauses, bools = random_3cnf(rng, rng.randint(8, 12))
            ans, solver = solve(store, clauses, bools, ls_enabled=ls_enabled,
                                threshold_base=5)
            expected = brute_force(clauses, [], 0, 0, bools)
            assert (ans is Answer.SAT) == (expected is not None)
            if ans is Answer.SAT:
                assert clauses_sat(clauses, {}, solver.model)
            answers.append(ans)
        assert Answer.UNSAT in answers and Answer.SAT in answers
        assert len(fixpoints) > 1000 and max(fixpoints) > 5

    def test_hull_clauses(self, fixpoints):
        from test_bounds import hull_instances
        for ls_enabled in (True, False):
            for store, clauses, ints, bools in hull_instances(
                    random.Random(1601), 150):
                ans, solver = solve(store, clauses, ints + bools,
                                    ls_enabled=ls_enabled)
                assert ans is not Answer.UNKNOWN
        assert len(fixpoints) > 300 and max(fixpoints) > 0


class TestAtomVisits:
    def test_evaluations_follow_search(self, monkeypatch):
        """An atom is evaluated again only once a backtrack pops its
        anchor, so atom evaluations stay within the propagations and
        conflicts of a long LS-off search (2,489 here).  Re-evaluating
        every exclusion atom over x at each assignment of x would take
        over 40,000."""
        evaluations = [0]
        evaluate = Atom.evaluate

        def counted(atom, values):
            evaluations[0] += 1
            return evaluate(atom, values)

        monkeypatch.setattr(Atom, "evaluate", counted)
        store, clauses, ints, bools = planted_instance(
            random.Random(3), n_int=20, n_bool=3, n_clauses=150, lo=-24,
            hi=24, max_deg=2, coeff=5)
        ans, solver = solve(store, clauses, ints + bools, ls_enabled=False,
                            max_conflicts=300)
        assert ans is Answer.UNKNOWN
        stats = solver.stats
        assert 0 < evaluations[0] <= stats.propagations + stats.conflicts


class TestUnitPropagation:
    """An atom with one unassigned variable x and no literal on the trail
    is decided by F(x): false when F(x) misses its solutions in x, true
    when F(x) lies inside them."""

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_refuted_within_one_conflict(self, ls_enabled):
        # 2·x0² = 0 gives x0 = 0, so −2·x0·x1 < 0 has no solution in x1,
        # and 3 − 2·x1 = 0 has no integer root.  Enumerating x1 over the
        # box took 17 conflicts, two past the cap of 15.
        store = TermStore()
        x0, x1 = (store.new_var(f"x{i}", Sort.INT) for i in range(2))
        p0, p1 = P.var(x0.id), P.var(x1.id)
        lit = lambda p, rel: Literal(True, atom=store.mk_atom(p, rel, P.zero()))
        clauses = [Clause([lit(P.const(2) * p0 * p0, Rel.EQ)]),
                   Clause([lit(P.const(3) - P.const(2) * p1, Rel.EQ),
                           lit(P.const(-2) * p0 * p1, Rel.LT)])]
        clauses += box_clauses(store, [x1], -8, 8)
        ans, solver = solve(store, clauses, [x0, x1], ls_enabled=ls_enabled,
                            max_conflicts=15)
        assert ans is Answer.UNSAT
        assert solver.stats.conflicts <= 1 and solver.stats.unit_props >= 1

    def test_feasible_set_inside_solutions_asserts_the_atom(self):
        # x0 = 0 leaves x1 + x0 ≤ 10 with the solutions (−inf, 10] in x1,
        # which hold F(x1) = [−8, 8]: the atom is pushed true before any
        # decision, and ¬a ∨ b then gives b.
        store = TermStore()
        x0, x1 = (store.new_var(f"x{i}", Sort.INT) for i in range(2))
        b = store.new_var("b", Sort.BOOL)
        p0, p1 = P.var(x0.id), P.var(x1.id)
        a = store.mk_atom(p1 + p0, Rel.LEQ, P.const(10))
        clauses = [Clause([Literal(True, atom=store.mk_atom(p0, Rel.EQ,
                                                            P.zero()))]),
                   Clause([Literal(False, atom=a), Literal(True, bvar=b)])]
        clauses += box_clauses(store, [x1], -8, 8)
        solver = Solver(store, Formula(clauses, [x0, x1, b]))
        assert solver.propagate() is None
        elem = solver.trail.lit_elem[a.key]
        assert elem.lit.positive and elem.level == 0
        assert elem.reason[0] is Reason.FEASIBILITY_UNIT
        assert solver.trail.values[b.id] is True
        assert solver.stats.unit_props == 1 and solver.stats.decisions == 0
        assert scan_atoms(solver) == []

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_explanations_hold_everywhere(self, ls_enabled, monkeypatch):
        """Every explanation of a decided literal that conflict analysis
        builds, written as a clause with the literal, holds at every
        integer point of a window wider than the box, as the hull
        clauses of `tests/test_bounds.py` do."""
        explained = []
        real = Solver._resolve_lit

        def record(solver, lit, pos):
            repl = real(solver, lit, pos)
            elem = solver.trail.elements[pos]
            if (elem.lit is not None and elem.reason.__class__ is tuple
                    and elem.reason[0] is Reason.FEASIBILITY_UNIT):
                explained.append([elem.lit] + repl)
            return repl

        monkeypatch.setattr(Solver, "_resolve_lit", record)
        rng = random.Random(707 if ls_enabled else 808)
        checked = 0
        for k in range(300):
            if k % 2:
                store, clauses, ints, bools = random_instance(
                    rng, n_int=3, n_bool=1, n_clauses=10, max_deg=2, coeff=4)
                clauses += box_clauses(store, ints, -4, 4)
            else:
                store, clauses, ints, bools = planted_instance(
                    rng, n_int=3, n_bool=1, n_clauses=16, lo=-4, hi=4,
                    max_deg=2, coeff=4)
            explained.clear()
            solve(store, clauses, ints + bools, max_conflicts=100,
                  ls_enabled=ls_enabled, threshold_base=5)
            for clause in explained:
                assert entailed([], clause, ints, -6, 6, [])
            checked += len(explained)
        assert checked > 40


# Two instances of `bench/gen_inputs.boxed(7)`, both unsat.  In the first,
# x0·x1 = 1 leaves x0 = x1 = ±1, where ¬(x1² + 4·x0·x1 ≤ 0) is true; the
# second has one variable, and every value of the box fails its clauses.
BOXED_00389 = """(set-logic QF_NIA)
(declare-fun x0 () Int)
(declare-fun x1 () Int)
(assert (or (<= (+ (* 4 x0 x1) (* x1 x1)) 0) (not (distinct (* x0 x1) 0))))
(assert (not (= (* 4 x1 x1) 0)))
(assert (not (distinct (+ 4 (* (- 4) x0 x1)) 0)))
(assert (<= (+ (- 8) (* (- 1) x0)) 0))
(assert (<= (+ (- 8) x0) 0))
(assert (<= (+ (- 8) (* (- 1) x1)) 0))
(assert (<= (+ (- 8) x1) 0))
(check-sat)"""
BOXED_00829 = """(set-logic QF_NIA)
(declare-fun x0 () Int)
(assert (or (not (distinct (* (- 4) x0 x0) 0)) (= (* 3 x0 x0) 0)
            (not (distinct (* x0 x0) 0))))
(assert (or (< (+ (* (- 1) x0) (* 6 x0 x0)) 0)
            (not (= (+ (* 4 x0) (* (- 1) x0 x0)) 0))
            (not (= (+ (* 4 x0) (* 4 x0 x0)) 0))))
(assert (or (not (distinct (+ 4 (* 2 x0 x0)) 0))
            (not (= (+ (- 3) (* 3 x0) (* 3 x0 x0)) 0))
            (<= (+ (* (- 3) x0) (* 3 x0 x0)) 0)))
(assert (or (= (* 2 x0 x0) 0) (not (<= (+ 4 (* (- 3) x0)) 0))
            (not (= (* (- 4) x0) 0))))
(assert (or (not (distinct (+ (* 2 x0) (* 4 x0 x0)) 0))
            (not (<= (+ (- 4) (* 2 x0 x0)) 0))))
(assert (<= (+ (- 8) (* (- 1) x0)) 0))
(assert (<= (+ (- 8) x0) 0))
(check-sat)"""


class TestIntervalExclusions:
    """An atom literal that evaluation at the trail's values makes false
    is replaced by the exclusions of its variables, with the one assigned
    last widened to the interval on which the literal stays false."""

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_one_variable_refuted_in_few_conflicts(self, ls_enabled):
        # Point exclusions refuted one value of [−8, 8] per conflict: 17,
        # two past the cap of 15.
        from nials import smtlib
        ans, _, solver = smtlib.solve(
            smtlib.parse(BOXED_00829),
            SolverConfig(max_conflicts=15, ls_enabled=ls_enabled))
        assert ans is Answer.UNSAT and solver.stats.conflicts <= 4

    @pytest.mark.parametrize("ls_enabled", [True, False])
    def test_widened_lemmas_hold_everywhere(self, ls_enabled, monkeypatch):
        """Each literal that `_exclusions` replaces is false at the trail's
        values, and its negation with the replacement is a clause that
        holds at every integer point of a window wider than the box; so
        is, for each literal that `_merged_exclusion` merges, its negation
        with the merged literal."""
        lemmas = []
        exclusions, merged = Solver._exclusions, Solver._merged_exclusion

        def record_exclusions(solver, lit):
            assert lit.atom.evaluate(solver.trail.values) != lit.positive
            repl = exclusions(solver, lit)
            lemmas.append([lit.negate()] + repl)
            return repl

        def record_merged(solver, at_level):
            lits = merged(solver, at_level)
            for old, _ in at_level:
                lemmas.append([old.negate()] + lits)
            return lits

        monkeypatch.setattr(Solver, "_exclusions", record_exclusions)
        monkeypatch.setattr(Solver, "_merged_exclusion", record_merged)
        rng = random.Random(1111 if ls_enabled else 1212)
        checked = widened = 0
        for k in range(200):
            if k % 2:
                store, clauses, ints, bools = random_instance(
                    rng, n_int=3, n_bool=1, n_clauses=10, max_deg=2, coeff=4)
                clauses += box_clauses(store, ints, -4, 4)
            else:
                store, clauses, ints, bools = planted_instance(
                    rng, n_int=3, n_bool=1, n_clauses=16, lo=-4, hi=4,
                    max_deg=2, coeff=4)
            lemmas.clear()
            solve(store, clauses, ints + bools, max_conflicts=100,
                  ls_enabled=ls_enabled, threshold_base=5)
            for clause in lemmas:
                assert entailed([], clause, ints, -7, 7, [])
                widened += any(excl_pattern(lit.atom) is None
                               for lit in clause[1:])
            checked += len(lemmas)
        assert checked > 120 and widened > 30

    def test_exclusions_only_where_evaluation_falsifies(self, monkeypatch):
        """`_resolve_lit` replaces a literal dated at a model assignment
        only where evaluation at the trail's values makes it false.  A
        literal that evaluation makes true was falsified by its own entry
        and is resolved through that entry's reason: dated at its
        variables' assignment instead, ¬(x1² + 4·x0·x1 ≤ 0), true at
        x0 = x1 = 1 in BOXED_00389, was replaced by ¬(x0 = 1) ∨ ¬(x1 = 1),
        a step that is false there."""
        from nials import smtlib
        checked = [0]
        real = Solver._resolve_lit

        def record(solver, lit, pos):
            repl = real(solver, lit, pos)
            trail = solver.trail
            if repl is not None and trail.lit_elem.get(lit.key) is not \
                    trail.elements[pos]:
                assert lit.atom.evaluate(trail.values) != lit.positive
                checked[0] += 1
            return repl

        monkeypatch.setattr(Solver, "_resolve_lit", record)
        for ls_enabled in (True, False):
            ans, _, _ = smtlib.solve(smtlib.parse(BOXED_00389),
                                     SolverConfig(ls_enabled=ls_enabled))
            assert ans is Answer.UNSAT
        rng = random.Random(1313)
        for k in range(2000):
            store, clauses, ints, bools = random_instance(
                rng, n_int=rng.randint(2, 3), n_bool=rng.randint(2, 4),
                n_clauses=rng.randint(4, 10), max_deg=2, coeff=4)
            clauses += box_clauses(store, ints, -3, 3)
            solve(store, clauses, ints + bools, max_conflicts=100,
                  ls_enabled=k % 2 == 0)
        assert checked[0] > 200


class TestLsAnswers:
    """A local-search call restarts the search, and cost 0 answers sat."""

    def test_zero_cost_answers_sat(self):
        rng = random.Random(7)
        answered = 0
        for _ in range(10):
            store, clauses, ints, bools = planted_instance(
                rng, n_int=6, n_bool=2, n_clauses=40, max_deg=2, coeff=5)
            ans, solver = solve(store, clauses, ints + bools,
                                threshold_base=0)
            assert ans is Answer.SAT
            assert clauses_sat(clauses, solver.model, solver.model)
            answered += solver.stats.ls_zero
            assert solver.stats.ls_zero <= solver.stats.ls_calls
        assert answered >= 5

    def test_restart_counted(self):
        store, clauses, ints, bools = random_instance(
            random.Random(17), n_int=4, n_bool=3, n_clauses=14, max_deg=2,
            coeff=4)
        clauses = clauses + box_clauses(store, ints, -8, 8)
        ans, solver = solve(store, clauses, ints + bools,
                            threshold_base=5, max_conflicts=200)
        assert solver.stats.restarts >= 1
        assert solver.stats.restarts <= solver.stats.ls_calls

    def test_unsat_at_the_propagation_after_a_restart(self):
        """x < y and y < x over [−100, 100] take more hull revisions than
        one level-0 propagation runs (`BOUND_REVISIONS`), so the search
        decides b0 and b1 first, and (¬b0 ∨ ¬b1 ∨ ±b2) gives a conflict
        that backjumps to level 1.  That conflict makes a local-search
        call due: the restart's propagation revises on, refutes the
        hulls, and the answer is unsat before the call runs."""
        store = TermStore()
        b = [store.new_var(f"b{i}", Sort.BOOL) for i in range(3)]
        x, y = store.new_var("x", Sort.INT), store.new_var("y", Sort.INT)
        px, py = P.var(x.id), P.var(y.id)
        lit = lambda lhs, rel, rhs: Literal(True, atom=store.mk_atom(
            lhs, rel, rhs))
        clauses = [Clause([Literal(False, bvar=b[0]), Literal(False, bvar=b[1]),
                           Literal(sign, bvar=b[2])]) for sign in (True, False)]
        clauses += [Clause([lit(px, Rel.LT, py)]), Clause([lit(py, Rel.LT, px)])]
        clauses += box_clauses(store, [x, y], -100, 100)
        ans, solver = solve(store, clauses, b + [x, y], threshold_base=1)
        assert ans is Answer.UNSAT
        assert solver.stats.as_dict() == {
            **Stats().as_dict(), "conflicts": 2, "decisions": 2,
            "propagations": 208, "restarts": 1, "bounds": 200}

    def test_corrupted_zero_cost_raises(self, monkeypatch):
        run = localsearch.run

        def corrupted(problem, *args, **kwargs):
            result = run(problem, *args, **kwargs)
            result.values = {k: 0 for k in result.values}
            result.cost, result.reached_zero = 0, True
            return result

        monkeypatch.setattr(localsearch, "run", corrupted)
        store, clauses, variables = example_formula()   # z·z > 1
        with ls_constants(threshold_base=0):
            solver = Solver(store, Formula(clauses, variables), SolverConfig())
            with pytest.raises(InternalError, match="does not satisfy"):
                solver.check_sat()


class TestPinnedSearch:
    """Answers, `Stats` and models recorded on fixed inputs.

    Any change to the search, move for move, shows up here first.
    """

    def stats(self, conflicts, decisions, propagations, theory, ls_calls,
              ls_moves, ls_zero=0, restarts=0, bounds=0, unit_props=0):
        return dict(zip(Stats().as_dict(), (conflicts, decisions, propagations,
                                            theory, ls_calls, ls_moves,
                                            ls_zero, restarts, bounds,
                                            unit_props)))

    def test_smtlib_example(self):
        from test_smtlib import EXAMPLE
        from nials import smtlib
        ans, model, solver = smtlib.solve(smtlib.parse(EXAMPLE))
        assert ans is Answer.SAT
        assert model == [("x", Sort.INT, 0), ("y", Sort.INT, 0),
                         ("z", Sort.INT, 2)]
        assert solver.stats.as_dict() == self.stats(0, 3, 4, 3, 0, 0,
                                                    unit_props=2)

    def test_guidance_40_30(self):
        from test_acceptance import guidance_instance
        store, clauses, variables = guidance_instance(40, 30)
        ans, solver = solve(store, clauses, variables)
        assert ans is Answer.SAT
        assert solver.model == {0: 10 ** 6, 1: 10 ** 6}
        assert solver.stats.as_dict() == self.stats(20, 20, 28, 20, 1, 3, 1)

    def test_capped_product_probe(self):
        # x, y ≥ 7 puts x·y in [49, +inf), so bound propagation refutes
        # x·y = 6 at level 0, long before the cap.
        from nials import smtlib
        script = smtlib.parse(
            "(set-logic QF_NIA)(declare-const x Int)(declare-const y Int)"
            "(assert (= (* x y) 6))(assert (> x 6))(assert (> y 6))"
            "(check-sat)")
        ans, model, solver = smtlib.solve(script,
                                          SolverConfig(max_conflicts=300))
        assert ans is Answer.UNSAT and model is None
        assert solver.stats.as_dict() == self.stats(1, 0, 3, 0, 0, 0)

    @pytest.mark.parametrize("seed, answer, ints, bools, stats", [
        (23, Answer.SAT, {0: 1, 1: -7, 2: 2, 3: 1},
         {4: True, 5: False, 6: True}, (4, 9, 54, 9, 0, 0, 0, 0, 0, 6)),
        (17, Answer.UNSAT, {}, {}, (127, 128, 2166, 265, 3, 11, 0, 2, 0, 246)),
    ])
    def test_seeded_random_cnf(self, seed, answer, ints, bools, stats):
        store, clauses, int_vars, bool_vars = random_instance(
            random.Random(seed), n_int=4, n_bool=3, n_clauses=14,
            max_deg=2, coeff=4)
        clauses = clauses + box_clauses(store, int_vars, -8, 8)
        ans, solver = solve(store, clauses, int_vars + bool_vars)
        assert ans is answer
        assert solver.model == {**ints, **bools}
        assert solver.stats.as_dict() == self.stats(*stats)

    def test_search_digest(self):
        """SHA-256 over the answer, every `Stats` field, the learned-clause
        skeys in order and the model of seeded boxed-like and planted-like
        instances and a product probe, with LS on (called early and often)
        and off.  Recorded when evaluation conflicts began to exclude an
        interval of the variable assigned last (the product probe is
        unsat at level 0, by level-0 bounds); a faster core must
        reproduce it move for move."""
        def instances():
            rng = random.Random(2024)
            for _ in range(10):
                store, clauses, ints, bools = random_instance(
                    rng, n_int=4, n_bool=3, n_clauses=14, max_deg=2, coeff=4)
                clauses += box_clauses(store, ints, -8, 8)
                yield store, clauses, ints + bools, 300
            for _ in range(10):
                store, clauses, ints, bools = planted_instance(
                    rng, n_int=4, n_bool=2, n_clauses=40, max_deg=2, coeff=5)
                yield store, clauses, ints + bools, 300
            yield product_probe(6, 7) + (150,)

        h = hashlib.sha256()
        for ls in (True, False):
            for store, clauses, variables, cap in instances():
                ans, solver = solve(store, clauses, variables, max_conflicts=cap,
                                    ls_enabled=ls, threshold_base=5)
                learned = [[lit.skey for lit in c]
                           for c in solver.clauses if c.learned]
                model = sorted(solver.model.items())
                h.update(repr((ans.value, solver.stats.as_dict(), learned,
                               [kv for kv in model if type(kv[1]) is int],
                               [kv for kv in model if type(kv[1]) is bool],
                               )).encode())
        assert h.hexdigest() == (
            "1fbd65358446f0ef65fe7d0118a1e9a4ee943606cd73078a971d5cd01b8cde2c")

    def test_large_planted_digest(self):
        """SHA-256 as in `test_search_digest`, over planted-like instances
        with 20 Int variables and 150 clauses and with 35 and 300, where
        clause propagation does most of the work.  With an LS budget of 2
        moves per variable every call fails and restarts the search, which
        then decides every variable again; with the default budget most
        calls reach cost 0.  Recorded when evaluation conflicts began to
        exclude an interval of the variable assigned last."""
        rng = random.Random(2025)
        h = hashlib.sha256()
        for n_int, n_clauses in ((20, 150), (20, 150), (20, 150),
                                 (35, 300), (35, 300), (35, 300)):
            store, clauses, ints, bools = planted_instance(
                rng, n_int=n_int, n_bool=3, n_clauses=n_clauses, lo=-24,
                hi=24, max_deg=2, coeff=5)
            for budget in (2, 100):
                ans, solver = solve(store, clauses, ints + bools,
                                    max_conflicts=200, threshold_base=5,
                                    budget_per_var=budget)
                learned = [[lit.skey for lit in c]
                           for c in solver.clauses if c.learned]
                h.update(repr((ans.value, solver.stats.as_dict(), learned,
                               sorted(solver.model.items()))).encode())
        assert h.hexdigest() == (
            "7a8f70a7c8b613b9a7a519c49591fd80a9a676196a7f3ed0ab806f57171a95dd")
