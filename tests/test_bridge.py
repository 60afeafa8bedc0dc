"""Core/local-search glue: schedule, problem construction, result feedback."""

import random

from helpers import assignments, clauses_sat, random_instance
from nials.bridge import (TOP_K, LsController, LsSchedule, apply_ls_result,
                          build_initial_assignment, build_ls_formula)
from nials.core import Solver, SolverConfig
from nials.feasibility import FeasibilityMap
from nials.localsearch import LsResult
from nials.terms import (Clause, Formula, Literal, Polynomial, Rel, Sort,
                         TermStore)
from nials.trail import Trail

P = Polynomial


class TestSchedule:
    def test_firing_points(self):
        # base + floor(base*k*log10(k+9)^3) increments: 50, 100, 212, 400.
        sched = LsSchedule(50)
        points = []
        for conflicts in range(0, 500):
            if sched.due(conflicts):
                points.append(conflicts)
                sched.advance()
        assert points == [50, 100, 212, 400]

    def test_not_due_before_base(self):
        sched = LsSchedule(50)
        assert not sched.due(49)
        assert sched.due(50)
        ls = LsController(SolverConfig(ls_threshold_base=50))
        assert not ls.should_run(49)
        assert ls.should_run(50)

    def test_disabled_ls_has_no_controller(self):
        formula = Formula([], [])
        assert Solver(TermStore(), formula, SolverConfig()).ls is not None
        assert Solver(TermStore(), formula,
                      SolverConfig(ls_enabled=False)).ls is None

    def test_custom_base(self):
        sched = LsSchedule(10)
        assert sched.next_threshold == 10
        sched.advance()
        assert sched.next_threshold == 20


class TestInitialAssignment:
    def setup_method(self):
        self.store = TermStore()
        self.x = self.store.new_var("x", Sort.INT)
        self.y = self.store.new_var("y", Sort.INT)
        self.b = self.store.new_var("b", Sort.BOOL)
        self.trail = Trail()
        self.cache = {}
        self.feas = FeasibilityMap()

    def build(self):
        return build_initial_assignment(
            [self.x, self.y, self.b], self.trail, self.cache, self.feas)

    def test_trail_values_become_fixed(self):
        self.trail.push_model_assignment(self.x, 7, decision=True)
        self.trail.push_decision(Literal(False, bvar=self.b))
        free, fixed, mu_int, mu_bool = self.build()
        assert fixed == {self.x.id: 7, self.b.id: False}
        assert free == [self.y]
        assert mu_int == {self.y.id: 0}

    def test_cached_value_used_when_feasible(self):
        self.cache[self.y.id] = 42
        free, fixed, mu_int, mu_bool = self.build()
        assert mu_int[self.y.id] == 42

    def test_infeasible_cache_falls_back_to_pick_value(self):
        lit = Literal(True, atom=self.store.mk_atom(
            P.const(5) - P.var(self.y.id), Rel.LEQ, P.zero()))  # y >= 5
        self.trail.push_model_assignment(self.x, 0, decision=True)
        self.feas.assert_unit_constraint(self.y, lit, self.trail)
        self.cache[self.y.id] = 2
        free, fixed, mu_int, mu_bool = self.build()
        assert mu_int[self.y.id] == 5

    def test_bool_defaults_true(self):
        free, fixed, mu_int, mu_bool = self.build()
        assert mu_bool[self.b.id] is True
        self.cache[self.b.id] = False
        assert self.build()[3][self.b.id] is False


class TestLsFormula:
    def test_true_literal_collapses_clause_to_unit(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        b = store.new_var("b", Sort.BOOL)
        trail = Trail()
        trail.push_decision(Literal(True, bvar=b))
        other = Literal(True, atom=store.mk_atom(
            P.var(x.id), Rel.EQ, P.zero()))
        clauses = [Clause([Literal(True, bvar=b), other])]
        out = build_ls_formula(clauses, trail)
        assert [[l.skey for l in c] for c in out] == \
            [[Literal(True, bvar=b).skey]]

    def test_false_literal_dropped_and_negation_conjoined(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        b = store.new_var("b", Sort.BOOL)
        trail = Trail()
        trail.push_decision(Literal(False, bvar=b))
        other = Literal(True, atom=store.mk_atom(
            P.var(x.id), Rel.EQ, P.zero()))
        clauses = [Clause([Literal(True, bvar=b), other])]
        out = build_ls_formula(clauses, trail)
        skeys = sorted(tuple(l.skey for l in c) for c in out)
        assert skeys == sorted([
            (other.skey,),
            (Literal(False, bvar=b).skey,),
        ])

    def test_random_equivalence_under_trail(self):
        rng = random.Random(17)
        for _ in range(60):
            store, clauses, ints, bools = random_instance(
                rng, n_int=2, n_bool=2, n_clauses=3, max_deg=2, coeff=3)
            trail = Trail()
            # Assign a random subset of the Booleans.
            assigned = {}
            for b in bools:
                if rng.random() < 0.5:
                    v = rng.random() < 0.5
                    trail.push_decision(Literal(v, bvar=b))
                    assigned[b.id] = v
            simplified = build_ls_formula(clauses, trail)
            for iv, bv in assignments(ints, -2, 2, bools):
                if any(bv[k] != v for k, v in assigned.items()):
                    continue
                assert clauses_sat(clauses, iv, bv) == \
                    clauses_sat(simplified, iv, bv)


class TestApplyResult:
    def test_cache_write_back_and_bumps(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        y = store.new_var("y", Sort.INT)
        b = store.new_var("b", Sort.BOOL)
        others = [store.new_var(f"w{i}", Sort.INT) for i in range(TOP_K - 1)]
        cache = {}
        # y gains the least of TOP_K + 1 variables, so only y is not bumped.
        activity = {x.id: 4, y.id: 1}
        activity.update((w.id, 2) for w in others)
        result = LsResult(
            int_values={x.id: 9, y.id: -1},
            bool_values={b.id: False},
            cost=0, initial_cost=5,
            activity=activity,
            moves_tried=6, moves_accepted=3, reached_zero=True)
        bumped = []
        apply_ls_result(result, [x, y, b], cache, bumped.append)
        assert cache == {x.id: 9, y.id: -1, b.id: False}
        assert bumped == [x.id] + [w.id for w in others]

    def test_zero_activity_not_bumped(self):
        store = TermStore()
        x = store.new_var("x", Sort.INT)
        cache = {}
        result = LsResult(
            int_values={x.id: 0}, bool_values={}, cost=2, initial_cost=2,
            activity={}, moves_tried=4, moves_accepted=0, reached_zero=False)
        bumped = []
        apply_ls_result(result, [x], cache, bumped.append)
        assert bumped == []
