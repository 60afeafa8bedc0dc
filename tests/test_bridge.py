"""Core/local-search glue: schedule, problem construction, result feedback."""

import random

from helpers import (assignments, box_clauses, clauses_sat, ls_constants,
                     planted_instance, random_instance)
from nials import localsearch
from nials.bridge import (LS_BUDGET_PER_VAR, LS_THRESHOLD_BASE, TOP_K,
                          LsController, LsSchedule, apply_ls_result,
                          build_initial_assignment, build_ls_formula)
from nials.core import Answer, Solver, SolverConfig
from nials.feasibility import FeasibilityMap
from nials.localsearch import DEFAULT_ACC, LsResult
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

    def test_default_firing_points(self):
        sched = LsSchedule(LS_THRESHOLD_BASE)
        thresholds = [sched.next_threshold]
        for _ in range(3):
            sched.advance()
            thresholds.append(sched.next_threshold)
        assert thresholds == [20, 40, 85, 160]

    def test_default_first_call_needs_21_conflicts(self):
        # The seed-17 search of test_core's pinned random CNF.  A cap of 20
        # ends it as the first call falls due; at 21 the call runs once
        # and restarts the search.
        for cap, calls in ((20, 0), (21, 1)):
            store, clauses, ints, bools = random_instance(
                random.Random(17), n_int=4, n_bool=3, n_clauses=14,
                max_deg=2, coeff=4)
            clauses += box_clauses(store, ints, -8, 8)
            solver = Solver(store, Formula(clauses, ints + bools),
                            SolverConfig(max_conflicts=cap))
            assert solver.check_sat() is Answer.UNKNOWN
            assert solver.stats.ls_calls == solver.stats.restarts == calls

    def test_not_due_before_base(self):
        sched = LsSchedule(50)
        assert not sched.due(49)
        assert sched.due(50)
        with ls_constants(threshold_base=50):
            ls = LsController()
        assert not ls.should_run(49)
        assert ls.should_run(50)

    def test_controller_reads_constants_per_call(self, monkeypatch):
        # A call takes its budget and acceleration constant from the module
        # constants as they stand when it runs.
        seen = []
        real_run = localsearch.run

        def spy(problem, engine=None):
            engine = engine or localsearch.MoveEngine()
            seen.append((problem.budget, engine.acc))
            return real_run(problem, engine)

        monkeypatch.setattr(localsearch, "run", spy)
        store, clauses, ints, bools = random_instance(
            random.Random(3), n_int=2, n_bool=1, n_clauses=3)
        solver = Solver(store, Formula(clauses, ints + bools))
        with ls_constants(budget_per_var=7, acc=3.0):
            solver.ls.run(solver)
        solver.ls.run(solver)
        assert seen == [(7 * 3, 3.0), (LS_BUDGET_PER_VAR * 3, DEFAULT_ACC)]

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

    def test_base_zero_grows_by_one(self):
        # Each call restarts the search, so a threshold that stayed put
        # would call local search again before every decision.
        sched = LsSchedule(0)
        thresholds = []
        for _ in range(4):
            sched.advance()
            thresholds.append(sched.next_threshold)
        assert thresholds == [1, 2, 3, 4]


class TestInitialAssignment:
    def setup_method(self):
        self.store = TermStore()
        self.x = self.store.new_var("x", Sort.INT)
        self.y = self.store.new_var("y", Sort.INT)
        self.b = self.store.new_var("b", Sort.BOOL)
        self.trail = Trail()
        self.cache = self.trail.cache
        self.feas = FeasibilityMap()

    def build(self):
        return build_initial_assignment(
            [self.x, self.y, self.b], self.trail, self.feas)

    def test_trail_values_become_fixed(self):
        self.trail.push_model_assignment(self.x, 7, decision=True)
        self.trail.push_decision(Literal(False, bvar=self.b))
        free, values = self.build()
        assert self.trail.values == {self.x.id: 7, self.b.id: False}
        assert free == [self.y]
        assert values == {self.x.id: 7, self.y.id: 0, self.b.id: False}

    def test_cached_value_used_when_feasible(self):
        self.cache[self.y.id] = 42
        free, values = self.build()
        assert values[self.y.id] == 42

    def test_infeasible_cache_falls_back_to_pick_value(self):
        lit = Literal(True, atom=self.store.mk_atom(
            P.const(5) - P.var(self.y.id), Rel.LEQ, P.zero()))  # y >= 5
        self.trail.push_model_assignment(self.x, 0, decision=True)
        self.feas.assert_unit_constraint(self.y, lit, self.trail)
        self.cache[self.y.id] = 2
        free, values = self.build()
        assert values[self.y.id] == 5

    def test_bool_defaults_true(self):
        free, values = self.build()
        assert values[self.b.id] is True
        self.cache[self.b.id] = False
        assert self.build()[1][self.b.id] is False


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
            values={x.id: 9, y.id: -1, b.id: False},
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
            values={x.id: 0}, cost=2, initial_cost=2,
            activity={}, moves_tried=4, moves_accepted=0, reached_zero=False)
        bumped = []
        apply_ls_result(result, [x], cache, bumped.append)
        assert bumped == []


class TestLsOnSolver:
    def trail_values(self, solver):
        return dict(solver.trail.values)

    def decide_randomly(self, rng, solver):
        """Up to two random decisions; False if propagation conflicts."""
        for _ in range(rng.randint(0, 2)):
            trail = solver.trail
            open_vars = [x for x in solver.formula.variables
                         if x.id not in self.trail_values(solver)]
            if not open_vars:
                break
            x = rng.choice(open_vars)
            if x.sort is Sort.BOOL:
                trail.push_decision(Literal(rng.random() < 0.5, bvar=x))
            else:
                v = solver.feas.get(x.id).pick_value(rng.randint(-4, 4))
                trail.push_model_assignment(x, v, decision=True)
            if solver.propagate() is not None:
                return False
        return True

    def test_zero_cost_values_are_complete_models(self):
        """The solver's own LS call after a conflict-free trail prefix:
        a call that reaches cost 0 returns a value for every variable,
        keeps each trail value, and satisfies every clause."""
        rng = random.Random(1111)
        calls = zeros = kept = 0
        for i in range(120):
            make = planted_instance if i % 2 else random_instance
            store, clauses, ints, bools = make(
                rng, n_int=3, n_bool=2, n_clauses=6, max_deg=2, coeff=3)
            solver = Solver(store, Formula(clauses, ints + bools))
            if (solver.propagate() is not None
                    or not self.decide_randomly(rng, solver)):
                continue
            fixed = self.trail_values(solver)
            with ls_constants(budget_per_var=1000):
                result = solver.ls.run(solver)
            if result is None:
                continue
            calls += 1
            if not result.reached_zero:
                continue
            zeros += 1
            assert set(result.values) == {x.id for x in ints + bools}
            assert all(result.values[vid] == v for vid, v in fixed.items())
            kept += bool(fixed)
            for clause in solver.formula.clauses:
                assert any(lit.holds(result.values) for lit in clause)
        # Measured: 93 calls, 78 at cost 0, 66 of those with a trail value.
        assert zeros >= 70 and kept >= 60, (calls, zeros, kept)
