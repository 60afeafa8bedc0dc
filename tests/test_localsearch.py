"""Local-search move engine and the mode-cycling descent loop."""

import random
import sys
import time

import pytest

from helpers import random_instance
from nials import localsearch
from nials.costfn import IncrementalCost, compile_clauses
from nials.intervals import IntervalSet
from nials.localsearch import (BOOL_FLIPS, FS_JUMPS, HILL_CLIMB, LsProblem,
                               LsResult, MoveEngine, run)
from nials.terms import Clause, Literal, Polynomial, Rel, Sort, TermStore

P = Polynomial


def visit(engine, var, alpha, feasible, mode, outcome, limit=None):
    """Drive one visit as `run` does; `outcome(cand)` says whether the
    candidate is accepted.  Returns the candidates offered."""
    offered = []
    moves = engine.moves(var, alpha, feasible, mode)
    ok = None
    while moves is not None and (limit is None or len(offered) < limit):
        try:
            cand = moves.send(ok)
        except StopIteration:
            break
        offered.append(cand)
        ok = outcome(cand)
    return offered


def int_problem(store, clauses, int_vars, mu0, feasible=None, budget=2000):
    return LsProblem(
        vars=list(int_vars),
        values=dict(mu0),
        feasible=feasible or {},
        cost=compile_clauses(clauses),
        budget=budget,
    )


class TestHillDeltas:
    def test_step_one(self):
        assert MoveEngine(1.2).hill_deltas(1.0) == [1, -1]

    def test_step_ten(self):
        # round(10*1.2), round(10/1.2), and negations: 12, 8, -8, -12.
        assert MoveEngine(1.2).hill_deltas(10.0) == [12, 8, -8, -12]

    def test_zero_rounds_replaced_by_unit(self):
        # With acc = 3 and step 1: 1/3 rounds to 0 and becomes +-1.
        deltas = MoveEngine(3.0).hill_deltas(1.0)
        assert 0 not in deltas
        assert 1 in deltas and -1 in deltas

    def test_half_away_from_zero(self):
        # 2.5 * 1.2 = 3.0; 2.5 / 1.2 = 2.083...; check the rounding of 2.5
        # itself through a step where it appears: 25 / 1.2 = 20.83 -> 21.
        assert MoveEngine(1.2).hill_deltas(25.0) == [30, 21, -21, -30]


class TestStepSizeRules:
    def drive(self, engine, var, feasible, outcomes):
        """One hill-climb visit; outcomes maps candidate -> success."""
        return visit(engine, var, 0, feasible, HILL_CLIMB, outcomes)

    def setup_method(self):
        self.store = TermStore()
        self.v = self.store.new_var("v", Sort.INT)
        self.feasible = {self.v.id: IntervalSet.full()}

    def test_failure_shrinks_step_to_floor_one(self):
        engine = MoveEngine(1.2)
        engine.step_size[self.v.id] = 1.0
        self.drive(engine, self.v, self.feasible, lambda c: False)
        assert engine.step_size[self.v.id] == 1.0

    def test_failure_divides_step_by_acc(self):
        engine = MoveEngine(1.2)
        engine.step_size[self.v.id] = 12.0
        self.drive(engine, self.v, self.feasible, lambda c: False)
        assert engine.step_size[self.v.id] == pytest.approx(10.0)

    def test_success_sets_step_to_winning_delta(self):
        engine = MoveEngine(1.2)
        engine.step_size[self.v.id] = 10.0
        # Accept exactly one move (+12), then refuse everything.
        seen = []

        def outcomes(c):
            seen.append(c)
            return c == 12 and seen.count(12) == 1

        self.drive(engine, self.v, self.feasible, outcomes)
        assert engine.step_size[self.v.id] == pytest.approx(12.0 / 1.2)

    def test_step_never_below_one(self):
        engine = MoveEngine(1.2)
        for _ in range(5):
            self.drive(engine, self.v, self.feasible, lambda c: False)
            assert engine.step_size.get(self.v.id, 1.0) >= 1.0

    def test_infeasible_candidates_skipped(self):
        engine = MoveEngine(1.2)
        feasible = {self.v.id: IntervalSet.range(0, 1)}
        offered = []
        self.drive(engine, self.v, feasible,
                   lambda c: offered.append(c) or False)
        assert offered == [1]  # -1 lies outside [0, 1]


class TestFsJumps:
    def setup_method(self):
        self.store = TermStore()
        self.v = self.store.new_var("v", Sort.INT)

    def test_global_phase_offers_other_intervals_once(self):
        fs = IntervalSet.from_intervals([(-5, 5), (40, 60), (100, 120)])
        feasible = {self.v.id: fs}
        engine = MoveEngine()

        def refuse_all():
            return visit(engine, self.v, 0, feasible, FS_JUMPS,
                         lambda c: False, limit=11)

        # Global sweep over the two other intervals, then the local
        # right-neighbor probe.
        assert refuse_all() == [40, 100, 40]
        # Second visit in the same call: only the local phase remains.
        assert refuse_all() == [40]

    def test_local_phase_walks_neighbors(self):
        fs = IntervalSet.from_intervals([(-5, 5), (40, 60), (100, 120)])
        feasible = {self.v.id: fs}
        engine = MoveEngine()
        engine.global_used.add(self.v.id)  # skip the global phase
        alpha = 42

        def rightwards(cand):
            # Accept rightward jumps only.
            nonlocal alpha
            ok = cand > alpha
            if ok:
                alpha = cand
            return ok

        path = visit(engine, self.v, alpha, feasible, FS_JUMPS, rightwards,
                     limit=6)
        # First neighbor tried is one direction; after a rightward success
        # the walk keeps going right until intervals run out.
        assert 100 in path
        assert alpha == 100


class TestRecords:
    def test_keyword_construction(self):
        cost = compile_clauses([])
        problem = LsProblem(vars=[], values={}, feasible={}, cost=cost,
                            budget=7)
        assert problem.deadline is None
        problem = LsProblem(vars=[], values={0: 1}, feasible={}, cost=cost,
                            budget=7, deadline=2.5)
        assert (problem.values, problem.cost, problem.budget,
                problem.deadline) == ({0: 1}, cost, 7, 2.5)
        result = LsResult(values={0: 1}, cost=0, initial_cost=3,
                          activity={0: 3}, moves_tried=4, moves_accepted=1,
                          reached_zero=True)
        assert (result.values, result.cost, result.initial_cost,
                result.activity, result.moves_tried, result.moves_accepted,
                result.reached_zero) == ({0: 1}, 0, 3, {0: 3}, 4, 1, True)


class TestRunLoop:
    def make_vars(self, n_int=0, n_bool=0):
        store = TermStore()
        ints = [store.new_var(f"x{i}", Sort.INT) for i in range(n_int)]
        bools = [store.new_var(f"b{i}", Sort.BOOL) for i in range(n_bool)]
        return store, ints, bools

    def test_bool_flip_solves_unit(self):
        store, _, bools = self.make_vars(0, 1)
        b = bools[0]
        clause = Clause([Literal(True, bvar=b)])
        problem = LsProblem(
            vars=[b], values={b.id: False}, feasible={},
            cost=compile_clauses([clause]), budget=10)
        result = run(problem)
        assert result.reached_zero
        assert result.values[b.id] is True
        assert result.initial_cost == 1

    def test_example_walkthrough(self):
        """b and x = y^2 from (false, 4, 1): flip b, then bump y."""
        store, ints, bools = self.make_vars(2, 1)
        x, y = ints
        b = bools[0]
        clauses = [
            Clause([Literal(True, bvar=b)]),
            Clause([Literal(True, atom=store.mk_atom(
                P.var(x.id) - P.var(y.id) * P.var(y.id), Rel.EQ, P.zero()))]),
        ]
        moves = []
        problem = LsProblem(
            vars=[b, y],
            values={x.id: 4, y.id: 1, b.id: False},
            feasible={y.id: IntervalSet.full()},
            cost=compile_clauses(clauses, fixed={x.id: 4}),
            budget=100)
        result = run(problem, on_move=lambda *a: moves.append(a))
        assert result.initial_cost == 4
        assert result.reached_zero
        assert result.values[x.id] == 4
        assert result.values[y.id] in (2, -2)
        assert result.values[b.id] is True

    def test_hill_climb_reaches_far_targets(self):
        store, ints, _ = self.make_vars(2, 0)
        u, v = ints
        clauses = [
            Clause([Literal(True, atom=store.mk_atom(
                P.var(u.id), Rel.EQ, P.const(25)))]),
            Clause([Literal(True, atom=store.mk_atom(
                P.var(v.id), Rel.EQ, P.const(-13)))]),
        ]
        problem = int_problem(store, clauses, [u, v],
                              {u.id: 2, v.id: 3},
                              feasible={u.id: IntervalSet.full(),
                                        v.id: IntervalSet.full()})
        result = run(problem)
        assert result.reached_zero
        assert result.values[u.id] == 25
        assert result.values[v.id] == -13

    def test_greedy_descent_can_stop_at_local_minimum(self):
        # u*v = 100 and u = v from (2, 3): single-variable moves stall in a
        # genuine local minimum, so the result is a best-effort assignment.
        store, ints, _ = self.make_vars(2, 0)
        u, v = ints
        pu, pv = P.var(u.id), P.var(v.id)
        clauses = [
            Clause([Literal(True, atom=store.mk_atom(
                pu * pv, Rel.EQ, P.const(100)))]),
            Clause([Literal(True, atom=store.mk_atom(
                pu - pv, Rel.EQ, P.zero()))]),
        ]
        problem = int_problem(store, clauses, [u, v],
                              {u.id: 2, v.id: 3},
                              feasible={u.id: IntervalSet.full(),
                                        v.id: IntervalSet.full()})
        result = run(problem)
        assert result.cost < result.initial_cost
        assert result.cost > 0

    def test_fs_jump_crosses_gap(self):
        store, ints, _ = self.make_vars(1, 0)
        (v,) = ints
        fs = IntervalSet.from_intervals([(-5, 5), (40, 60)])
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            P.var(v.id), Rel.EQ, P.const(50)))])]
        problem = int_problem(store, clauses, [v], {v.id: 0},
                              feasible={v.id: fs})
        result = run(problem)
        assert result.reached_zero
        assert result.values[v.id] == 50

    def test_local_minimum_reported(self):
        # x^2 = -1 has no solution; cost cannot reach zero.
        store, ints, _ = self.make_vars(1, 0)
        (x,) = ints
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id) * P.var(x.id) + P.const(1), Rel.EQ, P.zero()))])]
        problem = int_problem(store, clauses, [x], {x.id: 3},
                              feasible={x.id: IntervalSet.full()})
        result = run(problem)
        assert not result.reached_zero
        assert result.cost == 1
        assert result.values[x.id] == 0

    def test_budget_limits_probes(self):
        store, ints, _ = self.make_vars(1, 0)
        (x,) = ints
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id), Rel.EQ, P.const(10 ** 6)))])]
        problem = int_problem(store, clauses, [x], {x.id: 0},
                              feasible={x.id: IntervalSet.full()}, budget=7)
        result = run(problem)
        assert result.moves_tried <= 7
        assert not result.reached_zero

    def test_accepted_moves_strictly_decrease(self):
        rng = random.Random(21)
        for _ in range(25):
            store, clauses, ints, bools = random_instance(
                rng, n_int=2, n_bool=2, n_clauses=3, max_deg=2, coeff=3)
            costs = []
            values = {v.id: rng.randint(-8, 8) for v in ints}
            values.update((v.id, rng.random() < 0.5) for v in bools)
            problem = LsProblem(
                vars=ints + bools, values=values,
                feasible={v.id: IntervalSet.range(-8, 8) for v in ints},
                cost=compile_clauses(clauses), budget=400)

            def watch(var, alpha, cand, mode, success, costs=costs):
                if success:
                    costs.append((var.id, cand))

            result = run(problem, on_move=watch)
            assert result.cost >= 0
            assert len(costs) == result.moves_accepted
            assert result.initial_cost - result.cost >= result.moves_accepted

    def test_activity_tracks_cost_decrease(self):
        store, ints, _ = self.make_vars(1, 0)
        (x,) = ints
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id), Rel.EQ, P.const(3)))])]
        problem = int_problem(store, clauses, [x], {x.id: 0},
                              feasible={x.id: IntervalSet.full()})
        result = run(problem)
        assert result.reached_zero
        assert result.activity == {x.id: 3}

    def test_past_deadline_tries_no_move(self):
        store, ints, _ = self.make_vars(1, 0)
        (x,) = ints
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            P.var(x.id), Rel.EQ, P.const(10 ** 6)))])]
        problem = int_problem(store, clauses, [x], {x.id: 0},
                              feasible={x.id: IntervalSet.full()},
                              budget=10 ** 6)
        problem.deadline = time.monotonic() - 1.0
        result = run(problem)
        assert result.moves_tried == 0
        assert result.cost == result.initial_cost == 10 ** 6


class TestCriticalPhase:
    def test_solves_past_the_descent(self, monkeypatch):
        # The descent stops at cost 1 (u = 48); one critical move sets u
        # to the value that makes u = 47 hold.
        problem = far_problem(1000)
        u = problem.vars[0]
        monkeypatch.setattr(localsearch, "CRITICAL_PATIENCE", 0)
        stalled = run(problem, MoveEngine(3.0))
        assert (stalled.cost, stalled.values[u.id]) == (1, 48)
        monkeypatch.undo()
        result = run(problem, MoveEngine(3.0))
        assert result.reached_zero
        assert result.values[u.id] == 47

    def test_values_stay_feasible_and_cost_is_exact(self):
        for seed in range(60):
            problem = random_problem(seed, 2000)
            result = run(problem)
            for x in problem.vars:
                if x.sort is Sort.INT:
                    assert result.values[x.id] in problem.feasible[x.id]
            assert result.cost == IncrementalCost(problem.cost,
                                                  result.values).value
            assert result.moves_tried <= problem.budget

    def test_repeatable_per_seed(self):
        for seed in range(20):
            a = run(random_problem(seed, 500))
            b = run(random_problem(seed, 500))
            assert (a.values, a.cost, a.moves_tried) == \
                (b.values, b.cost, b.moves_tried)


class TestExtremeAcc:
    """Acceleration constants far from 1 keep every step a finite float
    below `MoveEngine.max_step`, so hill-climbing never overflows."""

    @staticmethod
    def over_1000():
        """(x > 1000 or y > 1000) and (y > 1000 or z = 1) from 0, 0, 0:
        an accepted hill-climbing move of about `acc` (or 1/acc) units
        drives the next step towards the float range."""
        store = TermStore()
        x, y, z = (store.new_var(n, Sort.INT) for n in "xyz")

        def over(v):
            return Literal(False, atom=store.mk_atom(
                P.var(v.id), Rel.LEQ, P.const(1000)))

        clauses = [Clause([over(x), over(y)]),
                   Clause([over(y), Literal(True, atom=store.mk_atom(
                       P.var(z.id), Rel.EQ, P.const(1)))])]
        return int_problem(store, clauses, [x, y, z],
                           {x.id: 0, y.id: 0, z.id: 0}, budget=300)

    def check(self, problem, acc):
        engine = MoveEngine(acc)
        result = run(problem, engine)
        assert all(s <= engine.max_step for s in engine.step_size.values())
        assert result.cost == IncrementalCost(problem.cost,
                                              result.values).value
        return result

    @pytest.mark.parametrize("acc", [1e200, sys.float_info.max, 1e-300])
    def test_huge_step_reaches_zero(self, acc):
        assert self.check(self.over_1000(), acc).reached_zero

    def test_acc_below_one_reaches_zero(self):
        assert self.check(self.over_1000(), 0.5).reached_zero

    def test_failed_round_keeps_step_below_bound(self):
        # x = 1, y = 1 and x·y = 7 from 0, 0.  Below 1 a failed round
        # divides x's step by acc, which grows it, and y's move then
        # brings hill-climbing back to x at that step.
        store = TermStore()
        x, y = (store.new_var(n, Sort.INT) for n in "xy")
        px, py = P.var(x.id), P.var(y.id)
        clauses = [Clause([Literal(True, atom=store.mk_atom(
            p, Rel.EQ, P.const(c)))]) for p, c in ((px, 1), (py, 1),
                                                  (px * py, 7))]
        result = self.check(int_problem(store, clauses, [x, y],
                                        {x.id: 0, y.id: 0}, budget=300),
                            1e-300)
        assert result.values == {x.id: 1, y.id: 1}


def far_problem(budget):
    """u = 47, v = -33 and (b or u + v <= 0) from u = 0, v = 3, b false;
    v ranges over four intervals."""
    store = TermStore()
    u = store.new_var("u", Sort.INT)
    v = store.new_var("v", Sort.INT)
    b = store.new_var("b", Sort.BOOL)
    pu, pv = P.var(u.id), P.var(v.id)
    clauses = [
        Clause([Literal(True, atom=store.mk_atom(pu, Rel.EQ, P.const(47)))]),
        Clause([Literal(True, atom=store.mk_atom(pv, Rel.EQ, P.const(-33)))]),
        Clause([Literal(True, bvar=b), Literal(True, atom=store.mk_atom(
            pu + pv, Rel.LEQ, P.zero()))]),
    ]
    feasible = {u.id: IntervalSet.full(),
                v.id: IntervalSet.from_intervals(
                    [(-60, -30), (-20, -10), (-4, 4), (12, 20)])}
    return LsProblem(vars=[u, v, b], values={u.id: 0, v.id: 3, b.id: False},
                     feasible=feasible, cost=compile_clauses(clauses),
                     budget=budget)


def random_problem(seed, budget):
    """Three random clauses over x0, x1, b0; each integer variable ranges
    over three random intervals."""
    rng = random.Random(seed)
    store, clauses, ints, bools = random_instance(
        rng, n_int=2, n_bool=1, n_clauses=3, max_deg=2, coeff=5)
    feasible = {}
    for x in ints:
        cuts = sorted(rng.sample(range(-40, 41), 6))
        feasible[x.id] = IntervalSet.from_intervals(
            [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])])
    values = {x.id: feasible[x.id].pick_value() for x in ints}
    values.update((b.id, False) for b in bools)
    return LsProblem(vars=ints + bools, values=values, feasible=feasible,
                     cost=compile_clauses(clauses), budget=budget)


def record(problem, acc):
    """(on_move sequence, LsResult fields, final step sizes), by name."""
    names = {x.id: x.name for x in problem.vars}
    sorts = {x.id: x.sort for x in problem.vars}
    engine = MoveEngine(acc)
    moves = []
    r = run(problem, engine, lambda x, alpha, cand, mode, ok:
            moves.append((x.name, alpha, cand, mode, ok)))

    def named(d):
        return {names[k]: v for k, v in d.items()}

    result = (r.cost, r.initial_cost, r.moves_tried, r.moves_accepted,
              r.reached_zero,
              named({k: v for k, v in r.values.items()
                     if sorts[k] is Sort.INT}),
              named({k: v for k, v in r.values.items()
                     if sorts[k] is Sort.BOOL}),
              named(r.activity))
    return moves, result, named(engine.step_size)


B, J, H = BOOL_FLIPS, FS_JUMPS, HILL_CLIMB

# (builder, arguments, acc, on_move sequence, (cost, initial cost, moves
# tried, moves accepted, reached zero, int values, bool values, activity),
# final step sizes).  Between them the cases accept and reject moves in
# every mode, jump between intervals and stop at a budget; any difference
# here is a change of the search, not of its implementation.  The move
# lists are the descent's; in the first case one critical move then
# takes u from 48 to 47.
PINNED = [
    (far_problem, (1000,), 3.0, [
        ('b', False, True, B, True), ('v', 3, -30, J, True),
        ('v', -30, -10, J, False), ('v', -30, 12, J, False),
        ('v', -30, -10, J, False), ('v', -30, -31, H, True),
        ('v', -31, -33, H, True), ('v', -33, -32, H, False),
        ('v', -33, -34, H, False), ('v', -33, -42, H, False),
        ('u', 0, 3, H, True), ('u', 3, 1, H, False), ('u', 3, -1, H, False),
        ('u', 3, -3, H, False), ('u', 3, 12, H, True), ('u', 12, 4, H, False),
        ('u', 12, 2, H, False), ('u', 12, -6, H, False),
        ('u', 12, 39, H, True), ('u', 39, 15, H, False),
        ('u', 39, 9, H, False), ('u', 39, -15, H, False),
        ('u', 39, 120, H, False), ('u', 39, 48, H, True),
        ('u', 48, 30, H, False), ('u', 48, -42, H, False),
        ('u', 48, 75, H, False), ('u', 48, 51, H, False),
        ('u', 48, 45, H, False), ('u', 48, 21, H, False),
        ('v', -33, -30, H, False), ('v', -33, -32, H, False),
        ('v', -33, -34, H, False), ('v', -33, -36, H, False),
     ], (0, 86, 35, 8, True,
      {'u': 47, 'v': -33}, {'b': True},
      {'b': 3, 'v': 36, 'u': 46}),
     {'v': 1.0, 'u': 3.0}),
    (far_problem, (15,), 1.2, [
        ('b', False, True, B, True), ('v', 3, -30, J, True),
        ('v', -30, -10, J, False), ('v', -30, 12, J, False),
        ('v', -30, -10, J, False), ('v', -30, -31, H, True),
        ('v', -31, -30, H, False), ('v', -31, -32, H, True),
        ('v', -32, -31, H, False), ('v', -32, -33, H, True),
        ('v', -33, -32, H, False), ('v', -33, -34, H, False),
        ('u', 0, 1, H, True), ('u', 1, -1, H, False), ('u', 1, 2, H, True),
     ], (45, 86, 15, 7, False,
      {'u': 2, 'v': -33}, {'b': True},
      {'b': 3, 'v': 36, 'u': 2}),
     {'v': 1.0, 'u': 1.0}),
    (random_problem, (5, 1000), 1.2, [
        ('b0', False, True, B, True), ('x0', 0, -3, J, False),
        ('x0', 0, -3, J, False), ('x1', -2, -17, J, False),
        ('x1', -2, 6, J, False), ('x1', -2, -17, J, False),
        ('x1', -2, 6, J, False), ('x0', 0, 1, H, True), ('x0', 1, 2, H, True),
        ('x0', 2, 0, H, False), ('x0', 2, 3, H, True), ('x0', 3, 1, H, False),
        ('x0', 3, 4, H, True),
     ], (0, 5, 13, 5, True,
      {'x0': 4, 'x1': -2}, {'b0': True},
      {'b0': 1, 'x0': 4}),
     {'x0': 1.0}),
    (random_problem, (21, 12), 1.2, [
        ('b0', False, True, B, False), ('x0', 0, -25, J, False),
        ('x0', 0, 31, J, False), ('x0', 0, -25, J, False),
        ('x0', 0, 31, J, False), ('x1', 3, -15, J, False),
        ('x1', 3, 28, J, False), ('x1', 3, -15, J, False),
        ('x1', 3, 28, J, False), ('x0', 0, 1, H, True),
        ('x0', 1, -1, H, False), ('x0', 1, 2, H, True),
     ], (12, 24, 12, 2, False,
      {'x0': 2, 'x1': 3}, {'b0': False},
      {'x0': 12}),
     {'x0': 1.0}),
]


@pytest.mark.parametrize("case", range(len(PINNED)))
def test_pinned_move_sequence(case):
    build, args, acc, moves, result, steps = PINNED[case]
    assert record(build(*args), acc) == (moves, result, steps)
