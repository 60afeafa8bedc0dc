"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test prints exactly one PASS/FAIL line for its criterion.  Oracles are
independent re-implementations: enumeration over boxes, a numpy clause
evaluator, and brute-force integer sign checking.
"""

import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (assignments, box_clauses, brute_force, clauses_sat,
                     cost_at, entailed, random_instance)
from nials.bridge import LsSchedule, build_ls_formula
from nials.clausify import clausify
from nials.core import Answer, Solver, SolverConfig
from nials.costfn import compile_clauses
from nials.intervals import IntervalSet
from nials.localsearch import FS_JUMPS, LsProblem, MoveEngine, run
from nials.terms import (Clause, Formula, Literal, Polynomial, Rel, Sort,
                         TermStore)
from nials.trail import Reason, Trail
from nials.univariate import solve_univariate_coeffs

P = Polynomial


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {n}: {detail}"


# -- criterion 1: L2O zero iff sat, vectorized over full boxes --------------


def np_poly(poly, arrays, shape):
    total = np.zeros(shape, dtype=np.int64)
    for mono, coeff in poly.terms.items():
        term = np.full(shape, coeff, dtype=np.int64)
        for vid, e in mono:
            term = term * arrays[vid] ** e
        total = total + term
    return total


def np_clause_sat(clauses, arrays, bool_arrays, shape):
    mask = np.ones(shape, dtype=bool)
    for clause in clauses:
        cm = np.zeros(shape, dtype=bool)
        for lit in clause:
            if lit.bvar is not None:
                t = bool_arrays[lit.bvar.id]
            else:
                v = np_poly(lit.atom.poly, arrays, shape)
                rel = lit.atom.rel
                if rel is Rel.EQ:
                    t = v == 0
                elif rel is Rel.NEQ:
                    t = v != 0
                elif rel is Rel.LEQ:
                    t = v <= 0
                else:
                    t = v < 0
            cm |= t if lit.positive else ~t
        mask &= cm
    return mask


def np_cost(cost, arrays, bool_arrays, shape):
    """The flat cost form evaluated over whole grids at once."""
    total = np.zeros(shape, dtype=np.int64)
    for factor, arith, bools in cost.clauses:
        c = np.full(shape, factor, dtype=np.int64)
        for vid, want in bools:
            c = np.where(bool_arrays[vid] == want, 0, c)
        for poly, rel in arith:
            v = np_poly(poly, arrays, shape)
            if rel is Rel.EQ:
                c = c * np.abs(v)
            elif rel is Rel.NEQ:
                c = c * (v == 0)
            elif rel is Rel.LEQ:
                c = c * np.maximum(v, 0)
            else:
                c = c * np.maximum(v + 1, 0)
        total = total + c
    return total


def test_criterion_1_l2o_zero_iff_sat(capsys):
    t0 = time.monotonic()
    rng = random.Random(1001)
    points = random.Random(1002)
    n = 1000
    for _ in range(n):
        store, clauses, ints, bools = random_instance(
            rng, n_int=rng.randint(1, 4), n_bool=rng.randint(0, 3),
            n_clauses=rng.randint(1, 6), max_len=3, max_terms=3,
            max_deg=3, coeff=5)
        axes = [np.arange(-5, 6, dtype=np.int64) for _ in ints]
        axes += [np.array([False, True]) for _ in bools]
        grids = np.meshgrid(*axes, indexing="ij") if axes else []
        shape = grids[0].shape if grids else ()
        arrays = {v.id: grids[i] for i, v in enumerate(ints)}
        bool_arrays = {v.id: grids[len(ints) + i].astype(bool)
                       for i, v in enumerate(bools)}
        cost = compile_clauses(clauses)
        got = np_cost(cost, arrays, bool_arrays, shape)
        want = np_clause_sat(clauses, arrays, bool_arrays, shape)
        assert np.all(got >= 0)
        if not np.array_equal(got == 0, want):
            report(capsys, 1, False, "cost zero set differs from model set")
        # The solver's scalar evaluator agrees with the grid.
        for _ in range(5):
            idx = tuple(points.randrange(k) for k in shape)
            iv = {v.id: int(arrays[v.id][idx]) for v in ints}
            bv = {v.id: bool(bool_arrays[v.id][idx]) for v in bools}
            if cost_at(cost, iv, bv) != got[idx]:
                report(capsys, 1, False, "scalar cost differs from grid")
    elapsed = time.monotonic() - t0
    report(capsys, 1, elapsed < 60,
           f"{n} formulas, exact zero set match, {elapsed:.1f}s")


# -- criterion 2: the b and x = y^2 walkthrough -----------------------------


def test_criterion_2_example_cost_trajectory(capsys):
    store = TermStore()
    b = store.new_var("b", Sort.BOOL)
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    cost = compile_clauses([
        [Literal(True, bvar=b)],
        [Literal(True, atom=store.mk_atom(P.var(x.id), Rel.EQ,
                                          P.var(y.id) * P.var(y.id)))],
    ])
    c0 = cost_at(cost, {x.id: 4, y.id: 1}, {b.id: False})
    c1 = cost_at(cost, {x.id: 4, y.id: 1}, {b.id: True})
    c2 = cost_at(cost, {x.id: 4, y.id: 2}, {b.id: True})
    trajectory_ok = (c0, c1, c2) == (4, 3, 0)
    problem = LsProblem(
        vars=[b, x, y], values={b.id: False, x.id: 4, y.id: 1},
        feasible={x.id: IntervalSet.full(), y.id: IntervalSet.full()},
        cost=cost, budget=1000)
    result = run(problem)
    solved = (result.reached_zero and result.values[b.id]
              and result.values[x.id] == result.values[y.id] ** 2)
    report(capsys, 2, trajectory_ok and solved,
           f"trajectory {c0}->{c1}->{c2}, reached_zero={result.reached_zero}")


# -- criterion 3: the three-clause walkthrough formula ----------------------


EXAMPLE_SMT2 = """
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (or (not (>= x 1)) (= (* x y) 1)))
(assert (or (not (= (* x y) 1)) (> (+ x (* 2 y z)) 0)))
(assert (> (* z z) 1))
(check-sat)
"""


def test_criterion_3_example_formula_regression(capsys):
    from nials import smtlib
    script = smtlib.parse(EXAMPLE_SMT2)
    ans, model, _ = smtlib.solve(script)
    values = {name: v for name, _, v in model} if model else {}
    sat_ok = ans is Answer.SAT
    if sat_ok:
        x, y, z = values["x"], values["y"], values["z"]
        sat_ok = ((x < 1 or x * y == 1)
                  and (x * y != 1 or x + 2 * y * z > 0)
                  and z * z > 1)

    # Replay the walkthrough trail prefix on a fresh solver.
    store = TermStore()
    xv = store.new_var("x", Sort.INT)
    yv = store.new_var("y", Sort.INT)
    zv = store.new_var("z", Sort.INT)
    px, py, pz = (P.var(v.id) for v in (xv, yv, zv))
    a_ge = store.mk_atom(P.const(1) - px, Rel.LEQ, P.zero())
    a_xy = store.mk_atom(px * py - P.const(1), Rel.EQ, P.zero())
    a_sum = store.mk_atom(-(px + py * pz * P.const(2)), Rel.LT, P.zero())
    a_z = store.mk_atom(P.const(1) - pz * pz, Rel.LT, P.zero())
    clauses = [
        Clause([Literal(False, atom=a_ge), Literal(True, atom=a_xy)]),
        Clause([Literal(False, atom=a_xy), Literal(True, atom=a_sum)]),
        Clause([Literal(True, atom=a_z)]),
    ]
    solver = Solver(store, Formula(clauses, [xv, yv, zv]), SolverConfig())
    assert solver.propagate() is None
    fz_ok = solver.feas.get(zv.id).intervals == ((None, -2), (2, None))
    solver.trail.push_model_assignment(xv, 1, decision=True)
    assert solver.propagate() is None
    elem = solver.trail.var_elem.get(yv.id)
    singleton_ok = (elem is not None and elem.value == 1
                    and not elem.decision
                    and elem.reason[0] is Reason.FEASIBILITY_SINGLETON)
    report(capsys, 3, sat_ok and fz_ok and singleton_ok,
           f"sat={sat_ok}, F(z)={fz_ok}, y->1 singleton={singleton_ok}")


# -- criteria 4 and 10: crafted oracle suite, solved twice ------------------


def crafted_suite():
    """25 sat + 25 unsat instances, all boxed in [-8, 8], labels by
    enumeration."""
    rng = random.Random(4004)
    suite = []
    n_sat = n_unsat = 0
    while n_sat < 25 or n_unsat < 25:
        n_int = rng.randint(1, 3)
        n_bool = rng.randint(0, 1)
        n_clauses = rng.randint(2, 5)
        store, clauses, ints, bools = random_instance(
            rng, n_int=n_int, n_bool=n_bool, n_clauses=n_clauses,
            max_deg=2, coeff=4)
        clauses = clauses + box_clauses(store, ints, -8, 8)
        expected = brute_force(clauses, ints, -8, 8, bools)
        if expected is not None and n_sat >= 25:
            continue
        if expected is None and n_unsat >= 25:
            continue
        if expected is None:
            n_unsat += 1
        else:
            n_sat += 1
        suite.append((store, clauses, ints, bools, expected is not None))
    return suite


def solve_suite(suite, ls_enabled):
    results = []
    for store, clauses, ints, bools, _sat in suite:
        formula = Formula(list(clauses), ints + bools)
        solver = Solver(store, formula, SolverConfig(ls_enabled=ls_enabled))
        ans = solver.check_sat()
        results.append((ans, dict(solver.model), solver.stats.as_dict(),
                        solver))
    return results


@pytest.fixture(scope="module")
def suite_and_runs():
    suite = crafted_suite()
    return suite, solve_suite(suite, True), solve_suite(suite, False)


def test_criterion_4_oracle_soundness(capsys, suite_and_runs):
    t0 = time.monotonic()
    suite, with_ls, without_ls = suite_and_runs
    lemmas_checked = 0
    for (store, clauses, ints, bools, is_sat), r_on, r_off in zip(
            suite, with_ls, without_ls):
        for ans, model, _stats, solver in (r_on, r_off):
            want = Answer.SAT if is_sat else Answer.UNSAT
            if ans is not want:
                report(capsys, 4, False, f"answer {ans} vs oracle {want}")
            if is_sat and not clauses_sat(clauses, model, model):
                report(capsys, 4, False, "model fails re-evaluation")
            if len(ints) <= 3:
                for lemma in solver.clauses:
                    if lemma.learned:
                        if not entailed(clauses, list(lemma), ints, -8, 8,
                                        bools):
                            report(capsys, 4, False, "lemma not entailed")
                        lemmas_checked += 1
    elapsed = time.monotonic() - t0
    report(capsys, 4, elapsed < 120,
           f"50 instances x 2 configs, {lemmas_checked} lemmas entailed, "
           f"{elapsed:.1f}s")


def test_criterion_10_determinism(capsys, suite_and_runs):
    suite, first, _ = suite_and_runs
    second = solve_suite(suite, True)
    same = all(a[:3] == b[:3] for a, b in zip(first, second))
    report(capsys, 10, same,
           "identical answers, models, and stats across two full-suite runs")


# -- criterion 5: trail simplification keeps models -------------------------


def test_criterion_5_ls_formula_equivalence(capsys):
    rng = random.Random(5005)
    for _ in range(500):
        store, clauses, ints, bools = random_instance(
            rng, n_int=rng.randint(1, 2), n_bool=rng.randint(0, 2),
            n_clauses=rng.randint(1, 3), max_deg=2, coeff=3)
        trail = Trail()
        fixed_bools = {}
        fixed_ints = {}
        for b in bools:
            if rng.random() < 0.5:
                v = rng.random() < 0.5
                trail.push_decision(Literal(v, bvar=b))
                fixed_bools[b.id] = v
        for x in ints:
            if rng.random() < 0.4:
                v = rng.randint(-2, 2)
                trail.push_model_assignment(x, v, decision=True)
                fixed_ints[x.id] = v
        simplified = build_ls_formula(clauses, trail)
        for iv, bv in assignments(ints, -2, 2, bools):
            if any(iv[k] != v for k, v in fixed_ints.items()):
                continue
            if any(bv[k] != v for k, v in fixed_bools.items()):
                continue
            if clauses_sat(clauses, iv, bv) != clauses_sat(simplified, iv, bv):
                report(capsys, 5, False, "simplified formula differs")
    report(capsys, 5, True,
           "500 (formula, trail) pairs equivalent under the trail")


# -- criterion 6: move-engine invariants ------------------------------------


def test_criterion_6_move_engine_invariants(capsys):
    deltas_ok = (MoveEngine(1.2).hill_deltas(1.0) == [1, -1]
                 and set(MoveEngine(1.2).hill_deltas(10.0))
                 == {12, 8, -8, -12})
    rng = random.Random(6006)
    steps = 0
    while steps < 10000:
        store, clauses, ints, bools = random_instance(
            rng, n_int=rng.randint(1, 3), n_bool=rng.randint(0, 2),
            n_clauses=rng.randint(1, 4), max_deg=2, coeff=4)
        feasible = {}
        for x in ints:
            pieces = [(rng.randint(-30, 30), rng.randint(-30, 30))
                      for _ in range(rng.randint(1, 3))]
            fs = IntervalSet.from_intervals(
                [(min(a, b), max(a, b)) for a, b in pieces])
            feasible[x.id] = fs
        cost = compile_clauses(clauses)
        mu_int = {x.id: feasible[x.id].pick_value() for x in ints}
        mu_bool = {b.id: rng.random() < 0.5 for b in bools}
        engine = MoveEngine(1.2)

        global_sweeps = {}
        orig_moves = engine.moves

        def moves(var, alpha, feas, mode, _orig=orig_moves,
                  _engine=engine, _sweeps=global_sweeps):
            fresh = var.id not in _engine.global_used
            visit = _orig(var, alpha, feas, mode)
            if mode == FS_JUMPS and fresh and var.id in _engine.global_used:
                _sweeps[var.id] = _sweeps.get(var.id, 0) + 1
            return visit

        engine.moves = moves

        mirror_iv = dict(mu_int)
        mirror_bv = dict(mu_bool)
        state = {"cost": cost_at(cost, mirror_iv, mirror_bv), "steps": 0}

        def on_move(var, alpha, cand, mode, success):
            state["steps"] += 1
            if var.sort is Sort.INT:
                assert cand in feasible[var.id], "candidate left snapshot"
            for s in engine.step_size.values():
                assert s >= 1.0, "step size below 1"
            if success:
                if isinstance(cand, bool):
                    mirror_bv[var.id] = cand
                else:
                    mirror_iv[var.id] = cand
                new = cost_at(cost, mirror_iv, mirror_bv)
                assert new < state["cost"], "accepted move did not decrease"
                state["cost"] = new

        problem = LsProblem(
            vars=ints + bools, values={**mu_int, **mu_bool},
            feasible=feasible, cost=cost, budget=300)
        run(problem, engine, on_move)
        assert all(c <= 1 for c in global_sweeps.values())
        steps += state["steps"]
    report(capsys, 6, deltas_ok and steps >= 10000,
           f"{steps} move steps, deltas at 1/10 = [1,-1]/[12,8,-8,-12]")


# -- criterion 7: threshold schedule ----------------------------------------


def test_criterion_7_threshold_schedule(capsys):
    # Re-derived from base * k * log10(k + 9)^3 with floors:
    # 50, then +50, +112, +188 -> 50, 100, 212, 400.
    sched = LsSchedule(50)
    points = []
    for conflicts in range(500):
        if sched.due(conflicts):
            points.append(conflicts)
            sched.advance()
    ok = points[:4] == [50, 100, 212, 400]
    report(capsys, 7, ok, f"firing points {points[:4]}")


# -- criterion 8: local search guides the core ------------------------------


def guidance_instance(E, D, T=10 ** 6):
    """x, z in [-E, D] u {T} with z^2 >= 1 and x*z >= T^2: for E < T only
    (T, T) works, and for E = T (-E, -E) works too; the left region
    forces one exclusion conflict per value."""
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    z = store.new_var("z", Sort.INT)
    X, Z = P.var(x.id), P.var(z.id)
    clauses = []
    for V in (X, Z):
        clauses.append(Clause([Literal(True, atom=store.mk_atom(
            P.const(-E) - V, Rel.LEQ, P.zero()))]))
        clauses.append(Clause([Literal(True, atom=store.mk_atom(
            V - P.const(T), Rel.LEQ, P.zero()))]))
        clauses.append(Clause([Literal(True, atom=store.mk_atom(
            -((V - P.const(D)) * (V - P.const(T))), Rel.LEQ, P.zero()))]))
    clauses.append(Clause([Literal(True, atom=store.mk_atom(
        P.const(1) - Z * Z, Rel.LEQ, P.zero()))]))
    clauses.append(Clause([Literal(True, atom=store.mk_atom(
        P.const(T) * P.const(T) - X * Z, Rel.LEQ, P.zero()))]))
    return store, clauses, [x, z]


def run_guidance(E, D, ls_enabled, max_conflicts=10 ** 5):
    store, clauses, variables = guidance_instance(E, D)
    solver = Solver(store, Formula(clauses, variables),
                    SolverConfig(ls_enabled=ls_enabled,
                                 max_conflicts=max_conflicts))
    ans = solver.check_sat()
    return ans, solver.stats.conflicts


def test_criterion_8_guidance_effect(capsys):
    t0 = time.monotonic()
    sizes = [(40, 30), (60, 50), (80, 65), (100, 80), (120, 95),
             (150, 120), (200, 160), (250, 200), (300, 240), (400, 320)]
    on_conflicts = []
    off_conflicts = []
    for E, D in sizes:
        ans_on, c_on = run_guidance(E, D, True)
        ans_off, c_off = run_guidance(E, D, False)
        assert ans_on is Answer.SAT and ans_off is Answer.SAT
        on_conflicts.append(c_on)
        off_conflicts.append(c_off)
    med_on = statistics.median(on_conflicts)
    med_off = statistics.median(off_conflicts)
    big_on, c_big_on = run_guidance(10 ** 6, 300, True)
    big_off, _ = run_guidance(10 ** 6, 300, False)
    elapsed = time.monotonic() - t0
    ok = (med_on <= med_off and big_on is Answer.SAT
          and big_off is Answer.UNKNOWN and elapsed < 300)
    report(capsys, 8, ok,
           f"median conflicts {med_on} (LS) vs {med_off} (no LS); large "
           f"instance LS sat@{c_big_on} vs no-LS unknown; {elapsed:.1f}s")


# -- criterion 9: univariate solver vs brute force --------------------------


def test_criterion_9_univariate_oracle(capsys):
    rng = random.Random(9009)
    rels = (Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT)
    for _ in range(1000):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
        while all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = rng.randint(1, 50)
        rel = rng.choice(rels)
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            B = 2
        else:
            B = int(1 + max(abs(Fraction(c, cs[-1])) for c in cs[:-1])) + 1
        got = solve_univariate_coeffs(tuple(coeffs), rel)
        for v in range(-B, B + 1):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * v + c
            if (v in got) != rel.holds(acc):
                report(capsys, 9, False, f"mismatch at {v} for {coeffs}")
    report(capsys, 9, True,
           "1000 constraints match brute-force sign checks on [-B, B]")
