"""Glue between the CDCL-style core and the local-search procedure.

Covers the conflict-count schedule that decides when to run local search,
construction of the search problem from the current solver state, and
feeding the result back (value cache and variable activities).  The core
restarts to level 0 before each call, so the problem fixes only the
variables the formula itself forces, and a call that reaches cost 0 holds
a model of the whole formula, which the core checks and answers sat with.
"""

from __future__ import annotations

import math

from . import localsearch
from .costfn import compile_clauses
from .terms import INT

TOP_K = 10      # variables whose activity is bumped after a call
LS_THRESHOLD_BASE = 20  # conflicts before the first call
LS_BUDGET_PER_VAR = 100  # move evaluations per free variable and call


class LsSchedule:
    """Polynomially growing conflict thresholds for local-search calls.

    The first call fires at `base` conflicts; after the k-th call the
    threshold grows by floor(base * k * log10(k + 9)^3), and by at least
    one: every call restarts the search, so a threshold that did not grow
    (base 0) would call local search before every decision for good.
    """

    def __init__(self, base: int):
        self.base = base
        self.ls_calls = 0
        self.next_threshold = base

    def due(self, conflicts: int) -> bool:
        return conflicts >= self.next_threshold

    def advance(self):
        self.ls_calls += 1
        k = self.ls_calls
        self.next_threshold += max(1, math.floor(
            self.base * k * math.log10(k + 9) ** 3))


def build_initial_assignment(variables, trail, feas):
    """Starting point for local search from the current solver state.

    Returns (free variables, values).  Trail-assigned variables keep their
    trail value; the free ones start from the value a decision would give
    them (`FeasibilityMap.pick` of their cached value).
    """
    assigned, cache = trail.values, trail.cache
    free = []
    values = {}
    for x in variables:
        v = assigned.get(x.id)
        if v is None:
            free.append(x)
            v = feas.pick(x, cache.get(x.id))
        values[x.id] = v
    return free, values


def build_ls_formula(clauses, trail):
    """Simplify the clause set under the trail for local search.

    Clauses with a trail-true literal are replaced by that literal as a
    unit; trail-false literals are dropped from their clause and their
    negations conjoined as units.  Returns a list of literal lists.
    """
    units = {}
    out = []
    for clause in clauses:
        kept = []
        true_lit = None
        for lit in clause:
            v = trail.value_of_lit(lit)
            if v is True:
                true_lit = lit
                break
            if v is False:
                neg = lit.negate()
                units[neg.skey] = neg
            else:
                kept.append(lit)
        if true_lit is not None:
            units[true_lit.skey] = true_lit
        else:
            out.append(kept)
    out.extend([u] for u in units.values())
    return out


def apply_ls_result(result, free_vars, cache, bump_var):
    """Write the final assignment into the value cache and bump activities.

    Only non-fixed variables are written.  The `TOP_K` variables with the
    largest cost decrease get a decision-activity bump via `bump_var`.
    """
    for x in free_vars:
        cache[x.id] = result.values[x.id]
    ranked = sorted(result.activity.items(), key=lambda kv: (-kv[1], kv[0]))
    for vid, score in ranked[:TOP_K]:
        if score > 0:
            bump_var(vid)


class LsController:
    """Runs scheduled local-search calls against a solver instance.

    Reads `LS_THRESHOLD_BASE` when built and `LS_BUDGET_PER_VAR` on each
    call, as module attributes; each `localsearch.run` call reads
    `localsearch.DEFAULT_ACC`.
    """

    def __init__(self):
        self.schedule = LsSchedule(LS_THRESHOLD_BASE)

    def should_run(self, conflicts: int) -> bool:
        return self.schedule.due(conflicts)

    def run(self, solver) -> object:
        """One local-search call from the solver's trail, as it stands;
        returns the LsResult, or None when no variable is free."""
        self.schedule.advance()
        solver.stats.ls_calls += 1
        trail = solver.trail
        free, values = build_initial_assignment(
            solver.formula.variables, trail, solver.feas)
        if not free:
            return None
        clauses = build_ls_formula(solver.formula.clauses, trail)
        cost = compile_clauses(clauses, fixed=trail.values)
        feasible = {
            x.id: solver.feas.get(x.id) for x in free if x.sort is INT
        }
        problem = localsearch.LsProblem(
            vars=free,
            values=values,
            feasible=feasible,
            cost=cost,
            budget=LS_BUDGET_PER_VAR * len(free),
            deadline=solver.deadline,
        )
        result = localsearch.run(problem)
        solver.stats.ls_moves_accepted += result.moves_accepted
        solver.stats.ls_zero += result.reached_zero
        apply_ls_result(result, free, trail.cache, solver.bump_var)
        return result
