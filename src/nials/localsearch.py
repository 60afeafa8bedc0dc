"""Local search over complete assignments: a greedy descent, then
weighted critical moves.

The descent runs three move modes once each, in order: Boolean flips,
feasible-set jumps, and accelerated hill-climbing.  It does not return to
an earlier mode.  Every accepted move strictly decreases the cost;
integer candidates always stay inside the variable's feasibility snapshot.

Each mode is one generator over a single variable visit, which
`MoveEngine.moves` returns: it yields candidate values, and `run` sends it
back whether the last one was accepted.  A Boolean flip yields the negated
value once.  Feasible-set jumps first sweep the other intervals of the set
(once per variable and call), then walk to the nearest neighbouring
interval, keeping the direction while jumps succeed.
Hill-climbing tries rounds of deltas around a fixed anchor; a round with an
accepted move sets the step to its last winning delta and starts the next
round, a round without one divides the step by the acceleration constant
and ends the visit.  At step 1 the deltas are ``round(±acc)`` and
``±1``, so with an acceleration constant below 1.5 (the default 1.2
included) they are ``[1, -1]`` and the step never grows: hill-climbing
accelerates only from 1.5 up.

When the descent ends above cost 0, critical moves go on under the same
budget and deadline, as in Cai, Li & Zhang (CAV 2022) and Li, Xia & Zhao
(CAV 2023).  A critical move makes one literal of a false clause true: it
sets a Boolean variable to the literal's value, or an integer variable of
an arithmetic literal to the value nearest its own, in its feasibility
snapshot, at which the literal holds with the literal's other variables
kept.  A step samples `CRITICAL_SAMPLE` false clauses and takes their
move with the best weighted score; when no move scores above 0 it bumps
the weights of the false clauses and takes a random one of the moves.
The random choices come from a generator seeded afresh in each call, so
runs are repeatable.  The phase ends at cost 0, at the budget or the
deadline, after `CRITICAL_PATIENCE` steps without a new lowest cost, or
when no false clause has a critical move.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from .costfn import CostClause, CostFunction, IncrementalCost
from .feasibility import solution_set
from .intervals import IntervalSet, nearest_to_zero
from .terms import BOOL, INT, Variable

BOOL_FLIPS = "bool-flips"
FS_JUMPS = "fs-jumps"
HILL_CLIMB = "hill-climb"
MODES = (BOOL_FLIPS, FS_JUMPS, HILL_CLIMB)

DEFAULT_ACC = 1.2       # hill-climbing acceleration; steps grow from 1.5 up
CRITICAL_SAMPLE = 2     # false clauses whose critical moves a step scores
CRITICAL_PATIENCE = 100  # critical steps without a new lowest cost


def _round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


class LsProblem:
    """Inputs of one local-search run."""

    __slots__ = ("vars", "values", "feasible", "cost", "budget", "deadline")

    def __init__(self, vars: list, values: dict, feasible: dict,
                 cost: CostFunction, budget: int,
                 deadline: Optional[float] = None):
        self.vars = vars            # the variables to move, initial visit order
        self.values = values        # var id -> starting value, every variable
        self.feasible = feasible    # int var id -> IntervalSet snapshot
        self.cost = cost            # variables not in `vars` folded in
        self.budget = budget        # max move evaluations
        self.deadline = deadline    # time.monotonic() to stop at


class LsResult:
    __slots__ = ("values", "cost", "initial_cost", "activity", "moves_tried",
                 "moves_accepted", "reached_zero")

    def __init__(self, values: dict, cost: int, initial_cost: int,
                 activity: dict, moves_tried: int, moves_accepted: int,
                 reached_zero: bool):
        self.values = values        # var id -> final value, every variable
        self.cost = cost
        self.initial_cost = initial_cost
        self.activity = activity    # var id -> cost decrease from accepted moves
        self.moves_tried = moves_tried
        self.moves_accepted = moves_accepted
        self.reached_zero = reached_zero


def _flip(alpha: bool):
    yield not alpha


class MoveEngine:
    """Move candidates per variable visit, with state across visits.

    Keeps the hill-climbing step size of each variable and the variables
    whose feasible-set sweep is used up.  Without `acc`, the acceleration
    constant is `DEFAULT_ACC` as the module holds it when the engine is
    built.
    """

    def __init__(self, acc: Optional[float] = None):
        if acc is None:
            acc = DEFAULT_ACC
        self.acc = acc
        # Steps stay below this bound, so that `step * acc` and
        # `step / acc` are finite floats for every finite positive `acc`.
        self.max_step = sys.float_info.max / 2 / max(acc, 1.0 / acc)
        self.step_size: dict[int, float] = {}
        self.global_used: set[int] = set()

    def moves(self, var: Variable, alpha, feasible: dict, mode: str):
        """The generator of one visit of `var` at value `alpha` in `mode`,
        or None when the mode does not move that sort.

        Start it with ``send(None)``; after each candidate, send whether it
        was accepted.  It stops when the visit is over.
        """
        if mode == BOOL_FLIPS:
            return _flip(alpha) if var.sort is BOOL else None
        if var.sort is not INT:
            return None
        fs = feasible.get(var.id, IntervalSet.full())
        if mode == HILL_CLIMB:
            return self._hill_climb(var.id, alpha, fs)
        jumps = []
        if var.id not in self.global_used:
            self.global_used.add(var.id)
            idx, _, _ = fs.containing_and_neighbors(alpha)
            jumps = [nearest_to_zero(*iv)
                     for i, iv in enumerate(fs.intervals) if i != idx]
        return self._fs_jumps(jumps, alpha, fs)

    def hill_deltas(self, step: float) -> list:
        """Candidate deltas for one hill-climbing round at a given step size."""
        out = []
        for f in (self.acc, 1.0 / self.acc, -1.0 / self.acc, -self.acc):
            d = _round_half_away(step * f)
            if d == 0:
                d = 1 if f > 0 else -1
            if d not in out:
                out.append(d)
        return out

    def _hill_climb(self, vid: int, alpha: int, fs: IntervalSet):
        while True:
            step = self.step_size.get(vid, 1.0)
            anchor, won = alpha, None
            for delta in self.hill_deltas(step):
                cand = anchor + delta
                if cand in fs and (yield cand):
                    alpha, won = cand, delta
            if won is None:
                # Below 1, dividing by `acc` grows the step.
                self.step_size[vid] = min(max(1.0, step / self.acc),
                                          self.max_step)
                return
            self.step_size[vid] = min(float(abs(won)), self.max_step)

    def _fs_jumps(self, jumps: list, alpha: int, fs: IntervalSet):
        for cand in jumps:
            if (yield cand):
                alpha = cand
        # Neighbour walk, leftwards first; a failed jump turns it round and
        # two failures in a row end it.
        go_left, misses = True, 0
        while misses < 2:
            _, left, right = fs.containing_and_neighbors(alpha)
            target = left if go_left else right
            if target is not None:
                cand = nearest_to_zero(*target)
                if (yield cand):
                    alpha, misses = cand, 0
                    continue
            go_left, misses = not go_left, misses + 1


class _Budget:
    """Move evaluations tried so far, against a cap and a deadline."""

    def __init__(self, cap: int, deadline: Optional[float]):
        self.cap = cap
        self.deadline = deadline
        self.tried = 0

    def spent(self) -> bool:
        return (self.tried >= self.cap
                or (self.deadline is not None
                    and time.monotonic() > self.deadline))


def run(problem: LsProblem, engine: Optional[MoveEngine] = None,
        on_move=None) -> LsResult:
    """Greedy descent from the initial assignment, one pass over the modes,
    then weighted critical moves while the cost is above zero.

    Each mode ends when every variable has been visited since the last
    improvement, and the next mode starts from there.  `on_move` sees the
    descent's moves.  The whole call stops early when the cost hits zero,
    the evaluation budget runs out or the deadline passes.  The result
    holds the lowest-cost assignment seen, with values for every variable
    of ``problem.values``; `moves_accepted` and `activity` count the
    descent's moves.
    """
    inc = IncrementalCost(problem.cost, problem.values)
    values = inc.values
    initial_cost = cost_star = inc.value
    engine = engine or MoveEngine()
    vars_list = list(problem.vars)
    activity: dict[int, int] = {}
    moves_accepted = 0
    budget = _Budget(problem.budget, problem.deadline)

    for mode in MODES:
        n_vars = 0
        while (n_vars < len(vars_list) and cost_star
               and not budget.spent()):
            x = vars_list[n_vars]
            moves = engine.moves(x, values[x.id], problem.feasible, mode)
            success = None
            while moves is not None and cost_star and not budget.spent():
                alpha = values[x.id]
                try:
                    cand = moves.send(success)
                except StopIteration:
                    break
                budget.tried += 1
                new_cost = inc.probe(x.id, cand, cost_star)
                success = new_cost is not None
                if success:
                    inc.commit(x.id, cand)
                    activity[x.id] = activity.get(x.id, 0) + (cost_star - new_cost)
                    cost_star = new_cost
                    moves_accepted += 1
                    n_vars = 0
                    vars_list.remove(x)
                    vars_list.insert(0, x)
                if on_move is not None:
                    on_move(x, alpha, cand, mode, success)
            n_vars += 1

    if cost_star and not budget.spent():
        values, cost_star = _critical(problem, inc, budget)
    return LsResult(
        values=values,
        cost=cost_star,
        initial_cost=initial_cost,
        activity=activity,
        moves_tried=budget.tried,
        moves_accepted=moves_accepted,
        reached_zero=cost_star == 0,
    )


def _critical_moves(clause: CostClause, values: dict, feasible: dict):
    """The moves that each make one literal of a false clause true: a
    Boolean literal's variable set to the literal's value, or a variable of
    an arithmetic literal set to the value nearest its own in its feasible
    set among those that make the literal hold, the literal's other
    variables kept."""
    for x, want in clause.bools:
        yield x, want
    for poly, rel in clause.arith:
        for x in poly.variables:
            s = solution_set(poly, rel, x, values)
            if s.is_empty():
                continue
            # The nearest solution is the nearest feasible one if feasible.
            v = s.nearest(values[x])
            fs = feasible.get(x)
            if fs is not None and v not in fs:
                s = s.intersect(fs)
                if s.is_empty():
                    continue
                v = s.nearest(values[x])
            yield x, v


def _critical(problem: LsProblem, inc: IncrementalCost, budget: _Budget):
    """Weighted critical moves from the descent's end.

    Each step gathers the critical moves of up to `CRITICAL_SAMPLE`
    false clauses and takes the one with the best score: the weights of
    the clauses it makes true minus those of the clauses it makes false.
    When no move scores above 0, the weight of every false clause grows by
    one and a random gathered move is taken.  Every scored move counts
    against the budget, and so does a step that finds no move.  Returns
    the lowest-cost assignment seen and its cost.
    """
    import random   # here, to keep it out of `import nials`
    rng = random.Random(0)
    clauses = problem.cost.clauses
    weights = [1] * len(clauses)
    values, false = inc.values, inc.false_clauses
    best, best_cost = dict(values), inc.value
    stall = 0
    while false and stall < CRITICAL_PATIENCE and not budget.spent():
        stall += 1
        moves = []
        for i in rng.sample(false, min(CRITICAL_SAMPLE, len(false))):
            for move in _critical_moves(clauses[i], values, problem.feasible):
                if move not in moves:
                    moves.append(move)
        chosen, top = None, 0
        for x, v in moves:
            if budget.spent():
                break
            budget.tried += 1
            score = inc.score(x, v, weights)
            if score > top:
                chosen, top = (x, v), score
        if chosen is None:
            if budget.spent():
                break
            if not moves:
                if len(false) <= CRITICAL_SAMPLE:
                    break       # no false clause has a critical move
                budget.tried += 1
                continue
            for i in false:
                weights[i] += 1
            chosen = rng.choice(moves)
        inc.commit(*chosen)
        if inc.value < best_cost:
            best, best_cost, stall = dict(values), inc.value, 0
    return best, best_cost
