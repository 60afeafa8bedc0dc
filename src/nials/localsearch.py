"""Greedy local search over complete assignments.

A call runs three move modes once each, in order: Boolean flips,
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
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional

from .costfn import CostFunction, IncrementalCost
from .intervals import IntervalSet, nearest_to_zero
from .terms import Sort, Variable

BOOL_FLIPS = "bool-flips"
FS_JUMPS = "fs-jumps"
HILL_CLIMB = "hill-climb"
MODES = (BOOL_FLIPS, FS_JUMPS, HILL_CLIMB)

DEFAULT_ACC = 1.2


def _round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


@dataclass
class LsProblem:
    """Inputs of one local-search run."""

    vars: list                      # the variables to move, initial visit order
    values: dict                    # var id -> starting value, every variable
    feasible: dict                  # int var id -> IntervalSet snapshot
    cost: CostFunction              # variables not in `vars` folded in
    budget: int                     # max move evaluations
    deadline: Optional[float] = None    # time.monotonic() to stop at


@dataclass
class LsResult:
    values: dict                    # var id -> final value, every variable
    cost: int
    initial_cost: int
    activity: dict                  # var id -> cost decrease from accepted moves
    moves_tried: int
    moves_accepted: int
    reached_zero: bool


def _flip(alpha: bool):
    yield not alpha


class MoveEngine:
    """Move candidates per variable visit, with state across visits.

    Keeps the hill-climbing step size of each variable and the variables
    whose feasible-set sweep is used up.
    """

    def __init__(self, acc: float = DEFAULT_ACC):
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
            return _flip(alpha) if var.sort is Sort.BOOL else None
        if var.sort is not Sort.INT:
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
                self.step_size[vid] = max(1.0, step / self.acc)
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


def run(problem: LsProblem, engine: Optional[MoveEngine] = None,
        on_move=None) -> LsResult:
    """Greedy descent from the initial assignment, one pass over the modes.

    Each mode ends when every variable has been visited since the last
    improvement, and the next mode starts from there; after the last mode
    the call returns.  The whole call stops early when the cost hits zero,
    the evaluation budget runs out or the deadline passes.  The result's
    values cover every variable of ``problem.values``.
    """
    inc = IncrementalCost(problem.cost, problem.values)
    values = inc.values
    initial_cost = cost_star = inc.value
    engine = engine or MoveEngine()
    vars_list = list(problem.vars)
    activity: dict[int, int] = {}
    moves_tried = 0
    moves_accepted = 0
    deadline = problem.deadline

    def stopped() -> bool:
        return (cost_star == 0 or moves_tried >= problem.budget
                or (deadline is not None and time.monotonic() > deadline))

    for mode in MODES:
        n_vars = 0
        while n_vars < len(vars_list) and not stopped():
            x = vars_list[n_vars]
            moves = engine.moves(x, values[x.id], problem.feasible, mode)
            success = None
            while moves is not None and not stopped():
                alpha = values[x.id]
                try:
                    cand = moves.send(success)
                except StopIteration:
                    break
                moves_tried += 1
                new_cost = inc.probe(x.id, cand)
                success = new_cost < cost_star
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

    return LsResult(
        values=values,
        cost=cost_star,
        initial_cost=initial_cost,
        activity=activity,
        moves_tried=moves_tried,
        moves_accepted=moves_accepted,
        reached_zero=cost_star == 0,
    )
