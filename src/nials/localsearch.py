"""Greedy local search over complete assignments.

Three move modes cycle in order: Boolean flips, feasible-set jumps, and
accelerated hill-climbing.  Every accepted move strictly decreases the cost;
integer candidates always stay inside the variable's feasibility snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .costfn import CostFunction, IncrementalCost
from .intervals import IntervalSet
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

    vars: list                      # non-fixed variables, initial visit order
    fixed: dict                     # var id -> constant value (int or bool)
    feasible: dict                  # int var id -> IntervalSet snapshot
    mu0_int: dict                   # var id -> int, non-fixed integer vars
    mu0_bool: dict                  # var id -> bool, non-fixed Boolean vars
    cost: CostFunction              # fixed variables already folded in
    budget: int                     # max move evaluations


@dataclass
class LsResult:
    int_values: dict                # complete (fixed merged back in)
    bool_values: dict
    cost: int
    initial_cost: int
    activity: dict                  # var id -> cost decrease from accepted moves
    moves_tried: int
    moves_accepted: int
    reached_zero: bool


class MoveEngine:
    """Per-variable move candidate generator with success feedback.

    One `start` per variable visit, then alternating `choose`/`notify` until
    `choose` returns None.
    """

    def __init__(self, acc: float = DEFAULT_ACC):
        self.acc = acc
        self.step_size: dict[int, float] = {}
        self.global_used: set[int] = set()
        self._st: Optional[dict] = None

    def get_step(self, var) -> float:
        return self.step_size.get(var.id, 1.0)

    def start(self, var: Variable, alpha, feasible: dict, mode: str):
        st = {"var": var.id, "mode": mode, "queue": [], "done": False}
        self._st = st
        if mode == BOOL_FLIPS:
            if var.sort is Sort.BOOL:
                st["queue"] = [not alpha]
            else:
                st["done"] = True
            return
        if var.sort is not Sort.INT:
            st["done"] = True
            return
        if mode == HILL_CLIMB:
            st["results"] = []
            st["issued"] = 0
            self._new_round(st, alpha)
            return
        # fs-jumps
        fs = feasible.get(var.id, IntervalSet.full())
        st["failed"] = set()
        st["dir"] = None
        st["pending"] = None
        queue = []
        if var.id not in self.global_used:
            self.global_used.add(var.id)
            idx, _, _ = fs.containing_and_neighbors(alpha)
            for i in range(len(fs.intervals)):
                if i != idx:
                    queue.append(fs.pick_in_interval(i))
        st["queue"] = queue

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

    def _new_round(self, st, alpha):
        step = self.step_size.get(st["var"], 1.0)
        st["anchor"] = alpha
        st["queue"] = list(self.hill_deltas(step))
        st["results"] = []
        st["issued"] = 0

    def choose(self, var: Variable, alpha, feasible: dict, mode: str):
        """Next candidate value for the variable, or None when exhausted."""
        st = self._st
        assert st is not None and st["var"] == var.id and st["mode"] == mode
        if st["done"]:
            return None
        if mode == BOOL_FLIPS:
            if st["queue"]:
                return st["queue"].pop(0)
            st["done"] = True
            return None
        fs = feasible.get(var.id, IntervalSet.full())
        if mode == HILL_CLIMB:
            while True:
                while st["queue"]:
                    delta = st["queue"].pop(0)
                    cand = st["anchor"] + delta
                    if cand != alpha and cand in fs:
                        st["issued"] += 1
                        st["pending_delta"] = delta
                        return cand
                # Round complete; act on the results seen so far.
                successes = [d for d, ok in st["results"] if ok]
                if st["issued"] > 0 and successes:
                    # Best successful step: the one that reached the lowest
                    # cost, i.e. the last accepted in the round.
                    self.step_size[var.id] = float(abs(successes[-1]))
                    self._new_round(st, alpha)
                    continue
                step = self.step_size.get(var.id, 1.0)
                self.step_size[var.id] = max(1.0, step / self.acc)
                st["done"] = True
                return None
        # fs-jumps
        if st["queue"]:
            st["pending"] = None
            cand = st["queue"].pop(0)
            if cand == alpha or cand not in fs:
                return self.choose(var, alpha, feasible, mode)
            return cand
        # local phase
        while True:
            d = st["dir"]
            if d is None or d in st["failed"]:
                d = next((x for x in ("left", "right") if x not in st["failed"]), None)
            if d is None:
                st["done"] = True
                return None
            idx, left, right = fs.containing_and_neighbors(alpha)
            target = left if d == "left" else right
            if target is None:
                st["failed"].add(d)
                if st["dir"] == d:
                    st["dir"] = None
                continue
            lo, hi = target
            cand = IntervalSet(((lo, hi),)).pick_in_interval(0)
            st["pending"] = d
            return cand

    def notify(self, var: Variable, alpha, alpha_new, feasible: dict, mode: str,
               success: bool):
        st = self._st
        assert st is not None and st["var"] == var.id
        if mode == BOOL_FLIPS:
            return
        if mode == HILL_CLIMB:
            st["results"].append((st.get("pending_delta"), success))
            return
        # fs-jumps
        d = st.get("pending")
        if d is None:
            # global-phase jump; success simply continues the sweep
            return
        if success:
            st["dir"] = d
            st["failed"].clear()
        else:
            st["failed"].add(d)
            if st["dir"] == d:
                st["dir"] = None


def run(problem: LsProblem, engine: Optional[MoveEngine] = None,
        on_move=None) -> LsResult:
    """Mode-cycling greedy descent from the initial assignment.

    Terminates per mode when every variable has been visited since the last
    improvement, globally when the cost hits zero or the evaluation budget
    runs out.
    """
    inc = IncrementalCost(problem.cost, problem.mu0_int, problem.mu0_bool)
    initial_cost = cost_star = inc.value
    engine = engine or MoveEngine()
    vars_list = list(problem.vars)
    activity: dict[int, int] = {}
    evals = 0
    moves_tried = 0
    moves_accepted = 0

    def current(x: Variable):
        if x.sort is Sort.BOOL:
            return inc.bool_values[x.id]
        return inc.int_values[x.id]

    for mode in MODES:
        if cost_star == 0:
            break
        n_vars = 0
        while n_vars < len(vars_list) and cost_star != 0 and evals < problem.budget:
            x = vars_list[n_vars]
            engine.start(x, current(x), problem.feasible, mode)
            while cost_star != 0 and evals < problem.budget:
                alpha = current(x)
                cand = engine.choose(x, alpha, problem.feasible, mode)
                if cand is None:
                    break
                evals += 1
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
                engine.notify(x, alpha, cand, problem.feasible, mode, success)
            n_vars += 1

    int_values = dict(inc.int_values)
    bool_values = dict(inc.bool_values)
    for vid, v in problem.fixed.items():
        if isinstance(v, bool):
            bool_values[vid] = v
        else:
            int_values[vid] = v
    return LsResult(
        int_values=int_values,
        bool_values=bool_values,
        cost=cost_star,
        initial_cost=initial_cost,
        activity=activity,
        moves_tried=moves_tried,
        moves_accepted=moves_accepted,
        reached_zero=cost_star == 0,
    )
