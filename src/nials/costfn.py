"""Compilation of clause sets into exact integer cost functions.

The cost of an assignment is a nonnegative arbitrary-precision integer that
is zero exactly on satisfying assignments.  Clauses add and the literals in
a clause multiply.  A literal costs 0 when it holds; otherwise ``p = 0``
costs ``|p|``, ``p ≠ 0`` costs 1, ``p ≤ 0`` costs ``p`` and ``p < 0`` costs
``p + 1`` (for integers, ``p < 0`` and ``p + 1 ≤ 0`` are interchangeable),
and a false Boolean literal costs 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

from .terms import EQ, LEQ, LT, NEQ, Literal, Rel


def _violation(value: int, rel: Rel) -> int:
    """Cost of ``value ⋈ 0``: 0 when it holds, else how far it is from it."""
    if rel is EQ:
        return abs(value)
    if rel is NEQ:
        return 1 if value == 0 else 0
    if rel is LEQ:
        return value if value > 0 else 0
    return value + 1 if value >= 0 else 0


class CostClause(NamedTuple):
    """``factor`` times the costs of the clause's unfixed literals."""

    factor: int                 # product of the literals folded to constants
    arith: tuple                # (poly, rel): the literal holds iff poly ⋈ 0
    bools: tuple                # (var id, value that makes the literal hold)


@dataclass
class CostFunction:
    """Sum of clause costs, with the clauses that mention each variable."""

    clauses: list               # CostClause
    occurs: dict                # var id -> indices into clauses


def _clause_cost(clause: CostClause, values) -> int:
    factor, arith, bools = clause
    for vid, want in bools:
        if values[vid] == want:
            return 0
    cost = factor
    for poly, rel in arith:
        cost *= _violation(poly.evaluate(values), rel)
        if not cost:
            return 0
    return cost


def _holds_form(lit: Literal):
    """(poly, rel) such that an atom literal holds iff ``poly ⋈ 0``."""
    poly, rel = lit.atom.poly, lit.atom.rel
    if lit.positive:
        return poly, rel
    if rel is EQ:
        return poly, NEQ
    if rel is NEQ:
        return poly, EQ
    if rel is LEQ:
        return -poly, LT
    return -poly, LEQ


def _compile_clause(lits, fixed) -> Optional[CostClause]:
    """The clause with fixed variables folded in; None if they make it hold."""
    factor = 1
    arith = []
    bools = []
    for lit in lits:
        if lit.bvar is not None:
            vid = lit.bvar.id
            if vid not in fixed:
                bools.append((vid, lit.positive))
            elif bool(fixed[vid]) == lit.positive:
                return None
            continue
        poly, rel = _holds_form(lit)
        if fixed and (poly.variables & fixed.keys()):
            poly = poly.substitute(fixed)
        if not poly.is_constant():
            arith.append((poly, rel))
            continue
        cost = _violation(poly.constant_value(), rel)
        if cost == 0:
            return None
        factor *= cost
    return CostClause(factor, tuple(arith), tuple(bools))


def compile_clauses(clauses,
                    fixed: Optional[Mapping[int, int]] = None) -> CostFunction:
    """Cost function of a clause conjunction (a list of literal lists).

    Variables in ``fixed`` are replaced by their values; a clause they make
    true is dropped, and literals they make false become constant factors.
    """
    fixed = fixed or {}
    out: list[CostClause] = []
    occurs: dict[int, list] = {}
    for lits in clauses:
        clause = _compile_clause(lits, fixed)
        if clause is None:
            continue
        mentioned = {vid for vid, _ in clause.bools}
        for poly, _ in clause.arith:
            mentioned |= poly.variables
        for vid in mentioned:
            occurs.setdefault(vid, []).append(len(out))
        out.append(clause)
    return CostFunction(out, occurs)


class IncrementalCost:
    """Probe/commit evaluator for move loops over a fixed cost function.

    Keeps one value per variable (var id -> int or bool), one cost per
    clause and their total; a probe or a commit re-scores only the clauses
    that mention the changed variable.
    """

    def __init__(self, cost: CostFunction, values: dict):
        self.cost = cost
        self.values = dict(values)
        self.clause_costs = [_clause_cost(c, self.values)
                             for c in cost.clauses]
        self.value = sum(self.clause_costs)

    def probe(self, var_id: int, new_value) -> int:
        """Total cost with one variable changed; the state stays as it was."""
        values = self.values
        old = values[var_id]
        values[var_id] = new_value
        clauses, costs = self.cost.clauses, self.clause_costs
        total = self.value
        try:
            for i in self.cost.occurs.get(var_id, ()):
                total += _clause_cost(clauses[i], values) - costs[i]
        finally:
            values[var_id] = old
        return total

    def commit(self, var_id: int, new_value) -> int:
        self.values[var_id] = new_value
        clauses, costs = self.cost.clauses, self.clause_costs
        for i in self.cost.occurs.get(var_id, ()):
            c = _clause_cost(clauses[i], self.values)
            self.value += c - costs[i]
            costs[i] = c
        return self.value
