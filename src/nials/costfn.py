"""Compilation of clause sets into exact integer cost functions.

The cost of an assignment is a nonnegative arbitrary-precision integer that
is zero exactly on satisfying assignments.  Clauses add and the literals in
a clause multiply.  An arithmetic literal is compiled to its `Atom.form`
``q ⋈ 0``, where negation and strictness are already resolved, so ``⋈`` is
``=``, ``≠`` or ``≤``.  A literal costs 0 when it holds; otherwise
``q = 0`` costs ``|q|``, ``q ≠ 0`` costs 1 and ``q ≤ 0`` costs ``q``, and
a false Boolean literal costs 1.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .terms import EQ, LEQ, NEQ, Rel


def _violation(value: int, rel: Rel) -> int:
    """Cost of ``value ⋈ 0`` for ``⋈`` among =, ≠ and ≤: 0 when it holds,
    else how far it is from it."""
    if rel is EQ:
        return abs(value)
    if rel is NEQ:
        return 1 if value == 0 else 0
    return value if value > 0 else 0


class CostClause(NamedTuple):
    """``factor`` times the costs of the clause's unfixed literals."""

    factor: int                 # product of the literals folded to constants
    arith: tuple                # `Atom.form`s: the literal holds iff poly ⋈ 0
    bools: tuple                # (var id, value that makes the literal hold)


class CostFunction:
    """Sum of clause costs."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: list):
        self.clauses = clauses      # CostClause


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
        poly, rel = lit.atom.form(lit.positive)
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
    out = [c for c in (_compile_clause(lits, fixed) for lits in clauses)
           if c is not None]
    return CostFunction(out)


def _power_diffs(max_exp: int, old, new) -> tuple:
    """``new^e − old^e`` for each exponent e up to ``max_exp``."""
    if max_exp == 1:
        return 0, new - old
    return tuple(new ** e - old ** e for e in range(max_exp + 1))


def _moved_value(v: int, terms, values, diffs) -> int:
    """A literal's value ``v`` after a move of one of its variables: each
    of the variable's terms adds its coefficient times the other
    variables' values times ``diffs[e]``, the change of the variable's
    power."""
    for coef, e, others in terms:
        for u in others:
            coef *= values[u]
        v += coef * diffs[e]
    return v


def _moved_cost(c: int, xlits, lit_val, lit_rel, values, diffs) -> int:
    """``c`` times the costs of the literals of ``xlits`` after a move of
    their variable; 0 as soon as one holds."""
    for j, terms in xlits:
        v = _moved_value(lit_val[j], terms, values, diffs)
        rel = lit_rel[j]
        if rel is LEQ:
            if v <= 0:
                return 0
            c *= v
        elif rel is EQ:
            if not v:
                return 0
            c *= v if v > 0 else -v
        elif v:
            return 0
    return c


_UNWATCHED = (1, ())    # the watch entry of a variable in no clause


class IncrementalCost:
    """Probe/commit evaluator for move loops over a fixed cost function.

    Keeps one value per variable (var id -> int or bool), and for every
    literal the value of its polynomial and its cost (0 when it holds);
    a clause costs its factor times the costs of its literals.  A Boolean
    literal is kept as ``x − want = 0`` over 0/1.  A move of one variable
    re-evaluates only the literals that mention it, over the terms that
    change, and skips every clause that a literal without the variable
    keeps true.  The indices of the clauses of positive cost are kept in
    `false_clauses`.
    """

    def __init__(self, cost: CostFunction, values: dict):
        self.values = values = dict(values)
        lit_val: list = []              # literal -> value of its polynomial
        lit_rel: list = []              # literal -> EQ, NEQ or LEQ
        self.lit_val, self.lit_rel = lit_val, lit_rel
        self.factors = [c.factor for c in cost.clauses]
        # var id -> (largest exponent of the variable, [(clause index,
        # ((literal, terms), …) of the literals that mention the variable,
        # the clause's other literals)]); each term is (coefficient,
        # exponent of the variable, the ids of the other variables, one
        # per unit of exponent).
        self.watch: dict[int, tuple] = {}
        watch: dict[int, list] = {}
        max_exp: dict[int, int] = {}    # where above 1
        clause_lits = []
        for factor, arith, bools in cost.clauses:
            by_var: dict[int, list] = {}    # var id -> [(literal, terms)]
            lits = []
            for poly, rel in arith:
                j = len(lit_val)
                v = 0
                lit_terms: dict[int, list] = {}
                for m, c in poly.terms.items():
                    t = c
                    for x, e in m:
                        t *= values[x] ** e
                        others = () if len(m) == 1 else tuple(
                            u for u, k in m if u != x for _ in range(k))
                        lit_terms.setdefault(x, []).append((c, e, others))
                        if e > 1 and e > max_exp.get(x, 1):
                            max_exp[x] = e
                    v += t
                for x, ts in lit_terms.items():
                    by_var.setdefault(x, []).append((j, tuple(ts)))
                lit_val.append(v)
                lit_rel.append(rel)
                lits.append(j)
            for x, want in bools:
                j = len(lit_val)
                lit_val.append(values[x] - want)
                lit_rel.append(EQ)
                by_var.setdefault(x, []).append((j, ((1, 1, ()),)))
                lits.append(j)
            i = len(clause_lits)
            for x, xlits in by_var.items():
                mine = [j for j, _ in xlits]
                rest = tuple(k for k in lits if k not in mine)
                watch.setdefault(x, []).append((i, tuple(xlits), rest))
            clause_lits.append(lits)
        for x, entries in watch.items():
            self.watch[x] = (max_exp.get(x, 1), entries)
        self.lit_cost = lit_cost = [_violation(v, r)
                                    for v, r in zip(lit_val, lit_rel)]
        self.clause_costs = costs = []
        self.false_clauses: list = []
        self._false_pos: dict[int, int] = {}
        for i, lits in enumerate(clause_lits):
            c = self.factors[i]
            for j in lits:
                c *= lit_cost[j]
            costs.append(c)
            if c:
                self._set_false(i, True)
        self.value = sum(costs)

    def _set_false(self, i: int, false: bool):
        pos, fl = self._false_pos, self.false_clauses
        if false:
            pos[i] = len(fl)
            fl.append(i)
        else:
            k = pos.pop(i)
            last = fl.pop()
            if last != i:
                fl[k] = last
                pos[last] = k

    def probe(self, var_id: int, new_value, below=None):
        """Total cost with one variable changed; the state stays as it was.

        With `below`, None as soon as the total cannot be under it: the
        clauses of positive cost are scored first, and then each true
        clause can only add to the total.
        """
        values = self.values
        w = self.watch.get(var_id, _UNWATCHED)
        diffs = _power_diffs(w[0], values[var_id], new_value)
        lit_val, lit_rel = self.lit_val, self.lit_rel
        lit_cost, factors = self.lit_cost, self.factors
        costs = self.clause_costs
        total = self.value
        for i, xlits, rest in w[1]:
            old = costs[i]
            if old:
                c = factors[i]
                for k in rest:
                    c *= lit_cost[k]
                total += _moved_cost(c, xlits, lit_val, lit_rel, values,
                                     diffs) - old
        if below is not None and total >= below:
            return None
        for i, xlits, rest in w[1]:
            if costs[i]:
                continue
            c = factors[i]
            for k in rest:
                c *= lit_cost[k]
            if c:
                c = _moved_cost(c, xlits, lit_val, lit_rel, values, diffs)
                if c:
                    total += c
                    if below is not None and total >= below:
                        return None
        return total

    def score(self, var_id: int, new_value, weights: list) -> int:
        """The weights of the clauses a move makes true minus those of the
        clauses it makes false; the state stays as it was."""
        values = self.values
        w = self.watch.get(var_id, _UNWATCHED)
        diffs = _power_diffs(w[0], values[var_id], new_value)
        lit_val, lit_rel = self.lit_val, self.lit_rel
        lit_cost, costs = self.lit_cost, self.clause_costs
        score = 0
        for i, xlits, rest in w[1]:
            if costs[i]:
                if not _moved_cost(1, xlits, lit_val, lit_rel, values, diffs):
                    score += weights[i]
                continue
            for k in rest:
                if not lit_cost[k]:
                    break       # kept true by a literal without the variable
            else:
                if _moved_cost(1, xlits, lit_val, lit_rel, values, diffs):
                    score -= weights[i]
        return score

    def commit(self, var_id: int, new_value) -> int:
        values = self.values
        w = self.watch.get(var_id, _UNWATCHED)
        diffs = _power_diffs(w[0], values[var_id], new_value)
        lit_val, lit_rel = self.lit_val, self.lit_rel
        lit_cost, costs = self.lit_cost, self.clause_costs
        factors = self.factors
        total = self.value
        for i, xlits, rest in w[1]:
            c = factors[i]
            for k in rest:
                c *= lit_cost[k]
            for j, terms in xlits:
                lit_val[j] = v = _moved_value(lit_val[j], terms, values, diffs)
                lit_cost[j] = lc = _violation(v, lit_rel[j])
                c *= lc
            old = costs[i]
            if c != old:
                if not c or not old:
                    self._set_false(i, bool(c))
                costs[i] = c
                total += c - old
        self.value = total
        values[var_id] = new_value
        return total
