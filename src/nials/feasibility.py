"""Per-variable integer feasibility sets maintained from unit constraints.

Only constraints with a single unassigned integer variable restrict the
sets; everything else waits until it becomes unit.  Updates are undone
exactly on backtracking via a level-tagged undo log.
"""

from __future__ import annotations

from .intervals import IntervalSet
from .terms import BOOL, Literal, Rel, Variable
from .trail import Trail
from .univariate import solve_univariate_coeffs


def solution_set(poly, rel: Rel, vid: int, values) -> IntervalSet:
    """Integer solutions of ``poly ⋈ 0`` in ``vid``, with every other
    variable of ``poly`` at its value in ``values``.

    The dense coefficients ``(c0, c1, …)`` in ``vid`` come from one pass
    over the terms: each coefficient times the values of its other
    variables, added at its exponent of ``vid``.  Trailing zeros are
    trimmed, so the zero polynomial gives ``(0,)``.
    """
    coeffs = [0]
    top = 0
    for m, c in poly.terms.items():
        e = 0
        for v, k in m:
            if v == vid:
                e = k
            else:
                c *= values[v] ** k
        if e > top:
            coeffs += [0] * (e - top)
            top = e
        coeffs[e] += c
    while top and not coeffs[top]:
        top -= 1
    return solve_univariate_coeffs(tuple(coeffs[:top + 1]), rel)


def unit_solution_set(lit: Literal, vid: int, values) -> IntervalSet:
    """Integer solutions for the one unassigned variable of a unit literal,
    the other variables at their trail values: those of its `Atom.form`."""
    poly, rel = lit.atom.form(lit.positive)
    return solution_set(poly, rel, vid, values)


class FeasibilityMap:
    """Current feasibility set per integer variable, with exact undo."""

    def __init__(self):
        self._sets: dict[int, IntervalSet] = {}
        # The literals narrowed into each set above level 0, in order.
        self._contribs: dict[int, list] = {}
        # The same at level 0, which nothing undoes, each with the set of
        # integers it allows: (literal, solution set).
        self._root: dict[int, list] = {}
        # One entry per narrowing above level 0:
        # (level, vid, previous set, previous contribution count).
        self._undo: list[tuple] = []
        # Variables whose set's hull (least and greatest member) a level-0
        # narrowing moved, for the reader to take and clear.
        self.moved: list[int] = []

    def get(self, vid: int) -> IntervalSet:
        return self._sets.get(vid, IntervalSet.full())

    def contributions(self, vid: int) -> tuple:
        return tuple(self._contribs.get(vid, ()))

    def hull_reasons(self, vid: int) -> list:
        """Level-0 literals, latest first, that alone give F(vid) at level 0
        its least and greatest member.

        A literal is kept when it removes points outside F's hull that the
        literals kept so far let in, until none is left.
        """
        ivs = self.get(vid).intervals
        rest = IntervalSet.range(ivs[0][0], ivs[-1][1]).complement()
        out = []
        for lit, allowed in reversed(self._root.get(vid, ())):
            if rest.is_empty():
                break
            s = rest.intersect(allowed)
            if s != rest:
                rest = s
                out.append(lit)
        return out

    def pick(self, var: Variable, hint):
        """The value to give an unassigned variable: for an integer, the
        hint (its cached value) if still feasible, else the set's pick; for
        a Boolean, the hint (its saved phase), or True without one."""
        if var.sort is BOOL:
            return True if hint is None else hint
        return self.get(var.id).pick_value(hint)

    def assert_unit_constraint(self, var: Variable, lit: Literal,
                               trail: Trail) -> IntervalSet:
        """Fold a unit (single-unassigned-variable) literal into F(var)
        and return the narrowed set.

        Level-0 constraints are implied by the formula and never appear in
        conflict explanations; they are kept apart, for the explanations
        of level-0 bounds, and are never undone.
        """
        vid = var.id
        cur = self.get(vid)
        allowed = unit_solution_set(lit, vid, trail.values)
        new = cur.intersect(allowed)
        self._sets[vid] = new
        if trail.level > 0:
            contribs = self._contribs.setdefault(vid, [])
            self._undo.append((trail.level, vid, cur, len(contribs)))
            contribs.append(lit)
        else:
            self._root.setdefault(vid, []).append((lit, allowed))
            ivs, old = new.intervals, cur.intervals
            if ivs and (ivs[0][0], ivs[-1][1]) != (old[0][0], old[-1][1]):
                self.moved.append(vid)
        return new

    def backtrack_to(self, level: int):
        while self._undo and self._undo[-1][0] > level:
            _, vid, prev_set, prev_n = self._undo.pop()
            self._sets[vid] = prev_set
            del self._contribs[vid][prev_n:]
