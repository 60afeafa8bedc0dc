"""Per-variable integer feasibility sets maintained from unit constraints.

Only constraints with a single unassigned integer variable restrict the
sets; everything else waits until it becomes unit.  Updates are undone
exactly on backtracking via a level-tagged undo log.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalSet
from .terms import Literal, Variable
from .trail import Trail
from .univariate import solve_univariate_coeffs


@dataclass(frozen=True)
class Contribution:
    """One unit constraint folded into a feasibility set."""

    lit: Literal                # with the polarity it holds on the trail
    used_vars: tuple            # integer variable ids substituted from the trail


@dataclass
class Singleton:
    value: int


@dataclass
class EmptyConflict:
    var: Variable
    contributions: tuple  # all Contributions, including the failing one


def unit_solution_set(lit: Literal, vid: int, var_values) -> IntervalSet:
    """Integer solutions for the one unassigned variable of a unit literal.

    The dense coefficients ``(c0, c1, …)`` in ``vid`` come from one pass
    over the atom's terms: each coefficient times the trail values of its
    other variables, added at its exponent of ``vid``.  Trailing zeros are
    trimmed, so the zero polynomial gives ``(0,)``.
    """
    coeffs = [0]
    top = 0
    for m, c in lit.atom.poly.terms.items():
        e = 0
        for v, k in m:
            if v == vid:
                e = k
            else:
                c *= var_values[v] ** k
        if e > top:
            coeffs += [0] * (e - top)
            top = e
        coeffs[e] += c
    while top and not coeffs[top]:
        top -= 1
    s = solve_univariate_coeffs(tuple(coeffs[:top + 1]), lit.atom.rel)
    if not lit.positive:
        s = s.complement()
    return s


class FeasibilityMap:
    """Current feasibility set per integer variable, with exact undo."""

    def __init__(self):
        self._sets: dict[int, IntervalSet] = {}
        self._contribs: dict[int, list] = {}
        # Undo log entries: (level, vid, previous set, previous contrib count).
        # At most one entry per (vid, level): the first update on that level.
        self._undo: list[tuple] = []
        self._last_saved_level: dict[int, int] = {}

    def get(self, vid: int) -> IntervalSet:
        return self._sets.get(vid, IntervalSet.full())

    def contributions(self, vid: int) -> tuple:
        return tuple(self._contribs.get(vid, ()))

    def _save(self, vid: int, level: int):
        if self._last_saved_level.get(vid, -1) < level:
            self._undo.append((level, vid,
                               self._sets.get(vid, IntervalSet.full()),
                               len(self._contribs.get(vid, ())),
                               self._last_saved_level.get(vid, -1)))
            self._last_saved_level[vid] = level

    def restrict(self, var: Variable, solution: IntervalSet, contribution: Contribution,
                 level: int):
        """Intersect a unit constraint's solutions into the variable's set.

        Returns Singleton(v) when the set narrows to one value,
        EmptyConflict when it empties, and None otherwise.
        """
        vid = var.id
        cur = self.get(vid)
        self._save(vid, level)
        new = cur.intersect(solution)
        self._sets[vid] = new
        # Level-0 constraints are implied by the formula and never appear in
        # conflict explanations, so only deeper contributions are recorded.
        if level > 0:
            self._contribs.setdefault(vid, []).append(contribution)
        if new.is_empty():
            return EmptyConflict(var, tuple(self._contribs.get(vid, ())))
        v = new.singleton_value()
        if v is not None:
            return Singleton(v)
        return None

    def assert_unit_constraint(self, var: Variable, lit: Literal,
                               trail: Trail):
        """Fold a unit (single-unassigned-variable) literal into F(var)."""
        sol = unit_solution_set(lit, var.id, trail.var_value)
        used = tuple(v for v in lit.atom.vars if v != var.id)
        return self.restrict(var, sol, Contribution(lit, used), trail.level)

    def backtrack_to(self, level: int):
        while self._undo and self._undo[-1][0] > level:
            _, vid, prev_set, prev_n, prev_saved = self._undo.pop()
            self._sets[vid] = prev_set
            contribs = self._contribs.get(vid)
            if contribs is not None:
                del contribs[prev_n:]
            self._last_saved_level[vid] = prev_saved
