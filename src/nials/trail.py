"""The solver trail: decided literals, propagated literals, model assignments.

An element with `var` set is a model assignment, any other one assigns
`lit`.  `decision` marks guesses, literals and assignments alike; each
guess opens a decision level.

The trail owns the assignment under construction, indexed beside the
element list: `values` maps the id of every assigned variable, Int or
Bool, to its value; `lit_elem` maps a `Literal.key` to the element that
assigned a literal of that key, and a literal's truth is that entry
alone: the trail evaluates no atom; `var_elem` maps an Int variable's id
to its model assignment.  The value cache persists across backtracking and
keeps the last value (or, for a Boolean variable, the phase) a variable
had when its assignment was undone.
"""

from __future__ import annotations

import enum
from typing import Optional

from .errors import DuplicateAssignment
from .terms import Literal, Variable


class Reason(enum.Enum):
    SEMANTIC = "semantic"           # literal follows from model assignments
    # A value that is the one member left in its variable's feasible set.
    FEASIBILITY_SINGLETON = "feasibility-singleton"
    # An atom literal over one unassigned variable x that holds on all of
    # F(x), with the atom's other variables at their values.
    FEASIBILITY_UNIT = "feasibility-unit"


class TrailElement:
    __slots__ = ("level", "pos", "lit", "var", "value", "decision", "reason")

    def __init__(self, level: int, pos: int,
                 lit: Optional[Literal] = None,     # for literal elements
                 var: Optional[Variable] = None,    # for model assignments
                 value: Optional[int] = None,
                 decision: bool = False,    # a guess, not a propagation
                 reason=None):
        self.level = level
        self.pos = pos
        self.lit = lit
        self.var = var
        self.value = value
        self.decision = decision
        # Clause, Reason.SEMANTIC, (Reason.FEASIBILITY_SINGLETON, literals),
        # or (Reason.FEASIBILITY_UNIT, x's id, literals): the literals
        # narrowed into F(x) above level 0.
        self.reason = reason

    def __repr__(self):
        tag = "d" if self.decision else "p"
        if self.var is not None:
            return f"{tag}:{self.var}->{self.value}@{self.level}"
        return f"{tag}:{self.lit}@{self.level}"


class Trail:
    """Ordered assignment trail with O(1) value lookup."""

    def __init__(self):
        self.elements: list[TrailElement] = []
        self.level = 0
        self._level_starts = [0]
        self.values: dict = {}          # var id -> int or bool
        self.lit_elem: dict[int, TrailElement] = {}     # Literal.key -> elem
        self.var_elem: dict[int, TrailElement] = {}     # Int var id -> elem
        self.cache: dict = {}           # var id -> last undone value or phase

    def value_of_lit(self, lit: Literal) -> Optional[bool]:
        """Trail truth of the literal: from its key's entry, else None."""
        elem = self.lit_elem.get(lit.key)
        return None if elem is None else elem.lit.positive == lit.positive

    # -- stack operations ---------------------------------------------------

    def _begin_level(self):
        self.level += 1
        self._level_starts.append(len(self.elements))

    def _push_lit(self, lit: Literal, decision: bool, reason) -> TrailElement:
        if lit.key in self.lit_elem:
            raise DuplicateAssignment(f"literal {lit} already assigned")
        elem = TrailElement(self.level, len(self.elements), lit=lit,
                            decision=decision, reason=reason)
        self.elements.append(elem)
        self.lit_elem[lit.key] = elem
        if lit.bvar is not None:
            self.values[lit.bvar.id] = lit.positive
        return elem

    def push_decision(self, lit: Literal) -> TrailElement:
        self._begin_level()
        return self._push_lit(lit, True, None)

    def push_propagation(self, lit: Literal, reason) -> TrailElement:
        return self._push_lit(lit, False, reason)

    def push_model_assignment(self, var: Variable, value: int, decision: bool,
                              reason=None) -> TrailElement:
        if var.id in self.values:
            raise DuplicateAssignment(f"variable {var} already assigned")
        if decision:
            self._begin_level()
        elem = TrailElement(self.level, len(self.elements), var=var,
                            value=value, decision=decision, reason=reason)
        self.elements.append(elem)
        self.values[var.id] = value
        self.var_elem[var.id] = elem
        return elem

    def backtrack_to(self, level: int) -> list:
        """Remove all elements above `level`; cache undone variable values.

        Returns the ids of the undone variables, most recent first.
        """
        assert level <= self.level
        if level == self.level:
            return []
        cut = self._level_starts[level + 1]
        values, cache = self.values, self.cache
        undone = []
        while len(self.elements) > cut:
            elem = self.elements.pop()
            if elem.var is not None:
                vid = elem.var.id
                del self.var_elem[vid]
            else:
                del self.lit_elem[elem.lit.key]
                if elem.lit.bvar is None:
                    continue
                vid = elem.lit.bvar.id
            cache[vid] = values.pop(vid)
            undone.append(vid)
        del self._level_starts[level + 1:]
        self.level = level
        return undone

    def __repr__(self):
        return "[" + ", ".join(map(repr, self.elements)) + "]"
