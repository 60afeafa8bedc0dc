"""The solver trail: decided literals, propagated literals, model assignments.

An element with `var` set is a model assignment, any other one assigns
`lit`.  `decision` marks guesses, literals and assignments alike; each
guess opens a decision level.  The value cache persists across
backtracking and keeps the last value a variable had when its assignment
was undone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import DuplicateAssignment
from .terms import Literal, Variable


class Reason(enum.Enum):
    SEMANTIC = "semantic"           # literal follows from model assignments
    FEASIBILITY_SINGLETON = "feasibility-singleton"


@dataclass(slots=True)
class TrailElement:
    level: int
    pos: int
    lit: Optional[Literal] = None          # for literal elements
    var: Optional[Variable] = None         # for model assignments
    value: Optional[int] = None
    decision: bool = False                 # a guess, not a propagation
    # Clause, Reason.SEMANTIC, or (Reason.FEASIBILITY_SINGLETON, literals)
    reason: object = None

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
        # Literal.key -> (value of the positive literal, trail position)
        self.bool_assign: dict[int, tuple] = {}
        self.var_value: dict[int, int] = {}
        self.var_elem: dict[int, TrailElement] = {}

    # -- queries ------------------------------------------------------------

    def value_of_var(self, x: Variable) -> Optional[int]:
        return self.var_value.get(x.id)

    def bool_value_of(self, lit: Literal) -> Optional[bool]:
        """Trail-assigned truth of a literal, ignoring semantic evaluation."""
        entry = self.bool_assign.get(lit.key)
        if entry is None:
            return None
        v = entry[0]
        return v if lit.positive else not v

    def value_of_lit(self, lit: Literal) -> Optional[bool]:
        """Boolean trail value if assigned, else exact atom evaluation."""
        v = self.bool_value_of(lit)
        if v is not None:
            return v
        if lit.atom is not None:
            vals = self.var_value
            if all(vid in vals for vid in lit.atom.vars):
                t = lit.atom.evaluate(vals)
                return t if lit.positive else not t
        return None

    # -- stack operations ---------------------------------------------------

    def _push(self, elem: TrailElement):
        elem.pos = len(self.elements)
        self.elements.append(elem)

    def _begin_level(self):
        self.level += 1
        self._level_starts.append(len(self.elements))

    def _assign_lit(self, lit: Literal, pos: int):
        if lit.key in self.bool_assign:
            raise DuplicateAssignment(f"literal {lit} already assigned")
        self.bool_assign[lit.key] = (lit.positive, pos)

    def push_decision(self, lit: Literal) -> TrailElement:
        self._begin_level()
        elem = TrailElement(self.level, 0, lit=lit, decision=True)
        self._push(elem)
        self._assign_lit(lit, elem.pos)
        return elem

    def push_propagation(self, lit: Literal, reason) -> TrailElement:
        elem = TrailElement(self.level, 0, lit=lit, reason=reason)
        self._push(elem)
        self._assign_lit(lit, elem.pos)
        return elem

    def push_model_assignment(self, var: Variable, value: int, decision: bool,
                              reason=None) -> TrailElement:
        if var.id in self.var_value:
            raise DuplicateAssignment(f"variable {var} already assigned")
        if decision:
            self._begin_level()
        elem = TrailElement(self.level, 0, var=var, value=value,
                            decision=decision, reason=reason)
        self._push(elem)
        self.var_value[var.id] = value
        self.var_elem[var.id] = elem
        return elem

    def backtrack_to(self, level: int, cache: Optional[dict] = None) -> list:
        """Remove all elements above `level`; cache undone variable values.

        The cache maps a variable id to its last undone value or phase.

        Returns the removed elements, most recent first.
        """
        assert level <= self.level
        if level == self.level:
            return []
        cut = self._level_starts[level + 1]
        removed = []
        while len(self.elements) > cut:
            elem = self.elements.pop()
            removed.append(elem)
            if elem.var is not None:
                del self.var_value[elem.var.id]
                del self.var_elem[elem.var.id]
                if cache is not None:
                    cache[elem.var.id] = elem.value
            else:
                del self.bool_assign[elem.lit.key]
                if cache is not None and elem.lit.bvar is not None:
                    cache[elem.lit.bvar.id] = elem.lit.positive
        del self._level_starts[level + 1:]
        self.level = level
        return removed

    def __repr__(self):
        return "[" + ", ".join(map(repr, self.elements)) + "]"
