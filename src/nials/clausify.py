"""Definitional clausification of Boolean structures.

The input is in negation normal form with constants folded (see
`formula_ast`), so each node kind has one encoding.  Non-literal
subformulas in disjunctive positions get a fresh auxiliary Boolean
variable defined by full equivalence clauses, so the output clause set is
equisatisfiable with the input and blow-up stays linear.  Input that is
already in clause form passes through unchanged.
"""

from __future__ import annotations

from .formula_ast import FALSE, TRUE, And, BoolExpr, Ite, Or
from .terms import BOOL, Clause, Formula, Literal, TermStore


class _Clausifier:
    def __init__(self, store: TermStore):
        self.store = store
        self.clauses: list[Clause] = []
        self.defs: dict[BoolExpr, Literal] = {}

    def add_clause(self, lits):
        c = Clause(lits)
        if not c.is_tautology():
            self.clauses.append(c)

    def literal_of(self, node) -> Literal:
        """Literal for a node, defining an auxiliary variable if needed."""
        if isinstance(node, Literal):
            return node
        cached = self.defs.get(node)
        if cached is not None:
            return cached
        t = Literal(True, bvar=self.store.fresh_var("def", BOOL))
        self.defs[node] = t
        not_t = t.negate()
        if isinstance(node, And):
            parts = [self.literal_of(a) for a in node.args]
            for p in parts:
                self.add_clause([not_t, p])
            self.add_clause([t] + [p.negate() for p in parts])
        elif isinstance(node, Or):
            parts = [self.literal_of(a) for a in node.args]
            self.add_clause([not_t] + parts)
            for p in parts:
                self.add_clause([t, p.negate()])
        elif isinstance(node, Ite):
            c = self.literal_of(node.cond)
            a = self.literal_of(node.then)
            b = self.literal_of(node.els)
            self.add_clause([not_t, c.negate(), a])
            self.add_clause([not_t, c, b])
            self.add_clause([t, c.negate(), a.negate()])
            self.add_clause([t, c, b.negate()])
        else:
            raise TypeError(f"not clausifiable: {node!r}")
        return t

    def top(self, node):
        """Assert node at the top level (conjunctive context)."""
        if isinstance(node, And):
            for a in node.args:
                self.top(a)
        elif isinstance(node, Or):
            self.add_clause([self.literal_of(sub) for sub in _flatten_or(node)])
        else:
            self.add_clause([self.literal_of(node)])


def _flatten_or(node):
    if isinstance(node, Or):
        for a in node.args:
            yield from _flatten_or(a)
    else:
        yield node


def clausify(store: TermStore, ast) -> Formula:
    """Equisatisfiable clause set for a well-sorted Boolean structure."""
    cl = _Clausifier(store)
    if ast is FALSE:
        cl.clauses.append(Clause([]))
    elif ast is not TRUE:
        cl.top(ast)
    vids: set[int] = set()
    for c in cl.clauses:
        vids |= c.variables()
    variables = [store.var_by_id(v) for v in sorted(vids)]
    return Formula(cl.clauses, variables)
