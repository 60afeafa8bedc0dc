"""Definitional clausification of Boolean structures.

Non-literal subformulas in disjunctive positions get a fresh auxiliary
Boolean variable defined by full equivalence clauses, so the output clause
set is equisatisfiable with the input and blow-up stays linear.  Input that
is already in clause form passes through unchanged.
"""

from __future__ import annotations

from .formula_ast import And, BConst, BoolExpr, Ite, Or, to_nnf
from .terms import Clause, Formula, Literal, Sort, TermStore


class _Clausifier:
    def __init__(self, store: TermStore):
        self.store = store
        self.clauses: list[Clause] = []
        self.defs: dict[BoolExpr, Literal] = {}
        self.unsat = False

    def add_clause(self, lits):
        c = Clause(lits)
        if c.is_tautology():
            return
        if not c.literals:
            self.unsat = True
        self.clauses.append(c)

    def literal_of(self, node: BoolExpr):
        """Literal for an NNF node, defining an auxiliary variable if needed.

        Returns a Literal, or True/False for constants.
        """
        if isinstance(node, Literal):
            return node
        if isinstance(node, BConst):
            return node.value
        cached = self.defs.get(node)
        if cached is not None:
            return cached
        t = Literal(True, bvar=self.store.fresh_var("def", Sort.BOOL))
        self.defs[node] = t
        if isinstance(node, And):
            parts = self._part_literals(node.args)
            if parts is False:
                self.add_clause([t.negate()])
            else:
                for p in parts:
                    self.add_clause([t.negate(), p])
                self.add_clause([t] + [p.negate() for p in parts])
        elif isinstance(node, Or):
            parts = self._part_literals(node.args, drop=False)
            if parts is True:
                self.add_clause([t])
            else:
                self.add_clause([t.negate()] + parts)
                for p in parts:
                    self.add_clause([t, p.negate()])
        elif isinstance(node, Ite):
            c = self.literal_of(node.cond)
            a = self.literal_of(node.then)
            b = self.literal_of(node.els)
            if isinstance(c, bool):
                return self.literal_of(node.then if c else node.els)
            a = self._materialize(a)
            b = self._materialize(b)
            self.add_clause([t.negate(), c.negate(), a])
            self.add_clause([t.negate(), c, b])
            self.add_clause([t, c.negate(), a.negate()])
            self.add_clause([t, c, b.negate()])
        else:
            raise TypeError(f"not clausifiable: {node!r}")
        return t

    def _materialize(self, lit):
        """Turn a constant into an always-true/false literal-free form."""
        if lit is True:
            v = self.store.fresh_var("const", Sort.BOOL)
            t = Literal(True, bvar=v)
            self.add_clause([t])
            return t
        if lit is False:
            v = self.store.fresh_var("const", Sort.BOOL)
            t = Literal(True, bvar=v)
            self.add_clause([t.negate()])
            return t
        return lit

    def _part_literals(self, args, drop=True):
        """Literals for And (drop=True) / Or (drop=False) operands.

        For And: a False operand makes the whole thing False; True operands
        drop.  For Or symmetric.  Returns False/True if decided, else a list.
        """
        out = []
        for a in args:
            lit = self.literal_of(a)
            if isinstance(lit, bool):
                if drop and not lit:
                    return False
                if not drop and lit:
                    return True
                continue
            out.append(lit)
        return out

    def top(self, node: BoolExpr):
        """Assert node at the top level (conjunctive context)."""
        if isinstance(node, BConst):
            if not node.value:
                self.unsat = True
                self.add_clause([])
            return
        if isinstance(node, And):
            for a in node.args:
                self.top(a)
            return
        if isinstance(node, Or):
            lits = []
            sat = False
            for sub in _flatten_or(node):
                lit = self.literal_of(sub)
                if lit is True:
                    sat = True
                elif lit is not False:
                    lits.append(lit)
            if not sat:
                self.add_clause(lits)
            return
        lit = self.literal_of(node)
        if lit is True:
            return
        if lit is False:
            self.unsat = True
            self.add_clause([])
            return
        self.add_clause([lit])


def _flatten_or(node):
    if isinstance(node, Or):
        for a in node.args:
            yield from _flatten_or(a)
    else:
        yield node


def clausify(store: TermStore, ast: BoolExpr) -> Formula:
    """Equisatisfiable clause set for a well-sorted Boolean structure."""
    cl = _Clausifier(store)
    cl.top(to_nnf(ast))
    vids: set[int] = set()
    for c in cl.clauses:
        vids |= c.variables()
    variables = [store.var_by_id(v) for v in sorted(vids)]
    return Formula(cl.clauses, variables)
