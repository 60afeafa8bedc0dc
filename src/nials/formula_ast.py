"""Boolean structure of parsed input, prior to clausification.

The leaves are `terms.Literal`s (a Boolean variable or an atom, with a
polarity); the inner nodes are constants, `Not`, `And`, `Or` and `Ite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .terms import Literal


class BoolExpr:
    __slots__ = ()


@dataclass(frozen=True)
class BConst(BoolExpr):
    value: bool


@dataclass(frozen=True)
class Not(BoolExpr):
    arg: BoolExpr


@dataclass(frozen=True)
class And(BoolExpr):
    args: tuple


@dataclass(frozen=True)
class Or(BoolExpr):
    args: tuple


@dataclass(frozen=True)
class Ite(BoolExpr):
    cond: BoolExpr
    then: BoolExpr
    els: BoolExpr


TRUE = BConst(True)
FALSE = BConst(False)


def mk_and(args) -> BoolExpr:
    args = tuple(args)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(args)


def mk_or(args) -> BoolExpr:
    args = tuple(args)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(args)


def mk_not(arg) -> BoolExpr:
    if isinstance(arg, Literal):
        return arg.negate()
    if isinstance(arg, Not):
        return arg.arg
    if isinstance(arg, BConst):
        return BConst(not arg.value)
    return Not(arg)


def to_nnf(node, negated: bool = False):
    """Push negations down into the literal leaves."""
    if isinstance(node, BConst):
        return BConst(node.value != negated)
    if isinstance(node, Literal):
        return node.negate() if negated else node
    if isinstance(node, Not):
        return to_nnf(node.arg, not negated)
    if isinstance(node, And):
        args = tuple(to_nnf(a, negated) for a in node.args)
        return mk_or(args) if negated else mk_and(args)
    if isinstance(node, Or):
        args = tuple(to_nnf(a, negated) for a in node.args)
        return mk_and(args) if negated else mk_or(args)
    if isinstance(node, Ite):
        return Ite(to_nnf(node.cond), to_nnf(node.then, negated), to_nnf(node.els, negated))
    raise TypeError(f"not a BoolExpr: {node!r}")


def evaluate(node, int_values: Mapping[int, int],
             bool_values: Mapping[int, bool]) -> bool:
    if isinstance(node, Literal):
        return node.holds(int_values, bool_values)
    if isinstance(node, BConst):
        return node.value
    if isinstance(node, Not):
        return not evaluate(node.arg, int_values, bool_values)
    if isinstance(node, And):
        return all(evaluate(a, int_values, bool_values) for a in node.args)
    if isinstance(node, Or):
        return any(evaluate(a, int_values, bool_values) for a in node.args)
    if isinstance(node, Ite):
        branch = node.then if evaluate(node.cond, int_values, bool_values) else node.els
        return evaluate(branch, int_values, bool_values)
    raise TypeError(f"not a BoolExpr: {node!r}")
