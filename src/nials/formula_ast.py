"""Boolean structure of parsed input, prior to clausification.

Structures are kept in negation normal form with constants folded: the
leaves are `terms.Literal`s (a Boolean variable or an atom, with a
polarity) and the inner nodes are `And`, `Or` and `Ite`.  `TRUE` and
`FALSE` only ever stand for a whole structure.  Build nodes with the
`mk_*` functions, which keep both properties; `mk_not` returns the dual
node, remembered on both nodes so that `mk_not(mk_not(x)) is x`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .terms import Literal


@dataclass(frozen=True, slots=True)
class BoolExpr:
    # The node's negation once `mk_not` has built it; outside equality.
    neg: Optional[BoolExpr] = field(
        default=None, compare=False, repr=False, kw_only=True)
    # The structural hash once computed; outside equality.
    hash_: Optional[int] = field(
        default=None, init=False, compare=False, repr=False)


def _hash_once(cls):
    """Keep the structural hash of each ``cls`` node in its ``hash_`` slot.

    A frozen dataclass hashes its fields, and so the whole subtree, on
    every call; with the hash kept, a node's first hash costs its own
    fields and each later one nothing.
    """
    structural = cls.__hash__

    def __hash__(self):
        h = self.hash_
        if h is None:
            h = structural(self)
            object.__setattr__(self, "hash_", h)
        return h

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True, slots=True)
class BConst(BoolExpr):
    value: bool


@_hash_once
@dataclass(frozen=True, slots=True)
class And(BoolExpr):
    args: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Or(BoolExpr):
    args: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Ite(BoolExpr):
    cond: BoolExpr
    then: BoolExpr
    els: BoolExpr


def _pair(node: BoolExpr, dual: BoolExpr) -> BoolExpr:
    """Record ``node`` and ``dual`` as each other's negation; returns dual."""
    # `neg` is a cache outside equality and hashing: setting it keeps the
    # nodes immutable as values.
    object.__setattr__(node, "neg", dual)
    object.__setattr__(dual, "neg", node)
    return dual


TRUE = BConst(True)
FALSE = _pair(TRUE, BConst(False))


def _mk_nary(cls, args, unit: BConst, zero: BConst) -> BoolExpr:
    kept = []
    for a in args:
        if a is zero:
            return zero
        if a is not unit:
            kept.append(a)
    if not kept:
        return unit
    if len(kept) == 1:
        return kept[0]
    return cls(tuple(kept))


def mk_and(args) -> BoolExpr:
    return _mk_nary(And, args, TRUE, FALSE)


def mk_or(args) -> BoolExpr:
    return _mk_nary(Or, args, FALSE, TRUE)


def mk_ite(cond, then, els) -> BoolExpr:
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if isinstance(then, BConst):
        return mk_or([cond, els]) if then.value else mk_and([mk_not(cond), els])
    if isinstance(els, BConst):
        return mk_or([mk_not(cond), then]) if els.value else mk_and([cond, then])
    return Ite(cond, then, els)


def mk_not(arg) -> BoolExpr:
    if isinstance(arg, Literal):
        return arg.negate()
    if arg.neg is not None:
        return arg.neg
    if isinstance(arg, And):
        return _pair(arg, Or(tuple(mk_not(a) for a in arg.args)))
    if isinstance(arg, Or):
        return _pair(arg, And(tuple(mk_not(a) for a in arg.args)))
    if isinstance(arg, Ite):
        return _pair(arg, Ite(arg.cond, mk_not(arg.then), mk_not(arg.els)))
    raise TypeError(f"not a BoolExpr: {arg!r}")


def evaluate(node, values: Mapping[int, object]) -> bool:
    if isinstance(node, Literal):
        return node.holds(values)
    if isinstance(node, BConst):
        return node.value
    if isinstance(node, And):
        return all(evaluate(a, values) for a in node.args)
    if isinstance(node, Or):
        return any(evaluate(a, values) for a in node.args)
    if isinstance(node, Ite):
        branch = node.then if evaluate(node.cond, values) else node.els
        return evaluate(branch, values)
    raise TypeError(f"not a BoolExpr: {node!r}")
