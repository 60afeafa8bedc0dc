"""Boolean structure of parsed input, prior to clausification.

Structures are kept in negation normal form with constants folded: the
leaves are `terms.Literal`s (a Boolean variable or an atom, with a
polarity) and the inner nodes are `And`, `Or` and `Ite`.  `TRUE` and
`FALSE` only ever stand for a whole structure.  Build nodes with the
`mk_*` functions, which keep both properties; `mk_not` returns the dual
node, remembered on both nodes so that `mk_not(mk_not(x)) is x`.
"""

from __future__ import annotations

from typing import Mapping

from .terms import Literal


class BoolExpr:
    """A node, equal to another of its class with equal fields.

    Each node class names its fields in `_fields` and returns their values
    from `_key`.  Nodes are values: nothing changes a field after
    construction.  `neg` and `hash_` are caches outside equality, set at
    most once: the node's negation once `mk_not` has built it, and its
    structural hash.
    """

    __slots__ = ("neg", "hash_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        """The structural hash, kept in `hash_`.

        Hashing the fields hashes the whole subtree, so without the kept
        hash the `defs` memo of clausify would be quadratic in depth; with
        it, a node's first hash costs its own fields and each later one
        nothing.
        """
        h = self.hash_
        if h is None:
            h = self.hash_ = hash(self._key())
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class BConst(BoolExpr):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: bool):
        self.value = value
        self.neg = self.hash_ = None

    def _key(self) -> tuple:
        return (self.value,)


class _Nary(BoolExpr):
    __slots__ = ("args",)
    _fields = ("args",)

    def __init__(self, args: tuple):
        self.args = args
        self.neg = self.hash_ = None

    def _key(self) -> tuple:
        return (self.args,)


class And(_Nary):
    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class Ite(BoolExpr):
    __slots__ = ("cond", "then", "els")
    _fields = ("cond", "then", "els")

    def __init__(self, cond: BoolExpr, then: BoolExpr, els: BoolExpr):
        self.cond = cond
        self.then = then
        self.els = els
        self.neg = self.hash_ = None

    def _key(self) -> tuple:
        return (self.cond, self.then, self.els)


def _pair(node: BoolExpr, dual: BoolExpr) -> BoolExpr:
    """Record ``node`` and ``dual`` as each other's negation; returns dual."""
    node.neg = dual
    dual.neg = node
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
