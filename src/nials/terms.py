"""Variables, polynomials, atoms, literals, clauses and their interning store.

Atoms are normalized to ``p ⋈ 0`` with ``⋈ ∈ {EQ, NEQ, LEQ, LT}``.  Negative
polarity lives on the literal, never inside the atom.  `Literal` is the one
literal type from the SMT-LIB frontend to conflict analysis; its integer
keys are spelled only in this module (`atom_key`, `bool_key`).
`Atom.form` is the one place where negation and strictness are resolved.
`TermStore` numbers variables and interns atoms; both compare by identity.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Mapping, Optional


class Sort(enum.Enum):
    BOOL = "Bool"
    INT = "Int"


class Rel(enum.Enum):
    EQ = "="
    NEQ = "distinct"
    LEQ = "<="
    LT = "<"

    # Atoms are interned by (poly, rel): hash members by identity, in C.
    __hash__ = object.__hash__

    def holds(self, value: int) -> bool:
        """Truth of ``value ⋈ 0``."""
        if self is EQ:
            return value == 0
        if self is NEQ:
            return value != 0
        if self is LEQ:
            return value <= 0
        return value < 0


# The members as module names, for hot code: reading an attribute of an
# Enum class costs a metaclass hook call.
EQ, NEQ, LEQ, LT = Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT
INT, BOOL = Sort.INT, Sort.BOOL


class Variable:
    """A declared or auxiliary variable; equality is identity.  Its name
    is for printing: only `smtlib.Compiler` resolves names."""

    __slots__ = ("id", "name", "sort", "is_aux")

    def __init__(self, id: int, name: str, sort: Sort, is_aux: bool = False):
        self.id = id
        self.name = name
        self.sort = sort
        self.is_aux = is_aux

    def __repr__(self):
        return self.name


# A monomial is a sorted tuple of (var_id, exponent) pairs; () is the unit.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:          # every variable of a precedes b's
        return a + b
    exps: dict[int, int] = dict(a)
    for vid, e in b:
        exps[vid] = exps.get(vid, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(m: Monomial):
    # Graded lexicographic by variable id; any fixed total order works.
    return (sum(e for _, e in m), m)


class Polynomial:
    """Multivariate polynomial with arbitrary-precision integer coefficients.

    Canonical: no zero coefficients are stored and monomials are sorted, so
    equal polynomials have equal term maps.  Equality compares the term maps
    directly; the hash (of the frozen term set) and the variable set are
    computed on first use and cached.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash", "_vars")

    def __init__(self, terms: Mapping[Monomial, int]):
        self._terms = {m: c for m, c in terms.items() if c != 0}
        self._hash = None
        self._vars = None

    @staticmethod
    def _of(terms: dict) -> "Polynomial":
        """The polynomial that takes over ``terms``, a fresh dict with no
        zero coefficient (the caller keeps no reference to it)."""
        p = object.__new__(Polynomial)
        p._terms = terms
        p._hash = None
        p._vars = None
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial._of({})

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial._of({(): c} if c else {})

    @staticmethod
    def var(vid: int) -> "Polynomial":
        return Polynomial._of({((vid, 1),): 1})

    @staticmethod
    def sum(first: "Polynomial", rest: Iterable["Polynomial"],
            sign: int = 1) -> "Polynomial":
        """``first + sign·r`` for each ``r`` of ``rest``, in one term dict.

        A coefficient that cancels is deleted at once, so a monomial that
        comes back is appended at the end: the term order is that of the
        pairwise sums, which code downstream iterates.
        """
        terms = dict(first._terms)
        for p in rest:
            for m, c in p._terms.items():
                c = terms.get(m, 0) + sign * c
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        return Polynomial._of(terms)

    @staticmethod
    def product(factors: list["Polynomial"]) -> "Polynomial":
        """The product of ``factors``: in one pass, folding coefficients
        and monomials, when each is a single nonzero term; pairwise
        otherwise."""
        coeff, mono = 1, ()
        for p in factors:
            if len(p._terms) != 1:
                acc = factors[0]
                for q in factors[1:]:
                    acc = acc * q
                return acc
            (m, c), = p._terms.items()
            coeff *= c
            mono = _mono_mul(mono, m)
        return Polynomial._of({mono: coeff})

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return self._terms

    @property
    def variables(self) -> frozenset:
        if self._vars is None:
            vs: set[int] = set()
            for m in self._terms:
                for vid, _ in m:
                    vs.add(vid)
            self._vars = frozenset(vs)
        return self._vars

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum(self, (other,))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum(self, (other,), -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(terms)

    def is_constant(self) -> bool:
        return not any(self._terms)  # only the unit monomial () is falsy

    def constant_value(self) -> int:
        assert self.is_constant()
        return self._terms.get((), 0)

    def evaluate(self, values: Mapping[int, int]) -> int:
        total = 0
        for m, c in self._terms.items():
            v = c
            for vid, e in m:
                v *= values[vid] ** e
            total += v
        return total

    def substitute(self, values: Mapping[int, int]) -> "Polynomial":
        """Partial evaluation: replace the given variables by constants."""
        terms: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            rest = []
            for vid, e in m:
                if vid in values:
                    c *= values[vid] ** e
                else:
                    rest.append((vid, e))
            key = tuple(rest)
            terms[key] = terms.get(key, 0) + c
        return Polynomial(terms)

    def content(self) -> int:
        """GCD of coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._terms.values())

    def leading_coeff(self) -> int:
        """Coefficient of the leading monomial under `_mono_key`."""
        lead, lead_deg = None, -1
        for m in self._terms:
            deg = 0
            for _, e in m:
                deg += e
            if deg > lead_deg or deg == lead_deg and m > lead:
                lead, lead_deg = m, deg
        return 0 if lead is None else self._terms[lead]

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items(), key=lambda t: _mono_key(t[0]), reverse=True):
            mono = "*".join(
                f"v{vid}" if e == 1 else f"v{vid}^{e}" for vid, e in m
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


_ONE = Polynomial.const(1)


class Atom:
    """Normalized arithmetic atom ``poly ⋈ 0``.

    Search reads ``vars`` (the variable ids, in the iteration order of
    ``poly.variables``) and ``key`` (`atom_key` of the id) straight from
    the atom.  `TermStore` makes one atom per normal form, so equality is
    identity.
    """

    __slots__ = ("id", "poly", "rel", "vars", "key", "_forms")

    def __init__(self, id: int, poly: Polynomial, rel: Rel):
        self.id = id
        self.poly = poly
        self.rel = rel
        self.vars = tuple(poly.variables)
        self.key = atom_key(id)
        self._forms = None      # [negative form, positive form], on demand

    def form(self, positive: bool) -> tuple:
        """``(q, rel)`` with ``rel`` among EQ, NEQ and LEQ: the literal of
        this polarity holds exactly at the integer points where
        ``q rel 0``.

        ``p < 0`` is ``p + 1 ≤ 0``.  Negation swaps EQ and NEQ, turns
        ``p ≤ 0`` into ``1 − p ≤ 0`` and ``p < 0`` into ``−p ≤ 0``.  The
        non-constant monomials of ``q`` keep the order of ``p``'s.  Each
        form is built on first use and kept.
        """
        forms = self._forms
        if forms is None:
            self._forms = forms = [None, None]
        f = forms[positive]
        if f is None:
            p, rel = self.poly, self.rel
            if positive:
                f = (p + _ONE, LEQ) if rel is LT else (p, rel)
            elif rel is LEQ:
                f = _ONE - p, LEQ
            elif rel is LT:
                f = -p, LEQ
            else:
                f = p, NEQ if rel is EQ else EQ
            forms[positive] = f
        return f

    def evaluate(self, values: Mapping[int, int]) -> bool:
        return self.rel.holds(self.poly.evaluate(values))

    def __repr__(self):
        return f"({self.poly} {self.rel.value} 0)"


def atom_key(atom_id: int) -> int:
    """`Literal.key` of the literals over an atom."""
    return 2 * atom_id


def bool_key(var_id: int) -> int:
    """`Literal.key` of the literals over a Boolean variable."""
    return 2 * var_id + 1


class Literal:
    """Boolean-variable or atom literal with a polarity.

    ``key`` names the atom or variable (``2·atom id`` or ``2·var id + 1``)
    and ``skey`` the literal (``2·key + negated``); both are fixed at
    construction, and equality and hash follow ``skey``.
    """

    __slots__ = ("positive", "bvar", "atom", "key", "skey")

    def __init__(self, positive: bool, bvar: Optional[Variable] = None,
                 atom: Optional[Atom] = None):
        assert (bvar is None) != (atom is None)
        self.positive = positive
        self.bvar = bvar
        self.atom = atom
        self.key = atom.key if atom is not None else bool_key(bvar.id)
        self.skey = 2 * self.key + (not positive)

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.bvar, self.atom)

    def holds(self, values: Mapping[int, object]) -> bool:
        """Truth under a complete assignment (var id -> int or bool)."""
        if self.bvar is not None:
            v = values[self.bvar.id]
        else:
            v = self.atom.evaluate(values)
        return v if self.positive else not v

    def variables(self) -> frozenset:
        """Ids of the variables the literal mentions, Boolean or integer."""
        if self.bvar is not None:
            return frozenset((self.bvar.id,))
        return self.atom.poly.variables

    def __eq__(self, other):
        return isinstance(other, Literal) and self.skey == other.skey

    def __hash__(self):
        return hash(self.skey)

    def __repr__(self):
        body = repr(self.bvar) if self.bvar is not None else repr(self.atom)
        return body if self.positive else f"~{body}"


class Clause:
    """Duplicate-free disjunction of literals."""

    __slots__ = ("literals", "learned")

    def __init__(self, literals: Iterable[Literal], learned: bool = False):
        self.literals = tuple(dict.fromkeys(literals))   # first of each kept
        self.learned = learned

    def is_tautology(self) -> bool:
        skeys = {lit.skey for lit in self.literals}
        return any(s ^ 1 in skeys for s in skeys)

    def variables(self) -> set:
        vs: set[int] = set()
        for lit in self.literals:
            vs |= lit.variables()
        return vs

    def __len__(self):
        return len(self.literals)

    def __iter__(self):
        return iter(self.literals)

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.literals)) + ")"


class Formula:
    """Clause set plus the variables occurring in it."""

    def __init__(self, clauses: list[Clause], variables: list[Variable]):
        self.clauses = clauses
        self.variables = list(variables)

    def __repr__(self):
        return " & ".join(map(repr, self.clauses))


class TermStore:
    """Append-only store that numbers variables and interns atoms.

    One store per solver instance; ids are dense.  Names are not looked up.
    """

    def __init__(self):
        self.variables: list[Variable] = []
        self._atoms: dict[tuple, Atom] = {}
        self._eq_atoms: dict[tuple, Atom] = {}     # (vid, c) -> x − c = 0
        self._fresh: dict[str, int] = {}           # prefix -> next n

    def new_var(self, name: str, sort: Sort, is_aux: bool = False) -> Variable:
        v = Variable(len(self.variables), name, sort, is_aux)
        self.variables.append(v)
        return v

    def fresh_var(self, prefix: str, sort: Sort) -> Variable:
        """A new auxiliary variable ``prefix!n``, n counting from 0 per
        prefix; no script can name it, not even by declaring ``prefix!n``."""
        n = self._fresh.get(prefix, 0)
        self._fresh[prefix] = n + 1
        return self.new_var(f"{prefix}!{n}", sort, is_aux=True)

    def var_by_id(self, vid: int) -> Variable:
        return self.variables[vid]

    def mk_atom(self, lhs: Polynomial, rel: Rel, rhs: Polynomial) -> Atom:
        """The interned atom of ``lhs ⋈ rhs`` in normal form."""
        poly, rel = normalize_poly(lhs - rhs if rhs._terms else lhs, rel)
        atom = self._atoms.get((poly, rel))
        if atom is None:
            atom = self._new_atom(poly, rel,
                                  _eq_key(poly) if rel is EQ else None)
        return atom

    def eq_atom(self, vid: int, value: int) -> Atom:
        """The atom ``x = value``: the one `mk_atom` gives for it.

        Every such atom is indexed by ``(vid, value)`` when made, so a miss
        is a new atom, built in the normal form `mk_atom` would give it.
        """
        atom = self._eq_atoms.get((vid, value))
        if atom is None:
            terms = {((vid, 1),): 1}
            if value:
                terms[()] = -value
            atom = self._new_atom(Polynomial._of(terms), EQ, (vid, value))
        return atom

    def interval_atom(self, vid: int, lo: Optional[int],
                      hi: Optional[int]) -> Atom:
        """The atom ``lo ≤ x ≤ hi``, with None for an infinite end (not
        both): ``x = lo`` for a point, ``x ≤ hi`` or ``lo ≤ x`` for a
        half-line, else ``(x − lo)(x − hi) ≤ 0``."""
        if lo == hi:
            return self.eq_atom(vid, lo)
        x = Polynomial.var(vid)
        if lo is None:
            return self.mk_atom(x, LEQ, Polynomial.const(hi))
        if hi is None:
            return self.mk_atom(Polynomial.const(lo), LEQ, x)
        poly = (x - Polynomial.const(lo)) * (x - Polynomial.const(hi))
        return self.mk_atom(poly, LEQ, Polynomial.zero())

    def _new_atom(self, poly: Polynomial, rel: Rel,
                  eq_key: Optional[tuple]) -> Atom:
        atom = Atom(len(self._atoms), poly, rel)
        self._atoms[(poly, rel)] = atom
        if eq_key is not None:
            self._eq_atoms[eq_key] = atom
        return atom


def _eq_key(poly: Polynomial) -> Optional[tuple]:
    """(vid, c) if ``poly`` is ``x − c``, else None."""
    terms = poly._terms
    c = terms.get((), 0)
    if len(terms) == (2 if c else 1):       # one monomial besides c
        for m, a in terms.items():
            if m and a == 1 and len(m) == 1 and m[0][1] == 1:
                return m[0][0], -c
    return None


def normalize_poly(p: Polynomial, rel: Rel) -> tuple[Polynomial, Rel]:
    """Canonical content-normalized form of ``p ⋈ 0``.

    The coefficient GCD divides out (sound over ℤ for all four relations:
    for EQ/NEQ only the common factor is removed, for LEQ/LT dividing by a
    positive constant preserves the solution set); it includes the
    constant term, so the division is exact.  For EQ/NEQ the sign is fixed
    so the leading monomial has a positive coefficient.
    """
    g = p.content()
    if (rel is EQ or rel is NEQ) and p.leading_coeff() < 0:
        g = -g
    if g > 1 or g < 0:
        p = Polynomial._of({m: c // g for m, c in p._terms.items()})
    return p, rel
