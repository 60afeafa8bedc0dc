"""Variables, polynomials, atoms, literals, clauses and their interning store.

Atoms are normalized to ``p ⋈ 0`` with ``⋈ ∈ {EQ, NEQ, LEQ, LT}``.  Negative
polarity lives on the literal, never inside the atom.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import SortError


class Sort(enum.Enum):
    BOOL = "Bool"
    INT = "Int"


class Rel(enum.Enum):
    EQ = "="
    NEQ = "distinct"
    LEQ = "<="
    LT = "<"

    def holds(self, value: int) -> bool:
        """Truth of ``value ⋈ 0``."""
        if self is Rel.EQ:
            return value == 0
        if self is Rel.NEQ:
            return value != 0
        if self is Rel.LEQ:
            return value <= 0
        return value < 0


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    sort: Sort
    is_aux: bool = False

    def __repr__(self):
        return self.name


# A monomial is a sorted tuple of (var_id, exponent) pairs; () is the unit.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[int, int] = dict(a)
    for vid, e in b:
        exps[vid] = exps.get(vid, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    # Graded lexicographic by variable id; any fixed total order works.
    return (_mono_degree(m), m)


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
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def var(vid: int) -> "Polynomial":
        return Polynomial({((vid, 1),): 1})

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
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(terms)

    def scale(self, k: int) -> "Polynomial":
        return Polynomial({m: c * k for m, c in self._terms.items()})

    def is_constant(self) -> bool:
        return not any(self._terms)  # only the unit monomial () is falsy

    def constant_value(self) -> int:
        assert self.is_constant()
        return self._terms.get((), 0)

    def degree(self) -> int:
        return max((_mono_degree(m) for m in self._terms), default=0)

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
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, abs(c))
        return g

    def leading_coeff(self) -> int:
        """Coefficient of the leading monomial under graded lex order."""
        if not self._terms:
            return 0
        m = max(self._terms, key=_mono_key)
        return self._terms[m]

    def univariate_coeffs(self, vid: int) -> list[int]:
        """Dense coefficient list [c0, c1, ...] for a (semi-)univariate poly.

        Requires that ``vid`` is the only variable occurring.
        """
        if self.variables - {vid}:
            raise ValueError("polynomial is not univariate in the given variable")
        deg = self.degree()
        coeffs = [0] * (deg + 1)
        for m, c in self._terms.items():
            e = m[0][1] if m else 0
            coeffs[e] += c
        return coeffs

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


@dataclass(frozen=True)
class Atom:
    """Normalized arithmetic atom ``poly ⋈ 0``."""

    id: int
    poly: Polynomial = field(compare=False)
    rel: Rel = field(compare=False)

    def evaluate(self, values: Mapping[int, int]) -> bool:
        return self.rel.holds(self.poly.evaluate(values))

    def __repr__(self):
        return f"({self.poly} {self.rel.value} 0)"


@dataclass(frozen=True)
class Literal:
    """Boolean-variable or atom literal with a polarity."""

    positive: bool
    bvar: Optional[Variable] = None
    atom: Optional[Atom] = None

    def __post_init__(self):
        assert (self.bvar is None) != (self.atom is None)

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.bvar, self.atom)

    @property
    def key(self):
        """Polarity-free identity of the underlying atom/variable."""
        if self.bvar is not None:
            return ("b", self.bvar.id)
        return ("a", self.atom.id)

    @property
    def skey(self):
        """Signed identity, unique per literal."""
        return (*self.key, self.positive)

    def variables(self) -> frozenset:
        if self.bvar is not None:
            return frozenset()
        return self.atom.poly.variables

    def __repr__(self):
        body = repr(self.bvar) if self.bvar is not None else repr(self.atom)
        return body if self.positive else f"~{body}"


class Clause:
    """Duplicate-free disjunction of literals."""

    __slots__ = ("literals", "learned")

    def __init__(self, literals: Iterable[Literal], learned: bool = False):
        seen = set()
        out = []
        for lit in literals:
            if lit.skey in seen:
                continue
            seen.add(lit.skey)
            out.append(lit)
        self.literals = tuple(out)
        self.learned = learned

    def is_tautology(self) -> bool:
        keys = {}
        for lit in self.literals:
            if lit.key in keys and keys[lit.key] != lit.positive:
                return True
            keys[lit.key] = lit.positive
        return False

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
    """Append-only interning store for variables and atoms.

    One store per solver instance; ids are dense.
    """

    def __init__(self):
        self.variables: list[Variable] = []
        self._var_by_name: dict[str, Variable] = {}
        self._atoms: dict[tuple, Atom] = {}
        self.atoms: list[Atom] = []

    def new_var(self, name: str, sort: Sort, is_aux: bool = False) -> Variable:
        if name in self._var_by_name:
            raise SortError(f"variable {name!r} already declared")
        v = Variable(len(self.variables), name, sort, is_aux)
        self.variables.append(v)
        self._var_by_name[name] = v
        return v

    def fresh_var(self, prefix: str, sort: Sort) -> Variable:
        n = 0
        while f"{prefix}!{n}" in self._var_by_name:
            n += 1
        return self.new_var(f"{prefix}!{n}", sort, is_aux=True)

    def lookup_var(self, name: str) -> Optional[Variable]:
        return self._var_by_name.get(name)

    def var_by_id(self, vid: int) -> Variable:
        return self.variables[vid]

    def intern_atom(self, poly: Polynomial, rel: Rel) -> Atom:
        key = (poly, rel)
        atom = self._atoms.get(key)
        if atom is None:
            atom = Atom(len(self.atoms), poly, rel)
            self._atoms[key] = atom
            self.atoms.append(atom)
        return atom

    def mk_atom(self, lhs: Polynomial, rel: Rel, rhs: Polynomial) -> Atom:
        return self.intern_atom(*normalize_poly(lhs - rhs, rel))


def normalize_poly(p: Polynomial, rel: Rel) -> tuple[Polynomial, Rel]:
    """Canonical content-normalized form of ``p ⋈ 0``.

    The coefficient GCD divides out (sound over ℤ for all four relations:
    for EQ/NEQ only the common factor is removed, for LEQ/LT dividing by a
    positive constant preserves the solution set).  For EQ/NEQ the sign is
    fixed so the leading monomial has a positive coefficient.
    """
    g = p.content()
    if g > 1:
        if rel in (Rel.EQ, Rel.NEQ):
            p = Polynomial({m: c // g for m, c in p.terms.items()})
        else:
            # Keep the constant term's remainder: only divide if exact.
            if all(c % g == 0 for c in p.terms.values()):
                p = Polynomial({m: c // g for m, c in p.terms.items()})
    if rel in (Rel.EQ, Rel.NEQ) and p.leading_coeff() < 0:
        p = -p
    return p, rel
