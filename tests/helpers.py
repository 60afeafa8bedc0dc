"""Shared generators and brute-force oracles for the test suite."""

import collections
import contextlib
import itertools

import pytest

from nials import bridge, feasibility, localsearch
from nials.costfn import IncrementalCost
from nials.feasibility import unit_solution_set
from nials.intervals import IntervalSet
from nials.terms import (Atom, Clause, Literal, Polynomial, Rel, Sort,
                         TermStore)

RELS = (Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT)


@contextlib.contextmanager
def ls_constants(threshold_base=None, budget_per_var=None, acc=None):
    """Set the local-search tuning constants given (`bridge.LS_THRESHOLD_BASE`,
    `bridge.LS_BUDGET_PER_VAR`, `localsearch.DEFAULT_ACC`) for the body of
    a ``with`` block, and restore them on leaving it."""
    with pytest.MonkeyPatch.context() as mp:
        for module, name, value in (
                (bridge, "LS_THRESHOLD_BASE", threshold_base),
                (bridge, "LS_BUDGET_PER_VAR", budget_per_var),
                (localsearch, "DEFAULT_ACC", acc)):
            if value is not None:
                mp.setattr(module, name, value)
        yield


def random_monomial(rng, vids, max_deg):
    deg = rng.randint(0, max_deg) if vids else 0
    mono = {}
    for _ in range(deg):
        v = rng.choice(vids)
        mono[v] = mono.get(v, 0) + 1
    return tuple(sorted(mono.items()))


def random_poly(rng, vids, max_terms=3, max_deg=3, coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, vids, max_deg)
        c = rng.randint(-coeff, coeff)
        terms[m] = terms.get(m, 0) + c
    return Polynomial(terms)


def random_clauses(rng, store, int_vars, bool_vars, n_clauses, max_len=3,
                   **poly_kwargs):
    """Random clause list over the given variables."""
    vids = [v.id for v in int_vars]
    clauses = []
    for _ in range(n_clauses):
        lits = []
        for _ in range(rng.randint(1, max_len)):
            if bool_vars and rng.random() < 0.3:
                lits.append(Literal(rng.random() < 0.5,
                                    bvar=rng.choice(bool_vars)))
            else:
                p = random_poly(rng, vids, **poly_kwargs)
                atom = store.mk_atom(p, rng.choice(RELS), Polynomial.zero())
                lits.append(Literal(rng.random() < 0.5, atom=atom))
        clauses.append(Clause(lits))
    return clauses


def random_instance(rng, n_int=3, n_bool=2, n_clauses=4, **kwargs):
    store = TermStore()
    int_vars = [store.new_var(f"x{i}", Sort.INT) for i in range(n_int)]
    bool_vars = [store.new_var(f"b{i}", Sort.BOOL) for i in range(n_bool)]
    clauses = random_clauses(rng, store, int_vars, bool_vars, n_clauses,
                             **kwargs)
    return store, clauses, int_vars, bool_vars


def random_3cnf(rng, n_vars, ratio=4.26):
    """Random 3-CNF over ``n_vars`` fresh Bool variables (three distinct
    variables per clause, each negated at random), ``round(ratio *
    n_vars)`` clauses, near the satisfiability threshold: at 8 to 12
    variables about one in four is unsat."""
    store = TermStore()
    bools = [store.new_var(f"b{i}", Sort.BOOL) for i in range(n_vars)]
    clauses = [Clause([Literal(rng.random() < 0.5, bvar=v)
                       for v in rng.sample(bools, 3)])
               for _ in range(round(ratio * n_vars))]
    return store, clauses, bools


def box_clauses(store, int_vars, lo, hi):
    """Unit clauses confining every integer variable to [lo, hi]."""
    out = []
    for v in int_vars:
        p = Polynomial.var(v.id)
        out.append(Clause([Literal(
            True, atom=store.mk_atom(Polynomial.const(lo), Rel.LEQ, p))]))
        out.append(Clause([Literal(
            True, atom=store.mk_atom(p, Rel.LEQ, Polynomial.const(hi)))]))
    return out


def assignments(int_vars, lo, hi, bool_vars):
    """Every complete assignment over the box [lo, hi] per integer variable."""
    for ivals in itertools.product(range(lo, hi + 1), repeat=len(int_vars)):
        iv = {v.id: a for v, a in zip(int_vars, ivals)}
        for bvals in itertools.product((False, True), repeat=len(bool_vars)):
            bv = {v.id: a for v, a in zip(bool_vars, bvals)}
            yield iv, bv


def lit_evaluate(lit, int_values, bool_values):
    """Total evaluation of a literal under a complete assignment."""
    if lit.bvar is not None:
        v = bool_values[lit.bvar.id]
    else:
        v = lit.atom.evaluate(int_values)
    return v if lit.positive else not v


def excl_pattern(atom):
    """(vid, c) if the atom is literally ``x − c = 0``, else None.

    The key by which `TermStore.eq_atom` finds the atom, computed from
    the polynomial's variable set and degree instead of its monomials.
    """
    if atom.rel is not Rel.EQ:
        return None
    p = atom.poly
    degree = max((sum(e for _, e in m) for m in p.terms), default=0)
    if len(p.variables) != 1 or degree != 1:
        return None
    vid = next(iter(p.variables))
    if p.terms.get(((vid, 1),)) != 1:
        return None
    return vid, -p.terms.get((), 0)


def scan_clauses(clauses, lit_elem):
    """The clauses that a full scan in order would act on under the trail's
    `lit_elem`: those with no true literal and at most one literal
    without an entry (unit, or all false).  Reference for the two
    watched literals of `Solver.propagate`, which must leave none at a
    propagation fixpoint."""
    acting = []
    for clause in clauses:
        open_lits = 0
        for lit in clause.literals:
            elem = lit_elem.get(lit.key)
            if elem is None:
                open_lits += 1
            elif elem.lit.positive == lit.positive:
                break
        else:
            if open_lits <= 1:
                acting.append(clause)
    return acting


def watch_lists_ok(solver) -> bool:
    """Whether every clause of two or more literals sits exactly once on
    the watch list of each of its two watched literals (the positions
    `solver._watch` holds for it) and on no other list."""
    expected = collections.Counter()
    for i, clause in enumerate(solver.clauses):
        if len(clause) > 1:
            for p in solver._watch[2 * i:2 * i + 2]:
                expected[clause.literals[p].skey, i] += 1
    found = collections.Counter(
        (skey, i) for skey, ws in solver._watchers.items() for i in ws
        if len(solver.clauses[i]) > 1)
    return found == expected


def heap_ok(solver) -> bool:
    """Whether every unassigned variable of the formula, which are the
    variables the solver decides, has a decision-heap entry whose
    priority is at least its activity: equal to it, unless a rescale has
    lowered the activities since the push.  Then the entry a pick pops
    first for it is never stale."""
    best = {}
    for negact, vid in solver._heap:
        best[vid] = max(best.get(vid, -negact), -negact)
    assigned = solver.trail.values
    return all(x.id in best and best[x.id] >= solver.activity.get(x.id, 0.0)
               for x in solver.formula.variables if x.id not in assigned)


def scan_atoms(solver):
    """The literals on the solver's trail that a theory check of their
    atoms would act on: those false under the values of all their
    atom's variables, and those that would still narrow F(v) of their
    atom's one unassigned variable v; and the registered atoms whose
    variables all have values but whose literal is not on the trail.
    Reference for `Solver._visit`, which must leave none at a
    propagation fixpoint."""
    vals = solver.trail.values
    lit_elem = solver.trail.lit_elem
    acting = [atom for atoms in solver.occurs.values() for atom in atoms
              if atom.key not in lit_elem
              and all(v in vals for v in atom.vars)]
    for elem in solver.trail.elements:
        lit = elem.lit
        if lit is None or lit.atom is None:
            continue
        free = [v for v in lit.atom.vars if v not in vals]
        if not free:
            if lit.atom.evaluate(vals) != lit.positive:
                acting.append(lit)
        elif len(free) == 1:
            fs = solver.feas.get(free[0])
            if fs.intersect(unit_solution_set(lit, free[0], vals)) != fs:
                acting.append(lit)
    return acting


def clauses_sat(clauses, iv, bv):
    return all(any(lit_evaluate(lit, iv, bv) for lit in c) for c in clauses)


def cost_at(cost, iv, bv):
    """Total of a compiled cost function under one complete assignment."""
    return IncrementalCost(cost, {**iv, **bv}).value


def brute_force(clauses, int_vars, lo, hi, bool_vars):
    """First satisfying assignment by enumeration, or None."""
    for iv, bv in assignments(int_vars, lo, hi, bool_vars):
        if clauses_sat(clauses, iv, bv):
            return iv, bv
    return None


def entailed(clauses, lemma, int_vars, lo, hi, bool_vars):
    """Whether the clause set entails the lemma over the box, by enumeration."""
    for iv, bv in assignments(int_vars, lo, hi, bool_vars):
        if clauses_sat(clauses, iv, bv) and not any(
                lit_evaluate(lit, iv, bv) for lit in lemma):
            return False
    return True


def planted_instance(rng, n_int=3, n_bool=2, n_clauses=8, lo=-5, hi=5,
                     **poly_kwargs):
    """`random_instance` made satisfiable by a planted model in [lo, hi]:
    a clause the model falsifies has its first literal negated."""
    store, clauses, int_vars, bool_vars = random_instance(
        rng, n_int, n_bool, n_clauses, **poly_kwargs)
    iv = {v.id: rng.randint(lo, hi) for v in int_vars}
    bv = {v.id: rng.random() < 0.5 for v in bool_vars}
    planted = []
    for c in clauses:
        if not any(lit.holds({**iv, **bv}) for lit in c):
            c = Clause((c.literals[0].negate(),) + c.literals[1:])
        planted.append(c)
    return store, planted, int_vars, bool_vars


def product_probe(c, lo):
    """x·y = c with x, y >= lo, over a fresh store: unsatisfiable when
    c < lo², and unbounded, so each conflict excludes one value."""
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    px, py = Polynomial.var(x.id), Polynomial.var(y.id)
    atoms = [store.mk_atom(px * py, Rel.EQ, Polynomial.const(c)),
             store.mk_atom(Polynomial.const(lo), Rel.LEQ, px),
             store.mk_atom(Polynomial.const(lo), Rel.LEQ, py)]
    return store, [Clause([Literal(True, atom=a)]) for a in atoms], [x, y]


def narrowed_coeffs(terms, vid, values):
    """The coefficient tuple `unit_solution_set` passes to the univariate
    solver for ``terms`` narrowed in ``vid`` under ``values``."""
    seen = []

    def record(coeffs, rel):
        seen.append(coeffs)
        return IntervalSet.full()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "solve_univariate_coeffs", record)
        atom = Atom(0, Polynomial(terms), Rel.EQ)
        unit_solution_set(Literal(True, atom=atom), vid, values)
    (coeffs,) = seen
    return coeffs


def _numeral(c):
    return str(c) if c >= 0 else f"(- {-c})"


def _poly_text(rng, names, max_terms=3, max_deg=2, coeff=5):
    """A random sum of products as SMT-LIB text, written as the benchmark
    writes its inputs: `(* (- 3) x y)`, `(+ …)` and negative numerals."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = sorted(rng.choice(names)
                         for _ in range(rng.randint(0, max_deg)))
        c = rng.randint(-coeff, coeff)
        if c != 1 or not factors:
            factors.insert(0, _numeral(c))
        terms.append(factors[0] if len(factors) == 1
                     else f"(* {' '.join(factors)})")
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


def random_script(rng, n_int=4, n_bool=2, n_clauses=20, box=None, **poly_kwargs):
    """A planted- or boxed-like SMT-LIB script: one assert per random
    clause of atoms `(rel poly 0)` and Bool variables, each maybe negated,
    and with ``box = (lo, hi)`` the bounds of every integer variable."""
    ints = [f"x{i}" for i in range(n_int)]
    bools = [f"b{i}" for i in range(n_bool)]
    lines = ["(set-logic QF_NIA)"]
    lines += [f"(declare-fun {v} () Int)" for v in ints]
    lines += [f"(declare-fun {v} () Bool)" for v in bools]
    for _ in range(n_clauses):
        lits = []
        for _ in range(rng.randint(1, 3)):
            if bools and rng.random() < 0.3:
                lit = rng.choice(bools)
            else:
                rel = rng.choice(("=", "distinct", "<=", "<"))
                lit = f"({rel} {_poly_text(rng, ints, **poly_kwargs)} 0)"
            lits.append(lit if rng.random() < 0.5 else f"(not {lit})")
        clause = lits[0] if len(lits) == 1 else f"(or {' '.join(lits)})"
        lines.append(f"(assert {clause})")
    if box is not None:
        lo, hi = box
        for v in ints:
            lines.append(f"(assert (<= (+ {_numeral(lo)} (* (- 1) {v})) 0))")
            lines.append(f"(assert (<= (+ {v} {_numeral(-hi)}) 0))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
