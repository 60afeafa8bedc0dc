"""Seeded instance generators, an SMT-LIB writer and a reference evaluator.

Instances are built in the benchmark's own representation, written out as
SMT-LIB text for the solver, and kept for checking answers.  Nothing here
imports the solver, so the evaluator is independent of the code it checks.

Representation:
- a polynomial is a dict {monomial: coefficient}; a monomial is a sorted
  tuple of variable names, repeated for powers (``("x", "x", "y")`` is x²y);
- a literal is ``("b", name, positive)`` for a Bool variable or
  ``("a", poly, rel, positive)`` for ``poly rel 0`` with rel one of
  ``= != <= <``;
- an instance asserts the conjunction of its clauses (lists of literals).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

RELS = ("=", "!=", "<=", "<")

# Labels: what an answer is checked against.
SAT = "sat"          # known satisfiable: "unsat" is wrong, a model must check
UNSAT = "unsat"      # known unsatisfiable: "sat" is wrong


@dataclass
class Instance:
    name: str
    ints: list
    bools: list
    clauses: list
    label: str
    max_conflicts: int
    text: str = ""

    def __post_init__(self):
        if not self.text:
            self.text = to_smtlib(self)


@dataclass
class Workload:
    name: str
    seed: int
    instances: list
    cli_cap: Optional[int] = None   # if set, the traced pass also runs
                                    # the files through the CLI with this
                                    # --max-conflicts

    def digest(self) -> str:
        """SHA-256 over every input the solver receives, with its cap."""
        h = hashlib.sha256()
        for inst in self.instances:
            h.update(f"{inst.name}\0{inst.max_conflicts}\0{inst.label}\0"
                     .encode())
            h.update(inst.text.encode())
        h.update(f"cli\0{self.cli_cap}".encode())
        return h.hexdigest()


# -- polynomials and evaluation ----------------------------------------------


def padd(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def pconst(c: int) -> dict:
    return {(): c} if c else {}


def pvar(name: str, coeff: int = 1) -> dict:
    return {(name,): coeff}


def peval(p: dict, ints: dict) -> int:
    total = 0
    for m, c in p.items():
        for v in m:
            c *= ints[v]
        total += c
    return total


def _rel_holds(rel: str, v) -> bool:
    if rel == "=":
        return v == 0
    if rel == "!=":
        return v != 0
    if rel == "<=":
        return v <= 0
    return v < 0


def lit_holds(lit, ints: dict, bools: dict) -> bool:
    if lit[0] == "b":
        return bools[lit[1]] == lit[2]
    _, p, rel, positive = lit
    return _rel_holds(rel, peval(p, ints)) == positive


def satisfies(inst: Instance, ints: dict, bools: dict) -> bool:
    """Whether a complete assignment satisfies every clause."""
    return all(any(lit_holds(l, ints, bools) for l in c) for c in inst.clauses)


def _grid_sat(clauses, ints, bools, lo, hi) -> bool:
    """Whether some assignment in the box [lo, hi]^n satisfies the clauses."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64)] * len(ints)
    axes += [np.array([False, True])] * len(bools)
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    env = dict(zip(ints + bools, grids))
    shape = grids[0].shape if grids else ()
    ok = np.ones(shape, dtype=bool)
    for clause in clauses:
        any_true = np.zeros(shape, dtype=bool)
        for lit in clause:
            if lit[0] == "b":
                val = env[lit[1]] if lit[2] else ~env[lit[1]]
            else:
                _, p, rel, positive = lit
                v = np.zeros(shape, dtype=np.int64)
                for m, c in p.items():
                    term = np.full(shape, c, dtype=np.int64)
                    for name in m:
                        term = term * env[name]
                    v = v + term
                val = _rel_holds(rel, v)
                if not positive:
                    val = ~val
            any_true |= val
        ok &= any_true
        if not ok.any():
            return False
    return bool(ok.any())


# -- SMT-LIB writer ------------------------------------------------------------


def _num(c: int) -> str:
    return str(c) if c >= 0 else f"(- {-c})"


def _term(m: tuple, c: int) -> str:
    if not m:
        return _num(c)
    factors = list(m) if c == 1 else [_num(c)] + list(m)
    return factors[0] if len(factors) == 1 else f"(* {' '.join(factors)})"


def poly_smt(p: dict) -> str:
    if not p:
        return "0"
    terms = [_term(m, c) for m, c in sorted(p.items(), key=lambda t: (len(t[0]), t[0]))]
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


def lit_smt(lit) -> str:
    if lit[0] == "b":
        return lit[1] if lit[2] else f"(not {lit[1]})"
    _, p, rel, positive = lit
    atom = (f"(distinct {poly_smt(p)} 0)" if rel == "!="
            else f"({rel} {poly_smt(p)} 0)")
    return atom if positive else f"(not {atom})"


def to_smtlib(inst: Instance) -> str:
    out = ["(set-logic QF_NIA)"]
    out += [f"(declare-fun {v} () Int)" for v in inst.ints]
    out += [f"(declare-fun {v} () Bool)" for v in inst.bools]
    for clause in inst.clauses:
        lits = [lit_smt(l) for l in clause]
        out.append(f"(assert {lits[0] if len(lits) == 1 else '(or ' + ' '.join(lits) + ')'})")
    out.append("(check-sat)")
    return "\n".join(out) + "\n"


# -- random clauses (after the test suite's generators) -----------------------


def random_poly(rng, names, max_terms=3, max_deg=2, coeff=5) -> dict:
    p: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        m = tuple(sorted(rng.choice(names) for _ in range(deg)))
        p = padd(p, {m: rng.randint(-coeff, coeff)})
    return p


def random_clause(rng, ints, bools, max_len=3, **poly_kwargs) -> list:
    lits = []
    for _ in range(rng.randint(1, max_len)):
        if bools and rng.random() < 0.3:
            lits.append(("b", rng.choice(bools), rng.random() < 0.5))
        else:
            lits.append(("a", random_poly(rng, ints, **poly_kwargs),
                         rng.choice(RELS), rng.random() < 0.5))
    return lits


def box_clauses(ints, lo, hi) -> list:
    out = []
    for v in ints:
        out.append([("a", padd(pconst(lo), pvar(v, -1)), "<=", True)])
        out.append([("a", padd(pvar(v), pconst(-hi)), "<=", True)])
    return out


# -- workloads -------------------------------------------------------------------

# planted: (integer variables, clauses, Bool variables, instances, cap).
# An instance is either solved within a dozen conflicts or not within
# thousands.  The small instances are solved five times in six, so there
# are many of them for `solved` to hold within a few percent from seed to
# seed, and their low cap keeps an unsolved one about as cheap as a solved
# one.  The larger instances run to their cap, with a local-search call at
# 50 conflicts, and do most of the work: compiling their clauses, BCP and
# local search.  Higher caps would let learned clauses pile up until BCP
# leads, but a few instances would then set the run's time.  The tail
# percentile falls among the 20 largest.
PLANTED_SIZES = ((4, 16, 1, 200, 15), (20, 150, 3, 8, 60),
                 (35, 300, 4, 20, 60))
PLANTED_MODEL_RANGE = 24


def planted_instance(rng, tag: str, n_int: int, n_clauses: int,
                     n_bool: int, cap: int) -> Instance:
    """Random clauses kept only when true under a hidden model, so sat."""
    ints = [f"x{i}" for i in range(n_int)]
    bools = [f"b{i}" for i in range(n_bool)]
    model_i = {v: rng.randint(-PLANTED_MODEL_RANGE, PLANTED_MODEL_RANGE)
               for v in ints}
    model_b = {v: rng.random() < 0.5 for v in bools}
    clauses = []
    while len(clauses) < n_clauses:
        c = random_clause(rng, ints, bools)
        if any(lit_holds(l, model_i, model_b) for l in c):
            clauses.append(c)
    return Instance(tag, ints, bools, clauses, SAT, cap)


def planted_instances(rng, sizes) -> list:
    return [planted_instance(rng, f"planted_{n_int}_{k:03d}", n_int,
                             n_clauses, n_bool, cap)
            for n_int, n_clauses, n_bool, count, cap in sizes
            for k in range(count)]


def planted(seed: int) -> Workload:
    rng = random.Random(f"planted/{seed}")
    return Workload("planted", seed, planted_instances(rng, PLANTED_SIZES))


# Criterion-8 guidance sizes (E, D); one large instance with E = 10**6.
GUIDANCE_SIZES = ((40, 30), (60, 50), (80, 65), (100, 80), (120, 95),
                  (150, 120), (200, 160), (250, 200), (300, 240), (400, 320),
                  (10 ** 6, 300))
GUIDANCE_T = 10 ** 6
GUIDANCE_CAP = 5000
# Probe constants and caps.  At 8000 conflicts the ratio probe spends 86%
# of its time in univariate solving as magnitudes grow; lower caps keep
# narrowing, analysis and atom construction visible.  The caps give the
# three kinds about the same cost, and there are many probes, so that the
# median and the tail instance fall inside one group of probes rather than
# at the edge of a few.  The constants are fixed: at the same cap, probes
# with different constants differ in cost by up to half, which would make
# the seed, not the solver, set the spread.
PROBES = {"prod": ((2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 600),
          "squares": ((3, 6, 7, 11, 12, 14, 15, 19, 21, 22), 350),
          "ratio": ((2, 3, 5, 6, 7, 8, 10, 11, 12, 13), 70)}


def var_names(rng, count: int) -> list:
    """Distinct seeded identifiers for an instance's variables."""
    names: list = []
    while len(names) < count:
        name = f"v{rng.randrange(10 ** 6)}"
        if name not in names:
            names.append(name)
    return names


def guidance_instance(tag: str, E: int, D: int, T: int,
                      names: list) -> Instance:
    """x, z in [-E, D] ∪ {T} with z² ≥ 1 and x·z ≥ T²: only (T, T) works."""
    x, z = names
    clauses = []
    for v in (x, z):
        V = pvar(v)
        clauses.append([("a", padd(pconst(-E), pvar(v, -1)), "<=", True)])
        clauses.append([("a", padd(V, pconst(-T)), "<=", True)])
        gap = pmul(padd(V, pconst(-D)), padd(V, pconst(-T)))
        clauses.append([("a", pmul(pconst(-1), gap), "<=", True)])
    clauses.append([("a", padd(pconst(1), pmul(pvar(z, -1), pvar(z))),
                     "<=", True)])
    clauses.append([("a", padd(pconst(T * T), pmul(pvar(x, -1), pvar(z))),
                     "<=", True)])
    return Instance(tag, [x, z], [], clauses, SAT, GUIDANCE_CAP)


def probe_instances(rng) -> list:
    """x·y = k with x, y > k; x² + y² = m with m no sum of two squares;
    x² = n·y² with n no square and y > 0.  All unsat, none refutable by the
    core, so each runs to its cap.  The seed draws the variable names."""
    out = []
    for kind, (consts, cap) in PROBES.items():
        for c in consts:
            xn, yn = var_names(rng, 2)
            x, y = pvar(xn), pvar(yn)
            if kind == "prod":
                clauses = [[("a", padd(pmul(x, y), pconst(-c)), "=", True)],
                           [("a", padd(pconst(c), pvar(xn, -1)), "<", True)],
                           [("a", padd(pconst(c), pvar(yn, -1)), "<", True)]]
            elif kind == "squares":
                clauses = [[("a", padd(pmul(x, x), pmul(y, y), pconst(-c)),
                             "=", True)]]
            else:
                clauses = [[("a", padd(pmul(x, x),
                                       pmul(pconst(-c), pmul(y, y))),
                             "=", True)],
                           [("a", pvar(yn, -1), "<", True)]]
            out.append(Instance(f"probe_{kind}_{c}", [xn, yn], [], clauses,
                                UNSAT, cap))
    return out


def enumerate_family(seed: int) -> Workload:
    """The criterion-8 guidance family and the probes, with seeded names.

    Which instances run is fixed; the seed draws only the variable names,
    which the solver's work does not depend on.
    """
    rng = random.Random(f"enumerate/{seed}")
    insts = [guidance_instance(f"guidance_{E}_{D}", E, D, GUIDANCE_T,
                               var_names(rng, 2))
             for E, D in GUIDANCE_SIZES]
    insts += probe_instances(rng)
    return Workload("enumerate", seed, insts)


BOXED_COUNT = 1000
BOXED_BOX = (-8, 8)
# Nine boxed instances in ten take at most two conflicts.  Box-enumeration
# proofs take 16 or 17 and, with the rare instances that would run to
# hundreds, stop at the cap: about one instance in twenty, all at the same
# cost, so the tail percentile falls among them and not on whichever few
# instances a seed happens to make hardest.
BOXED_CAP = 15


def boxed_instances(seed: int, count: int) -> list:
    """count/2 sat and count/2 unsat criterion-4-style instances, labelled by
    enumeration over the box."""
    rng = random.Random(f"boxed/{seed}")
    lo, hi = BOXED_BOX
    want = {SAT: count // 2, UNSAT: count - count // 2}
    insts = []
    for i in itertools.count():
        if not any(want.values()):
            break
        n_int = rng.randint(1, 3)
        n_bool = rng.randint(0, 1)
        ints = [f"x{j}" for j in range(n_int)]
        bools = [f"b{j}" for j in range(n_bool)]
        clauses = [random_clause(rng, ints, bools, coeff=4)
                   for _ in range(rng.randint(2, 5))]
        clauses += box_clauses(ints, lo, hi)
        label = SAT if _grid_sat(clauses, ints, bools, lo, hi) else UNSAT
        if not want[label]:
            continue
        want[label] -= 1
        insts.append(Instance(f"boxed_{i:05d}", ints, bools, clauses, label,
                              BOXED_CAP))
    return insts


def boxed(seed: int) -> Workload:
    return Workload("boxed", seed, boxed_instances(seed, BOXED_COUNT),
                    cli_cap=BOXED_CAP)


WORKLOADS = {
    "planted": planted,
    "enumerate": enumerate_family,
    "boxed": boxed,
}
