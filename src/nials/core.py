"""The model-constructing search loop.

A single trail carries Boolean assignments and integer model assignments.
Propagation combines clause-level Boolean constraint propagation, semantic
evaluation of fully assigned atoms, per-variable feasibility narrowing
from unit constraints, and, at level 0, the bounds that literals over two
or more variables imply over the hulls of those sets (`bounds.revise`).
Conflicts are explained with exclusion literals (negated `x = value`
atoms) and resolved to a single literal at the conflict level before
backjumping.

Boolean propagation watches two literals per clause (Moskewicz et al.,
Chaff, DAC 2001; Eén & Sörensson, MiniSat, SAT 2003).  The watch
positions sit in a list beside `clauses`, so `Clause.literals` keeps its
order.  A pass visits, in attach order, the clauses woken by a watch that
became false, which gives the pushes and the conflict of a scan over
every clause in that order: a literal the pass pushes wakes the later
clauses for this pass and the earlier ones for the next.  A false watch
stays only beside a true one assigned no later, so backtracking keeps
the watches valid.

An atom acts in `Solver._visit` only, in one of three ways: evaluated
once every variable has a value; narrowing its one unassigned variable x
while its literal is on the trail; or, with one unassigned variable x
and no literal on the trail, decided by F(x), the feasible set of x.
With the other variables at their values and the atom linear in x, it
holds on F(x) when F(x) lies inside its solutions in x, and fails on it
when F(x) misses them; the literal that holds is pushed (unit
constraints over feasible sets, Jovanović, Barrett & de Moura, FMCAD
2013).  An atom that acts is anchored on the trail's last element and
is not visited again while that element stands.  This is sound because
an atom acts at the current level, the anchor's own, so the values and
literal it read stand while the anchor does, and its narrowing is
undone exactly when the anchor is popped; because F(x) only narrows
while the anchor stands; and because every value the trail assigns
comes from the variable's feasible set, where the narrowing or the
decision left the literal true.  A level-0 anchor is never popped.  An
atom that a learned or hull clause registers may have values for all
its variables already, so no assignment would wake it: it is visited
at the next propagation, and again whenever a backtrack pops its
literal while its variables keep their values.
"""

from __future__ import annotations

import enum
import heapq
import time
from collections import deque
from typing import Optional

from .bounds import hull, revise
from .bridge import LsController
from .errors import InternalError
from .feasibility import FeasibilityMap, decided, solution_set
from .terms import (BOOL, LEQ, Clause, Formula, Literal, Polynomial,
                    TermStore, Variable)
from .trail import Reason, Trail


class Answer(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Stats:
    """Search counters; `as_dict` gives them in `__slots__` order."""

    __slots__ = ("conflicts", "decisions", "propagations",
                 "theory_assignments", "ls_calls", "ls_moves_accepted",
                 "ls_zero",     # local-search calls that reached cost 0
                 "restarts",
                 "bounds",      # level-0 bound literals from hull revision
                 "unit_props")  # atom literals decided by a feasible set

    def __init__(self):
        self.conflicts = self.decisions = self.propagations = 0
        self.theory_assignments = self.ls_calls = self.ls_moves_accepted = 0
        self.ls_zero = self.restarts = self.bounds = self.unit_props = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class SolverConfig:
    """Solver settings: local search on or off, and the limits that end
    a search with unknown."""

    def __init__(self, ls_enabled: bool = True,
                 max_conflicts: Optional[int] = None,
                 timeout_ms: Optional[int] = None):
        self.ls_enabled = ls_enabled
        self.max_conflicts = max_conflicts
        self.timeout_ms = timeout_ms


_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100
# Hull revisions per propagation call at level 0.  A revision may narrow a
# hull by a single unit (x < y and y < x over a wide box), so revising
# runs on from where it stopped at the next level-0 fixpoint instead.
BOUND_REVISIONS = 64


class Solver:
    """One-shot satisfiability check for a clause set over a term store."""

    def __init__(self, store: TermStore, formula: Formula,
                 config: Optional[SolverConfig] = None):
        self.store = store
        self.formula = formula
        self.config = config or SolverConfig()
        self.stats = Stats()
        self.trail = Trail()
        self.feas = FeasibilityMap()
        self.clauses: list[Clause] = []
        # Two watched literals: the watch positions of clause i at 2i and
        # 2i + 1, and the indices of the clauses watching each
        # `Literal.skey`.  `_woken` holds the clauses due for the next
        # pass; `_bcp_head` is the first trail element not yet woken from.
        self._watch: list = []
        self._watchers: dict[int, set] = {}
        self._woken: set[int] = set()
        self._bcp_head = 0
        self.occurs: dict[int, list] = {}
        self._registered: set[int] = set()
        self._anchor: dict = {}     # atom id -> TrailElement, see _visit
        # Atoms registered after __init__, due for a visit at the next
        # propagation, and those whose literal such a visit pushed above
        # the levels of their variables: (literal's level, atom).
        self._due: Optional[deque] = None
        self._lifted: list = []
        self._root_unsat = False
        self.qhead = 0
        # Level-0 literals over two or more variables, by variable, and
        # those due for revision since a hull of theirs moved.
        self._hull_lits: dict[int, list] = {}
        self._revise: deque = deque()
        self._queued: set[int] = set()     # skeys in _revise
        self._revisions_left = 0
        self.activity: dict[int, float] = {}
        self._var_inc = 1.0
        self._heap: list = []
        self._decidable = {x.id for x in formula.variables}
        for x in formula.variables:
            heapq.heappush(self._heap, (0.0, x.id))
        for clause in formula.clauses:
            self._attach_clause(clause)
        self._due = deque()
        self.ls = LsController() if self.config.ls_enabled else None
        self.deadline: Optional[float] = None   # time.monotonic() limit
        self.answer: Optional[Answer] = None
        self.model: dict = {}       # var id -> int or bool, once SAT

    # -- clause and atom bookkeeping ----------------------------------------

    def _attach_clause(self, clause: Clause, p: int = 0, q: int = 1):
        """Watch the literals at positions p and q.  The pair must be
        valid once the caller's pushes are made: neither false, or a false
        one beside a true one assigned no later.  The first two are valid
        for an input clause (a literal already on the trail wakes it) and
        for a level-0 bound's clause (the bound, then a level-0 literal
        negated); a learned clause passes its own.  A unit clause is due
        for the next pass."""
        lits = clause.literals
        i = len(self.clauses)
        self.clauses.append(clause)
        if len(lits) > 1:
            watched = (lits[p].skey, lits[q].skey)
        elif lits:
            p = q = 0
            watched = (lits[0].skey,)
            self._woken.add(i)
        else:
            p = q = 0
            watched = ()
            self._root_unsat = True
        self._watch += (p, q)
        watchers = self._watchers
        for skey in watched:
            ws = watchers.get(skey)
            if ws is None:
                watchers[skey] = {i}
            else:
                ws.add(i)
        for lit in lits:
            if lit.atom is not None:
                self._register_atom(lit.atom)

    def _register_atom(self, atom):
        if atom.id in self._registered:
            return
        self._registered.add(atom.id)
        if not atom.vars:
            self._visit(atom)       # a constant: assigned at once
            return
        for vid in atom.vars:
            self.occurs.setdefault(vid, []).append(atom)
        if self._due is not None:
            # A learned or hull clause's atom: its variables may all have
            # values already, and no assignment would wake it.
            self._due.append(atom)

    def bump_var(self, vid: int):
        a = self.activity.get(vid, 0.0) + self._var_inc
        if a > _ACTIVITY_RESCALE:
            for k in self.activity:
                self.activity[k] *= 1.0 / _ACTIVITY_RESCALE
            self._var_inc *= 1.0 / _ACTIVITY_RESCALE
            a = self.activity.get(vid, 0.0) + self._var_inc
        self.activity[vid] = a
        if vid in self._decidable:
            heapq.heappush(self._heap, (-a, vid))

    def _decay_activity(self):
        self._var_inc /= _ACTIVITY_DECAY

    # -- exclusion literals -------------------------------------------------

    def _excl_neg(self, vid: int) -> Literal:
        """¬(x = α) for the variable's current trail value."""
        atom = self.store.eq_atom(vid, self.trail.values[vid])
        return Literal(False, atom=atom)

    # -- propagation --------------------------------------------------------

    def propagate(self):
        """Run to fixpoint; returns conflict clause literals or None."""
        trail = self.trail
        elements = trail.elements
        anchor = self._anchor
        self._revisions_left = BOUND_REVISIONS
        due = self._due
        while True:
            while due:
                c = self._visit_due(due[0])
                if c is not None:
                    return c
                due.popleft()
            while self.qhead < len(elements):
                elem = elements[self.qhead]
                self.qhead += 1
                if elem.var is not None:
                    atoms = self.occurs.get(elem.var.id, ())
                elif elem.lit.atom is not None:
                    atoms = (elem.lit.atom,)
                else:
                    continue
                for atom in atoms:
                    # `_anchored`, inline: this runs per atom an assignment
                    # wakes, and most of them are anchored.
                    e = anchor.get(atom.id)
                    if (e is not None and e.pos < len(elements)
                            and elements[e.pos] is e):
                        continue
                    c = self._visit(atom)
                    if c is not None:
                        return c
                if not trail.level and elem.var is None:
                    self._watch_hulls(elem.lit)
            c = self._bcp()
            if c is not None:
                return c
            if self.qhead < len(elements):
                continue
            if trail.level:
                return None
            c = self._propagate_bounds()
            if c is not None:
                return c
            if self.qhead >= len(elements):
                return None

    def _visit_due(self, atom):
        """Visit an atom registered after __init__ if its variables all
        have values (else an assignment or its literal wakes it), and note
        whether its literal then sits above their levels, where a
        backtrack can pop it while they keep their values.  Returns
        conflict clause literals or None."""
        var_elem = self.trail.var_elem
        top = 0
        for v in atom.vars:
            e = var_elem.get(v)
            if e is None:
                return None
            if e.level > top:
                top = e.level
        c = self._visit(atom)
        if c is None:
            level = self.trail.lit_elem[atom.key].level
            if level > top:
                self._lifted.append((level, atom))
        return c

    def _anchored(self, atom) -> bool:
        """Whether the atom has acted and the trail still holds its anchor."""
        e = self._anchor.get(atom.id)
        elements = self.trail.elements
        return e is not None and e.pos < len(elements) and elements[e.pos] is e

    def _visit(self, atom):
        """Act on an unanchored atom whose variables or literal the trail
        may have changed: evaluate it once every variable has a value,
        narrow its one unassigned variable x while its literal is on the
        trail, or without its literal push the one that F(x) decides; and
        without conflict anchor it on the trail's last element.  A
        decided literal's reason is ``(Reason.FEASIBILITY_UNIT, x, the
        contributions to F(x))``; `_explain_unit` builds its explanation
        only when conflict analysis reaches it.
        Returns conflict clause literals or None."""
        trail = self.trail
        vals = trail.values
        free = None
        for v in atom.vars:
            if v not in vals:
                if free is not None:
                    return None
                free = v
        entry = trail.lit_elem.get(atom.key)
        if free is None:
            t = atom.evaluate(vals)
            if entry is None:
                trail.push_propagation(Literal(t, atom=atom), Reason.SEMANTIC)
                self.stats.propagations += 1
            elif t != entry.lit.positive:
                lits = [self._excl_neg(v) for v in atom.vars]
                lits.append(Literal(t, atom=atom))
                return lits
        elif entry is None:
            # A literal that no clause watches would wake none.
            watchers = self._watchers
            skey = 2 * atom.key
            if not (watchers.get(skey) or watchers.get(skey + 1)):
                return None
            poly, rel = atom.form(True)
            positive = decided(poly, rel, free, vals, self.feas.get(free))
            if positive is None:
                return None
            trail.push_propagation(
                Literal(positive, atom=atom),
                (Reason.FEASIBILITY_UNIT, free, self.feas.contributions(free)))
            self.stats.unit_props += 1
            self.stats.propagations += 1
        else:
            var = self.store.var_by_id(free)
            fs = self.feas.assert_unit_constraint(var, entry.lit, trail)
            if fs.is_empty():
                return self._explain(self.feas.contributions(free), free)
            v = fs.singleton_value()
            if v is not None:
                trail.push_model_assignment(
                    var, v, decision=False,
                    reason=(Reason.FEASIBILITY_SINGLETON,
                            self.feas.contributions(free)))
                self.stats.theory_assignments += 1
                self.stats.propagations += 1
        self._anchor[atom.id] = trail.elements[-1]
        return None

    def _explain(self, contributions, vid: int):
        """Literals explaining the feasibility set of `vid`: the literals
        narrowed into it negated, and the exclusion literals of the other
        variables' values they substituted."""
        lits = []
        for lit in contributions:
            lits.append(lit.negate())
            for u in lit.atom.vars:
                if u != vid:
                    lits.append(self._excl_neg(u))
        return lits

    def _explain_unit(self, asserted: Literal, vid: int, contributions):
        """Literals explaining a literal that F(vid) decided: the
        explanation of F(vid), the level-0 literals that keep from F(vid)
        the values where the literal fails, and the exclusion literals of
        the atom's other variables."""
        atom = asserted.atom
        poly, rel = atom.form(not asserted.positive)
        fails = solution_set(poly, rel, vid, self.trail.values)
        lits = self._explain(contributions, vid)
        lits += self._explain(self.feas.root_reasons(vid, fails), vid)
        lits += [self._excl_neg(u) for u in atom.vars if u != vid]
        return lits

    # -- level-0 bounds -----------------------------------------------------

    def _watch_hulls(self, lit: Literal):
        """Revise a level-0 literal over two or more unassigned variables
        now, and again whenever one of their hulls moves."""
        atom = lit.atom
        if len(atom.vars) < 2 or self._anchored(atom):
            return
        for vid in atom.vars:
            self._hull_lits.setdefault(vid, []).append(lit)
        self._queued.add(lit.skey)
        self._revise.append(lit)

    def _propagate_bounds(self):
        """Revise the level-0 literals due, until one enters bounds on the
        trail, the revisions of this propagation call run out, or the
        deadline passes.  Returns conflict literals or None."""
        feas, queue, queued = self.feas, self._revise, self._queued
        for vid in feas.moved:
            for lit in self._hull_lits.get(vid, ()):
                if lit.skey not in queued:
                    queued.add(lit.skey)
                    queue.append(lit)
        feas.moved.clear()
        while queue and self._revisions_left > 0:
            if self.deadline is not None and time.monotonic() > self.deadline:
                return None
            lit = queue.popleft()
            queued.discard(lit.skey)
            atom = lit.atom
            if self._anchored(atom):
                continue
            self._revisions_left -= 1
            hulls = {vid: hull(feas.get(vid)) for vid in atom.vars}
            found = revise(atom, lit.positive, hulls)
            if found is None:
                return self._hull_clause(None, lit, atom.vars).literals
            for vid, lo, hi, own in found:
                h_lo, h_hi = hulls[vid]
                used = [u for u in atom.vars if own or u != vid]
                x = Polynomial.var(vid)
                if lo > h_lo:
                    self._enter_bound(self.store.mk_atom(
                        Polynomial.const(lo), LEQ, x), lit, used)
                if hi < h_hi:
                    self._enter_bound(self.store.mk_atom(
                        x, LEQ, Polynomial.const(hi)), lit, used)
            if found:
                return None
        return None

    def _enter_bound(self, atom, lit: Literal, used: list):
        bound = Literal(True, atom=atom)
        self.trail.push_propagation(bound, self._hull_clause(bound, lit, used))
        self.stats.bounds += 1
        self.stats.propagations += 1

    def _hull_clause(self, bound, lit: Literal, vids) -> Clause:
        """Attach and return the learned clause ``bound ∨ ¬lit ∨ …``, with
        the negated level-0 literals behind the hulls of ``vids``; without
        a bound, the clause is false at level 0."""
        lits = [lit.negate()] if bound is None else [bound, lit.negate()]
        for vid in vids:
            lits += self._explain(self.feas.hull_reasons(vid), vid)
        clause = Clause(lits, learned=True)
        self._attach_clause(clause)
        return clause

    def _bcp(self):
        """One pass of Boolean constraint propagation; returns conflict
        clause literals or None.

        The pass visits, in attach order, the clauses due: new unit
        clauses, and those with a watch that became false since the last
        pass.  A literal the pass pushes wakes later clauses for this pass
        and earlier ones for the next, as a scan over every clause in
        attach order would see them.  A clause is unit when exactly one of
        its literals has no `lit_elem` entry and none is true; the first
        clause found all false is the conflict.
        """
        elements = self.trail.elements
        watchers = self._watchers
        woken = self._woken
        for elem in elements[self._bcp_head:]:
            lit = elem.lit
            if lit is not None:
                ws = watchers.get(lit.skey ^ 1)
                if ws:
                    woken.update(ws)
        self._bcp_head = len(elements)
        if not woken:
            return None
        heap = sorted(woken)
        woken.clear()
        trail = self.trail
        lit_elem = trail.lit_elem
        clauses = self.clauses
        watch = self._watch
        pop, push = heapq.heappop, heapq.heappush
        last = -1
        while heap:
            i = pop(heap)
            if i == last:
                continue
            last = i
            lits = clauses[i].literals
            p, q = watch[2 * i], watch[2 * i + 1]
            lp, lq = lits[p], lits[q]
            ep, eq = lit_elem.get(lp.key), lit_elem.get(lq.key)
            p_false = ep is not None and ep.lit.positive != lp.positive
            q_false = eq is not None and eq.lit.positive != lq.positive
            if q_false and not p_false:
                p, q, ep, eq, p_false, q_false = q, p, eq, ep, True, False
            if not p_false:
                if p != q or ep is not None:
                    continue        # no watch is false, or a unit clause true
            elif not q_false and eq is not None and eq.level <= ep.level:
                # A true watch may stand beside a false one that became
                # false no earlier: backtracking frees the true one first.
                continue
            # Keep q unless it is false, and find literals that are not
            # false for the rest; f1 and f2 are the false ones assigned last.
            a = -1 if q_false else q
            b = f1 = f2 = l1 = l2 = -1
            for k, lit in enumerate(lits):
                if k == a:
                    continue
                e = lit_elem.get(lit.key)
                if e is None or e.lit.positive == lit.positive:
                    if a < 0:
                        a = k
                    else:
                        b = k
                        break
                elif e.level > l1:
                    f2, l2, f1, l1 = f1, l1, k, e.level
                elif e.level > l2:
                    f2, l2 = k, e.level
            conflict = a < 0
            if conflict:
                a, b = f1, f2 if f2 >= 0 else f1
            elif b < 0:
                b = f1 if f1 >= 0 else a
                lit = lits[a]
                if lit.key not in lit_elem:
                    trail.push_propagation(lit, clauses[i])
                    self.stats.propagations += 1
                    for j in watchers.get(lit.skey ^ 1, ()):
                        if j > i:
                            push(heap, j)
                        else:
                            woken.add(j)
            if (a != p or b != q) and (a != q or b != p):
                for k in (p, q):
                    if k != a and k != b:
                        watchers[lits[k].skey].discard(i)
                for k in (a, b):
                    if k != p and k != q:
                        ws = watchers.get(lits[k].skey)
                        if ws is None:
                            watchers[lits[k].skey] = {i}
                        else:
                            ws.add(i)
                watch[2 * i], watch[2 * i + 1] = a, b
            if conflict:
                self._bcp_head = len(elements)
                return list(lits)
        self._bcp_head = len(elements)
        return None

    # -- conflict analysis --------------------------------------------------

    def _falsify_pos(self, lit: Literal) -> int:
        """Trail position at which the (false) literal became false: the
        earlier of its own assignment and, for an atom whose variables are
        all assigned, the latest of their assignments."""
        trail = self.trail
        elem = trail.lit_elem.get(lit.key)
        pos = elem.pos if elem is not None else None
        if lit.atom is not None:
            var_elem = trail.var_elem
            latest = 0
            for v in lit.atom.vars:
                elem = var_elem.get(v)
                if elem is None:
                    break
                if elem.pos > latest:
                    latest = elem.pos
            else:
                if pos is None or latest < pos:
                    pos = latest
        if pos is None:
            raise InternalError(f"literal {lit} is not false on the trail")
        return pos

    def _resolve_lit(self, lit: Literal, pos: int):
        """Replacement literals, or None if the literal is irreducible."""
        trail = self.trail
        elem = trail.elements[pos]
        if trail.lit_elem.get(lit.key) is elem:
            if elem.decision:
                return None
            reason = elem.reason
            if reason is Reason.SEMANTIC:
                return [self._excl_neg(v) for v in lit.atom.vars]
            asserted = elem.lit
            if reason.__class__ is tuple:   # Reason.FEASIBILITY_UNIT
                return self._explain_unit(asserted, *reason[1:])
            return [l for l in reason.literals if l.skey != asserted.skey]
        # Falsified by model assignments.
        if elem.var is not None and lit.atom is not None:
            info = lit.atom.var_eq
            if info is not None and info[0] == elem.var.id and not lit.positive:
                if elem.decision:
                    return None
                return self._explain(elem.reason[1], elem.var.id)
        return [self._excl_neg(v) for v in lit.atom.vars]

    def _analyze(self, conflict_lits):
        """Reduce to a single literal at the conflict level.

        Returns the learned literals, the position of the asserting one,
        the backjump level and the position of a literal falsified at that
        level (-1 if none), or None when the conflict is at level 0
        (unsatisfiable).
        """
        trail = self.trail
        cur: dict[int, tuple] = {}
        level_of = lambda pos: trail.elements[pos].level

        def add(lit):
            # Literals false at level 0 are implied false by the formula and
            # can be dropped from any learned clause.
            if lit.skey not in cur:
                pos = self._falsify_pos(lit)
                if level_of(pos) > 0:
                    cur[lit.skey] = (lit, pos)

        for lit in conflict_lits:
            add(lit)
        if not cur:
            return None
        conflict_level = max(level_of(p) for _, p in cur.values())
        while True:
            at_level = [(lit, pos) for lit, pos in cur.values()
                        if level_of(pos) == conflict_level]
            if len(at_level) <= 1:
                break
            # At most one literal per level is irreducible (the one falsified
            # by the level's decision element); resolve the latest reducible.
            at_level.sort(key=lambda t: -t[1])
            resolved = False
            for lit, pos in at_level:
                repl = self._resolve_lit(lit, pos)
                if repl is None:
                    continue
                del cur[lit.skey]
                for r in repl:
                    add(r)
                resolved = True
                break
            if not resolved:
                raise InternalError(
                    "multiple irreducible literals at conflict level")
        learned = []
        uip = partner = -1
        backjump = 0
        for lit, pos in cur.values():
            lv = level_of(pos)
            if lv == conflict_level:
                uip = len(learned)
            elif lv > backjump:
                backjump, partner = lv, len(learned)
            learned.append(lit)
        if uip < 0:
            raise InternalError("no literal left at the conflict level")
        return learned, uip, backjump, partner

    def _resolve_conflict(self, conflict_lits) -> bool:
        """Learn from a conflict; False means the formula is unsatisfiable."""
        self.stats.conflicts += 1
        res = self._analyze(conflict_lits)
        if res is None:
            return False
        learned, uip, backjump, partner = res
        clause = Clause(learned, learned=True)
        # The backjump leaves the partner unassigned, or false at the
        # level where the UIP becomes true.
        self._attach_clause(clause, uip, partner)
        for vid in sorted(clause.variables()):
            self.bump_var(vid)
        self._decay_activity()
        self._backtrack(backjump)
        self.trail.push_propagation(learned[uip], clause)
        self.stats.propagations += 1
        return True

    def _backtrack(self, level: int):
        """Undo the trail and the feasible sets above `level`.

        The trail caches the undone values; undone variables go back on
        the decision heap.
        """
        undone = self.trail.backtrack_to(level)
        self.feas.backtrack_to(level)
        n = len(self.trail.elements)
        if self.qhead > n:
            self.qhead = n
        if self._bcp_head > n:
            self._bcp_head = n
        self._woken.clear()     # every wake due came from an undone level
        if self._lifted:
            values = self.trail.values
            kept = []
            for lifted in self._lifted:
                if lifted[0] <= level:
                    kept.append(lifted)
                elif all(v in values for v in lifted[1].vars):
                    self._due.append(lifted[1])
            self._lifted = kept
        for vid in undone:
            if vid in self._decidable:
                heapq.heappush(self._heap,
                               (-self.activity.get(vid, 0.0), vid))

    # -- decisions ----------------------------------------------------------

    def _pick_branch_var(self) -> Optional[Variable]:
        assigned = self.trail.values
        while self._heap:
            negact, vid = heapq.heappop(self._heap)
            if vid in assigned:
                continue
            cur = self.activity.get(vid, 0.0)
            if -negact < cur:
                heapq.heappush(self._heap, (-cur, vid))
                continue
            return self.store.var_by_id(vid)
        return None

    def decide(self) -> bool:
        var = self._pick_branch_var()
        if var is None:
            return False
        self.stats.decisions += 1
        trail = self.trail
        value = self.feas.pick(var, trail.cache.get(var.id))
        if var.sort is BOOL:
            trail.push_decision(Literal(value, bvar=var))
        else:
            trail.push_model_assignment(var, value, decision=True)
            self.stats.theory_assignments += 1
        return True

    # -- top level ----------------------------------------------------------

    def check_sat(self) -> Answer:
        cfg = self.config
        self.deadline = None
        if cfg.timeout_ms is not None:
            self.deadline = time.monotonic() + cfg.timeout_ms / 1000.0
        deadline = self.deadline
        if self._root_unsat:
            self.answer = Answer.UNSAT
            return self.answer
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self._resolve_conflict(conflict):
                    self.answer = Answer.UNSAT
                    return self.answer
                if (cfg.max_conflicts is not None
                        and self.stats.conflicts >= cfg.max_conflicts):
                    self.answer = Answer.UNKNOWN
                    return self.answer
                if deadline is not None and time.monotonic() > deadline:
                    self.answer = Answer.UNKNOWN
                    return self.answer
                continue
            if deadline is not None and time.monotonic() > deadline:
                self.answer = Answer.UNKNOWN
                return self.answer
            if self.ls is not None and self.ls.should_run(self.stats.conflicts):
                answer = self._local_search()
                if answer is not None:
                    self.answer = answer
                    return answer
            if not self.decide():
                self._set_model(self.trail.values)
                self.answer = Answer.SAT
                return self.answer

    def _local_search(self) -> Optional[Answer]:
        """Restart, then one local-search call from level 0.

        Called at a propagation fixpoint, so only a restart needs another
        propagation.  UNSAT on a conflict at level 0; SAT when the call
        reaches cost 0 and its assignment passes the model check; else
        None, and the search goes on from level 0 with learned clauses
        kept.
        """
        if self.trail.level > 0:
            self._backtrack(0)
            self.stats.restarts += 1
            if self.propagate() is not None:
                self.stats.conflicts += 1
                return Answer.UNSAT
        result = self.ls.run(self)
        if result is None or not result.reached_zero:
            return None
        self._set_model(result.values)
        return Answer.SAT

    def _set_model(self, values: dict):
        """Take a complete assignment as the model; InternalError unless it
        assigns every variable and satisfies every clause of the formula."""
        for x in self.formula.variables:
            if x.id not in values:
                raise InternalError(f"model leaves {x} unassigned")
        self.model = dict(values)
        for clause in self.formula.clauses:
            if not any(self._model_lit(lit) for lit in clause):
                raise InternalError(f"model does not satisfy {clause}")

    def _model_lit(self, lit: Literal) -> bool:
        return lit.holds(self.model)
