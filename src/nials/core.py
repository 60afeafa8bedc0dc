"""The model-constructing search loop.

A single trail carries Boolean assignments and integer model assignments.
Propagation combines clause-level Boolean constraint propagation, semantic
evaluation of fully assigned atoms, per-variable feasibility narrowing
from unit constraints, and, at level 0, the bounds that literals over two
or more variables imply over the hulls of those sets (`bounds.revise`).
Conflicts are explained with exclusion literals and resolved to a single
literal at the conflict level before backjumping.  A feasible set is
explained with the point exclusions ¬(y = value) of the values it
substituted.  A literal that evaluation at the trail's values makes
false is explained the same way, except for x, its variable assigned
last: x is excluded from the largest interval around its value on which
the literal stays false (the cell explanations of NLSAT, Jovanović & de
Moura, IJCAR 2012), so one conflict refutes that whole interval.

Boolean propagation watches two literals per clause (Moskewicz et al.,
Chaff, DAC 2001; Eén & Sörensson, MiniSat, SAT 2003).  The watch
positions sit in a list beside `clauses`, so `Clause.literals` keeps its
order, and each literal has the list of the clauses that watch it.  When
the trail's one head reaches a literal, `Solver._bcp` walks the list of
its negation.  Three facts keep this sound.  Every element the head has
not reached sits at the current level, so a false watch kept beside a
true one is undone together with it, and backtracking leaves the watches
valid as they are.  A literal is true or false by its `lit_elem` entry
alone: one false by evaluation with no entry still counts as unassigned.
And `Solver._visit` reads the same lists to ask whether a clause watches
a literal: an empty list is no watch.

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
from .feasibility import FeasibilityMap, decided, false_span, solution_set
from .terms import BOOL, Clause, Formula, Literal, TermStore, Variable
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
        # 2i + 1, and by `Literal.skey` the list of the clauses watching
        # it.  A clause of fewer than two literals watches nothing.
        self._watch: list = []
        self._watchers: dict[int, list] = {}
        self.occurs: dict[int, list] = {}
        self._registered: set[int] = set()
        self._anchor: dict = {}     # atom id -> TrailElement, see _visit
        # Atoms registered after __init__, due at the next propagation,
        # and (literal's level, atom) for each literal their visits left.
        self._due: Optional[deque] = None
        self._lifted: list = []
        self.qhead = 0
        # Level-0 literals over two or more variables, by variable, and
        # those due for revision since a hull of theirs moved.
        self._hull_lits: dict[int, list] = {}
        self._revise: deque = deque()
        self._queued: set[int] = set()     # skeys in _revise
        self._revisions_left = 0
        self.activity: dict[int, float] = {}
        self._var_inc = 1.0
        self._heap: list = []       # (−activity, id) of formula variables
        for x in formula.variables:
            heapq.heappush(self._heap, (0.0, x.id))
        for clause in formula.clauses:
            self._attach_clause(clause)
        self._due = deque()
        # The conflict of an input refuted at its unit clauses, which
        # every propagation returns; None if there is none.
        self._refutation = self._push_units()
        self.ls = LsController() if self.config.ls_enabled else None
        self.deadline: Optional[float] = None   # time.monotonic() limit
        self.model: dict = {}       # var id -> int or bool, once SAT

    # -- clause and atom bookkeeping ----------------------------------------

    def _attach_clause(self, clause: Clause, p: int = 0, q: int = 1):
        """Watch the literals at positions p and q: append the clause to
        the watch list of each.  Once the caller's pushes are made, each
        watch must be unassigned, true, false by a trail element the head
        has not reached, or false beside a true watch and undone no later
        than it.  The first two positions do for an input clause (the
        head has reached no element yet) and for a level-0 bound's clause
        (the bound, then a level-0 literal negated); a learned clause
        passes its asserting literal and one false at the backjump level.
        A clause of fewer than two literals watches nothing: `_push_units`
        pushes an input unit's literal, `_resolve_conflict` a learned
        one's, and a one-literal hull clause is a level-0 conflict."""
        lits = clause.literals
        i = len(self.clauses)
        self.clauses.append(clause)
        if len(lits) > 1:
            for k in (p, q):
                self._watchers.setdefault(lits[k].skey, []).append(i)
        else:
            p = q = 0
        self._watch += (p, q)
        for lit in lits:
            if lit.atom is not None:
                self._register_atom(lit.atom)

    def _push_units(self):
        """Push the literals of the input unit clauses, in clause order,
        after those of the constant atoms.  Returns the conflict of the
        first empty clause or unit false on the trail, else None."""
        trail = self.trail
        for clause in self.formula.clauses:
            lits = clause.literals
            if len(lits) > 1:
                continue
            if not lits:
                return []
            truth = trail.value_of_lit(lits[0])
            if truth is None:
                trail.push_propagation(lits[0], clause)
                self.stats.propagations += 1
            elif not truth:
                return [lits[0]]
        return None

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
        heapq.heappush(self._heap, (-a, vid))

    def _decay_activity(self):
        self._var_inc /= _ACTIVITY_DECAY

    # -- exclusion literals -------------------------------------------------

    def _excl_neg(self, vid: int) -> Literal:
        """¬(x = α) for the variable's current trail value."""
        atom = self.store.eq_atom(vid, self.trail.values[vid])
        return Literal(False, atom=atom)

    def _excl_interval(self, vid: int, lo, hi) -> list:
        """x ∉ [lo, hi] as one literal (`TermStore.interval_atom`
        negated), or none when the interval is every x."""
        if lo is None and hi is None:
            return []
        return [Literal(False, atom=self.store.interval_atom(vid, lo, hi))]

    def _exclusions(self, lit: Literal) -> list:
        """Exclusion literals for an atom literal that evaluation at the
        trail's values makes false: ¬(y = β) for each of its variables
        but the one assigned last, x, and x excluded from its
        `false_span`.  With the literal's negation they form a clause
        that holds at every integer point."""
        values, var_elem = self.trail.values, self.trail.var_elem
        x = max(lit.atom.vars, key=lambda v: var_elem[v].pos)
        lits = [self._excl_neg(v) for v in lit.atom.vars if v != x]
        return lits + self._excl_interval(x, *false_span((lit,), x, values))

    # -- propagation --------------------------------------------------------

    def propagate(self):
        """Run to fixpoint; returns conflict clause literals or None.

        An input refuted at its unit clauses returns that conflict (see
        `_push_units`).  Else one head, `qhead`, walks the trail: a model
        assignment wakes the atoms over its variable, a literal its atom
        and, through `_bcp`, the clauses that watch its negation."""
        if self._refutation is not None:
            return self._refutation
        trail = self.trail
        elements = trail.elements
        anchor = self._anchor
        watchers = self._watchers
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
                lit = elem.lit
                if lit is None:
                    atoms = self.occurs.get(elem.var.id, ())
                elif lit.atom is not None:
                    atoms = (lit.atom,)
                else:
                    atoms = ()
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
                if lit is not None:
                    if watchers.get(lit.skey ^ 1):
                        c = self._bcp(lit.skey ^ 1)
                        if c is not None:
                            return c
                    if not trail.level and lit.atom is not None:
                        self._watch_hulls(lit)
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
        its literal's level: a backtrack below it that keeps their values
        must visit the atom again.  Returns conflict clause literals or
        None."""
        values = self.trail.values
        if not all(v in values for v in atom.vars):
            return None
        c = self._visit(atom)
        if c is None:
            self._lifted.append((self.trail.lit_elem[atom.key].level, atom))
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
                lits = self._exclusions(entry.lit)
                lits.append(Literal(t, atom=atom))
                return lits
        elif entry is None:
            # A literal that no clause watches (its list is empty or
            # missing) would wake none.
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
        interval_atom = self.store.interval_atom
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
                if lo > h_lo:
                    self._enter_bound(interval_atom(vid, lo, None), lit, used)
                if hi < h_hi:
                    self._enter_bound(interval_atom(vid, None, hi), lit, used)
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

    def _bcp(self, skey: int):
        """Walk the watch list of the literal `skey`, which became false;
        returns conflict clause literals or None.

        Each clause on the list, in order, keeps its watches if the other
        one is true; else moves the false watch to a literal that is not
        false; else pushes the other watch if it is unassigned; else is
        the conflict, returned with the rest of the list kept.  A literal
        is false or true by a `lit_elem` entry only: one false by
        evaluation but with no entry counts as unassigned.  Every element
        the head has not reached sits at the current level, so a false
        watch kept beside a true one is undone together with it.
        """
        ws = self._watchers[skey]
        trail = self.trail
        lit_elem = trail.lit_elem
        clauses, watch, watchers = self.clauses, self._watch, self._watchers
        j = 0
        for k, i in enumerate(ws):
            ws[j] = i               # kept unless its watch moves
            j += 1
            lits = clauses[i].literals
            b = 2 * i
            if lits[watch[b]].skey == skey:
                b += 1              # the other watch's slot; b ^ 1 is ours
            other = lits[watch[b]]
            e = lit_elem.get(other.key)
            if e is not None and e.lit.positive == other.positive:
                continue
            p, q = watch[b ^ 1], watch[b]
            for m, lit in enumerate(lits):
                if m == p or m == q:
                    continue
                e2 = lit_elem.get(lit.key)
                if e2 is None or e2.lit.positive == lit.positive:
                    watch[b ^ 1] = m
                    watchers.setdefault(lit.skey, []).append(i)
                    j -= 1
                    break
            else:
                if e is not None:
                    del ws[j:k + 1]
                    return list(lits)
                trail.push_propagation(other, clauses[i])
                self.stats.propagations += 1
        del ws[j:]
        return None

    # -- conflict analysis --------------------------------------------------

    def _falsify_pos(self, lit: Literal) -> int:
        """Trail position at which the (false) literal became false: the
        earlier of the entry that assigned its negation and, for an atom
        literal that evaluation at the values of its variables makes
        false, the latest of their assignments.  A literal that
        evaluation makes true is dated at its entry, so `_resolve_lit`
        cites that entry's reason.  An entry that evaluation pushed
        (`Reason.SEMANTIC`) sits above its variables' assignments, so its
        negation is always dated at the latest of them."""
        trail = self.trail
        entry = trail.lit_elem.get(lit.key)
        pos = None
        if entry is not None and entry.lit.positive != lit.positive:
            pos = entry.pos
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
                if pos is None or (latest < pos and (
                        entry.reason is Reason.SEMANTIC
                        or lit.atom.evaluate(trail.values) != lit.positive)):
                    pos = latest
        if pos is None:
            raise InternalError(f"literal {lit} is not false on the trail")
        return pos

    def _resolve_lit(self, lit: Literal, pos: int):
        """Replacement literals, or None if the literal is irreducible.

        A literal dated at its own entry is resolved through the entry's
        reason.  One that evaluation makes false at the assignment of x,
        its variable assigned last, is replaced by `_exclusions`, unless
        x is its only variable: then it is irreducible at x's decision,
        and at x's propagation replaced by the explanation of F(x)."""
        trail = self.trail
        elem = trail.elements[pos]
        if trail.lit_elem.get(lit.key) is elem:
            if elem.decision:
                return None
            asserted = elem.lit
            reason = elem.reason
            if reason.__class__ is tuple:   # Reason.FEASIBILITY_UNIT
                return self._explain_unit(asserted, *reason[1:])
            return [l for l in reason.literals if l.skey != asserted.skey]
        # Falsified by evaluation at the assignment of x.
        x = elem.var.id
        if lit.atom.vars == (x,):
            if elem.decision:
                return None
            return self._explain(elem.reason[1], x)
        return self._exclusions(lit)

    def _merged_exclusion(self, at_level) -> list:
        """The literals over x alone that the decision x = v falsifies, as
        one: x excluded from the `false_span` of them all."""
        x = self.trail.elements[at_level[0][1]].var.id
        lits = [lit for lit, _ in at_level]
        return self._excl_interval(x, *false_span(lits, x, self.trail.values))

    def _analyze(self, conflict_lits):
        """Reduce to a single literal at the conflict level, the highest
        level of a literal left.

        The latest reducible literal at that level is resolved until one
        is left.  Those that no step reduces are over the level's decided
        variable alone and merge into one (`_merged_exclusion`); when
        that is none, the conflict level is the next one down.
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
            if len(at_level) == 1:
                break
            # Only literals that the level's decision element falsifies are
            # irreducible; resolve the latest reducible one.
            at_level.sort(key=lambda t: -t[1])
            for lit, pos in at_level:
                repl = self._resolve_lit(lit, pos)
                if repl is None:
                    continue
                del cur[lit.skey]
                for r in repl:
                    add(r)
                break
            else:
                if trail.elements[at_level[0][1]].var is None:
                    raise InternalError(
                        "multiple irreducible literals at conflict level")
                merged = self._merged_exclusion(at_level)
                for lit, _ in at_level:
                    del cur[lit.skey]
                for lit in merged:
                    add(lit)
                if not cur:
                    return None
                conflict_level = max(level_of(p) for _, p in cur.values())
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
            heapq.heappush(self._heap, (-self.activity.get(vid, 0.0), vid))

    # -- decisions ----------------------------------------------------------

    def _pick_branch_var(self) -> Optional[Variable]:
        """The unassigned variable of the best heap entry, never a stale
        one: `bump_var` pushes at each rise, `_backtrack` at each undo."""
        assigned = self.trail.values
        while self._heap:
            vid = heapq.heappop(self._heap)[1]
            if vid not in assigned:
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
        """Propagate, learn from each conflict, else decide.  When a
        local-search call is due above level 0, restart and propagate; the
        call runs at the level-0 fixpoint and answers sat at cost 0.
        Unsat comes from `_resolve_conflict` alone."""
        cfg = self.config
        self.deadline = None
        if cfg.timeout_ms is not None:
            self.deadline = time.monotonic() + cfg.timeout_ms / 1000.0
        deadline = self.deadline
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self._resolve_conflict(conflict):
                    return Answer.UNSAT
                if (cfg.max_conflicts is not None
                        and self.stats.conflicts >= cfg.max_conflicts):
                    return Answer.UNKNOWN
                if deadline is not None and time.monotonic() > deadline:
                    return Answer.UNKNOWN
                continue
            if deadline is not None and time.monotonic() > deadline:
                return Answer.UNKNOWN
            if self.ls is not None and self.ls.should_run(self.stats.conflicts):
                if self.trail.level > 0:
                    self._backtrack(0)
                    self.stats.restarts += 1
                    continue
                result = self.ls.run(self)
                if result is not None and result.reached_zero:
                    self._set_model(result.values)
                    return Answer.SAT
            if not self.decide():
                self._set_model(self.trail.values)
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
