"""Outside-in spans around the solver's layers, installed by patching.

Each hook replaces a public callable under the name its caller looks up,
so the solver's sources stay untouched.  A span's self time is its
duration minus the time of the spans it encloses on the same thread.
Hooks are removed again when the `Tracer` context ends.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import nials
from nials import bridge, cli, core, feasibility, localsearch, smtlib, terms, trail

# (owner, attribute, span name).  The owner is where the caller looks the
# name up: `nials.parse` for this benchmark, `smtlib.parse` for the CLI,
# `smtlib.clausify` for `smtlib.solve`, and so on.
HOOKS = (
    (nials, "parse", "frontend.parse"),
    (smtlib, "parse", "frontend.parse"),
    (smtlib, "compile_script", "frontend.compile"),
    (smtlib, "clausify", "frontend.clausify"),
    (core.Solver, "__init__", "frontend.solver_init"),
    (core.Solver, "check_sat", "core.check_sat"),
    (core.Solver, "propagate", "core.propagate"),
    (core.Solver, "decide", "core.decide"),
    (trail.Trail, "backtrack_to", "trail.backtrack"),
    (feasibility.FeasibilityMap, "assert_unit_constraint", "theory.narrow"),
    (feasibility, "solve_univariate_coeffs", "theory.univariate"),
    (terms.TermStore, "mk_atom", "terms.mk_atom"),
    (bridge.LsController, "run", "ls.call"),
    (bridge, "build_ls_formula", "ls.formula"),
    (bridge, "compile_clauses", "ls.compile"),
    (localsearch, "run", "ls.descent"),
    (cli, "bench_dir", "cli.batch"),
)

# Atoms built while compiling a script belong to the frontend; only those
# built during search (exclusion literals) get a span of their own.
_SEARCH_ONLY = {"terms.mk_atom"}


class SpanTable:
    """Per-thread totals: name -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.stack: list = []          # child time of each open span
        self.searching = 0             # open core.check_sat spans
        self.root_s = 0.0              # time under some span on this thread
        self.solves: list = []         # (Stats dict, learned lengths sum, count)
        self.ls_results: list = []


class Tracer:
    """Install the hooks for the duration of a `with` block."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tables: list = []
        self.missing: set = set()
        self._saved: list = []

    def _table(self) -> SpanTable:
        t = getattr(self._local, "table", None)
        if t is None:
            t = self._local.table = SpanTable()
            with self._lock:
                self.tables.append(t)
        return t

    def _wrap(self, name: str, fn):
        table = self._table
        perf = time.perf_counter
        search_only = name in _SEARCH_ONLY
        is_solve = name == "core.check_sat"
        is_descent = name == "ls.descent"

        def span(*args, **kwargs):
            t = table()
            if search_only and not t.searching:
                return fn(*args, **kwargs)
            t.stack.append(0.0)
            if is_solve:
                t.searching += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = t.stack.pop()
                if is_solve:
                    t.searching -= 1
                rec = t.spans[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if t.stack:
                    t.stack[-1] += dur
                else:
                    t.root_s += dur
            if is_solve:
                solver = args[0]
                learned = [len(c) for c in solver.clauses if c.learned]
                t.solves.append((solver.stats.as_dict(), sum(learned),
                                 len(learned)))
            elif is_descent:
                t.ls_results.append(result)
            return result

        span.__wrapped__ = fn
        return span

    def __enter__(self):
        for owner, attr, name in HOOKS:
            if attr not in vars(owner):
                if name not in self.missing:
                    label = getattr(owner, "__name__", repr(owner))
                    print(f"warning: hook {label}.{attr} not found; "
                          f"{name} metrics are absent", file=sys.stderr)
                    self.missing.add(name)
                continue
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all threads, as plain data.

        spans: name -> [calls, total seconds, self seconds]; root_s: time
        covered by outermost spans; solves: Stats summed over check_sat
        calls, with learned-clause lengths; ls: sums over LsResults.
        """
        spans: dict = {}
        for t in self.tables:
            for name, rec in t.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
        solves = [s for t in self.tables for s in t.solves]
        stats = {k: sum(s[0][k] for s in solves)
                 for k in ("conflicts", "decisions", "propagations")}
        stats["learned_lits"] = sum(s[1] for s in solves)
        stats["learned"] = sum(s[2] for s in solves)
        results = [r for t in self.tables for r in t.ls_results
                   if r is not None]
        started = [r for r in results if r.initial_cost]
        ls = {
            "results": len(results),
            "moves_tried": sum(r.moves_tried for r in results),
            "moves_accepted": sum(r.moves_accepted for r in results),
            "reached_zero": sum(bool(r.reached_zero) for r in results),
            "cost_drop_sum": sum((r.initial_cost - r.cost) / r.initial_cost
                                 for r in started),
            "cost_drop_n": len(started),
        }
        return {"spans": spans,
                "root_s": sum(t.root_s for t in self.tables),
                "solves": stats, "ls": ls, "missing": sorted(self.missing)}
