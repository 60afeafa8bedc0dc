"""A fixed pure-Python calibration load that puts times on one CPU speed.

The machines this benchmark runs on are shared: the speed of the same
interpreter on the same code was measured to swing by 2x in phases of a
few seconds (a 25 ms loop took anywhere from 19 to 38 ms, one second to
the next).  That swing would set every timing's spread from run to run.

So each stretch of solver work, a tenth of a second or so, is bracketed by
runs of `tick()`: a small DPLL search over fixed random 3-SAT clauses,
the same kind of dict, tuple and integer work the solver does, and
independent of the solver's code.  A stretch's *reference time* is its
measured time scaled by REF_TICK_S over the median of the ticks around it:
the time it would have taken on a CPU that runs one tick in REF_TICK_S.
A change to the solver moves reference times as it moves real ones; a
change in the machine's speed moves the ticks as well, and largely
cancels.

Garbage collection is off while a tick runs, so that the solver's heap
does not change what a tick costs.  Nothing here imports the solver or
any module it imports, so loading this file changes no import time.
"""

import gc
import time

# A tick's time on the reference CPU, in seconds: a round figure within
# the 8-12 ms a tick took on the 2-vCPU x86-64 VM (Python 3.11) where the
# baseline was taken.
REF_TICK_S = 0.010

_VARS = 24
_CLAUSES = 100
_INSTANCES = 5


def _clauses(seed: int) -> list:
    """Random 3-SAT clauses from a fixed linear congruential generator."""
    state = seed
    out = []
    for _ in range(_CLAUSES):
        lits = []
        while len(lits) < 3:
            state = (state * 1103515245 + 12345) % 2 ** 31
            v = 1 + (state >> 8) % _VARS
            if v in lits or -v in lits:
                continue
            lits.append(v if (state >> 4) & 1 else -v)
        out.append(tuple(lits))
    return out


_FORMULAS = [_clauses(seed) for seed in range(1, _INSTANCES + 1)]


def _dpll(clauses: list, assign: dict) -> bool:
    while True:
        unit = None
        for c in clauses:
            free = None
            n_free = 0
            satisfied = False
            for lit in c:
                val = assign.get(abs(lit))
                if val is None:
                    n_free += 1
                    free = lit
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if n_free == 0:
                return False
            if n_free == 1:
                unit = free
                break
        if unit is None:
            break
        assign[abs(unit)] = unit > 0
    for c in clauses:
        for lit in c:
            if abs(lit) not in assign:
                for val in (lit > 0, lit <= 0):
                    trial = dict(assign)
                    trial[abs(lit)] = val
                    if _dpll(clauses, trial):
                        return True
                return False
    return True


def tick() -> float:
    """Seconds one run of the calibration load takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for clauses in _FORMULAS:
            _dpll(clauses, {})
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(ticks) -> float:
    """Factor from measured seconds to reference seconds for a stretch of
    work between the given ticks: REF_TICK_S over their median."""
    v = sorted(ticks)
    n = len(v)
    median = v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2
    return REF_TICK_S / median
