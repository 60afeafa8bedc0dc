"""One round of a workload in a fresh interpreter.

    python3 bench/one_round.py WORKDIR MODE

WORKDIR holds `workload.pickle`, written by run.py from the seed, and for
a workload with a `cli_cap` the `inputs/` directory of .smt2 files.  MODE
is one of `plain` (LS on), `traced` (LS on, with spans), `ls_off`, or
`cli` (the input files through `nials.cli.main`, with spans).  The last
line of stdout is the round's result as JSON.

Every round starts cold, like a command-line run: the solver's
process-wide caches would otherwise serve the second round of the same
inputs from memory.
"""

from __future__ import annotations

import csv
import json
import pickle
import resource
import sys
import time
from pathlib import Path

from yardstick import scale, tick

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

MODES = ("plain", "traced", "ls_off", "cli")

# Solver work between two calibration ticks, in seconds (yardstick.py).
CHUNK_S = 0.1
# Ticks on either side of a CLI call, which cannot be cut into chunks.
CLI_TICKS = 5


def new_round() -> dict:
    """wall_s is the solver's time in reference seconds, raw_s the same
    time as measured; times_ms holds each instance's reference time."""
    return {"wall_s": 0.0, "raw_s": 0.0, "answers": {}, "conflicts": {},
            "times_ms": {}, "errors": []}


class Chunks:
    """Scales stretches of solver work by the ticks around them.

    Ticks are run between chunks of about CHUNK_S seconds of solver work.
    A single tick is too short to time the machine's speed well, so a
    chunk is scaled by the median of the two ticks on either side of it.
    """

    def __init__(self, r: dict):
        self.r = r
        tick()                      # the first tick of a process runs slow
        self.ticks = [tick()]
        self.chunks: list = []      # [(instance name, measured seconds)]
        self.pending: list = []
        self.pending_s = 0.0

    def add(self, name: str, seconds: float):
        self.pending.append((name, seconds))
        self.pending_s += seconds
        if self.pending_s >= CHUNK_S:
            self.cut()

    def cut(self):
        if self.pending:
            self.chunks.append(self.pending)
            self.ticks.append(tick())
            self.pending = []
            self.pending_s = 0.0

    def close(self):
        """Write the round's reference times into the round dict."""
        self.cut()
        ticks = self.ticks
        for i, chunk in enumerate(self.chunks):
            f = scale(ticks[max(0, i - 1):i + 3])
            for name, seconds in chunk:
                self.r["times_ms"][name] = seconds * f * 1000.0
                self.r["wall_s"] += seconds * f
                self.r["raw_s"] += seconds


def solve_round(workload, ls_enabled: bool) -> dict:
    """Each instance from SMT-LIB text to a checked answer, in process.

    Only `nials.parse` and `nials.solve` are timed, not the checks.
    """
    import nials
    from check import check_answer

    perf = time.perf_counter
    r = new_round()
    chunks = Chunks(r)
    for inst in workload.instances:
        config = nials.SolverConfig(max_conflicts=inst.max_conflicts,
                                    ls_enabled=ls_enabled)
        t0 = perf()
        try:
            answer, model, solver = nials.solve(nials.parse(inst.text), config)
        except Exception as e:   # a crash fails the instance, not the round
            r["errors"].append(f"{inst.name}: {type(e).__name__}: {e}")
            continue
        chunks.add(inst.name, perf() - t0)
        r["answers"][inst.name] = answer.value
        r["conflicts"][inst.name] = solver.stats.conflicts
        problem = check_answer(inst, answer.value, model)
        if problem:
            r["errors"].append(problem)
    chunks.close()
    return r


def cli_round(workload, indir: Path) -> dict:
    """`nials.cli.main` over the directory, answers read back from its CSV.

    The call is timed between CLI_TICKS ticks on either side; each file's
    time is the CSV's `wall_ms`, on the same scale.
    """
    from nials import cli
    from check import check_answer

    out_csv = indir.parent / "out.csv"
    argv = [str(indir), "--csv", str(out_csv),
            "--max-conflicts", str(workload.cli_cap)]
    by_file = {f"{inst.name}.smt2": inst for inst in workload.instances}
    r = new_round()
    tick()                          # the first tick of a process runs slow
    ticks = [tick() for _ in range(CLI_TICKS)]
    t0 = time.perf_counter()
    status = cli.main(argv)
    raw = time.perf_counter() - t0
    f = scale(ticks + [tick() for _ in range(CLI_TICKS)])
    r["wall_s"] = raw * f
    r["raw_s"] = raw
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out_csv.unlink()
    for row in rows:
        inst = by_file.get(row["name"])
        if inst is None or inst.name in r["answers"]:
            r["errors"].append(f"unexpected CSV row {row['name']!r}")
            continue
        r["answers"][inst.name] = row["answer"]
        r["conflicts"][inst.name] = int(row["conflicts"])
        r["times_ms"][inst.name] = float(row["wall_ms"]) * f
        problem = check_answer(inst, row["answer"], need_model=False)
        if problem:
            r["errors"].append(problem)
    if status != 0:
        r["errors"].append(f"nials exited with status {status}")
    missing = len(by_file) - len(r["answers"])
    if missing:
        r["errors"].append(f"{missing} files missing from the CSV")
    r["rows"] = len(rows)
    r["error_rows"] = sum(row["answer"] == "error" for row in rows)
    return r


def run_mode(workload, workdir: Path, mode: str) -> dict:
    if mode == "plain":
        return solve_round(workload, True)
    if mode == "ls_off":
        return solve_round(workload, False)
    from spans import Tracer
    with Tracer() as tracer:
        if mode == "cli":
            r = cli_round(workload, workdir / "inputs")
        else:
            r = solve_round(workload, True)
    r["trace"] = tracer.summary()
    return r


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[1] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    workdir = Path(argv[0])
    sys.path.insert(0, str(SRC))
    with open(workdir / "workload.pickle", "rb") as f:
        workload = pickle.load(f)
    r = run_mode(workload, workdir, argv[1])
    r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
