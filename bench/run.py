"""Seeded, network-free benchmark of the nials solver.

    python3 bench/run.py --workload planted --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload's inputs are generated from
the seed and solved through the public API (`nials.parse`, `nials.solve`),
one round per fresh interpreter (bench/one_round.py), and every answer is
checked independently.  Rounds repeat while the next one is expected to
end within `--seconds`; there is always at least one.

Times are reference seconds (bench/yardstick.py): measured times scaled
by a fixed calibration load run around every tenth of a second of solver
work, so that the shared machine's swings in speed cancel.  A run reports
the median round, and per instance the median of its rounds.  Only the
solver's calls are timed, not the checks.

With `--trace 0` the last line of stdout reports the end-to-end metrics;
with `--trace 1` it reports per-layer metrics from rounds run under
`spans.Tracer`, alternated with untraced rounds to give the overhead, and
for the boxed workload one traced round of the same files through
`nials.cli.main`.  The line before it records the input digest and the
run's details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen_inputs import WORKLOADS
from layers import layer_metrics, solved_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# setup_s: the median `import nials` time of fresh interpreters, between
# calibration ticks, in reference seconds.  The first only writes bytecode.
# numpy's BLAS library starts a thread per CPU on import; on a shared
# machine that start-up took from nothing to 60 ms, by how busy the other
# CPU was, and set most of the spread.  The probe limits BLAS to one
# thread; on an idle machine its import takes as long as the default one.
SETUP_SAMPLES = 9
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "from yardstick import scale, tick; tick(); ticks = [tick(), tick()]; "
    "t = time.perf_counter(); import nials; t = time.perf_counter() - t; "
    "print(t * scale(ticks + [tick(), tick()]))")
_PROBE_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
ROUND_TIMEOUT_S = 150


def setup_seconds() -> float:
    """Median `import nials` time of fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)],
            cwd=ROOT, env=_PROBE_ENV, capture_output=True, text=True,
            timeout=ROUND_TIMEOUT_S, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples[1:])


def run_round(workdir: Path, mode: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "one_round.py"), str(workdir), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{mode} round failed:\n{out.stderr}")
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def tail(values: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it.  With fewer than 11 samples, the maximum."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return 100, v[-1]
    return math.floor(100 * (n - 10) / n), v[n - 11]


def per_instance_ms(rounds: list) -> list:
    """Each instance's median time over the rounds."""
    return [statistics.median(r["times_ms"][name] for r in rounds
                              if name in r["times_ms"])
            for name in rounds[0]["times_ms"]]


def same_outcomes(a: dict, b: dict) -> list:
    """Problems if two LS-on rounds disagree; the solver is deterministic."""
    keys = set(a["answers"]) | set(b["answers"])
    diff = sorted(k for k in keys
                  if (a["answers"].get(k), a["conflicts"].get(k))
                  != (b["answers"].get(k), b["conflicts"].get(k)))
    if diff:
        return [f"rounds disagree on {len(diff)} instances, e.g. {diff[:3]}"]
    return []


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def repeat(seconds: float, step) -> list:
    """Call step() until the next call is expected to overrun `seconds`."""
    out = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        now = time.perf_counter()
        if now - t_begin + (now - t0) > seconds:
            return out


def end_to_end(workload, workdir: Path, seconds: float) -> tuple:
    setup_s = setup_seconds()
    rounds = repeat(seconds, lambda: run_round(workdir, "plain"))
    times = per_instance_ms(rounds)
    p50 = statistics.median(times)
    pct, tail_ms = tail(times)
    first = rounds[0]
    errors = [e for r in rounds for e in r["errors"]]
    for r in rounds[1:]:
        errors += same_outcomes(first, r)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in rounds),
                         "s"),
        "solved": metric(solved_count(first) / len(workload.instances),
                         "fraction"),
        "inst_ms_p50": metric(p50, "ms"),
        "inst_ms_tail": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    details = {
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "round_raw_s": [round(r["raw_s"], 4) for r in rounds],
        "tail_percentile": pct,
        "tail_samples": len(times),
        "solved_count": solved_count(first),
        "conflicts": sum(first["conflicts"].values()),
    }
    return metrics, details, len(rounds), errors


def traced(workload, workdir: Path, seconds: float) -> tuple:
    pairs = repeat(seconds, lambda: (run_round(workdir, "plain"),
                                     run_round(workdir, "traced")))
    plain = [p for p, _ in pairs]
    spanned = [t for _, t in pairs]
    ls_off = run_round(workdir, "ls_off")
    via_cli = None
    if workload.cli_cap is not None:
        via_cli = run_round(workdir, "cli")
    errors = [e for r in plain + spanned + [ls_off] for e in r["errors"]]
    for r in plain[1:] + spanned:
        errors += same_outcomes(plain[0], r)
    if via_cli is not None:
        errors += via_cli["errors"] + same_outcomes(plain[0], via_cli)
    metrics = layer_metrics(len(workload.instances), plain, spanned, ls_off,
                            via_cli)
    details = {
        "rounds": len(pairs),
        "untraced_wall_s": [round(r["wall_s"], 4) for r in plain],
        "traced_wall_s": [round(r["wall_s"], 4) for r in spanned],
        "spanned_s": [round(r["trace"]["root_s"], 4) for r in spanned],
        "solved_ls_on": solved_count(plain[0]),
        "solved_ls_off": solved_count(ls_off),
        "absent": spanned[0]["trace"]["missing"],
    }
    rounds = 2 * len(pairs) + 1 + (via_cli is not None)
    return metrics, details, rounds, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "nials" / "__init__.py").is_file():
        print(f"error: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        with open(workdir / "workload.pickle", "wb") as f:
            pickle.dump(workload, f)
        if workload.cli_cap is not None:
            (workdir / "inputs").mkdir()
            for inst in workload.instances:
                (workdir / "inputs" / f"{inst.name}.smt2").write_text(inst.text)
        measure = traced if args.trace else end_to_end
        metrics, details, rounds, errors = measure(workload, workdir,
                                                   args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only if no other run is using it
        except OSError:
            pass

    for e in errors[:20]:
        print(f"wrong: {e}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed,
            "digest": workload.digest(),
            "instances": len(workload.instances), **details}
    print(json.dumps(info))
    print(json.dumps({"correct": not errors,
                      "attempted": rounds * len(workload.instances),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
