"""Command-line entry point.

Solves a single .smt2 file or benchmarks a directory of them, with
answers on stdout, optional model and statistics blocks, and CSV output
for benchmark runs.
"""

from __future__ import annotations

import argparse
import csv
import contextlib
import os
import sys
import time
import traceback
from typing import Optional

from . import smtlib
from .core import SolverConfig, Stats
from .errors import InternalError, NialsError, ParseError

CSV_COLUMNS = ("name", "answer", "wall_ms", *Stats.__slots__)


def _count(text: str) -> int:
    """A whole number of at least 0, for the counts and limits."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more: {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nials",
        description="QF_NIA solver with local-search guided decisions.")
    p.add_argument("path", help=".smt2 file, or a directory to benchmark")
    p.add_argument("--no-ls", action="store_true",
                   help="disable the local-search component")
    p.add_argument("--max-conflicts", type=_count, default=None, metavar="N",
                   help="give up with unknown after this many conflicts")
    p.add_argument("--timeout-ms", type=_count, default=None, metavar="N",
                   help="give up with unknown after this much wall time")
    p.add_argument("--print-model", action="store_true",
                   help="print a model when the answer is sat (single "
                        "file only)")
    p.add_argument("--print-stats", action="store_true",
                   help="print solver statistics as '; key=value' lines "
                        "(single file only)")
    p.add_argument("--csv", dest="csv_out", default=None, metavar="PATH",
                   help="write benchmark results to this CSV file "
                        "(directory only; default stdout)")
    return p


def config_from_args(args) -> SolverConfig:
    return SolverConfig(
        ls_enabled=not args.no_ls,
        max_conflicts=args.max_conflicts,
        timeout_ms=args.timeout_ms,
    )


def _stats_lines(stats: Stats, answer: str, wall_ms: float) -> list[str]:
    lines = [f"; {k}={v}" for k, v in stats.as_dict().items()]
    lines.append(f"; answer={answer}")
    lines.append(f"; wall_ms={wall_ms:.1f}")
    return lines


def _solve_path(config: SolverConfig, path: str):
    """Read, parse and solve one file: (answer, model, solver).

    Raises OSError for an unreadable file and NialsError for bad input
    (a file that is not UTF-8 is a ParseError) or a failed model check
    (InternalError).
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ParseError(
                f"not UTF-8 text: byte {e.start}: {e.reason}") from None
    return smtlib.solve(smtlib.parse(text), config)


def _report_failure(path: str, e: Exception, err) -> int:
    """Report an exception raised while solving `path` on `err` and
    return its exit status: 2 for a file that cannot be read or bad input,
    3 for an internal error (a solver check that failed, or an exception
    that no solver error explains, which also gets its traceback)."""
    if isinstance(e, InternalError):
        print(f"{path}: internal error: {e}", file=err)
        return 3
    if isinstance(e, (OSError, NialsError)):
        print(f"{path}: error: {e}", file=err)
        return 2
    print(f"{path}: internal error: {type(e).__name__}: {e}", file=err)
    traceback.print_exc(file=err)
    return 3


def solve_file(config: SolverConfig, path: str, out=None, err=None,
               print_model: bool = False, print_stats: bool = False) -> int:
    """Solve one file; returns the process exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    t0 = time.monotonic()
    try:
        answer, model, solver = _solve_path(config, path)
    except Exception as e:
        return _report_failure(path, e, err)
    wall_ms = (time.monotonic() - t0) * 1000.0
    print(answer.value, file=out)
    if print_model and model is not None:
        print("\n".join(smtlib.format_model(model)), file=out)
    if print_stats:
        print("\n".join(_stats_lines(solver.stats, answer.value, wall_ms)),
              file=out)
    return 0


def _bench_one(config: SolverConfig, path: str, err) -> dict:
    """One CSV row: name, answer, wall time and every `Stats` key.

    A file that cannot be read or solved gives an `error` row and the
    message `solve_file` would print on `err`, and the directory run goes
    on.
    """
    t0 = time.monotonic()
    ans, stats = "error", Stats()
    try:
        answer, _, solver = _solve_path(config, path)
        ans, stats = answer.value, solver.stats
    except Exception as e:
        _report_failure(path, e, err)
    wall_ms = (time.monotonic() - t0) * 1000.0
    return {"name": os.path.basename(path), "answer": ans,
            "wall_ms": f"{wall_ms:.1f}", **stats.as_dict()}


def bench_dir(config: SolverConfig, directory: str, out=None, err=None,
              csv_out: Optional[str] = None) -> int:
    """Benchmark every .smt2 file in a directory in turn; writes one CSV
    to `csv_out`, or to `out` without it.  The CSV file is opened before
    the first file is solved, so a path that cannot be written costs no
    solving."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".smt2"))
        dest = open(csv_out, "w") if csv_out else contextlib.nullcontext(out)
    except OSError as e:
        print(f"error: {e}", file=err)
        return 2
    with dest as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for n in names:
            writer.writerow(
                _bench_one(config, os.path.join(directory, n), err))
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    if os.path.isdir(args.path):
        for option, given in (("--print-model", args.print_model),
                              ("--print-stats", args.print_stats)):
            if given:
                parser.error(f"{option} applies to a single file, "
                             "not to a directory")
        return bench_dir(config, args.path, csv_out=args.csv_out)
    if args.csv_out is not None:
        parser.error("--csv applies to a directory, not to a single file")
    return solve_file(config, args.path, print_model=args.print_model,
                      print_stats=args.print_stats)


if __name__ == "__main__":
    sys.exit(main())
