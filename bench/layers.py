"""Per-layer metrics from the traced rounds of a run.

Times are reference seconds (bench/yardstick.py) and counts are totals
per round (one pass over the workload), averaged over the traced rounds,
except where a name says otherwise.  A traced round's span times are
scaled by the same factor as the round's solver time.  A layer that does
not run on a workload reports zeros.  A metric whose span could not be
hooked is left out; `spans.Tracer` has already warned about it.
"""

from __future__ import annotations

import statistics

# metric name -> (unit, span it needs)
LAYER_METRICS = {
    "frontend.parse_s": ("s", "frontend.parse"),
    "frontend.compile_s": ("s", "frontend.compile"),
    "frontend.compile_calls": ("count", "frontend.compile"),
    "frontend.clausify_s": ("s", "frontend.clausify"),
    "frontend.solver_init_s": ("s", "frontend.solver_init"),
    "core.bcp_s": ("s", "core.propagate"),
    "core.propagate_calls": ("count", "core.propagate"),
    "core.analyze_s": ("s", "core.check_sat"),
    "core.decide_s": ("s", "core.decide"),
    "core.conflicts": ("count", "core.check_sat"),
    "core.decisions": ("count", "core.check_sat"),
    "core.propagations": ("count", "core.check_sat"),
    "core.conflicts_per_s": ("1/s", "core.check_sat"),
    "core.learned_len_mean": ("count", "core.check_sat"),
    "trail.backtrack_s": ("s", "trail.backtrack"),
    "trail.backtrack_calls": ("count", "trail.backtrack"),
    "terms.mk_atom_s": ("s", "terms.mk_atom"),
    "terms.mk_atom_calls": ("count", "terms.mk_atom"),
    "theory.narrow_s": ("s", "theory.narrow"),
    "theory.narrow_calls": ("count", "theory.narrow"),
    "theory.univariate_s": ("s", "theory.univariate"),
    "theory.univariate_calls": ("count", "theory.univariate"),
    "ls.calls": ("count", "ls.call"),
    "ls.call_s": ("s", "ls.call"),
    "ls.formula_s": ("s", "ls.formula"),
    "ls.compile_s": ("s", "ls.compile"),
    "ls.descent_s": ("s", "ls.descent"),
    "ls.moves_tried": ("count", "ls.descent"),
    "ls.accept_ratio": ("ratio", "ls.descent"),
    "ls.zero_frac": ("ratio", "ls.descent"),
    "ls.cost_drop_frac": ("ratio", "ls.descent"),
    "ls.us_per_move": ("us", "ls.descent"),
    "ls.solved_delta": ("fraction", None),
    "cli.batch_s": ("s", "cli.batch"),
    "cli.rows": ("count", None),
    "cli.error_rows": ("count", None),
    "cli.speedup": ("ratio", None),
    "trace.overhead_frac": ("ratio", None),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def solved_count(r: dict) -> int:
    return sum(a in ("sat", "unsat") for a in r["answers"].values())


def layer_metrics(instances: int, plain: list, traced: list, ls_off: dict,
                  via_cli) -> dict:
    """Every LAYER_METRICS entry whose span was hooked, as metric dicts.

    `plain` and `traced` are LS-on rounds without and with spans, `ls_off`
    one round with LS off, `via_cli` one traced round of the same files
    through `nials.cli.main` (or None where the workload has no CLI round).
    """
    n = len(traced)
    spans: dict = {}
    stats: dict = {}
    ls: dict = {}
    for r in traced:
        t = r["trace"]
        f = r["wall_s"] / r["raw_s"] if r["raw_s"] else 1.0
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += rec[0]
            acc[1] += rec[1] * f
            acc[2] += rec[2] * f
        for k, v in t["solves"].items():
            stats[k] = stats.get(k, 0) + v
        for k, v in t["ls"].items():
            ls[k] = ls.get(k, 0) + v
    missing = set(traced[0]["trace"]["missing"])
    cli_batch_s = 0.0
    if via_cli is not None:
        f = via_cli["wall_s"] / via_cli["raw_s"]
        span = via_cli["trace"]["spans"].get("cli.batch", [0, 0.0])
        cli_batch_s = span[1] * f

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / n

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / n

    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    moves = ls["moves_tried"]
    values = {
        "frontend.parse_s": self_s("frontend.parse"),
        "frontend.compile_s": self_s("frontend.compile"),
        "frontend.compile_calls": calls("frontend.compile") / instances,
        "frontend.clausify_s": self_s("frontend.clausify"),
        "frontend.solver_init_s": self_s("frontend.solver_init"),
        "core.bcp_s": self_s("core.propagate"),
        "core.propagate_calls": calls("core.propagate"),
        "core.analyze_s": self_s("core.check_sat"),
        "core.decide_s": self_s("core.decide"),
        "core.conflicts": stats["conflicts"] / n,
        "core.decisions": stats["decisions"] / n,
        "core.propagations": stats["propagations"] / n,
        "core.conflicts_per_s": stats["conflicts"] / n / plain_wall,
        "core.learned_len_mean": _ratio(stats["learned_lits"],
                                        stats["learned"]),
        "trail.backtrack_s": self_s("trail.backtrack"),
        "trail.backtrack_calls": calls("trail.backtrack"),
        "terms.mk_atom_s": self_s("terms.mk_atom"),
        "terms.mk_atom_calls": calls("terms.mk_atom"),
        "theory.narrow_s": self_s("theory.narrow"),
        "theory.narrow_calls": calls("theory.narrow"),
        "theory.univariate_s": self_s("theory.univariate"),
        "theory.univariate_calls": calls("theory.univariate"),
        "ls.calls": calls("ls.call"),
        "ls.call_s": total_s("ls.call"),
        "ls.formula_s": self_s("ls.formula"),
        "ls.compile_s": self_s("ls.compile"),
        "ls.descent_s": self_s("ls.descent"),
        "ls.moves_tried": moves / n,
        "ls.accept_ratio": _ratio(ls["moves_accepted"], moves),
        "ls.zero_frac": _ratio(ls["reached_zero"], ls["results"]),
        "ls.cost_drop_frac": _ratio(ls["cost_drop_sum"], ls["cost_drop_n"]),
        "ls.us_per_move": _ratio(self_s("ls.descent") * 1e6, moves / n),
        "ls.solved_delta": (solved_count(plain[0])
                            - solved_count(ls_off)) / instances,
        "cli.batch_s": cli_batch_s,
        "cli.rows": via_cli["rows"] if via_cli else 0,
        "cli.error_rows": via_cli["error_rows"] if via_cli else 0,
        # The same files solved one after another in process, traced too,
        # against the CLI's worker pool; measured seconds on both sides.
        "cli.speedup": (_ratio(statistics.median(r["raw_s"] for r in traced),
                               via_cli["raw_s"]) if via_cli else 0.0),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, span) in LAYER_METRICS.items()
            if span is None or span not in missing}
