"""Independent answer checks.

A sat answer must come with a model that satisfies the generated clauses
under the benchmark's own evaluator (the solver's own model checks are
`assert`s, which `python -O` strips).  A sat or unsat answer must agree
with the instance's label.  `unknown` is never wrong; it only counts as
unsolved.
"""

from __future__ import annotations

from typing import Optional

from gen_inputs import SAT, UNSAT, Instance, satisfies

ANSWERS = ("sat", "unsat", "unknown")


def model_values(inst: Instance, model) -> Optional[tuple]:
    """(ints, bools) from the solver's (name, sort, value) list, or None if
    a declared variable is missing or has the wrong type."""
    given = {name: value for name, _sort, value in model}
    ints, bools = {}, {}
    for v in inst.ints:
        x = given.get(v)
        if not isinstance(x, int) or isinstance(x, bool):
            return None
        ints[v] = x
    for v in inst.bools:
        x = given.get(v)
        if not isinstance(x, bool):
            return None
        bools[v] = x
    return ints, bools


def check_answer(inst: Instance, answer: str, model=None,
                 need_model: bool = True) -> Optional[str]:
    """None if the answer is acceptable, else what is wrong with it.

    `need_model` is False only for answers read from the CLI's CSV, which
    carries no model; those are checked against the label alone.
    """
    if answer not in ANSWERS:
        return f"{inst.name}: answer {answer!r}"
    if answer == "unknown":
        return None
    if answer == "unsat":
        return None if inst.label == UNSAT else f"{inst.name}: unsat, label sat"
    if inst.label != SAT:
        return f"{inst.name}: sat, label unsat"
    if not need_model:
        return None
    if model is None:
        return f"{inst.name}: sat without a model"
    values = model_values(inst, model)
    if values is None:
        return f"{inst.name}: model misses a variable"
    if not satisfies(inst, *values):
        return f"{inst.name}: model fails a clause"
    return None
