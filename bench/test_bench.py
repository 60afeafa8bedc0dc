"""Self-tests of the benchmark: seeded inputs, the answer checker, spans."""

import itertools
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen_inputs as g  # noqa: E402
import layers  # noqa: E402
import one_round  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from check import check_answer  # noqa: E402

import nials  # noqa: E402
from nials import SolverConfig, smtlib  # noqa: E402


def small_workload(seed=7):
    """A few instances of each in-process kind, quick to solve."""
    insts = g.boxed_instances(seed, 6)
    insts += g.planted_instances(random.Random(seed), [(10, 60, 2, 2, 60)])
    insts += g.probe_instances(random.Random(seed))[:1]
    insts[-1].max_conflicts = 200
    return g.Workload("small", seed, insts)


def solve(inst):
    ans, model, _ = nials.solve(nials.parse(inst.text),
                                SolverConfig(max_conflicts=inst.max_conflicts))
    return ans.value, model


def test_digest_follows_seed():
    for make in (g.planted, g.enumerate_family):
        assert make(3).digest() == make(3).digest()
        assert make(3).digest() != make(4).digest()
    boxed = [g.Workload("boxed", s, g.boxed_instances(s, 20)) for s in (3, 3, 4)]
    assert boxed[0].digest() == boxed[1].digest() != boxed[2].digest()


def test_boxed_labels_match_enumeration():
    lo, hi = g.BOXED_BOX
    for inst in g.boxed_instances(5, 6):
        found = any(
            g.satisfies(inst, dict(zip(inst.ints, iv)), dict(zip(inst.bools, bv)))
            for iv in itertools.product(range(lo, hi + 1), repeat=len(inst.ints))
            for bv in itertools.product((False, True), repeat=len(inst.bools)))
        assert (inst.label == g.SAT) == found


def test_checker_rejects_corrupted_model():
    inst = next(i for i in g.boxed_instances(11, 10) if i.label == g.SAT)
    answer, model = solve(inst)
    assert answer == "sat"
    assert check_answer(inst, answer, model) is None
    # Every integer variable is boxed in [-8, 8], so 100 breaks a clause.
    bad = [(n, s, 100 if n == inst.ints[0] else v) for n, s, v in model]
    assert check_answer(inst, answer, bad) is not None
    assert check_answer(inst, answer, model[1:]) is not None


def test_checker_rejects_flipped_label():
    insts = g.boxed_instances(12, 10)
    sat = next(i for i in insts if i.label == g.SAT)
    unsat = next(i for i in insts if i.label == g.UNSAT)
    answer, _ = solve(unsat)
    assert answer == "unsat" and check_answer(unsat, answer) is None
    unsat.label = g.SAT
    assert check_answer(unsat, answer) is not None
    answer, model = solve(sat)
    sat.label = g.UNSAT
    assert check_answer(sat, answer, model) is not None
    assert check_answer(sat, answer, need_model=False) is not None


def test_self_times_add_up_to_traced_wall():
    r = one_round.run_mode(small_workload(), None, "traced")
    assert not r["errors"]
    t = r["trace"]
    self_total = sum(rec[2] for rec in t["spans"].values())
    remainder = r["raw_s"] - t["root_s"]
    assert 0 <= remainder < r["raw_s"]
    assert abs(self_total + remainder - r["raw_s"]) < 1e-6 * r["raw_s"]
    assert t["spans"]["frontend.compile"][0] == 2 * 9
    assert t["solves"]["conflicts"] == sum(r["conflicts"].values())


def test_hooks_are_restored_and_change_no_answer():
    originals = [vars(owner)[attr] for owner, attr, _ in spans.HOOKS]
    w = small_workload()
    plain = one_round.run_mode(w, None, "plain")
    traced = one_round.run_mode(w, None, "traced")
    assert [vars(owner)[attr] for owner, attr, _ in spans.HOOKS] == originals
    assert plain["answers"] == traced["answers"]
    assert plain["conflicts"] == traced["conflicts"]


def test_cli_round_agrees_with_in_process(tmp_path):
    insts = g.boxed_instances(13, 8)
    w = g.Workload("small", 13, insts, cli_cap=g.BOXED_CAP)
    (tmp_path / "inputs").mkdir()
    for inst in insts:
        (tmp_path / "inputs" / f"{inst.name}.smt2").write_text(inst.text)
    plain = one_round.run_mode(w, tmp_path, "plain")
    via_cli = one_round.run_mode(w, tmp_path, "cli")
    assert not plain["errors"] and not via_cli["errors"]
    assert via_cli["answers"] == plain["answers"]
    assert via_cli["conflicts"] == plain["conflicts"]
    assert via_cli["rows"] == len(insts)
    assert via_cli["trace"]["spans"]["cli.batch"][0] == 1
    traced = one_round.run_mode(w, tmp_path, "traced")
    m = layers.layer_metrics(len(insts), [plain], [traced], plain, via_cli)
    assert m["cli.batch_s"]["value"] > 0 and m["cli.rows"]["value"] == 8


def test_reference_time_scales_with_ticks():
    ref = yardstick.REF_TICK_S
    assert yardstick.scale([ref, ref]) == 1.0
    # A machine running ticks twice as slow halves every reference time.
    assert yardstick.scale([2 * ref, 2 * ref, 9 * ref]) == 0.5
    assert yardstick.tick() > 0


def test_missing_hook_leaves_its_metrics_out(monkeypatch, capsys):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS[:-2] + (
        (smtlib, "no_such_function", "ls.descent"),) + spans.HOOKS[-1:])
    w = small_workload()
    plain = one_round.run_mode(w, None, "plain")
    traced = one_round.run_mode(w, None, "traced")
    assert "ls.descent" in capsys.readouterr().err
    m = layers.layer_metrics(len(w.instances), [plain], [traced], plain, None)
    assert "ls.moves_tried" not in m and "ls.descent_s" not in m
    assert "core.bcp_s" in m and "ls.call_s" in m
    assert plain["answers"] == traced["answers"]
