"""Command-line interface: answers, stats block, exit codes, benchmark CSV."""

import csv
import io
import os
import subprocess
import sys
import time

import pytest

import nials
from helpers import ls_constants
from nials import cli, core, localsearch, smtlib
from nials.errors import DuplicateAssignment, InternalError
from nials.trail import Trail

EXAMPLE = """(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (or (not (>= x 1)) (= (* x y) 1)))
(assert (or (not (= (* x y) 1)) (> (+ x (* 2 y z)) 0)))
(assert (> (* z z) 1))
(check-sat)
"""

UNSAT = """(set-logic QF_NIA)
(declare-const u Int)
(assert (= (* u u) 2))
(check-sat)
"""

BAD = """(set-logic QF_NIA)
(declare-const u Int)
(assert (= (div u 2) 1))
(check-sat)
"""

# (+ 1 (+ 1 ... x)) nested far beyond Python's recursion limit.
DEEP = ("(set-logic QF_NIA)\n(declare-const x Int)\n(assert (> "
        + "(+ 1 " * 3000 + "x" + ")" * 3000 + " 0))\n(check-sat)\n")

# Latin-1 bytes in a comment, a superscript two in numeral position, and
# a numeral longer than Python reads into an int.
# Unsatisfiable over three Booleans: deciding a propagates c and falsifies
# the last clause, a conflict with two literals at the decision level.
BOOL_UNSAT = """(set-logic QF_NIA)
(declare-const a Bool)
(declare-const b Bool)
(declare-const c Bool)
(assert (or a b))
(assert (or a (not b)))
(assert (or (not a) c))
(assert (or (not a) (not c)))
(check-sat)
"""

NOT_UTF8 = b"(set-logic QF_NIA) ; caf\xe9\n(check-sat)\n"
NON_ASCII_NUMERAL = ("(set-logic QF_NIA)(declare-const x Int)"
                     "(assert (= x \u00b2))(check-sat)").encode()
LONG_NUMERAL = ("(set-logic QF_NIA)(declare-const x Int)"
                f"(assert (= x {'7' * 5000}))(check-sat)").encode()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("ex1", EXAMPLE), ("unsat", UNSAT), ("bad", BAD)):
        p = tmp_path / f"{name}.smt2"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    if os.path.isdir(args.path):
        code = cli.bench_dir(config, args.path, out=out, err=err,
                             csv_out=args.csv_out)
    else:
        code = cli.solve_file(config, args.path, out=out, err=err,
                              print_model=args.print_model,
                              print_stats=args.print_stats)
    return code, out.getvalue(), err.getvalue()


class TestSolveFile:
    def test_sat_first_line(self, files):
        code, out, _ = run_main([files["ex1"]])
        assert code == 0
        assert out.splitlines()[0] == "sat"

    def test_print_model_verifies(self, files):
        code, out, _ = run_main([files["ex1"], "--print-model"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sat"
        assert any("define-fun x () Int" in l for l in lines)

    def test_no_ls_same_answer(self, files):
        _, with_ls, _ = run_main([files["ex1"]])
        _, without, _ = run_main([files["ex1"], "--no-ls"])
        assert with_ls.splitlines()[0] == without.splitlines()[0]

    def test_stats_block_format(self, files):
        code, out, _ = run_main([files["unsat"], "--print-stats"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "unsat"
        stat_lines = [l for l in lines[1:] if l.startswith("; ")]
        keys = [l[2:].split("=", 1)[0] for l in stat_lines]
        assert keys == ["conflicts", "decisions", "propagations",
                        "theory_assignments", "ls_calls", "ls_moves_accepted",
                        "ls_zero", "restarts", "bounds", "unit_props",
                        "answer", "wall_ms"]
        values = dict(l[2:].split("=", 1) for l in stat_lines)
        assert values["answer"] == "unsat"
        float(values["wall_ms"])

    def test_parse_error_exit_2(self, files):
        code, out, err = run_main([files["bad"]])
        assert code == 2
        assert "div" in err
        assert out == ""

    def test_compile_error_has_no_position(self, tmp_path):
        p = tmp_path / "undeclared.smt2"
        p.write_text("(set-logic QF_NIA)(declare-const x Int)"
                     "(assert (> (+ x y) 0))(check-sat)")
        code, out, err = run_main([str(p)])
        assert (code, out) == (2, "")
        assert err == f"{p}: error: undeclared identifier y\n"

    def test_symbol_declared_twice_exit_2(self, tmp_path):
        p = tmp_path / "twice.smt2"
        p.write_text("(set-logic QF_NIA)(define-fun a () Int 5)"
                     "(declare-const a Int)(assert (= a 3))(check-sat)")
        code, out, err = run_main([str(p)])
        assert code == 2
        assert "already declared" in err
        assert out == ""

    @pytest.mark.parametrize("command, bad", [
        ("(declare-const (x) Int)", "(x)"), ("(declare-fun (x) () Int)", "(x)"),
        ("(define-fun (x) () Int 1)", "(x)"),
        ("(set-logic (QF_NIA))", "(QF_NIA)")])
    def test_list_for_a_symbol_exit_2(self, tmp_path, command, bad):
        # Bad input, not an internal error with a traceback.
        p = tmp_path / "list.smt2"
        p.write_text(command + "(check-sat)")
        code, out, err = run_main([str(p)])
        assert (code, out) == (2, "")
        assert err == f"{p}: error: expected a symbol, got {bad}\n"

    def test_deep_nesting_exit_2(self, tmp_path):
        p = tmp_path / "deep.smt2"
        p.write_text(DEEP)
        code, out, err = run_main([str(p)])
        assert code == 2
        assert "nested too deeply" in err
        assert out == ""

    def test_recursion_error_in_search_is_internal_error(self, files,
                                                         monkeypatch):
        # Only input nested too deeply is a usage error; the search does
        # not recurse with the input's depth.
        def recurse(self):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(core.Solver, "check_sat", recurse)
        code, out, err = run_main([files["ex1"]])
        assert (code, out) == (3, "")
        assert "internal error" in err and "nested too deeply" not in err

    def test_non_utf8_file_exit_2(self, tmp_path):
        path = tmp_path / "latin1.smt2"
        path.write_bytes(NOT_UTF8)
        code, out, err = run_main([str(path)])
        assert (code, out) == (2, "")
        assert "not UTF-8" in err

    def test_missing_file_exit_2(self, files):
        code, _, err = run_main([os.path.join(files["dir"], "nope.smt2")])
        assert code == 2
        assert err

    def test_max_conflicts_unknown_still_exit_0(self, tmp_path):
        p = tmp_path / "hard.smt2"
        p.write_text(
            "(set-logic QF_NIA)(declare-const x Int)(declare-const y Int)"
            "(assert (<= (- 1000) x))(assert (<= x 1000))"
            "(assert (<= (- 1000) y))(assert (<= y 1000))"
            "(assert (= (* x y) 1009))(check-sat)")
        code, out, _ = run_main([str(p), "--max-conflicts", "5"])
        assert code == 0
        assert out.splitlines()[0] == "unknown"

    def test_failed_model_check_exit_3_under_optimize(self, files):
        # `python -O` strips asserts; the model check must still refuse.
        src = os.path.dirname(os.path.dirname(nials.__file__))
        code = ("import sys; from nials import cli, core; "
                "core.Solver._model_lit = lambda self, lit: False; "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, files["ex1"]],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert "sat" not in proc.stdout.split()
        assert "internal error" in proc.stderr

    def test_duplicate_assignment_is_internal_error(self, files,
                                                    monkeypatch):
        def duplicate(self, var, *args, **kwargs):
            raise DuplicateAssignment(f"variable {var} already assigned")
        monkeypatch.setattr(Trail, "push_model_assignment", duplicate)
        code, out, err = run_main([files["ex1"]])
        assert code == 3
        assert out == ""
        assert "internal error" in err


    def test_unexpected_exception_exit_3(self, files, monkeypatch):
        def boom(script, config=None):
            raise RuntimeError("boom")
        monkeypatch.setattr(smtlib, "solve", boom)
        code, out, err = run_main([files["ex1"]])
        assert code == 3
        assert out == ""
        assert f"{files['ex1']}: internal error: RuntimeError: boom" in err
        assert "Traceback" in err

    def test_irreducible_analysis_is_internal_error(self, tmp_path,
                                                   monkeypatch):
        # With every conflict literal irreducible, analysis cannot reduce
        # the conflict to one literal at its level.
        p = tmp_path / "bools.smt2"
        p.write_text(BOOL_UNSAT)
        monkeypatch.setattr(core.Solver, "_resolve_lit",
                            lambda self, lit, pos: None)
        code, out, err = run_main([str(p)])
        assert code == 3
        assert out == ""
        assert "internal error" in err

    def test_irreducible_analysis_exit_3_under_optimize(self, tmp_path):
        # `python -O` strips asserts; analysis must still stop and refuse.
        p = tmp_path / "bools.smt2"
        p.write_text(BOOL_UNSAT)
        src = os.path.dirname(os.path.dirname(nials.__file__))
        code = ("import sys; from nials import cli, core; "
                "core.Solver._resolve_lit = lambda self, lit, pos: None; "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, str(p)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "internal error" in proc.stderr


class TestBenchDir:
    def read_csv(self, path):
        with open(path) as f:
            return list(csv.reader(f))

    def test_csv_shape(self, files, tmp_path):
        out_path = str(tmp_path / "results.csv")
        code, _, _ = run_main([files["dir"], "--csv", out_path])
        assert code == 0
        rows = self.read_csv(out_path)
        assert rows[0] == list(cli.CSV_COLUMNS)
        data = {r[0]: r for r in rows[1:]}
        assert data["ex1.smt2"][1] == "sat"
        assert data["unsat.smt2"][1] == "unsat"
        assert data["bad.smt2"][1] == "error"
        assert len(rows) == 4

    def test_csv_header_is_stats_keys(self, files, tmp_path):
        # The CSV carries the same counters as --print-stats.
        out_path = str(tmp_path / "results.csv")
        run_main([files["dir"], "--csv", out_path])
        assert self.read_csv(out_path)[0] == \
            ["name", "answer", "wall_ms", *core.Stats().as_dict()]

    def test_rows_sorted_by_name(self, files, tmp_path):
        out_path = str(tmp_path / "results.csv")
        run_main([files["dir"], "--csv", out_path])
        names = [r[0] for r in self.read_csv(out_path)[1:]]
        assert names == sorted(names)

    def test_deterministic_modulo_wall_ms(self, files, tmp_path):
        p1 = str(tmp_path / "r1.csv")
        p2 = str(tmp_path / "r2.csv")
        run_main([files["dir"], "--csv", p1])
        run_main([files["dir"], "--csv", p2])
        wall_col = cli.CSV_COLUMNS.index("wall_ms")

        def strip(rows):
            return [[c for i, c in enumerate(r) if i != wall_col]
                    for r in rows]

        assert strip(self.read_csv(p1)) == strip(self.read_csv(p2))

    def test_no_ls_answers_match(self, files, tmp_path):
        p1 = str(tmp_path / "ls.csv")
        p2 = str(tmp_path / "nols.csv")
        run_main([files["dir"], "--csv", p1])
        run_main([files["dir"], "--no-ls", "--csv", p2])
        answers = lambda p: [(r[0], r[1]) for r in self.read_csv(p)[1:]]
        assert answers(p1) == answers(p2)

    def test_failed_model_check_is_error_row(self, files, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(core.Solver, "_model_lit",
                            lambda self, lit: False)
        out_path = str(tmp_path / "results.csv")
        assert run_main([files["dir"], "--csv", out_path])[0] == 0
        data = {r[0]: r for r in self.read_csv(out_path)[1:]}
        assert data["ex1.smt2"][1] == "error"
        assert data["unsat.smt2"][1] == "unsat"

    def test_internal_error_reported_as_in_single_file(self, files, tmp_path,
                                                       monkeypatch):
        # A failed model check is an internal error in a directory run too,
        # worded as a single-file run words it; the row reads `error` and
        # the run goes on.
        def refuse(self, values):
            raise InternalError("model does not satisfy (x)")

        monkeypatch.setattr(core.Solver, "_set_model", refuse)
        code, _, single = run_main([files["ex1"]])
        assert code == 3
        out_path = str(tmp_path / "results.csv")
        code, _, err = run_main([files["dir"], "--csv", out_path])
        assert code == 0
        data = {r[0]: r[1] for r in self.read_csv(out_path)[1:]}
        assert data == {"bad.smt2": "error", "ex1.smt2": "error",
                        "unsat.smt2": "unsat"}
        message = f"{files['ex1']}: internal error: model does not satisfy (x)"
        assert single.strip() == message
        assert message in err.splitlines()
        assert f"{files['ex1']}: error:" not in err

    def test_unexpected_exception_is_error_row(self, tmp_path, monkeypatch):
        for name, text in (("a", EXAMPLE), ("b", EXAMPLE), ("c", UNSAT)):
            (tmp_path / f"{name}.smt2").write_text(text)
        solve, calls = smtlib.solve, []

        def second_fails(script, config=None):
            calls.append(script)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return solve(script, config)

        monkeypatch.setattr(smtlib, "solve", second_fails)
        out_path = str(tmp_path / "results.csv")
        code, _, err = run_main([str(tmp_path), "--csv", out_path])
        assert code == 0
        rows = [(r[0], r[1]) for r in self.read_csv(out_path)[1:]]
        assert rows == [("a.smt2", "sat"), ("b.smt2", "error"),
                        ("c.smt2", "unsat")]
        assert "b.smt2: internal error: RuntimeError: boom" in err
        assert "Traceback" in err

    def test_deep_nesting_is_error_row(self, tmp_path):
        (tmp_path / "deep.smt2").write_text(DEEP)
        (tmp_path / "ex1.smt2").write_text(EXAMPLE)
        out_path = str(tmp_path / "results.csv")
        assert run_main([str(tmp_path), "--csv", out_path])[0] == 0
        rows = self.read_csv(out_path)
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("deep.smt2", "error"), ("ex1.smt2", "sat")]

    @pytest.mark.parametrize("data", [NOT_UTF8, NON_ASCII_NUMERAL,
                                      LONG_NUMERAL])
    def test_bad_text_is_error_row(self, tmp_path, data):
        (tmp_path / "bad.smt2").write_bytes(data)
        (tmp_path / "ex1.smt2").write_text(EXAMPLE)
        out_path = str(tmp_path / "results.csv")
        assert run_main([str(tmp_path), "--csv", out_path])[0] == 0
        rows = self.read_csv(out_path)
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("bad.smt2", "error"), ("ex1.smt2", "sat")]

    def test_unwritable_csv_solves_nothing(self, files, tmp_path,
                                           monkeypatch, capsys):
        def no_solving(script, config=None):
            raise AssertionError("solved before the CSV file was opened")

        monkeypatch.setattr(smtlib, "solve", no_solving)
        out_path = str(tmp_path / "missing" / "out.csv")
        assert cli.main([files["dir"], "--csv", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not os.path.exists(out_path)

    def test_stdout_when_no_csv_flag(self, files):
        code, out, _ = run_main([files["dir"]])
        assert code == 0
        assert out.splitlines()[0] == ",".join(cli.CSV_COLUMNS)


class TestMain:
    def test_config_defaults_match_parser(self, files):
        args = cli.build_parser().parse_args([files["ex1"]])
        assert vars(cli.config_from_args(args)) == vars(nials.SolverConfig())
        assert sorted(vars(nials.SolverConfig())) == [
            "ls_enabled", "max_conflicts", "timeout_ms"]

    def test_main_returns_exit_code(self, files, capsys):
        assert cli.main([files["ex1"]]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "sat"
        assert cli.main([files["bad"]]) == 2

    @pytest.mark.parametrize("target, option", [
        ("ex1", "--csv"), ("dir", "--print-model"), ("dir", "--print-stats")])
    def test_option_for_other_target_is_usage_error(self, files, tmp_path,
                                                    target, option, capsys):
        # --csv applies to directory runs only, --print-model and
        # --print-stats to single files only.
        out_path = str(tmp_path / "out.csv")
        argv = [option, out_path] if option == "--csv" else [option]
        with pytest.raises(SystemExit) as e:
            cli.main([files[target], *argv])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err
        assert not os.path.exists(out_path)


# Local search before the first decision reaches hill-climbing, where the
# step is multiplied and divided by the acceleration constant.
TWO_VARS = """(set-logic QF_NIA)
(declare-const x Int)
(declare-const y Int)
(assert (= (* x y) 12))
(assert (> x 2))
(check-sat)
"""


# An accepted hill-climbing move of about `acc` units makes the next step
# about `acc` too, so a huge constant drives the step towards the float
# range.
THREE_VARS = """(set-logic QF_NIA)
(declare-const x Int)
(declare-const y Int)
(declare-const z Int)
(assert (or (> x 1000) (> y 1000)))
(assert (or (> y 1000) (= z 1)))
(check-sat)
"""


class TestAcc:
    """`localsearch.DEFAULT_ACC` reaches the search through the solver;
    the acceleration constant is not a command-line option."""

    @pytest.fixture
    def paths(self, tmp_path):
        (tmp_path / "two.smt2").write_text(TWO_VARS)
        return {"file": str(tmp_path / "two.smt2"), "dir": str(tmp_path)}

    @pytest.fixture
    def big(self, tmp_path):
        (tmp_path / "big.smt2").write_text(THREE_VARS)
        return {"file": str(tmp_path / "big.smt2"), "dir": str(tmp_path)}

    @pytest.mark.parametrize("acc", ["1e200", "1e-300",
                                     "1.7976931348623157e308"])
    def test_huge_step_answers(self, big, acc):
        with ls_constants(threshold_base=0, acc=float(acc)):
            code, out, err = run_main([big["file"], "--print-model"])
        assert code == 0, err
        assert out.splitlines()[0] == "sat"

    def test_huge_step_directory_row(self, big, tmp_path):
        csv_path = tmp_path / "out.csv"
        with ls_constants(threshold_base=0, acc=1e200):
            code, _, err = run_main([big["dir"], "--csv", str(csv_path)])
        assert code == 0, err
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["name"], r["answer"]) for r in rows] == [
            ("big.smt2", "sat")]

    @pytest.mark.parametrize("target", ["file", "dir"])
    @pytest.mark.parametrize("acc", ["0", "-1", "inf", "nan"])
    def test_bad_acc_is_usage_error(self, paths, target, acc, capsys):
        # There is no --acc option, so every value of it is refused.
        with pytest.raises(SystemExit) as e:
            cli.main([paths[target], f"--acc={acc}"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--acc" in captured.err

    def test_acc_below_one_answers(self, paths, capsys):
        with ls_constants(threshold_base=0, acc=0.5):
            assert cli.main([paths["file"]]) == 0
        assert capsys.readouterr().out.splitlines() == ["sat"]


# Unsatisfiable, but not at level 0: the search enumerates values of x
# and y, and local search never reaches cost 0.
FOUR_VARS = """(set-logic QF_NIA)
(declare-const x Int)
(declare-const y Int)
(declare-const z Int)
(declare-const w Int)
(assert (> (+ z w) 3))
(assert (= (* x x) (* 2 y y)))
(assert (> y 0))
(check-sat)
"""

CYCLE = """(set-logic QF_NIA)
(declare-const x Int)
(declare-const y Int)
(assert (= x (+ y 1)))
(assert (= y (+ x 1)))
(check-sat)
"""


class TestLimits:
    @pytest.fixture
    def four(self, tmp_path):
        p = tmp_path / "four.smt2"
        p.write_text(FOUR_VARS)
        return {"file": str(p), "dir": str(tmp_path)}

    def test_threshold_base_zero_ends(self, four):
        # Each local-search call restarts the search; a threshold that did
        # not grow would call it again before every decision, for good.
        src = os.path.dirname(os.path.dirname(nials.__file__))
        code = ("import sys; from nials import bridge, cli; "
                "bridge.LS_THRESHOLD_BASE = 0; "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, four["file"], "--max-conflicts",
             "20", "--print-stats"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "unknown"
        assert "; conflicts=20" in lines

    @pytest.mark.parametrize("target", ["file", "dir"])
    @pytest.mark.parametrize("option", ["--max-conflicts", "--timeout-ms"])
    def test_negative_limit_is_usage_error(self, four, target, option,
                                           capsys):
        with pytest.raises(SystemExit) as e:
            cli.main([four[target], f"{option}=-1"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

    @pytest.mark.parametrize("option", ["--ls-threshold-base", "--ls-budget",
                                        "--acc"])
    def test_removed_ls_option_is_usage_error(self, four, option, capsys):
        # The local-search tuning settings are module constants
        # (`bridge.LS_THRESHOLD_BASE`, `bridge.LS_BUDGET_PER_VAR`,
        # `localsearch.DEFAULT_ACC`), not options.
        with pytest.raises(SystemExit) as e:
            cli.main([four["file"], option, "2"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

    def test_zero_limits_answer(self, four, capsys):
        with ls_constants(budget_per_var=0):
            assert cli.main([four["file"], "--max-conflicts", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["unknown"]

    def test_timeout_holds_in_critical_phase(self, tmp_path, monkeypatch):
        # x = y + 1 and y = x + 1: each critical move makes one equation
        # true and the other false, so with no patience limit and no
        # budget to speak of only the deadline ends the call.
        p = tmp_path / "cycle.smt2"
        p.write_text(CYCLE)
        monkeypatch.setattr(localsearch, "CRITICAL_PATIENCE", 10 ** 12)
        t0 = time.monotonic()
        with ls_constants(threshold_base=1, budget_per_var=10 ** 12):
            code, out, err = run_main([str(p), "--timeout-ms", "300"])
        elapsed = time.monotonic() - t0
        assert code == 0, err
        assert out.splitlines() == ["unknown"]
        assert elapsed < 10


class TestZeroCostCheck:
    @staticmethod
    def corrupt(run):
        """`localsearch.run` with every result set to cost 0 and every
        integer value to 0, which violates ``z·z > 1``."""
        def corrupted(problem, *args, **kwargs):
            result = run(problem, *args, **kwargs)
            result.values = {k: 0 for k in result.values}
            result.cost, result.reached_zero = 0, True
            return result
        return corrupted

    def test_corrupted_result_exit_3(self, files, monkeypatch):
        monkeypatch.setattr(localsearch, "run", self.corrupt(localsearch.run))
        with ls_constants(threshold_base=0):
            code, out, err = run_main([files["ex1"]])
        assert code == 3
        assert out == ""
        assert "internal error" in err

    def test_corrupted_result_exit_3_under_optimize(self, files):
        # `python -O` strips asserts; the check of a zero-cost assignment
        # must still refuse.
        src = os.path.dirname(os.path.dirname(nials.__file__))
        code = ("import sys; from nials import bridge, cli, localsearch; "
                "from test_cli import TestZeroCostCheck; "
                "bridge.LS_THRESHOLD_BASE = 0; "
                "localsearch.run = "
                "TestZeroCostCheck.corrupt(localsearch.run); "
                "sys.exit(cli.main(sys.argv[1:]))")
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, files["ex1"]],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "sat" not in proc.stdout.split()
        assert "internal error" in proc.stderr
