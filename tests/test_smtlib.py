"""SMT-LIB v2 frontend: tokenizing, parsing, round-trips, execution."""

import pytest

from nials import smtlib
from nials.core import Answer
from nials.errors import ParseError, SortError, UnsupportedError
from nials.terms import Sort

EXAMPLE = """
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (or (not (>= x 1)) (= (* x y) 1)))
(assert (or (not (= (* x y) 1)) (> (+ x (* 2 y z)) 0)))
(assert (> (* z z) 1))
(check-sat)
(get-model)
"""


class TestTokenizer:
    def test_positions(self):
        toks = list(smtlib.tokenize("(foo\n  bar)"))
        assert toks == [("(", 1, 1), ("foo", 1, 2), ("bar", 2, 3),
                        (")", 2, 6)]

    def test_comments_skipped(self):
        toks = [t for t, _, _ in smtlib.tokenize("a ; comment\nb")]
        assert toks == ["a", "b"]

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            smtlib.parse_sexprs("(a (b)")
        with pytest.raises(ParseError):
            smtlib.parse_sexprs("a))")


class TestRoundTrip:
    def test_parse_print_reparse_identical(self):
        script = smtlib.parse(EXAMPLE)
        text = "\n".join(smtlib.print_sexpr(c) for c in script.commands)
        assert smtlib.parse(text).commands == script.commands

    def test_whitespace_and_comments_do_not_matter(self):
        a = smtlib.parse("(set-logic QF_NIA)(declare-const v Int)"
                         "(assert (= v 3))(check-sat)")
        b = smtlib.parse("""
            (set-logic QF_NIA)  ; a comment
            (declare-const v Int)
            (assert (= v   3))
            (check-sat)
        """)
        assert a.commands == b.commands


class TestErrors:
    def test_unsupported_logic(self):
        with pytest.raises(UnsupportedError):
            smtlib.parse("(set-logic QF_BV)")

    def test_div_names_operator(self):
        with pytest.raises(UnsupportedError, match="div"):
            smtlib.parse("(set-logic QF_NIA)(declare-const a Int)"
                         "(assert (= (div a 2) 1))")

    def test_uninterpreted_function_rejected(self):
        with pytest.raises(UnsupportedError):
            smtlib.parse("(set-logic QF_NIA)(declare-fun f (Int) Int)")

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError):
            smtlib.parse("(set-logic QF_NIA)(assert (= q 1))")

    def test_sort_mismatch(self):
        with pytest.raises(SortError):
            smtlib.parse("(set-logic QF_NIA)(declare-const b Bool)"
                         "(assert (< b 1))")

    def test_assert_after_check_sat_rejected(self):
        # Answering both check-sats for all assertions would make the first
        # answer wrong: x > 0 alone is sat.
        with pytest.raises(UnsupportedError, match="check-sat"):
            smtlib.parse("(set-logic QF_NIA)(declare-const x Int)"
                         "(assert (> x 0))(check-sat)"
                         "(assert (< x 0))(check-sat)")


class TestExecution:
    def test_example_is_sat_with_model(self):
        out, solver = smtlib.execute(smtlib.parse(EXAMPLE))
        assert out[0] == "sat"
        assert out[1].startswith("(")
        assert "(define-fun x () Int" in out[1]
        assert solver.answer is Answer.SAT

    def test_unsat(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const u Int)"
            "(assert (= (* u u) 2))(check-sat)"))
        assert out == ["unsat"]

    def test_negative_model_values_use_minus_form(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const u Int)"
            "(assert (= (* u u u) (- 27)))(check-sat)(get-model)"))
        assert out[0] == "sat"
        assert "(- 3)" in out[1]

    def test_get_model_without_sat_is_error(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const u Int)(get-model)"))
        assert "error" in out[0]

    def test_exit_stops_execution(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(exit)(check-sat)"))
        assert out == []

    def test_bool_variables_in_model(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const p Bool)"
            "(assert (not p))(check-sat)(get-model)"))
        assert "(define-fun p () Bool false)" in out[1]


class TestTermConstructs:
    def run_sat(self, text):
        out, _ = smtlib.execute(smtlib.parse(text))
        return out[0]

    def test_let(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(assert (let ((s (+ a 1))) (= (* s s) 9)))(check-sat)") == "sat"

    def test_let_shadowing_uses_outer_env(self):
        # Both bindings are evaluated in the outer environment.
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(assert (let ((a (+ a 1)) (b a)) (and (= a 3) (= b 2))))"
            "(check-sat)") == "sat"

    def test_int_ite_becomes_constraint(self):
        script = smtlib.parse(
            "(set-logic QF_NIA)(declare-const c Int)(declare-const r Int)"
            "(assert (= r (ite (> c 0) 1 (- 1))))"
            "(assert (= c 5))(check-sat)(get-model)")
        out, solver = smtlib.execute(script)
        assert out[0] == "sat"
        assert "(define-fun r () Int 1)" in out[1]
        # The auxiliary ite variable stays out of the printed model.
        assert "ite!" not in out[1]

    def test_bool_equality_is_iff(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const p Bool)(declare-const q Bool)"
            "(assert (= p q))(assert p)(assert q)(check-sat)") == "sat"
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const p Bool)(declare-const q Bool)"
            "(assert (= p q))(assert p)(assert (not q))(check-sat)"))
        assert out == ["unsat"]

    def test_distinct_pairwise(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const a Int)(declare-const b Int)"
            "(declare-const c Int)(assert (distinct a b c))"
            "(assert (<= 0 a))(assert (<= a 1))(assert (<= 0 b))"
            "(assert (<= b 1))(assert (<= 0 c))(assert (<= c 1))(check-sat)"))
        assert out == ["unsat"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_xor_matches_parity(self, n):
        # (xor a1 ... an) associates to the left, so it holds iff an odd
        # number of its arguments do; the last argument is an atom.
        import itertools
        decls = "".join(f"(declare-const p{i} Bool)" for i in range(n - 1))
        args = " ".join(f"p{i}" for i in range(n - 1)) + " (> a 0)"
        for values in itertools.product((False, True), repeat=n):
            fix = "".join(f"(assert p{i})" if v else f"(assert (not p{i}))"
                          for i, v in enumerate(values[:-1]))
            fix += f"(assert (= a {1 if values[-1] else 0}))"
            out = self.run_sat(
                f"(set-logic QF_NIA)(declare-const a Int){decls}"
                f"(assert (xor {args})){fix}(check-sat)")
            assert out == ("sat" if sum(values) % 2 else "unsat"), values

    def test_xor_needs_two_arguments(self):
        with pytest.raises(ParseError):
            smtlib.parse("(set-logic QF_NIA)(declare-const p Bool)"
                         "(assert (xor p))")

    def test_chained_comparison(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)(declare-const b Int)"
            "(assert (< 1 a b 4))(assert (= (+ a b) 5))(check-sat)") == "sat"

    def test_implication(self):
        out, _ = smtlib.execute(smtlib.parse(
            "(set-logic QF_NIA)(declare-const p Bool)"
            "(declare-const a Int)"
            "(assert (=> p (= a 3)))(assert p)(assert (= a 4))(check-sat)"))
        assert out == ["unsat"]

    def test_define_fun_macro(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(define-fun goal () Int 49)"
            "(assert (= (* a a) goal))(check-sat)") == "sat"

    def test_subtraction_variants(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(assert (= (- 10 a 3) 2))(assert (= a 5))(check-sat)") == "sat"


class TestSolveHelper:
    def test_solve_returns_verified_model(self):
        script = smtlib.parse(
            "(set-logic QF_NIA)(declare-const a Int)(declare-const p Bool)"
            "(assert (or p (= a 2)))(assert (not p))")
        ans, model, solver = smtlib.solve(script)
        assert ans is Answer.SAT
        entries = {name: (sort, value) for name, sort, value in model}
        assert entries["a"] == (Sort.INT, 2)
        assert entries["p"] == (Sort.BOOL, False)

    def test_solve_twice_same_result(self):
        script = smtlib.parse(EXAMPLE)
        first = smtlib.solve(script)
        second = smtlib.solve(script)
        assert first[0] is second[0] is Answer.SAT
        assert first[1] == second[1]
        assert first[2].stats.as_dict() == second[2].stats.as_dict()
