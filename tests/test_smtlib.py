"""SMT-LIB v2 frontend: tokenizing, parsing, round-trips, solving."""

import hashlib
import itertools
import math
import operator
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import excl_pattern, random_script
from nials import formula_ast as fa
from nials import smtlib
from nials.core import Answer
from nials.errors import ParseError, SortError, UnsupportedError
from nials.terms import Polynomial, Sort

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

    def test_positions_after_multiline_quoted_tokens(self):
        for quote in "|\"":
            text = f"(a {quote}x\ny{quote} b)\n(c)"
            toks = list(smtlib.tokenize(text))
            assert toks[3:6] == [("b", 2, 4), (")", 2, 5), ("(", 3, 1)]

    def test_doubled_quote_in_string(self):
        # SMT-LIB 2.6: `""` inside a string literal stands for one `"`.
        assert smtlib.parse_sexprs('(set-info :source "say ""hi""")') == [
            ["set-info", ":source", '"say ""hi"""']]
        assert smtlib.parse_sexprs('("" """" "a""" "b")') == [
            ['""', '""""', '"a"""', '"b"']]

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            smtlib.parse_sexprs("(a (b)")
        with pytest.raises(ParseError):
            smtlib.parse_sexprs("a))")

    @pytest.mark.parametrize("text, message, line, col", [
        ("(a |x y)", "unterminated quoted symbol", 1, 4),
        ('(a\n  "x y)', "unterminated string literal", 2, 3),
        ('(a "x""y)', "unterminated string literal", 1, 4),
        ('(a "x"" "" y)', "unterminated string literal", 1, 4),
        ("(a #)", "unexpected character '#'", 1, 4),
        ("(a\x0c)", "unexpected character '\\x0c'", 1, 3),
        ("(a)\n b))", "unbalanced ')'", 2, 3),
        ("(a\n(b)", "unbalanced '('", 1, 1),
        # The first error in the text is the one reported.
        ("a) #", "unbalanced ')'", 1, 2),
        ("(a #", "unexpected character '#'", 1, 4),
    ])
    def test_error_positions(self, text, message, line, col):
        with pytest.raises(ParseError) as info:
            smtlib.parse_sexprs(text)
        assert (info.value.line, info.value.column) == (line, col)
        assert str(info.value) == f"{line}:{col}: {message}"


# Random s-expressions and a printing of them with random layout.
_SYMBOL_CHARS = string.ascii_letters + string.digits + "~!@$%^&*_-+=<>.?/:"
_ATOMS = st.one_of(
    st.text(_SYMBOL_CHARS, min_size=1, max_size=5),
    st.text(st.characters(blacklist_characters="|"), max_size=5)
    .map(lambda s: f"|{s}|"),
    st.lists(st.one_of(st.characters(blacklist_characters='"'),
                       st.just('""')), max_size=5)
    .map(lambda cs: '"' + "".join(cs) + '"'))
_SEXPRS = st.lists(st.recursive(_ATOMS, lambda e: st.lists(e, max_size=4),
                                max_leaves=12), max_size=4)
_LAYOUT = st.one_of(
    st.sampled_from([" ", "\t", "\r", "\n"]),
    st.text(st.characters(blacklist_characters="\n"), max_size=8)
    .map(lambda s: f";{s}\n"))


def _print_with_layout(exprs, data) -> str:
    def gap(min_size):
        return "".join(data.draw(st.lists(_LAYOUT, min_size=min_size,
                                          max_size=3)))

    def items(es):
        text = gap(0)
        for i, e in enumerate(es):
            text += (gap(1) if i else "") + show(e)
        return text + gap(0)

    def show(e):
        return e if isinstance(e, str) else "(" + items(e) + ")"

    return items(exprs)


def _position(text: str, offset: int) -> tuple:
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


class TestLexerProperties:
    @settings(deadline=None)
    @given(_SEXPRS, st.data())
    def test_printed_sexprs_parse_back(self, exprs, data):
        text = _print_with_layout(exprs, data)
        assert smtlib.parse_sexprs(text) == exprs
        flat = []

        def flatten(es):
            for e in es:
                if isinstance(e, str):
                    flat.append(e)
                else:
                    flat.append("(")
                    flatten(e)
                    flat.append(")")

        flatten(exprs)
        toks = list(smtlib.tokenize(text))
        assert [t for t, _, _ in toks] == flat
        # Each token is found at its position.
        lines = text.split("\n")
        for tok, line, col in toks:
            start = sum(len(l) + 1 for l in lines[:line - 1]) + col - 1
            assert text.startswith(tok, start)

    @settings(deadline=None)
    @given(_SEXPRS, st.data(),
           st.sampled_from(["|ab", '"ab', '"a""b', ")", "#", "\f"]))
    def test_malformed_text_raises_at_its_position(self, exprs, data, bad):
        text = _print_with_layout(exprs, data) + " "
        with pytest.raises(ParseError) as info:
            smtlib.parse_sexprs(text + bad + " x")
        line, col = _position(text, len(text))
        assert (info.value.line, info.value.column) == (line, col)


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

    @pytest.mark.parametrize("digits", ["²", "٣", "1²"])
    def test_only_ascii_digits_are_numerals(self, digits):
        with pytest.raises(ParseError, match="undeclared identifier"):
            smtlib.parse("(set-logic QF_NIA)(declare-const x Int)"
                         f"(assert (= x {digits}))")

    def test_numeral_too_long_unsupported(self):
        with pytest.raises(UnsupportedError, match="5000 digits"):
            smtlib.parse("(set-logic QF_NIA)(declare-const x Int)"
                         f"(assert (= x {'7' * 5000}))")

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

    @pytest.mark.parametrize("text", [
        # A variable must not shadow a macro, nor a macro a variable.
        "(define-fun a () Int 5)(declare-const a Int)(assert (= a 3))",
        "(declare-const a Int)(define-fun a () Int 5)",
        "(define-fun a () Int 5)(define-fun a () Int 6)",
        "(declare-const a Int)(declare-fun a () Bool)",
        # |a| is the symbol a; true and false are declared by the Core
        # theory.
        "(declare-const a Int)(declare-fun |a| () Int)",
        "(declare-const |a| Int)(define-fun a () Int 5)",
        "(declare-const true Bool)(assert (not true))",
        "(define-fun false () Bool true)",
    ])
    def test_symbol_declared_twice(self, text):
        with pytest.raises(SortError, match="already declared"):
            smtlib.parse("(set-logic QF_NIA)" + text)

    @pytest.mark.parametrize("term", [
        "(= x p)", "(distinct x p)", "(ite (> x 0) x p)"])
    def test_mixed_sort_operands(self, term):
        with pytest.raises(SortError, match="mixed sorts"):
            smtlib.parse("(set-logic QF_NIA)(declare-const x Int)"
                         f"(declare-const p Bool)(assert {term})")

    def test_let_names_must_be_distinct(self):
        with pytest.raises(ParseError, match="x bound twice"):
            smtlib.parse("(set-logic QF_NIA)"
                         "(assert (let ((x 5) (x 6)) (= x 6)))")

    def test_bool_distinct_over_three_unsupported(self):
        with pytest.raises(UnsupportedError):
            smtlib.parse("(set-logic QF_NIA)(declare-const p Bool)"
                         "(declare-const q Bool)(assert (distinct p q true))")


class TestSymbols:
    """`Compiler.symbols` is the one table of names a script can reach."""

    ITE = ("(set-logic QF_NIA)(declare-const x Int)"
           "(assert (= x (ite (> x 0) 1 2)))")

    def test_aux_variable_cannot_be_named(self):
        with pytest.raises(ParseError, match="undeclared identifier ite!0"):
            smtlib.parse(self.ITE + "(assert (= ite!0 7))")

    def test_script_may_declare_an_aux_name(self):
        ans, model = run(self.ITE + "(declare-const ite!0 Int)"
                         "(assert (= ite!0 7))(check-sat)")
        assert ans == "sat"
        assert model.splitlines()[1:-1] == [
            "  (define-fun x () Int 1)", "  (define-fun ite!0 () Int 7)"]

    @pytest.mark.parametrize("decl, use", [
        ("|x|", "x"), ("x", "|x|"), ("|x|", "|x|"), ("|set-x|", "set-x"),
        ("|lets|", "lets")])
    def test_quoted_simple_symbol_is_the_symbol(self, decl, use):
        ans, model = run(f"(declare-const {decl} Int)(assert (> {use} 4))"
                         f"(assert (< (let ((|y| {use})) (* y y)) 30))"
                         "(check-sat)")
        name = use.strip("|")
        assert (ans, model) == ("sat",
                                f"(\n  (define-fun {name} () Int 5)\n)")

    @pytest.mark.parametrize("text", [
        "(declare-const 5 Int)(assert (= 5 3))", '(declare-const "s" Int)',
        "(define-fun :k () Int 1)", "(assert (let ((7 1)) true))"])
    def test_numeral_string_or_keyword_is_no_symbol(self, text):
        with pytest.raises(ParseError, match="expected a symbol"):
            smtlib.parse(text)

    @pytest.mark.parametrize("name", [
        "|42|", "|a b|", "|x:y|", "|é|", "|let|", "|!|", "|set-logic|",
        "|get-unsat-core|"])
    def test_other_quoted_symbols_keep_their_bars(self, name):
        # |42| is a variable, not the numeral 42, and the model names each
        # one quoted, as SMT-LIB needs.
        ans, model = run(f"(declare-const {name} Int)"
                         f"(assert (= (+ {name} 1) 42))(check-sat)")
        assert (ans, model) == ("sat",
                                f"(\n  (define-fun {name} () Int 41)\n)")


def run(text):
    """Answer and printed model (None unless sat) of a script via `solve`."""
    ans, model, _ = smtlib.solve(smtlib.parse(text))
    printed = None if model is None else "\n".join(smtlib.format_model(model))
    return ans.value, printed


class TestExecution:
    def test_example_is_sat_with_model(self):
        ans, model, solver = smtlib.solve(smtlib.parse(EXAMPLE))
        assert ans is Answer.SAT
        printed = "\n".join(smtlib.format_model(model))
        assert printed.startswith("(")
        assert "(define-fun x () Int" in printed

    def test_unsat(self):
        assert run("(set-logic QF_NIA)(declare-const u Int)"
                   "(assert (= (* u u) 2))(check-sat)") == ("unsat", None)

    def test_negative_model_values_use_minus_form(self):
        ans, model = run(
            "(set-logic QF_NIA)(declare-const u Int)"
            "(assert (= (* u u u) (- 27)))(check-sat)(get-model)")
        assert ans == "sat"
        assert "(- 3)" in model

    def test_bool_variables_in_model(self):
        _, model = run("(set-logic QF_NIA)(declare-const p Bool)"
                       "(assert (not p))(check-sat)(get-model)")
        assert "(define-fun p () Bool false)" in model


class TestConstantComparisons:
    """Atoms without variables are evaluated when the solver first sees
    them; answers, `Stats` and models are pinned."""

    DECLS = "(set-logic QF_NIA)(declare-const x Int)(declare-const b Bool)"

    @pytest.mark.parametrize("asserts, answer, stats, model", [
        ("(assert (< 2 1))", "unsat", (1, 0, 1, 0, 0, 0, 0, 0, 0, 0), None),
        ("(assert (<= 1 2))(assert (= x 3))", "sat",
         (0, 0, 3, 1, 0, 0, 0, 0, 0, 0), {"x": 3, "b": True}),
        ("(assert (or (< 2 1) b))", "sat", (0, 0, 2, 0, 0, 0, 0, 0, 0, 0),
         {"x": 0, "b": True}),
        ("(assert (or (> 0 (* 2 0)) (= x (+ x 1))))", "unsat",
         (1, 0, 2, 0, 0, 0, 0, 0, 0, 0), None),
        ("(assert (and (= (- x x) 0) (> x 4)))", "sat",
         (0, 1, 2, 1, 0, 0, 0, 0, 0, 0),
         {"x": 5, "b": True}),
    ])
    def test_answers_and_stats(self, asserts, answer, stats, model):
        ans, got, solver = smtlib.solve(
            smtlib.parse(f"{self.DECLS}{asserts}(check-sat)"))
        assert ans.value == answer
        assert tuple(solver.stats.as_dict().values()) == stats
        if model is None:
            assert got is None
        else:
            assert {name: v for name, _, v in got} == model


class TestTermConstructs:
    def run_sat(self, text):
        return run(text)[0]

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
        ans, model = run(
            "(set-logic QF_NIA)(declare-const c Int)(declare-const r Int)"
            "(assert (= r (ite (> c 0) 1 (- 1))))"
            "(assert (= c 5))(check-sat)(get-model)")
        assert ans == "sat"
        assert "(define-fun r () Int 1)" in model
        # The auxiliary ite variable stays out of the printed model.
        assert "ite!" not in model

    def test_bool_equality_is_iff(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const p Bool)(declare-const q Bool)"
            "(assert (= p q))(assert p)(assert q)(check-sat)") == "sat"
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const p Bool)(declare-const q Bool)"
            "(assert (= p q))(assert p)(assert (not q))(check-sat)") == "unsat"

    def test_distinct_pairwise(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)(declare-const b Int)"
            "(declare-const c Int)(assert (distinct a b c))"
            "(assert (<= 0 a))(assert (<= a 1))(assert (<= 0 b))"
            "(assert (<= b 1))(assert (<= 0 c))(assert (<= c 1))(check-sat)"
        ) == "unsat"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_xor_matches_parity(self, n):
        # (xor a1 ... an) associates to the left, so it holds iff an odd
        # number of its arguments do; the last argument is an atom.
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
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const p Bool)"
            "(declare-const a Int)"
            "(assert (=> p (= a 3)))(assert p)(assert (= a 4))(check-sat)"
        ) == "unsat"

    def test_define_fun_macro(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(define-fun goal () Int 49)"
            "(assert (= (* a a) goal))(check-sat)") == "sat"

    def test_subtraction_variants(self):
        assert self.run_sat(
            "(set-logic QF_NIA)(declare-const a Int)"
            "(assert (= (- 10 a 3) 2))(assert (= a 5))(check-sat)") == "sat"



# Int terms: n-ary +, unary and n-ary -, *, let, Int ite and macros over
# three variables.  The conditions of ites compare Int terms.
INT_VARS = ("x0", "x1", "x2")
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "=": operator.eq, "distinct": operator.ne}


def random_int_term(rng, depth, scope):
    """SMT-LIB text of a random Int term over the names in ``scope``."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return rng.choice(scope)
        return str(rng.randint(0, 6))
    op = rng.choice(("+", "-", "*", "neg", "let", "ite"))
    if op == "neg":
        return f"(- {random_int_term(rng, depth - 1, scope)})"
    if op == "let":
        names = rng.sample(("l0", "l1", "x0"), rng.randint(1, 2))
        binds = " ".join(f"({n} {random_int_term(rng, depth - 1, scope)})"
                         for n in names)
        body = random_int_term(rng, depth - 1, scope + tuple(names))
        return f"(let ({binds}) {body})"
    if op == "ite":
        rel = rng.choice(tuple(COMPARE))
        a, b, then, els = (random_int_term(rng, depth - 1, scope)
                           for _ in range(4))
        return f"(ite ({rel} {a} {b}) {then} {els})"
    args = (random_int_term(rng, depth - 1, scope)
            for _ in range(rng.randint(2, 4)))
    return f"({op} {' '.join(args)})"


def int_value(e, env, ites):
    """Value of the Int s-expression ``e``.  The value each ite takes is
    appended to ``ites``, in the order the compiler makes their variables."""
    if isinstance(e, str):
        return int(e) if e.isdigit() else env[e]
    head, args = e[0], e[1:]
    if head == "let":
        inner = dict(env)
        for name, value in args[0]:
            inner[name] = int_value(value, env, ites)
        return int_value(args[1], inner, ites)
    if head == "ite":
        (rel, a, b), then, els = args
        holds = COMPARE[rel](int_value(a, env, ites), int_value(b, env, ites))
        then, els = int_value(then, env, ites), int_value(els, env, ites)
        ites.append(then if holds else els)
        return ites[-1]
    values = [int_value(a, env, ites) for a in args]
    if head == "*":
        return math.prod(values)
    if head == "-":
        return -values[0] if len(values) == 1 else values[0] - sum(values[1:])
    return sum(values)


class TestIntTerms:
    def test_random_terms_compile_to_their_value(self):
        # Three terms share one compiler, so that its memoised values are
        # reused across terms and let scopes.
        rng = random.Random(41)
        for _ in range(60):
            comp = smtlib.Compiler()
            for v in INT_VARS:
                comp.command(["declare-const", v, "Int"])
            scope, macros = INT_VARS, []
            for k in range(rng.randint(0, 2)):
                body = smtlib.parse_sexprs(random_int_term(rng, 2, scope))[0]
                comp.command(["define-fun", f"m{k}", [], "Int", body])
                macros.append((f"m{k}", body))
                scope += (f"m{k}",)
            terms = [smtlib.parse_sexprs(random_int_term(rng, 4, scope))[0]
                     for _ in range(3)]
            polys = [comp.term(t, {}) for t in terms]
            for t, poly in zip(terms, polys):
                assert isinstance(poly, Polynomial), t
                for m, c in poly.terms.items():
                    assert c != 0 and all(e > 0 for _, e in m), (t, poly)
                    assert [v for v, _ in m] == sorted({v for v, _ in m}), t
            aux = [v.id for v in comp.store.variables if v.is_aux]
            for _ in range(4):
                env = {v: rng.randint(-4, 4) for v in INT_VARS}
                ites = []
                for name, body in macros:
                    env[name] = int_value(body, env, ites)
                wants = [int_value(t, env, ites) for t in terms]
                values = {v.id: env[v.name] for v in comp.store.variables
                          if not v.is_aux}
                values.update(zip(aux, ites))
                for t, poly, want in zip(terms, polys, wants):
                    assert poly.evaluate(values) == want, t
                assert all(fa.evaluate(s, values) for s in comp.side)


class TestNestingLimits:
    """Depths a little below what `solve(parse(…))` accepted under pytest
    when the compiler took two Python frames per nesting level (473, 317
    and 190): a frontend that accepts less fails here."""

    @pytest.mark.parametrize("decl, opens, leaf, closes", [
        ("(declare-const x Int)", ["(> (+ 1 "] + ["(+ 1 "] * 459, "x",
         ")" * 460 + " 0)"),
        ("(declare-const b Bool)", ["(or b ", "(and b "] * 150, "b",
         ")" * 300),
        ("(declare-const b Bool)", ["(not (and b "] * 180, "b", "))" * 180),
    ], ids=["plus-460", "or-and-300", "not-and-180"])
    def test_deep_chain_is_solved(self, decl, opens, leaf, closes):
        text = f"(set-logic QF_NIA){decl}(assert {''.join(opens)}{leaf}{closes})"
        ans, _, _ = smtlib.solve(smtlib.parse(text))
        assert ans is Answer.SAT


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


# Boolean leaves over two Booleans and an atom, with constants: SMT-LIB text
# and truth under (p, q, a).
LEAVES = (("p", lambda p, q, a: p), ("q", lambda p, q, a: q),
          ("(> a 0)", lambda p, q, a: a > 0),
          ("true", lambda p, q, a: True), ("false", lambda p, q, a: False))


def _implies(values):
    acc = values[-1]
    for v in reversed(values[:-1]):
        acc = (not v) or acc
    return acc


COMBINE = {
    "and": all,
    "or": any,
    "=>": _implies,
    "=": lambda vs: all(x == y for x, y in zip(vs, vs[1:])),
    "xor": lambda vs: sum(vs) % 2 == 1,
}


def random_bool(rng, depth):
    """(text, truth function) of a random Bool term with constant leaves."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    op = rng.choice(("and", "or", "not", "=>", "ite", "=", "xor"))
    if op == "not":
        text, f = random_bool(rng, depth - 1)
        return f"(not {text})", lambda *v: not f(*v)
    if op == "ite":
        (ct, cf), (tt, tf), (et, ef) = (random_bool(rng, depth - 1)
                                        for _ in range(3))
        return (f"(ite {ct} {tt} {et})",
                lambda *v: tf(*v) if cf(*v) else ef(*v))
    subs = [random_bool(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    text = f"({op} {' '.join(t for t, _ in subs)})"
    fs = [f for _, f in subs]
    return text, lambda *v: COMBINE[op]([f(*v) for f in fs])


class TestConstantsBelowRoot:
    DECLS = ("(set-logic QF_NIA)(declare-const p Bool)(declare-const q Bool)"
             "(declare-const a Int)")

    def answer(self, term, fix=""):
        return run(f"{self.DECLS}(assert {term}){fix}(check-sat)")[0]

    @pytest.mark.parametrize("term, expected", [
        ("(and p (or false (> a 0)))", "sat"),
        ("(and p (not true))", "unsat"),
        ("(or false (and q false))", "unsat"),
        ("(=> false p)", "sat"),
        ("(not (=> p false))", "sat"),
        ("(and (= p true) (= q false) (= (> a 0) p))", "sat"),
        ("(and (xor p true) p)", "unsat"),
        ("(ite true (> a 0) false)", "sat"),
        ("(ite p false (not p))", "sat"),
        ("(and (ite q true false) (not q))", "unsat"),
    ])
    def test_fixed_terms(self, term, expected):
        assert self.answer(term) == expected

    def test_random_terms_match_enumeration(self):
        rng = random.Random(5)
        points = list(itertools.product((False, True), (False, True), (0, 1)))
        with_constants = 0
        for _ in range(40):
            term, truth = random_bool(rng, 3)
            with_constants += ("true" in term or "false" in term)
            assert self.answer(term) == (
                "sat" if any(truth(*pt) for pt in points) else "unsat"), term
            for p, q, a in points:
                fix = (f"(assert {'p' if p else '(not p)'})"
                       f"(assert {'q' if q else '(not q)'})(assert (= a {a}))")
                assert self.answer(term, fix) == (
                    "sat" if truth(p, q, a) else "unsat"), (term, p, q, a)
        assert with_constants > 20


def atom_digest(scripts):
    """SHA-256 over every compiled atom: id, terms in order, relation,
    `helpers.excl_pattern` and ``vars``."""
    h = hashlib.sha256()
    for text in scripts:
        store = smtlib.compile_script(smtlib.Script(smtlib.parse_sexprs(text))).store
        h.update(repr([(a.id, list(a.poly.terms.items()), a.rel.name,
                        excl_pattern(a), a.vars)
                       for a in store._atoms.values()]).encode())
    return h.hexdigest()


class TestPinnedAtoms:
    """Atom tables recorded before the compiler's hot path was reworked.

    Narrowing and the local-search cost evaluator iterate an atom's terms
    in order, so a faster frontend must give the same atoms, in the same
    order, with the same term order."""

    def test_pinned_scripts(self):
        from test_clausify import PINNED_SCRIPTS
        assert atom_digest(PINNED_SCRIPTS) == (
            "71086772aeb697e13a15144663b9da657e56d0a118860210c59a6f6d96e0c63e")

    def test_planted_like_scripts(self):
        rng = random.Random(31)
        assert atom_digest(random_script(rng, n_int=6, n_bool=2, n_clauses=40)
                           for _ in range(25)) == (
            "75a3ea1cf1a1c6ff74e62b72697f937f4df42ac40a774943cc160d9fce439ceb")

    def test_boxed_like_scripts(self):
        rng = random.Random(32)
        assert atom_digest(random_script(rng, n_int=rng.randint(1, 3),
                                         n_bool=rng.randint(0, 1),
                                         n_clauses=rng.randint(2, 5),
                                         box=(-8, 8), coeff=4)
                           for _ in range(60)) == (
            "b6ee994da90e97ae8603ea47a2d44d15ff50a748a278c8407a8f077f16ebe022")
