"""SMT-LIB v2 frontend for the QF_NIA subset the solver understands.

Scripts are kept as parsed s-expressions for faithful round-trip printing;
a compilation pass turns assertions into Boolean structures over the term
store, in negation normal form with constants folded.  A compiled term's
sort is its type: a `Polynomial` is an Int term, anything else a Bool one.
Zero-arity define-fun symbols are inlined as macros, integer-valued `ite`
terms become fresh variables with defining constraints.  `parse` validates
a script and `solve` answers its check-sat; that is the one solve path.
"""

from __future__ import annotations

import functools
import re
from contextlib import contextmanager
from typing import NoReturn, Optional, Union

from . import formula_ast as fa
from .clausify import clausify
from .core import Answer, Solver, SolverConfig
from .errors import InternalError, ParseError, SortError, UnsupportedError
from .terms import Literal, Polynomial, Rel, Sort, TermStore

Sexpr = Union[str, list]

# Text between tokens: whitespace and `;` comments.  It always ends a
# pattern, so the engine never backtracks into a comment.
_SKIP = r'[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*'
# A parenthesis, a symbol (`\w` is `str.isalnum` plus `_`), a
# `|quoted symbol|` or a string literal, in which `""` stands for `"`.  A
# string ends at a `"` that no `"` follows, so an unterminated one is
# reported where it starts, not at its last `""`.
_TOKEN = re.compile(r'[()]|[\w~!@$%^&*\-+=<>.?/:]+|\|[^|]*\||"(?:[^"]|"")*"(?!")')
_LEADING_SKIP = re.compile(_SKIP)
# One token and the text skipped after it.  Where no token starts, the
# match takes the rest of the text, so a malformed text's last "token" is
# the only one `_TOKEN` does not match in full.
_TOKENS = re.compile(f'({_TOKEN.pattern}|[\\s\\S]+){_SKIP}')


def tokenize(text: str):
    """Yields (token, line, col) with 1-based positions."""
    line, line_start, seen = 1, 0, 0
    for m in _TOKENS.finditer(text, _LEADING_SKIP.match(text).end()):
        tok, offset = m.group(1), m.start()
        newlines = text.count("\n", seen, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, offset) + 1
        seen = offset
        col = offset - line_start + 1
        if _TOKEN.fullmatch(tok) is None:
            if tok[0] == "|":
                raise ParseError("unterminated quoted symbol", line, col)
            if tok[0] == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        yield tok, line, col


def parse_sexprs(text: str) -> list:
    """All top-level s-expressions as nested lists of token strings."""
    tokens = _TOKENS.findall(text, _LEADING_SKIP.match(text).end())
    if tokens and _TOKEN.fullmatch(tokens[-1]) is None:
        _raise_syntax_error(text)
    top = current = []
    stack = []
    for tok in tokens:
        if tok == "(":
            inner = []
            current.append(inner)
            stack.append(current)
            current = inner
        elif tok == ")":
            if not stack:
                _raise_syntax_error(text)
            current = stack.pop()
        else:
            current.append(tok)
    if stack:
        _raise_syntax_error(text)
    return top


def _raise_syntax_error(text: str) -> NoReturn:
    """Raise the first error of a malformed text, with its position."""
    opens = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            opens.append((line, col))
        elif tok == ")":
            if not opens:
                raise ParseError("unbalanced ')'", line, col)
            opens.pop()
    line, col = opens[-1]
    raise ParseError("unbalanced '('", line, col)


def print_sexpr(e: Sexpr) -> str:
    if isinstance(e, str):
        return e
    return "(" + " ".join(print_sexpr(x) for x in e) + ")"


class Script:
    """An ordered list of SMT-LIB commands."""

    def __init__(self, commands: list):
        self.commands = commands

    def __repr__(self):
        return f"Script({len(self.commands)} commands)"


_SUPPORTED_LOGICS = {"QF_NIA", "QF_LIA", "QF_NIRA"}


class Compiler:
    """Turns a script's declarations and assertions into solver input.

    A term compiles to a `Polynomial` if it has sort Int and to a Boolean
    structure (`terms.Literal` or `formula_ast` node) if it has sort Bool.
    """

    def __init__(self):
        self.store = TermStore()
        self.macros: dict[str, Union[Polynomial, fa.BoolExpr, Literal]] = {}
        self.assertions: list[fa.BoolExpr] = []
        self.side: list[fa.BoolExpr] = []
        self.logic: Optional[str] = None
        self.checked = False            # a check-sat has been seen
        # Memoised leaves: true/false and numerals, then variables by name.
        self._constants: dict = {"true": fa.TRUE, "false": fa.FALSE}
        self._variables: dict = {}

    # -- command level ------------------------------------------------------

    def command(self, cmd: Sexpr):
        if not isinstance(cmd, list) or not cmd or not isinstance(cmd[0], str):
            raise ParseError(f"malformed command {print_sexpr(cmd)}", 0, 0)
        head = cmd[0]
        if head == "set-logic":
            if len(cmd) != 2 or cmd[1] not in _SUPPORTED_LOGICS:
                raise UnsupportedError(f"unsupported logic in {print_sexpr(cmd)}")
            self.logic = cmd[1]
        elif head in ("set-info", "set-option"):
            pass
        elif head == "declare-fun":
            if len(cmd) != 4:
                raise ParseError(f"malformed declare-fun {print_sexpr(cmd)}", 0, 0)
            name, args, sort = cmd[1], cmd[2], cmd[3]
            if args != []:
                raise UnsupportedError(
                    f"declare-fun with arity > 0: {name}")
            self._check_new_symbol(name)
            self.store.new_var(name, self._sort(sort))
        elif head == "declare-const":
            if len(cmd) != 3:
                raise ParseError(f"malformed declare-const {print_sexpr(cmd)}", 0, 0)
            self._check_new_symbol(cmd[1])
            self.store.new_var(cmd[1], self._sort(cmd[2]))
        elif head == "define-fun":
            if len(cmd) != 5:
                raise ParseError(f"malformed define-fun {print_sexpr(cmd)}", 0, 0)
            name, args, sort, body = cmd[1], cmd[2], cmd[3], cmd[4]
            if args != []:
                raise UnsupportedError(f"define-fun with arity > 0: {name}")
            self._check_new_symbol(name)
            value = self.term(body, {})
            if (self._sort(sort) is Sort.INT) != isinstance(value, Polynomial):
                raise SortError(f"define-fun {name}: body sort mismatch")
            self.macros[name] = value
        elif head == "assert":
            if len(cmd) != 2:
                raise ParseError(f"malformed assert {print_sexpr(cmd)}", 0, 0)
            if self.checked:
                # Every check-sat answers for all of the script's assertions.
                raise UnsupportedError(
                    "assert after check-sat: incremental scripts are not supported")
            self.assertions.append(self.bool_term(cmd[1], {}))
        elif head == "check-sat":
            self.checked = True
        elif head in ("get-model", "exit"):
            pass
        else:
            raise UnsupportedError(f"unsupported command {head}")

    def _check_new_symbol(self, name: str):
        """Variables and macros share one namespace; each name once."""
        if name in self.macros or self.store.lookup_var(name) is not None:
            raise SortError(f"symbol {name!r} already declared")

    def _sort(self, s: Sexpr) -> Sort:
        if s == "Int":
            return Sort.INT
        if s == "Bool":
            return Sort.BOOL
        raise UnsupportedError(f"unsupported sort {print_sexpr(s)}")

    # -- term level ---------------------------------------------------------

    def bool_term(self, e: Sexpr, env: dict):
        value = self.term(e, env)
        if isinstance(value, Polynomial):
            raise SortError(f"expected Bool term, got {print_sexpr(e)}")
        return value

    def int_term(self, e: Sexpr, env: dict) -> Polynomial:
        value = self.term(e, env)
        if not isinstance(value, Polynomial):
            raise SortError(f"expected Int term, got {print_sexpr(e)}")
        return value

    def term(self, e: Sexpr, env: dict):
        """A `Polynomial` for an Int term, a Boolean structure for a Bool one."""
        if isinstance(e, str):
            return self._atom_term(e, env)
        if not e or not isinstance(e[0], str):
            raise ParseError(f"malformed term {print_sexpr(e)}", 0, 0)
        head, args = e[0], e[1:]
        if head == "-" and len(args) == 1:
            return -self.int_term(args[0], env)
        if head in ("+", "-", "*"):
            if not args:
                raise ParseError(f"operator {head} needs arguments", 0, 0)
            # A loop, not a comprehension: one frame less per nesting level.
            polys = []
            for a in args:
                polys.append(self.int_term(a, env))
            if head != "*":
                return Polynomial.sum(polys[0], polys[1:],
                                      1 if head == "+" else -1)
            acc = polys[0]
            for p in polys[1:]:
                acc = acc * p
            return acc
        if head in ("<", "<=", ">", ">="):
            return self._chain(head, args, env)
        if head == "=":
            return self._equality(args, env)
        if head == "distinct":
            return self._distinct(args, env)
        if head in ("and", "or"):
            parts = [self.bool_term(a, env) for a in args]
            return fa.mk_and(parts) if head == "and" else fa.mk_or(parts)
        if head == "xor":
            if len(args) < 2:
                raise ParseError("xor needs two arguments", 0, 0)
            parts = [self.bool_term(a, env) for a in args]
            return functools.reduce(_xor, parts)
        if head == "not":
            if len(args) != 1:
                raise ParseError("not takes one argument", 0, 0)
            return fa.mk_not(self.bool_term(args[0], env))
        if head == "=>":
            if len(args) < 2:
                raise ParseError("=> takes at least two arguments", 0, 0)
            parts = [self.bool_term(a, env) for a in args]
            acc = parts[-1]
            for p in reversed(parts[:-1]):
                acc = fa.mk_or([fa.mk_not(p), acc])
            return acc
        if head == "ite":
            return self._ite(args, env)
        if head == "let":
            return self._let(args, env)
        raise UnsupportedError(f"unsupported operator {head}")

    def _atom_term(self, name: str, env: dict):
        # Lookup order: true/false, numerals, let-bound names, variables,
        # macros; so no let binding shadows a constant.
        value = self._constants.get(name)
        if value is not None:
            return value
        if name.isascii() and name.isdigit():
            try:
                n = int(name)
            except ValueError:      # beyond Python's int-from-text limit
                raise UnsupportedError(
                    f"numeral of {len(name)} digits") from None
            value = self._constants[name] = Polynomial.const(n)
            return value
        if name in env:
            return env[name]
        value = self._variables.get(name)
        if value is not None:
            return value
        var = self.store.lookup_var(name)
        if var is not None:
            value = self._variables[name] = (
                Polynomial.var(var.id) if var.sort is Sort.INT
                else Literal(True, bvar=var))
            return value
        if name in self.macros:
            return self.macros[name]
        raise ParseError(f"undeclared identifier {name}", 0, 0)

    def _rel_atom(self, op: str, lhs: Polynomial, rhs: Polynomial) -> Literal:
        if op == "<":
            atom = self.store.mk_atom(lhs, Rel.LT, rhs)
        elif op == "<=":
            atom = self.store.mk_atom(lhs, Rel.LEQ, rhs)
        elif op == ">":
            atom = self.store.mk_atom(rhs, Rel.LT, lhs)
        elif op == ">=":
            atom = self.store.mk_atom(rhs, Rel.LEQ, lhs)
        elif op == "=":
            atom = self.store.mk_atom(lhs, Rel.EQ, rhs)
        else:
            atom = self.store.mk_atom(lhs, Rel.NEQ, rhs)
        return Literal(True, atom=atom)

    def _chain(self, op: str, args: list, env: dict) -> fa.BoolExpr:
        if len(args) < 2:
            raise ParseError(f"operator {op} needs two arguments", 0, 0)
        polys = [self.int_term(a, env) for a in args]
        parts = [self._rel_atom(op, a, b) for a, b in zip(polys, polys[1:])]
        return fa.mk_and(parts)

    def _operands(self, op: str, args: list, env: dict):
        """(values, whether all are Int) for operands of one sort."""
        if len(args) < 2:
            raise ParseError(f"{op} needs two arguments", 0, 0)
        vals = [self.term(a, env) for a in args]
        kinds = {isinstance(v, Polynomial) for v in vals}
        if len(kinds) != 1:
            raise SortError(f"{op} applied to mixed sorts")
        return vals, kinds.pop()

    def _equality(self, args: list, env: dict) -> fa.BoolExpr:
        vals, ints = self._operands("=", args, env)
        if ints:
            return fa.mk_and([self._rel_atom("=", a, b)
                              for a, b in zip(vals, vals[1:])])
        return fa.mk_and([
            fa.mk_or([fa.mk_and([a, b]),
                      fa.mk_and([fa.mk_not(a), fa.mk_not(b)])])
            for a, b in zip(vals, vals[1:])])

    def _distinct(self, args: list, env: dict) -> fa.BoolExpr:
        vals, ints = self._operands("distinct", args, env)
        if ints:
            return fa.mk_and([self._rel_atom("!=", vals[i], vals[j])
                              for i in range(len(vals))
                              for j in range(i + 1, len(vals))])
        if len(vals) == 2:
            return _xor(vals[0], vals[1])
        raise UnsupportedError("distinct over more than two Bool operands")

    def _ite(self, args: list, env: dict):
        if len(args) != 3:
            raise ParseError("ite takes three arguments", 0, 0)
        cond = self.bool_term(args[0], env)
        (then, els), ints = self._operands("ite", args[1:], env)
        if not ints:
            return fa.mk_ite(cond, then, els)
        # Integer ite: fresh variable constrained to the chosen branch.
        v = self.store.fresh_var("ite", Sort.INT)
        vp = Polynomial.var(v.id)
        self.side.append(fa.mk_or([
            fa.mk_not(cond), self._rel_atom("=", vp, then)]))
        self.side.append(fa.mk_or([
            cond, self._rel_atom("=", vp, els)]))
        return vp

    def _let(self, args: list, env: dict):
        if len(args) != 2 or not isinstance(args[0], list):
            raise ParseError("malformed let", 0, 0)
        new_env = dict(env)
        for binding in args[0]:
            if not (isinstance(binding, list) and len(binding) == 2
                    and isinstance(binding[0], str)):
                raise ParseError("malformed let binding", 0, 0)
            new_env[binding[0]] = self.term(binding[1], env)
        return self.term(args[1], new_env)


def _xor(a, b) -> fa.BoolExpr:
    """Exactly one of ``a`` and ``b``."""
    return fa.mk_or([fa.mk_and([a, fa.mk_not(b)]),
                     fa.mk_and([fa.mk_not(a), b])])


@contextmanager
def _nesting_limit():
    """Report input nested beyond Python's recursion limit as unsupported."""
    try:
        yield
    except RecursionError:
        raise UnsupportedError("expression nested too deeply") from None


def parse(text: str) -> Script:
    """Parse and validate a script; raises Parse/Unsupported/Sort errors."""
    script = Script(parse_sexprs(text))
    with _nesting_limit():
        compile_script(script)
    return script


def compile_script(script: Script) -> Compiler:
    comp = Compiler()
    for cmd in script.commands:
        comp.command(cmd)
    return comp


def _format_int(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def solve(script: Script, config: Optional[SolverConfig] = None):
    """One check-sat over the script's assertions.

    Returns (answer, model or None, solver); the model is a list of
    (name, sort, value) for the script's non-auxiliary variables.
    """
    with _nesting_limit():
        comp = compile_script(script)
        ast = fa.mk_and(comp.assertions + comp.side)
        formula = clausify(comp.store, ast)
        solver = Solver(comp.store, formula, config)
        ans = solver.check_sat()
        model = _script_model(comp, solver) if ans is Answer.SAT else None
    return ans, model, solver


def format_model(model) -> list[str]:
    lines = ["("]
    for name, sort, value in model:
        if sort is Sort.INT:
            lines.append(f"  (define-fun {name} () Int {_format_int(value)})")
        else:
            lines.append(f"  (define-fun {name} () Bool "
                         f"{'true' if value else 'false'})")
    lines.append(")")
    return lines


def _script_model(comp: Compiler, solver: Solver):
    """Original-variable model, re-verified against every assertion."""
    int_values = {}
    bool_values = {}
    model = []
    for var in comp.store.variables:
        if var.sort is Sort.INT:
            v = solver.model_int.get(var.id, 0)
            int_values[var.id] = v
            if not var.is_aux:
                model.append((var.name, Sort.INT, v))
        else:
            b = solver.model_bool.get(var.id, True)
            bool_values[var.id] = b
            if not var.is_aux:
                model.append((var.name, Sort.BOOL, b))
    for ast in comp.assertions + comp.side:
        if not fa.evaluate(ast, int_values, bool_values):
            raise InternalError("model fails an assertion")
    return model
