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
import itertools
import re
from contextlib import contextmanager
from typing import NoReturn, Optional, Union

from . import formula_ast as fa
from .clausify import clausify
from .core import Answer, Solver, SolverConfig
from .errors import InternalError, ParseError, SortError, UnsupportedError
from .terms import (BOOL, EQ, INT, LEQ, LT, NEQ, Literal, Polynomial, Sort,
                    TermStore)

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
    `symbols`, the one table of names, maps each declared or defined name to
    its value; auxiliary variables are not in it, so no script names one.
    """

    def __init__(self):
        self.store = TermStore()
        self.symbols: dict[str, Union[Polynomial, fa.BoolExpr, Literal]] = {}
        self.assertions: list[fa.BoolExpr] = []
        self.side: list[fa.BoolExpr] = []
        self.checked = False            # a check-sat has been seen
        # Memoised leaves: true/false and numerals.
        self._constants: dict = {"true": fa.TRUE, "false": fa.FALSE}
        self._negated: dict = {}        # numeral -> (- numeral)
        self._unquoted: dict = {}       # quoted leaf -> its name

    # -- command level ------------------------------------------------------

    def command(self, cmd: Sexpr):
        if not isinstance(cmd, list) or not cmd or not isinstance(cmd[0], str):
            raise ParseError(f"malformed command {print_sexpr(cmd)}")
        head = cmd[0]
        if head == "assert":
            if len(cmd) != 2:
                raise ParseError(f"malformed assert {print_sexpr(cmd)}")
            if self.checked:
                # Every check-sat answers for all of the script's assertions.
                raise UnsupportedError(
                    "assert after check-sat: incremental scripts are not supported")
            self.assertions.append(self.bool_term(cmd[1], {}))
        elif head == "set-logic":
            if len(cmd) != 2 or _symbol(cmd[1]) not in _SUPPORTED_LOGICS:
                raise UnsupportedError(f"unsupported logic in {print_sexpr(cmd)}")
        elif head in ("set-info", "set-option"):
            pass
        elif head in ("declare-fun", "declare-const"):
            # (declare-fun x () S) is (declare-const x S).
            if len(cmd) != (4 if head == "declare-fun" else 3):
                raise ParseError(f"malformed {head} {print_sexpr(cmd)}")
            name = self._new_symbol(cmd[1])
            if cmd[2:-1] not in ([], [[]]):
                raise UnsupportedError(f"declare-fun with arity > 0: {name}")
            var = self.store.new_var(name, self._sort(cmd[-1]))
            self.symbols[name] = (Polynomial.var(var.id) if var.sort is INT
                                  else Literal(True, bvar=var))
        elif head == "define-fun":
            if len(cmd) != 5:
                raise ParseError(f"malformed define-fun {print_sexpr(cmd)}")
            name = self._new_symbol(cmd[1])
            if cmd[2] != []:
                raise UnsupportedError(f"define-fun with arity > 0: {name}")
            value = self.term(cmd[4], {})
            if (self._sort(cmd[3]) is INT) != isinstance(value, Polynomial):
                raise SortError(f"define-fun {name}: body sort mismatch")
            self.symbols[name] = value
        elif head == "check-sat":
            self.checked = True
        elif head in ("get-model", "exit"):
            pass
        else:
            raise UnsupportedError(f"unsupported command {head}")

    def _new_symbol(self, s: Sexpr) -> str:
        """The name of a new symbol; `true` and `false` are taken."""
        name = _symbol(s)
        if name in self.symbols or name in self._constants:
            raise SortError(f"symbol {name!r} already declared")
        return name

    def _sort(self, s: Sexpr) -> Sort:
        if s == "Int":
            return INT
        if s == "Bool":
            return BOOL
        raise UnsupportedError(f"unsupported sort {print_sexpr(s)}")

    # -- term level ---------------------------------------------------------

    def bool_term(self, e: Sexpr, env: dict):
        value = self.term(e, env)
        if value.__class__ is Polynomial:
            raise _sort_error("Bool", e)
        return value

    def term(self, e: Sexpr, env: dict):
        """A `Polynomial` for an Int term, a Boolean structure for a Bool one.

        An application's head picks its handler in `_APPLY`.  Its operands
        are compiled here, left to right, memoised leaves inline, and the
        handler combines their values; only `let` compiles its own parts.
        So a nesting level costs one Python frame.
        """
        if e.__class__ is str:
            return self._atom_term(e, env)
        try:
            handler, ints = _APPLY[e[0]]
        except KeyError:
            raise UnsupportedError(f"unsupported operator {e[0]}") from None
        except (IndexError, TypeError):     # () or a list at the head
            raise ParseError(f"malformed term {print_sexpr(e)}") from None
        if handler is None:
            return self._let(e, env)
        vals = []
        for a in e[1:]:
            if a.__class__ is str:
                # Memoised leaves inline, in the order of `_atom_term`.
                v = self._constants.get(a)
                if v is None:
                    v = None if env else self.symbols.get(a)
                    if v is None:
                        v = self._atom_term(a, env)
            else:
                v = self.term(a, env)
            if ints is not None and (v.__class__ is Polynomial) is not ints:
                raise _sort_error("Int" if ints else "Bool", a)
            vals.append(v)
        return handler(self, e, vals)

    def _atom_term(self, name: str, env: dict):
        # Lookup order: true/false, numerals, let-bound names, symbols; so
        # no let binding shadows a constant.
        if name[0] == "|":
            if name not in self._unquoted:
                self._unquoted[name] = _symbol(name)
            name = self._unquoted[name]
        value = self._constants.get(name)
        if value is not None:
            return value
        if name.isascii() and name.isdigit():
            try:
                n = int(name)
            except ValueError:      # beyond Python's int-from-text limit
                raise UnsupportedError(
                    f"numeral of {len(name)} digits") from None
            self._negated[name] = Polynomial.const(-n)
            value = self._constants[name] = Polynomial.const(n)
            return value
        if name in env:
            return env[name]
        if name not in self.symbols:
            raise ParseError(f"undeclared identifier {name}")
        return self.symbols[name]

    # Handlers: ``e`` is the application, ``vals`` its operands' values.

    def _arith(self, e: list, vals: list) -> Polynomial:
        """``(* a …)``, ``(+ a …)``, ``(- a b …)`` and the negation ``(- a)``."""
        if not vals:
            raise ParseError(f"operator {e[0]} needs arguments")
        if e[0] == "*":
            return Polynomial.product(vals)
        if len(vals) == 1 and e[0] == "-":
            neg = self._negated.get(e[1]) if e[1].__class__ is str else None
            return -vals[0] if neg is None else neg
        return Polynomial.sum(vals[0], vals[1:], 1 if e[0] == "+" else -1)

    def _relation(self, e: list, vals: list) -> fa.BoolExpr:
        """One atom per operand pair: adjacent pairs, or every pair for
        ``distinct``.  ``=`` and ``distinct`` over Bool operands are iff
        and xor."""
        rel, swap = _RELATIONS[e[0]]
        if len(vals) == 2:
            a, b = vals
            if a.__class__ is Polynomial and b.__class__ is Polynomial:
                if swap:
                    a, b = b, a
                return Literal(True, atom=self.store.mk_atom(a, rel, b))
        if len(vals) < 2:
            raise ParseError(f"operator {e[0]} needs two arguments")
        ints = vals[0].__class__ is Polynomial
        for v in vals:
            if (v.__class__ is Polynomial) is not ints:
                raise SortError(f"{e[0]} applied to mixed sorts")
        pairs = (itertools.combinations(vals, 2) if rel is NEQ
                 else zip(vals, vals[1:]))
        if ints:
            mk_atom = self.store.mk_atom
            return fa.mk_and([Literal(True, atom=mk_atom(b, rel, a) if swap
                                      else mk_atom(a, rel, b))
                              for a, b in pairs])
        if rel is not NEQ:
            return fa.mk_and([
                fa.mk_or([fa.mk_and([a, b]),
                          fa.mk_and([fa.mk_not(a), fa.mk_not(b)])])
                for a, b in pairs])
        if len(vals) == 2:
            return _xor(vals[0], vals[1])
        raise UnsupportedError("distinct over more than two Bool operands")

    def _connective(self, e: list, vals: list) -> fa.BoolExpr:
        """``and``, ``or``, ``xor`` and ``=>``."""
        op = e[0]
        if op == "or":
            return fa.mk_or(vals)
        if op == "and":
            return fa.mk_and(vals)
        if len(vals) < 2:
            raise ParseError(f"{op} takes at least two arguments")
        if op == "xor":
            return functools.reduce(_xor, vals)
        acc = vals[-1]                  # =>, associating to the right
        for p in reversed(vals[:-1]):
            acc = fa.mk_or([fa.mk_not(p), acc])
        return acc

    def _not(self, e: list, vals: list) -> fa.BoolExpr:
        if len(vals) != 1:
            raise ParseError("not takes one argument")
        return fa.mk_not(vals[0])

    def _ite(self, e: list, vals: list):
        if len(vals) != 3:
            raise ParseError("ite takes three arguments")
        cond, then, els = vals
        if cond.__class__ is Polynomial:
            raise _sort_error("Bool", e[1])
        if (then.__class__ is Polynomial) is not (els.__class__ is Polynomial):
            raise SortError("ite applied to mixed sorts")
        if then.__class__ is not Polynomial:
            return fa.mk_ite(cond, then, els)
        # Integer ite: fresh variable constrained to the chosen branch.
        vp = Polynomial.var(self.store.fresh_var("ite", INT).id)
        is_then, is_els = (Literal(True, atom=self.store.mk_atom(vp, EQ, p))
                           for p in (then, els))
        self.side.append(fa.mk_or([fa.mk_not(cond), is_then]))
        self.side.append(fa.mk_or([cond, is_els]))
        return vp

    def _let(self, e: list, env: dict):
        if len(e) != 3 or not isinstance(e[1], list):
            raise ParseError("malformed let")
        bound = {}
        for binding in e[1]:
            if not (isinstance(binding, list) and len(binding) == 2
                    and isinstance(binding[0], str)):
                raise ParseError("malformed let binding")
            name = _symbol(binding[0])
            if name in bound:
                raise ParseError(f"let: {name} bound twice")
            bound[name] = self.term(binding[1], env)
        return self.term(e[2], {**env, **bound})


# (relation, whether the operands swap) of each relation symbol.
_RELATIONS = {"<": (LT, False), "<=": (LEQ, False),
              ">": (LT, True), ">=": (LEQ, True),
              "=": (EQ, False), "distinct": (NEQ, False)}
# Head -> (handler, operand sort: True for Int, False for Bool, None for
# either).  `let` has no handler: it binds names before its body compiles.
_APPLY = {
    **dict.fromkeys(("+", "-", "*"), (Compiler._arith, True)),
    **dict.fromkeys(("<", "<=", ">", ">="), (Compiler._relation, True)),
    **dict.fromkeys(("=", "distinct"), (Compiler._relation, None)),
    **dict.fromkeys(("and", "or", "xor", "=>"), (Compiler._connective, False)),
    "not": (Compiler._not, False), "ite": (Compiler._ite, None),
    "let": (None, None),
}


def _symbol(s: Sexpr) -> str:
    """The name of the symbol ``s``: ``|x|`` is ``x`` where ``x`` is a
    simple symbol (SMT-LIB 2.6, §3.1); other quoted symbols keep their bars."""
    if s.__class__ is not str or s[0] in '0123456789":':
        raise ParseError(f"expected a symbol, got {print_sexpr(s)}")
    if s[0] == "|" and re.fullmatch(
            r"(?!\d|(?:BINARY|DECIMAL|HEXADECIMAL|NUMERAL|STRING|_|!|as|let"
            r"|exists|forall|match|par|assert|check-sat(?:-assuming)?|echo"
            r"|declare-(?:const|datatypes?|fun|sort)|exit|pop|push"
            r"|define-(?:funs?-rec|fun|sort)|reset(?:-assertions)?"
            r"|get-(?:assertions|assignment|info|model|option|proof|value"
            r"|unsat-(?:assumptions|core))|set-(?:info|logic|option))\Z)"
            r"[\w~!@$%^&*\-+=<>.?/]+", s[1:-1], re.ASCII):
        return s[1:-1]
    return s


def _sort_error(sort: str, e: Sexpr) -> SortError:
    return SortError(f"expected {sort} term, got {print_sexpr(e)}")


def _xor(a, b) -> fa.BoolExpr:
    """Exactly one of ``a`` and ``b``."""
    return fa.mk_or([fa.mk_and([a, fa.mk_not(b)]),
                     fa.mk_and([fa.mk_not(a), b])])


@contextmanager
def _nesting_limit():
    """Report input nested beyond Python's recursion limit as unsupported;
    the search, which does not recurse with it, runs outside."""
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
        formula = clausify(comp.store, fa.mk_and(comp.assertions + comp.side))
    solver = Solver(comp.store, formula, config)
    ans = solver.check_sat()
    with _nesting_limit():
        model = _script_model(comp, solver) if ans is Answer.SAT else None
    return ans, model, solver


def format_model(model) -> list[str]:
    lines = ["("]
    for name, sort, value in model:
        if sort is INT:
            lines.append(f"  (define-fun {name} () Int {_format_int(value)})")
        else:
            lines.append(f"  (define-fun {name} () Bool "
                         f"{'true' if value else 'false'})")
    lines.append(")")
    return lines


def _script_model(comp: Compiler, solver: Solver):
    """Original-variable model, re-verified against every assertion."""
    values = {}
    model = []
    for var in comp.store.variables:
        v = solver.model.get(var.id, 0 if var.sort is INT else True)
        values[var.id] = v
        if not var.is_aux:
            model.append((var.name, var.sort, v))
    for ast in comp.assertions + comp.side:
        if not fa.evaluate(ast, values):
            raise InternalError("model fails an assertion")
    return model
