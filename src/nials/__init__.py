"""nials: a QF_NIA solver with local-search guided decisions."""

from .core import Answer, Solver, SolverConfig, Stats
from .errors import NialsError, ParseError, SortError, UnsupportedError
from .smtlib import Script, parse, solve
from .terms import Atom, Clause, Formula, Literal, Polynomial, Rel, Sort, TermStore

__all__ = [
    "Answer", "Solver", "SolverConfig", "Stats",
    "NialsError", "ParseError", "SortError", "UnsupportedError",
    "Script", "parse", "solve",
    "Atom", "Clause", "Formula", "Literal", "Polynomial", "Rel", "Sort",
    "TermStore",
]

__version__ = "0.1.0"
