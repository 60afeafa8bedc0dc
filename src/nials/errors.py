"""Exception types shared across the solver."""


class NialsError(Exception):
    """Base class for all solver errors."""


class ParseError(NialsError):
    """Malformed s-expression or command syntax."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class UnsupportedError(NialsError):
    """Input uses a feature outside the supported SMT-LIB subset."""


class SortError(NialsError):
    """A Boolean term in arithmetic position or vice versa."""


class InternalError(NialsError):
    """Internal bug signal: the solver failed one of its own checks."""


class DuplicateAssignment(InternalError):
    """Internal bug signal: a trail subject was assigned twice."""
