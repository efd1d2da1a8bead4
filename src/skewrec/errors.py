"""Exception hierarchy shared by the whole package.

Every failure a caller can act on maps to one of these classes; the CLI
translates them to stable process exit codes (see skewrec.cli).  The
default enumeration budget lives beside BudgetExceeded, so the CLI can
offer it without loading the search layer.
"""

import copyreg

DEFAULT_BUDGET = 5_000_000


class SkewrecError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Rebuilt from the formatted args and the attributes, without
        # __init__, whose arguments differ: so an error raised in a pool
        # worker reaches the caller as itself.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class PolynomialError(SkewrecError, ValueError):
    """A polynomial argument violates a documented precondition."""


class ParseError(SkewrecError, ValueError):
    """Unparseable polynomial or matrix text input."""


class PrecisionExhausted(SkewrecError):
    """Certification still fails at the configured maximum working precision.

    Raised instead of silently returning an unsound or truncated result.
    """

    def __init__(self, message: str, max_bits: int):
        super().__init__(f"{message} (max_bits={max_bits})")
        self.max_bits = max_bits


class BudgetExceeded(SkewrecError):
    """An enumeration would exceed the configured work budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message}: needs {required}, budget {budget}")
        self.required = required
        self.budget = budget


class DecompositionFalsified(SkewrecError):
    """A decomposition certificate failed its final exactness check.

    This is the diagnostic reserved for the impossible case: the witness
    polynomial produced by the nonreciprocal branch turned out to be
    reciprocal after all.  It carries the offending input so the failure
    is reproducible.
    """

    def __init__(self, message: str, coefficients: tuple[int, ...]):
        super().__init__(f"{message}: input coefficients {list(coefficients)}")
        self.coefficients = coefficients
