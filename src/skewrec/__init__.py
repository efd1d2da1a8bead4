"""Certified Mahler measure, house, and structure theory for reciprocal
and skew-reciprocal integer polynomials.

The public API is re-exported here: exact polynomial arithmetic
(IntPoly), certified root disks and measure enclosures, the exact
Kronecker test, the skew-reciprocal decomposition, symplectic and
anti-symplectic companion matrices, and deterministic height-bounded
minimum searches.

The package attribute `measure` is the measure() function, and it
shadows the submodule of that name: `import skewrec.measure as M` binds
the function, so `M.squarefree_decomposition` does not exist.  Reach
the module as `sys.modules["skewrec.measure"]` or
`importlib.import_module("skewrec.measure")`.
"""

import importlib

from .enclosure import Enclosure, float_above, float_below
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DecompositionFalsified,
    ParseError,
    PolynomialError,
    PrecisionExhausted,
    SkewrecError,
)
from .measure import (
    MeasureResult,
    graeffe,
    house,
    house_lower_bound,
    house_upper_bound,
    is_kronecker,
    kronecker_free_part,
    mahler,
    mahler_lower_bound,
    mahler_upper_bound,
    measure,
)
from .poly import (
    BREUSCH_BOUND,
    LEHMER_MAHLER_5DP,
    LEHMER_POLY,
    IntPoly,
    cyclotomic,
    euler_phi,
    is_reciprocal,
    is_skew_reciprocal,
    pad_to_degree,
    parse_poly,
    poly_to_string,
    reverse,
    squarefree_decomposition,
)
from .roots import DEFAULT_MAX_BITS, RootDisk, roots_certified

# The search, structure and symplectic layers load on first use (PEP 562),
# so a command that only measures or classifies does not compile them.
# The measure chain above stays eager: the package attribute `measure` is
# the measure() function, and importing the submodule would rebind it.
_LAZY = {
    "search": (
        "DecompositionSurvey",
        "SearchReport",
        "SearchSpace",
        "SequenceRow",
        "SequenceTable",
        "enumerate_space",
        "min_house",
        "min_mahler",
        "sequence_table",
        "verify_decomposition_over_space",
    ),
    "structure": (
        "NonreciprocalWitness",
        "SquareSubstitution",
        "decompose_skew_reciprocal",
        "strip_linear_root_one",
    ),
    "symplectic": (
        "IntMatrix",
        "charpoly",
        "companion_anti_symplectic",
        "companion_symplectic",
        "is_anti_symplectic",
        "is_symplectic",
        "omega",
        "random_anti_symplectic",
        "random_symplectic",
        "reversal",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a lazy layer, or the module holding a lazy name, on first use."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_HOME))


__version__ = "0.1.0"

__all__ = [
    "BREUSCH_BOUND",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_BITS",
    "DecompositionFalsified",
    "DecompositionSurvey",
    "Enclosure",
    "IntMatrix",
    "IntPoly",
    "LEHMER_MAHLER_5DP",
    "LEHMER_POLY",
    "MeasureResult",
    "NonreciprocalWitness",
    "ParseError",
    "PolynomialError",
    "PrecisionExhausted",
    "RootDisk",
    "SearchReport",
    "SearchSpace",
    "SequenceRow",
    "SequenceTable",
    "SkewrecError",
    "SquareSubstitution",
    "charpoly",
    "companion_anti_symplectic",
    "companion_symplectic",
    "cyclotomic",
    "decompose_skew_reciprocal",
    "enumerate_space",
    "euler_phi",
    "float_above",
    "float_below",
    "graeffe",
    "house",
    "house_lower_bound",
    "house_upper_bound",
    "is_anti_symplectic",
    "is_kronecker",
    "is_reciprocal",
    "is_skew_reciprocal",
    "is_symplectic",
    "kronecker_free_part",
    "mahler",
    "mahler_lower_bound",
    "mahler_upper_bound",
    "measure",
    "min_house",
    "min_mahler",
    "omega",
    "pad_to_degree",
    "parse_poly",
    "poly_to_string",
    "random_anti_symplectic",
    "random_symplectic",
    "reverse",
    "roots_certified",
    "sequence_table",
    "squarefree_decomposition",
    "strip_linear_root_one",
    "verify_decomposition_over_space",
]
