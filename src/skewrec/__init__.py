"""Certified Mahler measure, house, and structure theory for reciprocal
and skew-reciprocal integer polynomials.

The public API is re-exported here: exact polynomial arithmetic
(IntPoly), certified root disks and measure enclosures, the exact
Kronecker test, the skew-reciprocal decomposition, symplectic and
anti-symplectic companion matrices, and deterministic height-bounded
minimum searches.
"""

from .enclosure import Enclosure, float_above, float_below
from .errors import (
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
from .search import (
    DEFAULT_BUDGET,
    DecompositionSurvey,
    SearchReport,
    SearchSpace,
    SequenceRow,
    SequenceTable,
    enumerate_space,
    min_house,
    min_mahler,
    sequence_table,
    verify_decomposition_over_space,
)
from .structure import (
    NonreciprocalWitness,
    SquareSubstitution,
    decompose_skew_reciprocal,
    strip_linear_root_one,
)
from .symplectic import (
    IntMatrix,
    charpoly,
    companion_anti_symplectic,
    companion_symplectic,
    is_anti_symplectic,
    is_symplectic,
    omega,
    random_anti_symplectic,
    random_symplectic,
    reversal,
)

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
