"""Structural decomposition of skew-reciprocal polynomials.

A monic skew-reciprocal polynomial of degree 2**(i+1), i >= 1, with
house > 1 falls into exactly one of two cases:

  * it is also reciprocal, and then it is a polynomial in t**2, so it
    descends to the half-degree polynomial g with f(t) = g(t**2); or
  * it is not reciprocal, and after stripping the (t - 1)**v factor the
    remaining part u is still nonreciprocal, which hands downstream
    callers a nonreciprocal witness with u(1) != 0.

The certificate for the second case never factors anything: a product of
reciprocal polynomials is reciprocal and (t - 1)**v is reciprocal up to
sign, so if u were reciprocal f could not be skew-reciprocal of this
shape.  The final exactness check is still performed, and a violation
raises DecompositionFalsified — that error is the falsification signal,
not a normal outcome.
"""

from __future__ import annotations

from ._record import Record
from .errors import DecompositionFalsified, PolynomialError
from .measure import is_kronecker
from .poly import (
    IntPoly,
    div_exact,
    extract_square_substitution,
    is_reciprocal,
    is_skew_reciprocal,
)

__all__ = [
    "SquareSubstitution",
    "NonreciprocalWitness",
    "strip_linear_root_one",
    "decompose_skew_reciprocal",
]


class SquareSubstitution(Record):
    """Case 1: f(t) = g(t**2) with g monic reciprocal of half the degree.

    Field: the IntPoly g.
    """

    __slots__ = ("g",)
    case = "square_substitution"

    def to_json(self) -> dict:
        return {"case": self.case, **super().to_json()}


class NonreciprocalWitness(Record):
    """Case 2: f(t) = (t-1)**v * u(t) with u nonreciprocal and u(1) != 0.

    Fields: the int v, then the IntPoly u.
    """

    __slots__ = ("v", "u")
    case = "nonreciprocal_witness"

    def to_json(self) -> dict:
        return {"case": self.case, **super().to_json()}


def strip_linear_root_one(f: IntPoly) -> tuple[int, IntPoly]:
    """Largest v with (t-1)**v dividing f, and the exact quotient."""
    if f.is_zero():
        raise PolynomialError("cannot strip roots from the zero polynomial")
    v = 0
    t_minus_1 = IntPoly((-1, 1))
    while f(1) == 0:
        f = div_exact(f, t_minus_1)
        v += 1
    return v, f


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def decompose_skew_reciprocal(
    f: IntPoly, *, allow_any_multiple_of_four: bool = False
):
    """Decompose a monic skew-reciprocal f of degree 2**(i+1), i >= 1.

    Preconditions checked: monic, skew-reciprocal, degree a power of two
    that is at least 4 (or any positive multiple of 4 when the extension
    flag is set), and not Kronecker — the house must exceed 1, which for
    monic integer polynomials is decided exactly by is_kronecker.

    Returns SquareSubstitution when f is reciprocal and
    NonreciprocalWitness otherwise.  Inputs that violate a precondition
    raise PolynomialError; a failed certificate raises
    DecompositionFalsified.
    """
    if not f.is_monic():
        raise PolynomialError("decomposition requires monic input")
    if not is_skew_reciprocal(f):
        raise PolynomialError("decomposition requires skew-reciprocal input")
    deg = f.degree
    if allow_any_multiple_of_four:
        if deg < 4 or deg % 4 != 0:
            raise PolynomialError(
                "extended decomposition requires degree a multiple of 4"
            )
    elif not (_is_power_of_two(deg) and deg >= 4):
        raise PolynomialError(
            "decomposition requires degree 2**(i+1) with i >= 1"
        )
    if is_kronecker(f):
        raise PolynomialError(
            "decomposition requires house > 1 (input is Kronecker)"
        )
    if is_reciprocal(f):
        # reciprocal + skew-reciprocal with d even kills all odd terms:
        # c_k = c_(2d-k) = (-1)^(d+k) c_(2d-k) forces c_k = 0 for odd k
        g = extract_square_substitution(f)
        if g is None:
            raise DecompositionFalsified(
                "reciprocal skew-reciprocal input has an odd coefficient",
                f.coeffs,
            )
        if not (g.is_monic() and is_reciprocal(g)):
            raise DecompositionFalsified(
                "square-substitution quotient is not monic reciprocal",
                f.coeffs,
            )
        return SquareSubstitution(g)
    v, u = strip_linear_root_one(f)
    if u(1) == 0:
        raise DecompositionFalsified("witness still vanishes at 1", f.coeffs)
    if is_reciprocal(u):
        raise DecompositionFalsified(
            "witness polynomial is reciprocal", f.coeffs
        )
    return NonreciprocalWitness(v, u)
