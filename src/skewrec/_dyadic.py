"""Exact dyadic points and integer square roots for root certification.

A point is (a, b, e) meaning (a + b*i) * 2**e with unbounded integers
a, b and integer exponent e.  Hardware doubles and multiprecision floats
are dyadic rationals, so the approximate roots coming out of either
floating iteration are exact rational points, and evaluating an integer
polynomial at them is exact integer arithmetic.  The only rounding in
the certificate is the final square root, which sqrt_bounds rounds
down and up onto an integer grid.
"""

from __future__ import annotations

from math import frexp, isfinite, isqrt

Dyadic = tuple[int, int, int]

ZERO: Dyadic = (0, 0, 0)


def from_mpf_pair(re, im) -> Dyadic:
    """Exact conversion of a point's (real, imag) parts.

    Each part is an mpmath mpf or a Python float, so the real and
    imaginary parts of an mpc and of a complex both convert.
    """
    a, ea = _to_int_exp(re)
    b, eb = _to_int_exp(im)
    if a == 0 and b == 0:
        return ZERO
    if a == 0:
        return (0, b, eb)
    if b == 0:
        return (a, 0, ea)
    e = min(ea, eb)
    return (a << (ea - e), b << (eb - e), e)


def from_float(x: float) -> tuple[int, int]:
    """Exact (m, e) with x == m * 2**e and m odd, or (0, 0) for +-0.0.

    This is the normal form mpmath gives the same value, so a double and
    its exact mpf convert to the same dyadic.
    """
    if not isfinite(x):
        raise ValueError("non-finite float in certification")
    frac, exp = frexp(x)  # exact: x == frac * 2**exp, 0.5 <= |frac| < 1
    man = int(frac * (1 << 53))  # exact, also for subnormals
    if man == 0:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp - 53 + zeros


def _to_int_exp(x) -> tuple[int, int]:
    if isinstance(x, float):
        return from_float(x)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp != 0:
            raise ValueError("non-finite float in certification")
        return 0, 0
    return (-man if sign else man), exp


def le_scaled(x: int, ex: int, y: int, ey: int) -> bool:
    """x * 2**ex <= y * 2**ey, by one shift of the side with the larger exponent."""
    if ex >= ey:
        return x << (ex - ey) <= y
    return x <= y << (ey - ex)


def sqrt_bounds(num: int, den: int = 1) -> tuple[int, int]:
    """floor(sqrt(num / den)) and ceil(sqrt(num / den)) for num >= 0, den > 0.

    One exact division and one integer square root: sqrt(num / den) lies
    strictly between isqrt(q) and isqrt(q) + 1 unless the quotient q is
    exact and a perfect square.  A caller that scales num by 2**(2R)
    gets the square root rounded down and up onto the grid 2**-R.
    """
    if num < 0 or den <= 0:
        raise ValueError("sqrt of a negative rational")
    q, r = divmod(num, den)
    lo = isqrt(q)
    return lo, lo if r == 0 and lo * lo == q else lo + 1
