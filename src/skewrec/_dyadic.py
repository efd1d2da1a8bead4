"""Exact complex dyadic arithmetic for root certification.

A point is (a, b, e) meaning (a + b*i) * 2**e with unbounded integers
a, b and integer exponent e.  Hardware doubles and multiprecision floats
are dyadic rationals, so the approximate roots coming out of either
floating iteration are exact rational points; evaluating an integer
polynomial at them and comparing the resulting radii against a
tolerance are therefore exact operations, with no rounding anywhere in
the certificate.
"""

from __future__ import annotations

from fractions import Fraction
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


def add(x: Dyadic, y: Dyadic) -> Dyadic:
    xa, xb, xe = x
    ya, yb, ye = y
    if xa == 0 and xb == 0:
        return y
    if ya == 0 and yb == 0:
        return x
    if xe < ye:
        shift = ye - xe
        return (xa + (ya << shift), xb + (yb << shift), xe)
    shift = xe - ye
    return ((xa << shift) + ya, (xb << shift) + yb, ye)


def sub(x: Dyadic, y: Dyadic) -> Dyadic:
    ya, yb, ye = y
    return add(x, (-ya, -yb, ye))


def mul(x: Dyadic, y: Dyadic) -> Dyadic:
    xa, xb, xe = x
    ya, yb, ye = y
    return (xa * ya - xb * yb, xa * yb + xb * ya, xe + ye)


def eval_int_poly(coeffs, z: Dyadic) -> Dyadic:
    """Exact Horner evaluation of an integer-coefficient polynomial."""
    acc: Dyadic = ZERO
    for c in reversed(coeffs):
        acc = mul(acc, z)
        if c:
            acc = add(acc, (c, 0, 0))
    return acc


def to_fractions(x: Dyadic) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of x as exact rationals."""
    a, b, e = x
    if e >= 0:
        return Fraction(a << e), Fraction(b << e)
    den = 1 << -e
    return Fraction(a, den), Fraction(b, den)


def abs2(x: Dyadic) -> Fraction:
    """|x|**2 as an exact rational."""
    a, b, e = x
    m = a * a + b * b
    if e >= 0:
        return Fraction(m << (2 * e))
    return Fraction(m, 1 << (-2 * e))


def sqrt_bounds(q: Fraction, min_den_bits: int = 0) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(q) <= hi for q >= 0, via integer square roots.

    The bracket width is at most 1/denominator(q); pass min_den_bits to
    force width <= 2**-min_den_bits regardless of how coarse q is (an
    exact small-denominator q would otherwise pin the width, e.g.
    sqrt_bounds(2) is [1, 2] but sqrt_bounds(2, 8) is 2**-8 wide).
    """
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    num, den = q.numerator, q.denominator
    k = max(0, min_den_bits - den.bit_length() + 1)
    scaled = (num * den) << (2 * k)
    s = isqrt(scaled)
    out_den = den << k
    lo = Fraction(s, out_den)
    hi = lo if s * s == scaled else Fraction(s + 1, out_den)
    return lo, hi
