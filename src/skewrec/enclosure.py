"""Certified real enclosures and outward-rounded interval helpers.

An Enclosure is a closed interval [lo, hi] of doubles guaranteed to
contain the mathematically exact value, together with the precision
(in bits) of the approximation it was certified from: 53 for hardware
doubles, the working precision for multiprecision.  Exact results
carry bits = 0 and lo == hi.  Serialization uses decimal strings via
repr(float), which round-trips exactly, so reports are byte-stable
across runs.

Derived arithmetic (log, products, quotients) rounds every endpoint
outward: one ulp for correctly rounded float operations, and a two-ulp
guard around transcendental endpoints evaluated through mpmath at 96
bits, which is far below every tolerance used in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record

__all__ = ["Enclosure", "float_below", "float_above"]

_INF = math.inf


def _to_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return _INF if x > 0 else -_INF


def float_below(x) -> float:
    """Largest double <= x (x int, Fraction, or float)."""
    f = _to_float(x)
    if math.isinf(f):
        return math.nextafter(f, -_INF) if f > 0 else f
    # Fraction/int comparisons against float are exact in Python
    if f > x:
        f = math.nextafter(f, -_INF)
    return f


def float_above(x) -> float:
    """Smallest double >= x."""
    f = _to_float(x)
    if math.isinf(f):
        return math.nextafter(f, _INF) if f < 0 else f
    if f < x:
        f = math.nextafter(f, _INF)
    return f


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Enclosure(Record):
    """A certified interval lo <= value <= hi with provenance precision."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: float, hi: float, bits: int = 0):
        if not lo <= hi:
            raise ValueError(f"empty enclosure [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bits", bits)

    # -- constructors ----------------------------------------------------

    @classmethod
    def exact(cls, x) -> "Enclosure":
        """Point enclosure of an exactly representable value."""
        f = float(x)
        if f != x:
            raise ValueError(f"{x!r} is not exactly representable")
        return cls(f, f, 0)

    @classmethod
    def from_bounds(cls, lo, hi, bits: int) -> "Enclosure":
        """Outward-rounded enclosure from exact (int/Fraction) bounds."""
        return cls(float_below(lo), float_above(hi), bits)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def strictly_below(self, other: "Enclosure") -> bool:
        return self.hi < other.lo

    # -- outward arithmetic ----------------------------------------------

    def _wrap(self, lo: float, hi: float) -> "Enclosure":
        return Enclosure(lo, hi, self.bits)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(
            _down(self.lo + other.lo),
            _up(self.hi + other.hi),
            max(self.bits, other.bits),
        )

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Enclosure(
            _down(min(products)), _up(max(products)), max(self.bits, other.bits)
        )

    def __truediv__(self, other: "Enclosure") -> "Enclosure":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an enclosure containing 0")
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return Enclosure(
            _down(min(quotients)), _up(max(quotients)), max(self.bits, other.bits)
        )

    def scaled(self, k: int) -> "Enclosure":
        """Multiply by a positive integer (exact for small k, outward otherwise)."""
        if k <= 0:
            raise ValueError("scaled expects a positive integer")
        return self._wrap(_down(self.lo * k), _up(self.hi * k))

    def squared(self) -> "Enclosure":
        """Outward square, assuming a nonnegative enclosure."""
        if self.lo < 0:
            raise ValueError("squared expects a nonnegative enclosure")
        return self._wrap(_down(self.lo * self.lo), _up(self.hi * self.hi))

    def log(self) -> "Enclosure":
        """Outward natural log of a strictly positive enclosure."""
        if self.lo <= 0:
            raise ValueError("log of a nonpositive enclosure")
        import mpmath as mp

        with mp.workprec(96):
            lo = _down(_down(float(mp.log(mp.mpf(self.lo)))))
            hi = _up(_up(float(mp.log(mp.mpf(self.hi)))))
        return self._wrap(lo, hi)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {**super().to_json(), "lo": repr(self.lo), "hi": repr(self.hi)}

    @classmethod
    def from_json(cls, obj: dict) -> "Enclosure":
        return cls(float(obj["lo"]), float(obj["hi"]), int(obj["bits"]))


def log_of_fraction(q: Fraction) -> Enclosure:
    """Outward enclosure of log(q) for a positive rational q."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    import mpmath as mp

    with mp.workprec(96):
        v = mp.log(mp.mpf(q.numerator) / mp.mpf(q.denominator))
        lo = _down(_down(float(v)))
        hi = _up(_up(float(v)))
    return Enclosure(lo, hi, 96)
