"""Mahler measure, house, and exact Kronecker classification.

The quantities with certified enclosures (mahler, house) are read from
certified root disks by one refinement loop, _refine, which lets
measure() take both from a single disk set.  The near-unit-circle
headache — deciding whether a root modulus equals 1 — is never decided
numerically.  Instead:

  * is_kronecker is an exact integer decision procedure (Graeffe
    iteration with a binomial coefficient bound and cycle detection);
  * before root finding, all cyclotomic factors are stripped exactly by
    dividing by each cyclotomic polynomial Phi_N, for the finitely many
    N whose totient fits the degree, as often as it divides.  The
    factors that would pin root disks onto the unit circle are gone and
    contribute their exact factor 1.

Roots of a Salem-type factor still sit on the circle; the disk product
remains a sound enclosure for them because max(1, .) is applied to the
whole modulus interval of each disk component.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

from .enclosure import Enclosure
from .errors import PolynomialError, PrecisionExhausted
from .poly import (
    IntPoly,
    cyclotomic,
    divrem_exact,
    euler_phi,
    gcd_primitive,  # not called here; perfbench/tracer.py wraps this name
    squarefree_decomposition,
)
from .roots import DEFAULT_MAX_BITS, _certified_disks, components

__all__ = [
    "graeffe",
    "is_kronecker",
    "kronecker_free_part",
    "mahler",
    "house",
    "mahler_lower_bound",
    "MeasureResult",
    "measure",
]


def _square(a: tuple[int, ...]) -> list[int]:
    """Coefficients of a(t)**2, each cross product computed once and doubled."""
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = x + x
            for j in range(i + 1, n):
                out[i + j] += x2 * a[j]
    return out


def graeffe(f: IntPoly) -> IntPoly:
    """The root-squaring transform: a polynomial whose roots are the squares.

    Splitting f(t) = e(t**2) + t*o(t**2) gives f(t)*f(-t) = g(t**2) with
    g = e**2 - t*o**2.  The sign is normalized so that the leading
    coefficient of the result equals lc(f)**2; in particular monic input
    stays monic.  Everything is exact integer arithmetic on coefficient
    lists, with a single IntPoly built for the result.
    """
    if f.is_zero():
        raise PolynomialError("graeffe of the zero polynomial")
    c = f.coeffs
    n = len(c)
    coeffs = _square(c[0::2])
    coeffs += [0] * (n - len(coeffs))
    for k, y in enumerate(_square(c[1::2])):
        coeffs[k + 1] -= y
    if n % 2 == 0:  # odd degree
        coeffs = [-x for x in coeffs]
    g = IntPoly(coeffs)
    if g.degree != f.degree or g.leading != f.leading**2:
        raise PolynomialError(
            f"graeffe of a degree-{f.degree} polynomial gave degree "
            f"{g.degree} with leading coefficient {g.leading}"
        )
    return g


def _strip_t_powers(f: IntPoly) -> tuple[int, IntPoly]:
    k = 0
    coeffs = f.coeffs
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    return k, IntPoly(coeffs)


def is_kronecker(f: IntPoly) -> bool:
    """Exact decision: are all roots of f in {0} union the unit circle?

    For monic integer f this is equivalent to Mahler measure 1, i.e. f is
    t**k times a product of cyclotomic polynomials.  The procedure strips
    t-powers and then iterates the Graeffe transform: if all roots lie on
    the circle, every iterate has coefficients bounded by the central
    binomial coefficient C(d, floor(d/2)), so the integer iterates live in
    a finite set and must eventually repeat (answer: yes).  If some root
    lies off the circle, the measure of the iterates grows like M**(2**k),
    which forces a coefficient past the bound (answer: no).  Either way
    the loop terminates, with no floating arithmetic anywhere.
    """
    if f.is_zero():
        raise PolynomialError("is_kronecker of the zero polynomial")
    if not f.is_monic():
        raise PolynomialError("is_kronecker requires monic input")
    _, g = _strip_t_powers(f)
    if g.degree == 0:
        return True
    d = g.degree
    bound = math.comb(d, d // 2)
    seen = {g.coeffs}
    while True:
        if any(abs(c) > bound for c in g.coeffs):
            return False
        g = graeffe(g)
        if g.coeffs in seen:
            return True
        seen.add(g.coeffs)


@functools.lru_cache(maxsize=None)
def _cyclotomic_orders(d: int) -> tuple[int, ...]:
    """Every N with euler_phi(N) <= d (totient lower bound gives N <= 2*d*d)."""
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d)


def kronecker_free_part(f: IntPoly) -> tuple[IntPoly, int, int]:
    """Split monic f into t**k * (cyclotomic product) * u with u cyclotomic-free.

    Returns (u, degree of the cyclotomic part, k).  Any cyclotomic factor
    of f is some Phi_N with euler_phi(N) <= deg f, so dividing f exactly by
    each such monic Phi_N for as long as the remainder is zero removes
    every cyclotomic factor including multiplicities.
    """
    if not f.is_monic():
        raise PolynomialError("kronecker_free_part requires monic input")
    k, u = _strip_t_powers(f)
    stripped = 0
    for n in _cyclotomic_orders(u.degree):
        phi = cyclotomic(n)
        while phi.degree <= u.degree:
            q, r = divrem_exact(u, phi)
            if not r.is_zero():
                break
            u = q
            stripped += phi.degree
    return u, stripped, k


# -- certified enclosures --------------------------------------------------


def _disk_data(parts, tol: Fraction, max_bits: int):
    """Certified disks for each (factor, multiplicity) pair of parts.

    Returns (disks, multiplicity) pairs plus the largest precision used.
    """
    bits = 0
    out = []
    for p, mult in parts:
        disks, prec = _certified_disks(p, tol, max_bits)
        bits = max(bits, prec)
        out.append((disks, mult))
    return out, bits


def _mahler_bounds(disk_data) -> tuple[Fraction, Fraction]:
    """Rational bounds on the product of max(1, |alpha|) over all roots.

    Overlapping disks are grouped into components; a component of k disks
    holds exactly k roots, so it contributes its modulus interval, clamped
    below at 1, to the k-th power.  This keeps the product sound even when
    disks cannot be told apart.
    """
    lo, hi = Fraction(1), Fraction(1)
    for disks, mult in disk_data:
        for group in components(disks):
            g_lo = max(Fraction(1), min(disks[i].mod_lo for i in group))
            g_hi = max(Fraction(1), max(disks[i].mod_hi for i in group))
            lo *= (g_lo ** len(group)) ** mult
            hi *= (g_hi ** len(group)) ** mult
    return lo, hi


def _house_bounds(floor: Fraction, disk_data) -> tuple[Fraction, Fraction]:
    """Rational bounds on max(floor, largest root modulus).

    The lower bound uses the fact that each certified disk contains at
    least one root.
    """
    lo = hi = floor
    for disks, _ in disk_data:
        for d in disks:
            lo = max(lo, d.mod_lo)
            hi = max(hi, d.mod_hi)
    return lo, hi


def _refine(parts, tol: float, root_tol: Fraction, max_bits: int, readers):
    """Certify disks for parts until every reader's enclosure is at most tol wide.

    Each reader maps the disk data to rational (lo, hi) bounds.  The root
    tolerance starts at root_tol and shrinks 16-fold per round.  Returns
    the enclosures in reader order and the disk data they were read from.

    Enclosures carry float endpoints, so their width can never drop below
    about one ulp of the value.  If an exact interval is already four
    times tighter than the request while its rounded enclosure is not,
    further refinement cannot help, and PrecisionExhausted is raised
    instead of looping forever.
    """
    while True:
        disk_data, bits = _disk_data(parts, root_tol, max_bits)
        encs = []
        for read in readers:
            lo, hi = read(disk_data)
            enc = Enclosure.from_bounds(lo, hi, bits)
            if enc.width > tol and hi - lo <= Fraction(tol) / 4:
                raise PrecisionExhausted(
                    f"enclosure width {enc.width:.3g} cannot reach {tol:.3g} "
                    "with float endpoints",
                    max_bits,
                )
            encs.append(enc)
        if all(enc.width <= tol for enc in encs):
            return encs, disk_data
        root_tol /= 16


def _mahler_root_tol(f: IntPoly, tol: float) -> Fraction:
    """Starting root tolerance for a Mahler enclosure of width tol."""
    return Fraction(min(tol, 1.0)) / (8 * (f.degree + 1) * _height_bound(f))


def _height_bound(f: IntPoly) -> int:
    """Integer upper bound for M(f), from the coefficient l2 norm."""
    s = sum(c * c for c in f.coeffs)
    return max(1, math.isqrt(s) + 1)


def mahler(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> Enclosure:
    """Certified enclosure of the Mahler measure of a monic f, width <= tol.

    M(f) is the product of max(1, |alpha|) over all roots.  Kronecker
    inputs return the exact point [1, 1].  Otherwise the cyclotomic part
    is stripped (factor exactly 1) and the remaining roots are enclosed by
    certified disks (see _mahler_bounds).  All interval arithmetic is
    exact rational until the final outward float conversion.
    """
    if not f.is_monic():
        raise PolynomialError("mahler requires monic input")
    u, _, _ = kronecker_free_part(f)
    if u.degree == 0:  # f is Kronecker
        return Enclosure(1.0, 1.0, 0)
    (enc,), _ = _refine(squarefree_decomposition(u), tol,
                        _mahler_root_tol(f, tol), max_bits, (_mahler_bounds,))
    return enc


def house(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> Enclosure:
    """Certified enclosure of the house (largest root modulus), width <= tol.

    For monic input: [0, 0] for a pure power of t, the exact point [1, 1]
    for Kronecker input with a nonzero root, and otherwise a disk-based
    enclosure of the largest modulus, with the cyclotomic part stripped
    first (it contributes exactly 1).  Non-monic input is enclosed
    directly from root disks without exact stripping.
    """
    if f.is_zero() or f.degree < 1:
        raise PolynomialError("house requires degree >= 1")
    if f.is_monic():
        u, stripped, _ = kronecker_free_part(f)
        if u.degree == 0:
            return Enclosure(1.0, 1.0, 0) if stripped else Enclosure(0.0, 0.0, 0)
        # monic with a nonzero root forces house >= 1
        parts, floor = squarefree_decomposition(u), Fraction(1)
    else:
        _, u = _strip_t_powers(f)
        if u.degree == 0:
            return Enclosure(0.0, 0.0, 0)
        parts, floor = [(u, 1)], Fraction(0)
    (enc,), _ = _refine(parts, tol, Fraction(min(tol, 1.0)) / 4, max_bits,
                        (functools.partial(_house_bounds, floor),))
    return enc


def mahler_lower_bound(f: IntPoly, steps: int = 6) -> float:
    """A cheap certified lower bound for M(f), used to prune searches.

    After k Graeffe steps, M(f)**(2**k) = M(f_k) >= ||f_k||_2 / 2**d
    (coefficient j of f_k is at most C(d, j) * M(f_k) in absolute value),
    so the 2**k-th root of that quotient bounds M(f) from below.  The
    float evaluation rounds downward by a generous margin.
    """
    if not f.is_monic():
        raise PolynomialError("mahler_lower_bound requires monic input")
    g = f
    for _ in range(steps):
        g = graeffe(g)
    s = sum(c * c for c in g.coeffs)
    # log2 ||f_k||_2 = log2(s)/2, computed safely for huge integers
    bl = s.bit_length()
    mant = s >> max(0, bl - 53)
    log2_s = math.log2(mant) + max(0, bl - 53)
    log2_bound = (log2_s / 2 - f.degree) / (1 << steps)
    return max(1.0, 2.0 ** (log2_bound - 1e-9))


# -- aggregate result -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MeasureResult:
    """Everything the measure command reports about one polynomial."""

    mahler: Enclosure
    house: Enclosure
    is_kronecker: bool
    root_count_outside_unit_circle: int
    root_count_certified: bool

    def to_json(self) -> dict:
        return {
            "mahler": self.mahler.to_json(),
            "house": self.house.to_json(),
            "is_kronecker": self.is_kronecker,
            "root_count_outside_unit_circle": self.root_count_outside_unit_circle,
            "root_count_certified": self.root_count_certified,
        }


def measure(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> MeasureResult:
    """Certified Mahler/house enclosures plus exact classification data.

    Both enclosures and the root count are read from one set of certified
    disks, refined until both enclosures meet tol.  The root count outside
    the unit circle is exact whenever every disk is resolved against the
    circle; Salem-type roots on the circle leave straddling disks, in
    which case the count is a certified lower bound and the certified
    flag is False.
    """
    if not f.is_monic():
        raise PolynomialError("measure requires monic input")
    if is_kronecker(f):
        return MeasureResult(Enclosure(1.0, 1.0, 0), house(f, tol, max_bits),
                             True, 0, True)
    u, _, _ = kronecker_free_part(f)
    # the count needs disks no coarser than 1e-6
    root_tol = min(_mahler_root_tol(f, tol), Fraction(min(tol, 1e-6)))
    readers = (_mahler_bounds, functools.partial(_house_bounds, Fraction(1)))
    (m, h), disk_data = _refine(squarefree_decomposition(u), tol, root_tol,
                                max_bits, readers)
    outside = 0
    certified = True
    for disks, mult in disk_data:
        for d in disks:
            if d.mod_lo > 1:
                outside += mult
            elif not d.mod_hi < 1:
                certified = False
    return MeasureResult(m, h, False, outside, certified)
