"""Certified complex root enclosures for integer polynomials.

The engine is a simultaneous (Aberth-Ehrlich) iteration, run first in
hardware double precision and, only when those approximations do not
certify at the requested tolerance, in multiprecision floating
arithmetic warm-started from them.  Certification on top of it is exact:
the approximations are dyadic rationals (doubles included), so the
Weierstrass corrections

    W_i = f(z_i) / (lc * prod_{j != i} (z_i - z_j))

and the Newton quotients f(z_i)/f'(z_i) are evaluated in exact integer
arithmetic and compared against the tolerance as rationals.  Two classical
facts turn them into a certificate, for pairwise distinct z_1..z_n and
radii r_i = n * max(|W_i|, |f(z_i)/f'(z_i)|):

  * every root of f lies in the union of the closed disks D(z_i, r_i),
    and a connected component made of k disks contains exactly k roots
    counted with multiplicity (continuity of roots along the homotopy
    between prod (t - z_j) and f/lc);
  * each single disk contains at least one root, because the distance
    from any point z to the nearest root is at most n*|f(z)/f'(z)|.

Soundness therefore never depends on which iteration produced the
points.  If the radii do not certify, the multiprecision iteration
doubles its precision, warm-starting from the previous approximations,
until a configured bit cap; running past the cap raises
PrecisionExhausted rather than returning anything unsound.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import mpmath as mp

from . import _dyadic as dy
from .enclosure import float_above
from .errors import PolynomialError, PrecisionExhausted
from .poly import IntPoly, squarefree_decomposition

__all__ = ["RootDisk", "roots_certified", "DEFAULT_MAX_BITS"]

DEFAULT_MAX_BITS = 4096
_START_BITS = 64
_MAX_ITER = 220
_DOUBLE_BITS = 53
_INF = float("inf")


@dataclasses.dataclass(frozen=True)
class RootDisk:
    """A closed disk certified to contain at least one root of the input."""

    center: complex
    radius: float

    def to_json(self) -> dict:
        return {
            "re": repr(self.center.real),
            "im": repr(self.center.imag),
            "radius": repr(self.radius),
        }


@dataclasses.dataclass(frozen=True)
class _ExactDisk:
    """Internal certified disk with exact center and bounds."""

    center: dy.Dyadic
    radius: Fraction
    # rational bounds on the modulus of anything inside the disk
    mod_lo: Fraction
    mod_hi: Fraction

    def overlaps(self, other: "_ExactDisk") -> bool:
        gap2 = dy.abs2(dy.sub(self.center, other.center))
        reach = self.radius + other.radius
        return gap2 <= reach * reach


@functools.lru_cache(maxsize=256)
def _unit_angles(n: int, prec: int) -> tuple:
    """(cos theta_k, sin theta_k) of the n start angles, at precision prec.

    Bounded: a long run meets few distinct (degree, precision) pairs, but
    nothing limits them.
    """
    with mp.workprec(prec):
        out = []
        for k in range(n):
            theta = (2 * mp.pi * k + mp.mpf("0.7")) / n
            out.append((mp.cos(theta), mp.sin(theta)))
        return tuple(out)


def _initial_points(coeffs, n: int):
    """Deterministic starting configuration on a Cauchy-bound circle.

    The radii carry a small index-dependent stagger so that symmetric
    inputs do not lock the iteration into a symmetric stall.  The angles
    depend only on n and the working precision, so they are cached.
    """
    lc = abs(coeffs[-1])
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / lc if n > 0 else 1.0
    pts = []
    for k, (cos_k, sin_k) in enumerate(_unit_angles(n, mp.mp.prec)):
        r = bound * (1.0 + 0.041 * (k % 3) + 0.0127 * (k % 5))
        pts.append(mp.mpc(r * cos_k, r * sin_k))
    return pts


def _aberth(coeffs, prec: int, warm):
    """Run the simultaneous iteration at the given precision; returns mpc list."""
    n = len(coeffs) - 1
    with mp.workprec(prec):
        cs = [mp.mpf(c) for c in coeffs]
        dcs = [mp.mpf(i * c) for i, c in enumerate(coeffs) if i > 0]

        def horner(values, z):
            acc = mp.mpc(0)
            for c in reversed(values):
                acc = acc * z + c
            return acc

        if warm is None:
            zs = _initial_points(coeffs, n)
        else:
            zs = [mp.mpc(w) for w in warm]
        eps = mp.mpf(2) ** (-prec + 10)
        for _ in range(_MAX_ITER):
            maxcorr = mp.mpf(0)
            for i in range(n):
                z = zs[i]
                fz = horner(cs, z)
                dfz = horner(dcs, z)
                if dfz == 0:
                    zs[i] = z + mp.mpf(2) ** (-prec // 2)
                    maxcorr = mp.inf
                    continue
                w = fz / dfz
                s = mp.mpc(0)
                collision = False
                for j in range(n):
                    if j == i:
                        continue
                    diff = z - zs[j]
                    if diff == 0:
                        collision = True
                        break
                    s += 1 / diff
                if collision:
                    zs[i] = z + mp.mpf(2) ** (-prec // 2) * (1 + 1j) * (i + 1)
                    maxcorr = mp.inf
                    continue
                denom = 1 - w * s
                corr = w if denom == 0 else w / denom
                zs[i] = z - corr
                mc = abs(corr) / (1 + abs(z))
                if mc > maxcorr:
                    maxcorr = mc
            if maxcorr < eps:
                break
        return zs


def _aberth_float(coeffs):
    """The iteration of _aberth in hardware doubles; a complex list or None.

    Same update rule, iteration cap and starting points as _aberth, with
    a convergence threshold of 2**(10 - 53) on the relative correction.
    Only the correctly rounded +, -, *, / of Python complex arithmetic
    touch the iterates (the convergence test compares squared moduli),
    so the result is the same on every run and in every worker process.
    Returns None when a coefficient is too large for a double, a value
    stops being finite, a derivative vanishes or two points collide;
    the caller then falls back to the multiprecision iteration.
    """
    n = len(coeffs) - 1
    try:
        cs = [float(c) for c in coeffs]
        dcs = [float(i * c) for i, c in enumerate(coeffs) if i > 0]
    except OverflowError:
        return None
    with mp.workprec(_DOUBLE_BITS):
        zs = [complex(z) for z in _initial_points(coeffs, n)]
    eps2 = 2.0 ** (2 * (10 - _DOUBLE_BITS))
    for _ in range(_MAX_ITER):
        maxcorr2 = 0.0
        for i in range(n):
            z = zs[i]
            fz = 0j
            for c in reversed(cs):
                fz = fz * z + c
            dfz = 0j
            for c in reversed(dcs):
                dfz = dfz * z + c
            if dfz == 0:
                return None
            w = fz / dfz
            s = 0j
            for j in range(n):
                if j != i:
                    diff = z - zs[j]
                    if diff == 0:
                        return None
                    s += 1 / diff
            denom = 1 - w * s
            corr = w if denom == 0 else w / denom
            zs[i] = z - corr
            corr2 = corr.real * corr.real + corr.imag * corr.imag
            z2 = z.real * z.real + z.imag * z.imag
            if not (corr2 < _INF and z2 < _INF):
                return None
            # (|corr| / (1 + |z|))**2 <= corr2 / (1 + z2) <= twice that
            mc2 = corr2 / (1 + z2)
            if mc2 > maxcorr2:
                maxcorr2 = mc2
        if maxcorr2 < eps2:
            break
    return zs


def _certify(coeffs, zs_mpc, res_bits=0):
    """Exact certification of a floating approximation set.

    Returns a list of _ExactDisk, or None when the configuration is
    degenerate at this precision (coincident points, or a vanishing
    derivative at a non-root), in which case the caller escalates.
    res_bits forces the rational modulus brackets down to 2**-res_bits,
    which matters when an approximation lands exactly on a root with a
    small dyadic denominator (the brackets would otherwise stay coarse
    no matter how far the caller escalates precision).
    """
    n = len(coeffs) - 1
    lc = coeffs[-1]
    deriv = [i * c for i, c in enumerate(coeffs) if i > 0]
    zs = [dy.from_mpf_pair(z.real, z.imag) for z in zs_mpc]
    for i in range(n):
        for j in range(i + 1, n):
            if dy.is_zero(dy.sub(zs[i], zs[j])):
                return None
    n2 = Fraction(n * n)
    lc2 = Fraction(lc * lc)
    disks = []
    for i, z in enumerate(zs):
        f_at = dy.eval_int_poly(coeffs, z)
        f2 = dy.abs2(f_at)
        if f2 == 0:
            radius = Fraction(0)
        else:
            prod = (1, 0, 0)
            for j, other in enumerate(zs):
                if j != i:
                    prod = dy.mul(prod, dy.sub(z, other))
            weier2 = n2 * f2 / (lc2 * dy.abs2(prod))
            df_at = dy.eval_int_poly(deriv, z)
            df2 = dy.abs2(df_at)
            if df2 == 0:
                return None
            newton2 = n2 * f2 / df2
            _, radius = dy.sqrt_bounds(max(weier2, newton2), res_bits)
        m_lo, m_hi = dy.sqrt_bounds(dy.abs2(z), res_bits)
        disks.append(
            _ExactDisk(
                center=z,
                radius=radius,
                mod_lo=max(Fraction(0), m_lo - radius),
                mod_hi=m_hi + radius,
            )
        )
    return disks


def _certified_disks(
    f: IntPoly, tol: Fraction, max_bits: int
) -> tuple[list[_ExactDisk], int]:
    """Certified disks for all roots of f (any nonzero f, roots of 0 excluded).

    The caller is responsible for stripping powers of t.  Returns the
    disks together with the precision of the approximation they were
    certified from: 53 when the hardware-double iteration already meets
    tol, otherwise the multiprecision working precision.
    """
    coeffs = f.coeffs
    if f.degree <= 0:
        return [], 0
    if f.constant == 0:
        raise PolynomialError("internal: zero roots must be stripped first")
    tol2 = tol * tol
    prec = _START_BITS
    # start near the precision the tolerance itself demands
    while Fraction(1, 1 << prec) > tol and prec < max_bits:
        prec *= 2
    warm = None
    if prec <= max_bits:
        warm = _aberth_float(coeffs)
        if warm is not None:
            # a double is a dyadic rational: _certify converts it exactly
            disks = _certify(coeffs, warm, prec)
            if disks is not None and all(d.radius * d.radius <= tol2
                                         for d in disks):
                return disks, _DOUBLE_BITS
    while prec <= max_bits:
        zs = _aberth(coeffs, prec, warm)
        disks = _certify(coeffs, zs, prec)
        if disks is not None and all(d.radius * d.radius <= tol2 for d in disks):
            return disks, prec
        warm = zs
        prec *= 2
    raise PrecisionExhausted(
        f"root certification for degree {f.degree} at tolerance {float(tol):.3g}",
        max_bits,
    )


def components(disks: list[_ExactDisk]) -> list[list[int]]:
    """Connected components of the disk-overlap graph, as index lists.

    A component of k disks is certified to contain exactly k roots
    (with multiplicity), which is what makes products over root moduli
    sound even when disks overlap.  Overlapping (or tangent) disks have
    meeting real extents [Re c - r, Re c + r], so a sweep over the disks
    sorted by left end tests only those pairs for overlap.
    """
    n = len(disks)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extents = []
    for i, d in enumerate(disks):
        re, _ = dy.to_fractions(d.center)
        extents.append((re - d.radius, re + d.radius, i))
    extents.sort()
    active: list[tuple[Fraction, int]] = []  # (right end, index)
    for left, right, i in extents:
        active = [(r, j) for r, j in active if r >= left]
        for _, j in active:
            if disks[i].overlaps(disks[j]):
                parent[find(i)] = find(j)
        active.append((right, i))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def roots_certified(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> list[RootDisk]:
    """deg(f) certified root disks, covering all roots with multiplicity.

    Roots at 0 come out as exact zero-radius disks.  The remaining part
    is split into squarefree factors first (Yun's decomposition for monic
    input), so repeated roots cost one disk computation each and are then
    replicated per multiplicity.  Each disk is the certified exact disk
    with its centre rounded to the nearest complex double and its radius
    widened, rounding upward, by the rounding distance, so it still
    contains its root.  Every returned radius is at most tol; a tol too
    small for that at the centre's double spacing raises
    PrecisionExhausted.
    """
    if f.is_zero():
        raise PolynomialError("roots of the zero polynomial")
    if tol <= 0:
        raise PolynomialError("tolerance must be positive")
    tol_frac = Fraction(tol)
    out: list[RootDisk] = []
    k = 0
    while f.constant == 0:
        f = IntPoly(f.coeffs[1:])
        k += 1
    out.extend(RootDisk(0j, 0.0) for _ in range(k))
    if f.degree <= 0:
        return out
    if f.is_monic():
        parts = squarefree_decomposition(f)
    else:
        parts = [(f, 1)]
    for p, mult in parts:
        disks, _ = _certified_disks(p, tol_frac, max_bits)
        for d in disks:
            re, im = dy.to_fractions(d.center)
            center = complex(float(re), float(im))
            # the rounding distance is at most |Re error| + |Im error|
            radius = float_above(d.radius + abs(re - Fraction(center.real))
                                 + abs(im - Fraction(center.imag)))
            if radius > tol:
                raise PrecisionExhausted(
                    f"root disk radius {radius:.3g} cannot reach {tol:.3g} "
                    "around a double centre",
                    max_bits,
                )
            out.extend(RootDisk(center, radius) for _ in range(mult))
    return out
