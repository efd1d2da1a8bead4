"""Certified complex root enclosures for integer polynomials.

The engine is one simultaneous (Aberth-Ehrlich) iteration, run up one
ladder of working precisions: hardware doubles (Python complex over
float coefficients) first, then mpmath multiprecision at p0, 2*p0, ...
up to a configured bit cap, where p0 is the first of 64, 128, 256, ...
with 2**-p0 <= tol.  Each multiprecision rung is warm-started from the
previous rung's approximations.  At working precision prec the
iteration stops once every relative correction satisfies
|corr|**2 / (1 + |z|**2) < 2**(2*(10 - prec)).  A zero derivative or a
collision at point i nudges it by 2**-(prec//2) * (1 + 1j) * (i + 1).
A value that stops being finite, or a coefficient too large for a
double, ends the rung with nothing, and the next rung cold-starts.
Only the correctly rounded +, -, *, / touch the double iterates, so
they are the same on every run and in every worker process.

Certification on top of it uses no floating point: the approximations
are dyadic rationals (doubles included), so the Weierstrass corrections

    W_i = f(z_i) / (lc * prod_{j != i} (z_i - z_j))

and the Newton quotients f(z_i)/f'(z_i) are evaluated in exact integer
arithmetic.  Each radius and each modulus bracket is then rounded
outward onto the dyadic grid 2**-R, where R is _GUARD_BITS (64) finer
than the finest of the points and of 2**-res_bits, the working
precision (see _certify).  Carrying the exact quotients instead would
give radii with thousands of denominator bits, and products of them
in the Mahler bounds with tens of thousands.  A certified disk keeps
its centre, radius and modulus bracket as plain integer numerators on
that grid, so grouping disks into components and reading enclosures
from them compare and multiply integers; measure.py builds one
Fraction per enclosure bound at the end.  Two classical facts turn
the quotients into a certificate, for pairwise distinct z_1..z_n and
radii r_i >= n * max(|W_i|, |f(z_i)/f'(z_i)|):

  * every root of f lies in the union of the closed disks D(z_i, r_i),
    and a connected component made of k disks contains exactly k roots
    counted with multiplicity (continuity of roots along the homotopy
    between prod (t - z_j) and f/lc);
  * each single disk contains at least one root, because the distance
    from any point z to the nearest root is at most n*|f(z)/f'(z)|.

Both facts hold for every choice of radii at or above these, which is
why rounding them up is sound.  Soundness never depends on which rung
produced the points.  A rung whose radii do not certify passes its
points to the next one; running past the cap raises PrecisionExhausted
rather than returning anything unsound.

Within one operation the ladder is resumed, not restarted.  Inside
memo_scope() a bounded memo keeps, per (part, p0), every rung already
run: its points, which warm-start the next rung, and its disks (or
None).  A later certification of the same part at the same p0, at a
tighter tolerance or a higher cap, reads those rungs back and runs
_aberth and _certify only past them, as MPSolve carries its
approximations up its precision ladder (Bini & Fiorentino, Numer.
Algorithms 23, 2000).  Rung i is a pure function of (coefficients, p0,
i), so a resumed ladder returns every bit a fresh one would.

One rule holds for every memo of per-input work in the package, this
one and the Graeffe chains of measure.py alike: it is a _ScopedMemo,
and it keeps entries only inside memo_scope(), which opens and closes
all of them together.  A search and a decomposition survey each run in
one scope, and so does each task a search sends to a pool worker; outside
a scope nothing is kept, so no operation reads another's work.  Only
tables that depend on small integers alone (the start angles here,
cyclotomic polynomials) live as long as the process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from fractions import Fraction
from typing import Optional

from . import _dyadic as dy
from .enclosure import float_above
from .errors import PolynomialError, PrecisionExhausted
from .poly import IntPoly, _strip_t_powers, squarefree_decomposition

__all__ = ["RootDisk", "roots_certified", "DEFAULT_MAX_BITS"]

DEFAULT_MAX_BITS = 4096
_START_BITS = 64
_MAX_ITER = 220
_DOUBLE_BITS = 53
# the certificate's grid is this many bits finer than its points
_GUARD_BITS = 64
_INF = float("inf")
# Keys the ladder memo holds, oldest dropped first: a search's phase-2
# candidates and their phase-1 enclosures fit, and a --no-prune scan of
# millions of members stays bounded.
_MEMO_SIZE = 256


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
    """Internal certified disk, every field a numerator on the grid 2**-grid.

    (re + i*im) * 2**-grid is the exact centre and r * 2**-grid the
    radius; [lo, hi] * 2**-grid bounds the modulus of anything inside
    the disk.  All disks of one _certify call share one grid.
    """

    re: int
    im: int
    r: int
    lo: int
    hi: int
    grid: int


@functools.lru_cache(maxsize=256)
def _unit_angles(n: int, prec: int) -> tuple:
    """(cos theta_k, sin theta_k) of the n start angles, at precision prec.

    Bounded: a long run meets few distinct (degree, precision) pairs, but
    nothing limits them.
    """
    import mpmath as mp

    with mp.workprec(prec):
        out = []
        for k in range(n):
            theta = (2 * mp.pi * k + mp.mpf("0.7")) / n
            out.append((mp.cos(theta), mp.sin(theta)))
        return tuple(out)


def _start_radii(coeffs, n: int) -> list:
    """The n start radii: a Cauchy-bound circle with a small stagger.

    The stagger depends on the index, so that symmetric inputs do not
    lock the iteration into a symmetric stall.  Doubles, unless the
    bound is past the double range (mpf exponents are unbounded).
    """
    lc = abs(coeffs[-1])
    top = max((abs(c) for c in coeffs[:-1]), default=0)
    try:
        bound = 1.0 + top / lc
    except OverflowError:
        import mpmath as mp

        bound = 1 + mp.mpf(top) / lc
    return [bound * (1.0 + 0.041 * (k % 3) + 0.0127 * (k % 5)) for k in range(n)]


def _initial_points(coeffs, n: int):
    """Deterministic starting configuration at mp's working precision.

    The angles depend only on n and the working precision, so they are
    cached.
    """
    import mpmath as mp

    return [mp.mpc(r * cos_k, r * sin_k) for r, (cos_k, sin_k)
            in zip(_start_radii(coeffs, n), _unit_angles(n, mp.mp.prec))]


@functools.lru_cache(maxsize=256)
def _double_angles(n: int) -> tuple:
    """_unit_angles(n, 53) as doubles, which hold each 53-bit mpf exactly."""
    return tuple((float(c), float(s)) for c, s in _unit_angles(n, _DOUBLE_BITS))


def _double_initial_points(coeffs, n: int) -> list:
    """_initial_points at 53 bits as Python complex numbers, bit for bit.

    A 53-bit mpf product of a double radius and a 53-bit cosine rounds to
    nearest, ties to even, as the IEEE product of the two doubles does.
    """
    return [complex(r * cos_k, r * sin_k) for r, (cos_k, sin_k)
            in zip(_start_radii(coeffs, n), _double_angles(n))]


def _aberth(coeffs, prec: int, warm):
    """The simultaneous iteration at one rung of the precision ladder.

    At prec 53 it iterates Python complex numbers over float
    coefficients, otherwise mpc over mpf coefficients under
    mp.workprec(prec); the update rule and its arithmetic are the same.
    Starts from warm, or from _initial_points (_double_initial_points at
    53 bits) when warm is None.
    Returns the approximations, or None when a coefficient does not fit
    the number type or a value stops being finite.
    """
    import mpmath as mp

    n = len(coeffs) - 1
    num, real = (complex, float) if prec == _DOUBLE_BITS else (mp.mpc, mp.mpf)
    with mp.workprec(prec):
        try:
            cs = [real(c) for c in coeffs]
            dcs = [real(i * c) for i, c in enumerate(coeffs) if i > 0]
        except OverflowError:
            return None
        if warm is not None:
            zs = [num(z) for z in warm]
        elif prec == _DOUBLE_BITS:
            zs = _double_initial_points(coeffs, n)
        else:
            zs = [num(z) for z in _initial_points(coeffs, n)]
        eps2 = real(2) ** (2 * (10 - prec))
        nudge = real(2) ** -(prec // 2)
        zero = num(0)
        for _ in range(_MAX_ITER):
            maxcorr2 = 0
            for i in range(n):
                z = zs[i]
                fz = dfz = s = zero
                for c in reversed(cs):
                    fz = fz * z + c
                for c in reversed(dcs):
                    dfz = dfz * z + c
                collided = False
                for other in zs[:i] + zs[i + 1:]:
                    diff = z - other
                    if diff == 0:
                        collided = True
                        break
                    s += 1 / diff
                if collided or dfz == 0:
                    zs[i] = z + nudge * (1 + 1j) * (i + 1)
                    maxcorr2 = _INF
                    continue
                w = fz / dfz
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


def _eval_scaled(coeffs, s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """p and p' at z = (x + i*y) / 2**s, scaled to Gaussian integers.

    p has the integer coefficients coeffs and degree n.  Returns the real
    and imaginary parts of 2**(s*n) * p(z) and then of
    2**(s*(n-1)) * p'(z).  This is homogeneous Horner in plain integers:
    each step is acc * (x + i*y) + c_j * 2**(s*(n - j)), and the
    derivative's accumulator takes acc, as in Horner's scheme for p'.
    """
    n = len(coeffs) - 1
    fa, fb, da, db = coeffs[n], 0, 0, 0
    for j in range(n - 1, -1, -1):
        da, db = da * x - db * y + fa, da * y + db * x + fb
        fa, fb = fa * x - fb * y + (coeffs[j] << s * (n - j)), fa * y + fb * x
    return fa, fb, da, db


def _certify(coeffs, points, res_bits=0):
    """Certified disks for a set of complex or mpc approximations.

    Returns a list of _ExactDisk, or None when the configuration is
    degenerate at this precision (coincident points, or a vanishing
    derivative at a non-root), in which case the caller escalates.

    Radii and modulus brackets are multiples of 2**-R with
    R = max(res_bits, -min_i e_i) + _GUARD_BITS, where e_i is the dyadic
    exponent of point i.  The grid is thus never coarser than the points
    themselves, so a root as small as 2**-600 keeps an exact bracket,
    and never coarser than 2**-res_bits, so the brackets tighten as the
    caller escalates precision even when a point lands exactly on a root
    with a small dyadic denominator.

    Everything is plain integer arithmetic.  Point i is
    z_i = Z_i / 2**s_i for a Gaussian integer Z_i and s_i = max(0, -e_i),
    and R >= s_i + 64, so each centre is an exact integer on the grid.
    f(z_i) * 2**(s_i*n) and f'(z_i) * 2**(s_i*(n-1)) are Gaussian
    integers (_eval_scaled).  The n(n-1)/2 squared distances
    |z_i - z_j|**2, each an integer over 4**max(s_i, s_j), are computed
    once, and since |prod w|**2 = prod |w|**2, the squared Weierstrass
    denominator |lc * prod_{j != i} (z_i - z_j)|**2 is lc**2 times their
    product over j: an integer over a power of 4.  The larger of |W_i|
    and |f(z_i)/f'(z_i)| is the one with the smaller denominator, chosen
    by one shifted integer comparison, and the radius is the smallest
    grid multiple at or above n times it (one exact ceiling division and
    one isqrt).  |z_i| is rounded down and up onto the grid, and the
    bracket of the disk is that interval widened by the radius, clamped
    below at 0.

    Each point keeps its own exponent, not the least one: a near-real
    point with a tiny imaginary part (a double such as 1.18 + 2.9e-47i)
    has an exponent far below the others', and shifting every point onto
    it would make all of the integers, and Horner's accumulators most,
    that much longer.

    Rounding outward is sound because every statement of the certificate
    survives larger radii and wider brackets:

      * the union of the larger disks still covers every root;
      * each component of the exact disks is connected, so it lies in
        one component of the larger disks, which is therefore a union
        of exact components and holds exactly as many roots as disks;
      * each larger disk contains its exact disk, hence a root;
      * an interval containing a sound modulus bracket is sound.
    """
    n = len(coeffs) - 1
    zs = [dy.from_mpf_pair(z.real, z.imag) for z in points]
    # exact: from_mpf_pair gives each complex value exactly one triple
    if len(set(zs)) < n:
        return None
    grid = max(res_bits, -min(e for _, _, e in zs)) + _GUARD_BITS
    # z_i = (xs[i] + i*ys[i]) / 2**ss[i]
    ss = [max(0, -e) for _, _, e in zs]
    xs = [a << max(0, e) for a, _, e in zs]
    ys = [b << max(0, e) for _, b, e in zs]
    # |z_i - z_j|**2 = dist2[i][j] / 4**max(ss[i], ss[j]); scale[i] sums
    # those exponents over j != i
    dist2 = [[0] * n for _ in range(n)]
    scale = [0] * n
    for i in range(n):
        x, y, s, row = xs[i], ys[i], ss[i], dist2[i]
        for j in range(i + 1, n):
            k = s - ss[j]
            if k >= 0:
                a, b, t = x - (xs[j] << k), y - (ys[j] << k), s
            else:
                a, b, t = (x << -k) - xs[j], (y << -k) - ys[j], ss[j]
            row[j] = dist2[j][i] = a * a + b * b
            scale[i] += t
            scale[j] += t
    lc2 = coeffs[-1] ** 2
    n2 = n * n
    disks = []
    for i in range(n):
        x, y, s = xs[i], ys[i], ss[i]
        fa, fb, da, db = _eval_scaled(coeffs, s, x, y)
        f2 = fa * fa + fb * fb
        if f2 == 0:
            r = 0
        else:
            d2 = da * da + db * db
            if d2 == 0:
                return None
            row = dist2[i]
            # |lc * prod|**2 = w2 / 4**scale[i] and |f'(z)|**2 = d2 / 4**de
            w2 = lc2 * math.prod(row[:i] + row[i + 1:])
            de = s * (n - 1)
            q2, qe = ((w2, scale[i]) if dy.le_scaled(w2, -2 * scale[i], d2, -2 * de)
                      else (d2, de))
            # (r * 2**grid)**2 = n2 * f2 * 4**(grid - s*n + qe) / q2
            k = 2 * (grid - s * n + qe)
            num, den = (n2 * f2 << k, q2) if k >= 0 else (n2 * f2, q2 << -k)
            _, r = dy.sqrt_bounds(num, den)
        up = grid - s
        m_lo, m_hi = dy.sqrt_bounds((x * x + y * y) << 2 * up)
        disks.append(_ExactDisk(x << up, y << up, r, max(0, m_lo - r), m_hi + r, grid))
    return disks


# Every _ScopedMemo; memo_scope() opens and closes them together.
_memos: list[_ScopedMemo] = []


class _ScopedMemo:
    """A bounded map that keeps entries only while a memo scope is open.

    Outside memo_scope() every lookup misses and nothing is kept.  Inside
    it, the oldest key is dropped once maxsize keys are held.  hits and
    misses count lookups over all scopes.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.entries: Optional[dict] = None
        self.hits = self.misses = 0
        _memos.append(self)

    def get(self, key, make):
        """The entry kept for key; on a miss make() builds it, kept in a scope."""
        entries = self.entries
        if entries is not None:
            value = entries.get(key)
            if value is not None:
                self.hits += 1
                return value
        self.misses += 1
        value = make()
        if entries is not None:
            if len(entries) >= self.maxsize:
                del entries[next(iter(entries))]
            entries[key] = value
        return value


# (coefficients, p0) -> the ladder's rungs so far, each (points, disks)
_ladders = _ScopedMemo(_MEMO_SIZE)


@contextlib.contextmanager
def memo_scope():
    """Keep every memo's entries until the outermost scope closes.

    A scope opened inside another is part of it.  The memos are bounded,
    and their entries go when the outermost scope closes, so work done
    for one operation never serves another.
    """
    if _ladders.entries is not None:
        yield
        return
    for memo in _memos:
        memo.entries = {}
    try:
        yield
    finally:
        for memo in _memos:
            memo.entries = None


def _certified_disks(
    f: IntPoly, tol: Fraction, max_bits: int
) -> tuple[list[_ExactDisk], int]:
    """Certified disks for all roots of f (any nonzero f, roots of 0 excluded).

    The caller is responsible for stripping powers of t.  Returns the
    disks together with the ladder rung they were certified from: 53
    for hardware doubles, otherwise the multiprecision working precision.

    Given p0, the ladder [53, p0, 2*p0, ...] depends on nothing else:
    max_bits only truncates it.  Rung i runs _aberth from rung i-1's
    points (a cold start after a rung that gave none) and certifies
    them at grid max(prec, p0), so its points and disks are a pure
    function of (coefficients, p0, i).  Inside memo_scope() the rungs
    already run for (coefficients, p0) are read back from _ladders, and
    only the rest are run and kept.  Each rung, read or run, takes the
    same tolerance test, so the result is the one a fresh ladder gives,
    and the returned disks are shared with the memo: callers only read
    them.
    """
    coeffs = f.coeffs
    if f.degree <= 0:
        return [], 0
    if f.constant == 0:
        raise PolynomialError("internal: zero roots must be stripped first")
    p0 = _START_BITS
    # start near the precision the tolerance itself demands
    while Fraction(1, 1 << p0) > tol and p0 < max_bits:
        p0 *= 2
    ladder = [_DOUBLE_BITS] if p0 <= max_bits else []
    prec = p0
    while prec <= max_bits:
        ladder.append(prec)
        prec *= 2
    rungs = _ladders.get((coeffs, p0), list)
    zs = None
    for i, prec in enumerate(ladder):
        if i < len(rungs):
            zs, disks = rungs[i]
        else:
            zs = _aberth(coeffs, prec, zs)
            # the points are dyadic rationals: _certify converts them exactly
            disks = None if zs is None else _certify(coeffs, zs, max(prec, p0))
            rungs.append((zs, disks))
        # r * 2**-grid <= tol, with r an integer
        if disks is not None and max(d.r for d in disks) <= (
                tol.numerator << disks[0].grid) // tol.denominator:
            return disks, prec
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
    sorted by left end tests only those pairs for overlap.  The disks
    share one grid, so every test compares integers.
    """
    n = len(disks)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extents = sorted((d.re - d.r, d.re + d.r, i) for i, d in enumerate(disks))
    active: list[tuple[int, int]] = []  # (right end, index)
    for left, right, i in extents:
        active = [(r, j) for r, j in active if r >= left]
        d = disks[i]
        for _, j in active:
            other = disks[j]
            a, b, reach = d.re - other.re, d.im - other.im, d.r + other.r
            if a * a + b * b <= reach * reach:
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
    k, f = _strip_t_powers(f)
    out = [RootDisk(0j, 0.0)] * k
    if f.degree <= 0:
        return out
    if f.is_monic():
        parts = squarefree_decomposition(f)
    else:
        parts = [(f, 1)]
    for p, mult in parts:
        disks, _ = _certified_disks(p, tol_frac, max_bits)
        for d in disks:
            unit = 1 << d.grid
            re, im = Fraction(d.re, unit), Fraction(d.im, unit)
            try:
                center = complex(float(re), float(im))
            except OverflowError:
                raise PrecisionExhausted(
                    "root disk centre beyond the double range", max_bits
                ) from None
            # the rounding distance is at most |Re error| + |Im error|
            radius = float_above(Fraction(d.r, unit) + abs(re - Fraction(center.real))
                                 + abs(im - Fraction(center.imag)))
            if radius > tol:
                raise PrecisionExhausted(
                    f"root disk radius {radius:.3g} cannot reach {tol:.3g} "
                    "around a double centre",
                    max_bits,
                )
            out.extend(RootDisk(center, radius) for _ in range(mult))
    return out
