"""Certified complex root enclosures for integer polynomials.

The engine is one simultaneous (Aberth-Ehrlich) iteration, run up one
ladder of working precisions: hardware doubles (Python complex over
float coefficients) first, then mpmath multiprecision at p0, 2*p0, ...
up to a configured bit cap, where p0 is the first of 64, 128, 256, ...
with 2**-p0 <= tol.  A cold start puts the points on circles read off
the Newton polygon of the coefficients' bit lengths.  At working
precision prec a point stops once its relative correction satisfies
|corr|**2 / (1 + |z|**2) < 2**(2*(10 - prec)), and the sweep ends when
every point has stopped.  A zero derivative or a collision at point i
nudges it by 2**-(prec//2) * (1 + 1j) * (i + 1).  A value that stops
being finite, or a coefficient too large for a double, ends the rung
with nothing, and the next rung cold-starts.  Only the correctly
rounded +, -, *, / and square root touch the double iterates, so they
are the same on every run, on every host and in every worker process.

The two classes the package studies have a shorter way in.  A
reciprocal part of degree 2d is t**d P(t + 1/t), a skew-reciprocal one
t**d P(t - 1/t), with P an integer polynomial of degree d
(_trace_polynomial).  The double rung of such a part first runs the
iteration on P, and each root x of P gives two start points for the
part, the roots of a**2 - x a + 1 or a**2 - x a - 1 (_trace_start).
The part's own iteration then runs from those 2d points, usually for a
single sweep, and only its own points are certified.  A sweep on P, of
half the degree, costs about a quarter of one on the part.  The
enclosures of measure.py go further: they certify P itself and read the
part's Mahler measure, house and root count from P's disks (see
measure._trace_brackets), so a class part reaches the ladder in its
own right only through roots_certified, or when a disk of P lies too
near a branch point for that reading.  P's monomial coefficients grow
about like 2**d, and an iteration on P in doubles finds its roots near
[-2, 2] only to about 2**d times a double's precision; when that leaves
a double disk of P wider than 2**-40, P's double rung takes its points
from the part's own iteration instead, mapped by x = a + sigma/a
(_trace_points).

A rung after one whose disks certified but were too wide runs no
multiprecision iteration: exact Newton steps, in integers, carry each
point onto a grid prec bits finer than its own (_newton).  Only when
those points do not converge, do not certify, or give no narrower
disks does the rung fall back to the iteration, warm-started from the
latest points, as after a rung that certified nothing.

The roots of a real polynomial are closed under conjugation, and each
rung's points are made so too (_conjugate_closed): every point is
matched with the one nearest its conjugate and, when that matching is
an involution, a point matched with itself becomes exactly real and of
a pair the point below the real axis becomes the exact conjugate of the
other.  _certify then evaluates one point per pair and mirrors its
disk, and _newton steps one point per pair.  Soundness does not rest on
this: the certificate holds for any set of distinct points.

Certification on top of it uses no floating point: the approximations
are dyadic rationals (doubles included), so the Weierstrass corrections

    W_i = f(z_i) / (lc * prod_{j != i} (z_i - z_j))

and the Newton quotients f(z_i)/f'(z_i) are evaluated in exact integer
arithmetic, f and f' at z_i both from one division of f by the real
quadratic (t - z_i)(t - conj z_i).  Each radius and each modulus
bracket is then rounded outward onto the dyadic grid 2**-R, where R is
_GUARD_BITS (64) finer than the finest of the points and of
2**-res_bits, the working precision (see _certify).  Carrying the exact
quotients instead would give radii with thousands of denominator bits,
and products of them in the Mahler bounds with tens of thousands.  A
certified disk keeps its centre, radius and modulus bracket as plain
integer numerators on that grid, so grouping disks into components and
reading enclosures from them compare and multiply integers; measure.py
builds one Fraction per enclosure bound at the end.  Two classical
facts turn the quotients into a certificate, for pairwise distinct
z_1..z_n and radii r_i >= n * max(|W_i|, |f(z_i)/f'(z_i)|):

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
_newton, _aberth and _certify only past them, as MPSolve carries its
approximations up its precision ladder (Bini & Fiorentino, Numer.
Algorithms 23, 2000).  Rung i is a pure function of (coefficients, p0,
i), so a resumed ladder returns every bit a fresh one would.

One rule holds for every memo of per-input work in the package, this
one and the Graeffe chains and squarefree parts of measure.py alike:
it is a _ScopedMemo, and it keeps entries only inside memo_scope(),
which opens and closes all of them together.  A search and a decomposition survey each run in
one scope, and so does each task a search sends to a pool worker; outside
a scope nothing is kept, so no operation reads another's work.  Only
tables that depend on small integers alone (the start angles here,
cyclotomic polynomials, measure.py's per-degree constants) live as long
as the process.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from fractions import Fraction
from typing import Optional

from . import _dyadic as dy
from ._record import Record
from .enclosure import float_above
from .errors import PolynomialError, PrecisionExhausted
from .poly import IntPoly, _strip_t_powers, squarefree_decomposition

__all__ = ["RootDisk", "roots_certified", "DEFAULT_MAX_BITS"]

DEFAULT_MAX_BITS = 4096
_START_BITS = 64
_MAX_ITER = 220
# Sweeps for a trace polynomial's roots, which only start the part's own
# iteration: from degree about 24 on, P's monomial coefficients hold its
# roots in [-2, 2] to less than the stopping rule asks, and sweeps on to
# _MAX_ITER would cost more than a cold start on the part
_TRACE_SWEEPS = 16
# A trace polynomial's own double disks are kept when none is wider than
# 2**-_TRACE_OWN_BITS, a double's precision less 13 bits; wider ones, from
# P of degree about 14 on, give way to the part's points (_trace_points)
_TRACE_OWN_BITS = 40
# Newton steps a point may take in one rung: seven double a double's 53
# correct bits past 4096 + 53, and the eighth finds the step zero
_NEWTON_STEPS = 8
_DOUBLE_BITS = 53
# the certificate's grid is this many bits finer than its points
_GUARD_BITS = 64
_INF = float("inf")
# Keys the ladder memo holds, oldest dropped first: a search's phase-2
# candidates and their phase-1 enclosures fit, and a scope that encloses
# millions of members stays bounded.
_MEMO_SIZE = 256


class RootDisk(Record):
    """A closed disk certified to contain at least one root of the input.

    Fields: the complex center and the float radius.
    """

    __slots__ = ("center", "radius")

    def to_json(self) -> dict:
        return {
            "re": repr(self.center.real),
            "im": repr(self.center.imag),
            "radius": repr(self.radius),
        }


class _ExactDisk(Record):
    """Internal certified disk, every field a numerator on the grid 2**-grid.

    (re + i*im) * 2**-grid is the exact centre and r * 2**-grid the
    radius; [lo, hi] * 2**-grid bounds the modulus of anything inside
    the disk.  All disks of one _certify call share one grid.

    A record that measure._trace_brackets makes from a disk of a class
    part's trace polynomial P keeps the disk's centre and radius, on its
    grid or a finer one, but its [lo, hi] * 2**-grid bounds something
    else: L(x) = max(|a|, |sigma/a|) for every x in the disk, a a root
    of a**2 - x a + sigma, which is at least 1.
    """

    __slots__ = ("re", "im", "r", "lo", "hi", "grid")

    def __init__(self, re: int, im: int, r: int, lo: int, hi: int, grid: int):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "grid", grid)


@functools.lru_cache(maxsize=256)
def _unit_angles(n: int, prec: int) -> tuple:
    """(cos theta_k, sin theta_k) of the n start angles, at precision prec.

    Doubles at 53 bits, which hold each 53-bit mpf exactly; mpf above.
    Bounded: a long run meets few distinct (degree, precision) pairs, but
    nothing limits them.
    """
    import mpmath as mp

    with mp.workprec(prec):
        out = []
        for k in range(n):
            theta = (2 * mp.pi * k + mp.mpf("0.7")) / n
            out.append((mp.cos(theta), mp.sin(theta)))
    if prec == _DOUBLE_BITS:
        return tuple((float(c), float(s)) for c, s in out)
    return tuple(out)


def _start_radii(coeffs, n: int) -> list:
    """The n start radii, read off the Newton polygon, with a small stagger.

    The points (k, bl_k), bl_k the bit length of |c_k|, have an upper
    convex hull from k = 0 to k = n.  An edge a -> b of it stands for
    b - a roots of modulus about 2**((bl_a - bl_b) / (b - a)), and gives
    b - a radii of 2**e, e that exponent rounded to the nearest integer
    (halves up), all in integer arithmetic.  A zero coefficient has
    bl_k = 0, below every chord between the nonzero end points, so it
    never lies on the hull.  The stagger depends on the index, so that
    symmetric inputs do not lock the iteration into a symmetric stall.
    Doubles, unless a radius is past the double range (mpf exponents are
    unbounded); each radius is a power of two times the stagger, exact
    in either type.
    """
    hull: list[tuple[int, int]] = []
    for k, c in enumerate(coeffs):
        y = abs(c).bit_length()
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                 <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    exps = []
    for (a, bl_a), (b, bl_b) in zip(hull, hull[1:]):
        exps += [(2 * (bl_a - bl_b) + b - a) // (2 * (b - a))] * (b - a)
    stagger = [1.0 + 0.041 * (k % 3) + 0.0127 * (k % 5) for k in range(n)]
    if all(-1022 <= e <= 1023 for e in exps):
        return list(map(math.ldexp, stagger, exps))
    import mpmath as mp

    return list(map(mp.ldexp, stagger, exps))


def _initial_points(coeffs, n: int, prec: int) -> list:
    """Deterministic starting configuration at precision prec.

    Python complex numbers at 53 bits, mpc above.  A 53-bit mpf product
    of a double radius and a 53-bit cosine rounds to nearest, ties to
    even, as the IEEE product of the two doubles does, so the complex
    points are the 53-bit mpc ones, bit for bit.  The angles depend only
    on n and prec, so they are cached.
    """
    import mpmath as mp

    num = complex if prec == _DOUBLE_BITS else mp.mpc
    with mp.workprec(prec):
        return [num(r * cos_k, r * sin_k) for r, (cos_k, sin_k)
                in zip(_start_radii(coeffs, n), _unit_angles(n, prec))]


def _aberth(coeffs, prec: int, warm, sweeps: int = _MAX_ITER):
    """The simultaneous iteration at one rung of the precision ladder.

    At prec 53 it iterates Python complex numbers over float
    coefficients, otherwise mpc over mpf coefficients under
    mp.workprec(prec); the update rule and its arithmetic are the same.
    Starts from warm, or from _initial_points when warm is None.

    Each point stops on its own: once its relative correction is below
    eps, the correction is applied and the point is not updated again,
    though it still enters the other points' sums.  The iteration ends
    when no point is left active (Bini, Numer. Algorithms 13, 1996), or
    after the given number of sweeps.
    Returns the approximations, or None when a coefficient does not fit
    the number type or a value stops being finite.
    """
    import mpmath as mp

    n = len(coeffs) - 1
    num, real = (complex, float) if prec == _DOUBLE_BITS else (mp.mpc, mp.mpf)
    with mp.workprec(prec):
        try:
            # highest degree first, for Horner
            cs = [real(c) for c in reversed(coeffs)]
        except OverflowError:
            return None
        if warm is not None:
            zs = [num(z) for z in warm]
        else:
            zs = _initial_points(coeffs, n, prec)
        eps2 = real(2) ** (2 * (10 - prec))
        nudge = real(2) ** -(prec // 2)
        zero = num(0)
        active = range(n)
        for _ in range(sweeps):
            if not active:
                break
            still = []
            for i in active:
                z = zs[i]
                fz = dfz = s = zero
                for c in cs:
                    dfz = dfz * z + fz
                    fz = fz * z + c
                try:
                    for other in zs[:i]:
                        s += 1 / (z - other)
                    for other in zs[i + 1:]:
                        s += 1 / (z - other)
                    w = fz / dfz
                except ZeroDivisionError:  # a collision, or f'(z) = 0
                    zs[i] = z + nudge * (1 + 1j) * (i + 1)
                    still.append(i)
                    continue
                denom = 1 - w * s
                corr = w if denom == 0 else w / denom
                zs[i] = z - corr
                corr2 = corr.real * corr.real + corr.imag * corr.imag
                z2 = z.real * z.real + z.imag * z.imag
                if not (corr2 < _INF and z2 < _INF):
                    return None
                # (|corr| / (1 + |z|))**2 <= corr2 / (1 + z2) <= twice that
                if corr2 / (1 + z2) >= eps2:
                    still.append(i)
            active = still
        return zs


def _conjugate_closed(points: list) -> list:
    """The points made closed under conjugation, or the points themselves.

    Each point is matched with the point nearest its conjugate, in double
    arithmetic, the lowest index among equally near ones.  Over the
    points sorted by real part, a scan outward from the conjugate's real
    part finds it without forming all n**2 distances.  When that
    matching is an involution, a point matched with itself becomes
    exactly real, and the point of a pair with Im < 0 becomes the exact
    conjugate of its partner.  Any other matching, or a point past the
    double range, returns the points unchanged.  The roots of a real polynomial are closed under
    conjugation, so _certify and _newton can then work on one point per
    pair; _certify checks the result as it checks any points.  The parts
    are copied exactly: mpc() and conjugate() would round an mpc to 53
    bits.
    """
    import mpmath as mp
    from mpmath.libmp import fzero, mpf_neg

    ds = [complex(z) for z in points]
    if not all(abs(z) < _INF for z in ds):
        return points
    n = len(ds)
    order = sorted(range(n), key=[z.real for z in ds].__getitem__)
    by_re = [ds[j] for j in order]
    reals = [w.real for w in by_re]
    match = []
    for z in ds:
        # the point nearest c, ties to the lowest index: outward from Re(c)
        # in each direction, while |Re(w - c)| <= |w - c| can reach the best
        c, x = z.conjugate(), z.real
        start = bisect.bisect_left(reals, x)
        best, at = _INF, 0
        for step, i in ((1, start), (-1, start - 1)):
            while 0 <= i < n and (reals[i] - x) * step <= best:
                d = abs(by_re[i] - c)
                if d < best or d == best and order[i] < at:
                    best, at = d, order[i]
                i += step
        match.append(at)
    out = list(points)
    for i, j in enumerate(match):
        if match[j] != i:
            return points
        z, w = points[i], points[j]
        if i == j:
            out[i] = (complex(z.real) if type(z) is complex
                      else mp.make_mpc((z.real._mpf_, fzero)))
        elif z.imag < 0:
            out[i] = (w.conjugate() if type(w) is complex
                      else mp.make_mpc((w.real._mpf_, mpf_neg(w.imag._mpf_))))
    return out


def _trace_polynomial(coeffs) -> Optional[tuple]:
    """(P, sigma) with f(t) = t**d * P(t + sigma/t), or None.

    f of degree n = 2d is reciprocal (c_k = c_(n-k), sigma = +1) or
    skew-reciprocal (c_(d-k) = (-1)**k c_(d+k), sigma = -1) when
    f(t) / t**d = c_d + sum_k c_(d+k) E_k(t + sigma/t), where
    E_k(x) = t**k + (sigma/t)**k, so E_0 = 2, E_1 = x and
    E_(k+1) = x E_k - sigma E_(k-1).  P, of degree d, is built exactly,
    constant first.  A reciprocal f that is also skew takes sigma = +1.
    """
    n = len(coeffs) - 1
    d = n // 2
    if n < 2 or n % 2:
        return None
    lower, upper = coeffs[d::-1], coeffs[d:]
    if lower == upper:
        sigma = 1
    elif lower == tuple(-c if k % 2 else c for k, c in enumerate(upper)):
        sigma = -1
    else:
        return None
    p = [upper[0]] + [0] * d
    prev, cur = [2], [0, 1]  # E_(k-1), E_k
    for c in upper[1:]:
        for j, e in enumerate(cur):
            p[j] += c * e
        prev, cur = cur, [a - sigma * b for a, b in zip([0] + cur, prev + [0, 0])]
    return tuple(p), sigma


def _trace_start(coeffs) -> Optional[list]:
    """Double start points for f from the roots of its trace polynomial.

    Each root x of P, found by _aberth at 53 bits in at most
    _TRACE_SWEEPS sweeps, lifts to both roots of a**2 - x a + sigma = 0
    (_lift).  None when f is in neither class, P does not fit in
    doubles, or a lift is not finite.
    """
    trace = _trace_polynomial(coeffs)
    xs = None if trace is None else _aberth(trace[0], _DOUBLE_BITS, None,
                                            _TRACE_SWEEPS)
    return None if xs is None else _lift(xs, trace[1])


def _lift(xs: list, sigma: int) -> Optional[list]:
    """The pairs [a, sigma/a] of roots of a**2 - x a + sigma over the double points xs.

    The points are made closed under conjugation first.  a, the root of
    larger modulus, is (x + s) / 2 with s the square root of
    x**2 - 4 sigma on x's side, and its partner is sigma / a, or conj(a)
    when x is real and a is not.  Only +, -, *, / and math.sqrt on reals
    touch them, not complex division or abs, so the points are the same
    on every host and Python version, and a set closed under
    conjugation lifts to one.  None when a lift is not finite.
    """
    out = []
    for x in _conjugate_closed(xs):
        # u + i*v = x**2 - 4 sigma, and s + i*t its principal square root
        u = x.real * x.real - x.imag * x.imag - 4 * sigma
        v = 2 * x.real * x.imag
        r = math.sqrt(u * u + v * v)
        if not r < _INF:
            return None
        if u >= 0:
            s = math.sqrt((r + u) / 2)
            t = v / (2 * s) if s else 0.0
        else:
            t = math.copysign(math.sqrt((r - u) / 2), v)
            s = v / (2 * t)
        if x.real * s + x.imag * t < 0:  # |x + s| >= |x - s|
            s, t = -s, -t
        p, q = (x.real + s) / 2, (x.imag + t) / 2  # a = p + i*q
        if x.imag == 0 and q:
            out += [complex(p, q), complex(p, -q)]
        else:  # sigma / a = sigma conj(a) / |a|**2
            m = sigma / (p * p + q * q)
            out += [complex(p, q), complex(m * p, -m * q)]
    return out


def _trace_points(coeffs, xs: list) -> Optional[list]:
    """Better double points for the roots of a class part's trace polynomial P.

    coeffs is the part and xs are P's double points.  The part's own
    iteration at 53 bits, started from their lift, finds its roots to
    about a double's precision, and each root x of P is a + sigma/a for
    either root a of the pair it lifts to.  An iteration on P cannot do
    as well: P's monomial coefficients grow about like 2**d, so a double
    evaluation of P near [-2, 2] (or i[-2, 2]) loses that much, and the
    certified radii of P's own double points run from about 1e-13 at
    degree 12 to 4e-6 at degree 32, where these certify at about 6e-15,
    as the part's own points do.

    The iteration keeps most points near their starts, which _lift
    lists in pairs [a, sigma/a]; when some pair no longer
    satisfies a b = sigma to within 1e-6, every point is matched with
    the point nearest sigma over it instead (_pair_points).  Each pair
    gives x from its point of larger modulus.  Only +, -, * and / on
    reals touch the points.  None when a lift or the part's iteration
    gives nothing, or the points do not pair up.
    """
    sigma = _trace_polynomial(coeffs)[1]
    start = _lift(xs, sigma)
    zs = None if start is None else _aberth(coeffs, _DOUBLE_BITS, start)
    if zs is None:
        return None
    pairs = list(zip(zs[0::2], zs[1::2]))
    for a, b in pairs:
        u = a.real * b.real - a.imag * b.imag - sigma
        v = a.real * b.imag + a.imag * b.real
        if not u * u + v * v <= 1e-12:
            pairs = _pair_points(zs, sigma)
            if pairs is None:
                return None
            break
    out = []
    for a, b in pairs:
        p, q = a.real, a.imag
        m = p * p + q * q
        if b.real * b.real + b.imag * b.imag > m:
            p, q = b.real, b.imag
            m = p * p + q * q
        out.append(complex(p + sigma * p / m, q - sigma * q / m))
    return out


def _pair_points(zs: list, sigma: int) -> Optional[list]:
    """The points in pairs (a, b), b the point nearest sigma/a, or None.

    All pairs of points are compared, so this is the slow way, for the
    rare run whose points left their slots.  None unless each point is
    the nearest to sigma over its own nearest (an involution without
    fixed points).
    """
    match = []
    for i, a in enumerate(zs):
        m = a.real * a.real + a.imag * a.imag
        if not 0 < m < _INF:
            return None
        t = complex(sigma * a.real / m, -sigma * a.imag / m)
        d = [(w.real - t.real) ** 2 + (w.imag - t.imag) ** 2 for w in zs]
        d[i] = _INF
        match.append(d.index(min(d)))
    if any(match[j] != i for i, j in enumerate(match)):
        return None
    return [(zs[i], zs[j]) for i, j in enumerate(match) if i < j]


def _newton(coeffs, points, prec: int) -> Optional[list]:
    """Exact Newton steps z - f(z)/f'(z) from each point, as exact mpc.

    Point i, z_i = (x + i*y) / 2**s_i as in _certify, is first put on
    the grid 2**-(s_i + prec), and stays on it.  There _eval_scaled gives
    F = 2**(s*n) f(z) and D = 2**(s*(n-1)) f'(z) with s = s_i + prec, so
    the step f(z)/f'(z) is F conj(D) / |D|**2 grid units, rounded to the
    nearest one (halves up) in integers.  A point stops once its rounded
    step is zero; each step from a simple root's neighbourhood doubles
    its correct bits, so _NEWTON_STEPS carry a double up to past 4096
    bits.  Returns None when a point has not stopped by then (a cluster,
    where Newton converges only linearly) or meets f'(z) = 0 off a root.
    A real point stays real (its steps have no imaginary part), and of a
    point and its exact conjugate only the one with Im > 0 steps: the
    other becomes the exact conjugate of its result, so a set closed
    under conjugation stays closed.  The mpc values are made from their
    exact parts: mpc() would round them to the working precision and
    lose the steps' low bits.
    """
    import mpmath as mp
    from mpmath.libmp import from_man_exp, mpf_neg

    zs = [dy.from_mpf_pair(z.real, z.imag) for z in points]
    index = {z: i for i, z in enumerate(zs)}
    out = [None] * len(zs)
    for i, (a, b, e) in enumerate(zs):
        if b < 0 and (a, -b, e) in index:
            continue  # made from its partner below
        s = max(0, -e) + prec
        x, y = a << max(0, e) + prec, b << max(0, e) + prec
        for _ in range(_NEWTON_STEPS):
            fa, fb, da, db = _eval_scaled(coeffs, s, x, y)
            d2 = da * da + db * db
            if d2 == 0:
                if fa or fb:
                    return None
                break
            sx = (2 * (fa * da + fb * db) + d2) // (2 * d2)
            sy = (2 * (fb * da - fa * db) + d2) // (2 * d2)
            if sx == sy == 0:
                break
            x, y = x - sx, y - sy
        else:
            return None
        out[i] = mp.make_mpc((from_man_exp(x, -s), from_man_exp(y, -s)))
    for i, (a, b, e) in enumerate(zs):
        if out[i] is None:
            w = out[index[a, -b, e]]
            out[i] = mp.make_mpc((w.real._mpf_, mpf_neg(w.imag._mpf_)))
    return out


def _eval_scaled(coeffs, s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """p and p' at z = (x + i*y) / 2**s, scaled to Gaussian integers.

    p has the integer coefficients coeffs and degree n.  Returns the real
    and imaginary parts of 2**(s*n) * p(z) and then of
    2**(s*(n-1)) * p'(z).  Dividing p by the real quadratic
    q(t) = (t - z)(t - conj z) = t**2 - 2 Re(z) t + |z|**2 gives
    b_n = c_n, b_k = c_k + 2 Re(z) b_(k+1) - |z|**2 b_(k+2), the quotient
    Q = sum_(k>=2) b_k t**(k-2) and p = q*Q + b_1 t + b_0 - 2 Re(z) b_1.
    As q(z) = 0 and q'(z) = 2i Im(z), this is the identity
    p(z) = b_0 - conj(z) b_1,  p'(z) = b_1 + 2i Im(z) Q(z).
    In integers B_k = 2**(s*(n-k)) b_k: B_n = c_n and
    B_k = c_k * 2**(s*(n-k)) + 2x B_(k+1) - (x**2 + y**2) B_(k+2), and
    the same recurrence over B_n..B_2 gives 2**(s*(n-2)) Q(z) =
    E_0 - (x - i*y) E_1.  That is four integer products a step, where
    Gaussian Horner for p and p' takes eight.
    """
    n = len(coeffs) - 1
    tx, m = 2 * x, x * x + y * y
    # (b0, b1) = (B_k, B_(k+1)) and (e0, e1) = (E_(k-2), E_(k-1))
    b0 = b1 = e0 = e1 = 0
    for k in range(n, 1, -1):
        b0, b1 = (coeffs[k] << s * (n - k)) + tx * b0 - m * b1, b0
        e0, e1 = b0 + tx * e0 - m * e1, e0
    for k in range(min(n, 1), -1, -1):
        b0, b1 = (coeffs[k] << s * (n - k)) + tx * b0 - m * b1, b0
    return b0 - b1 * x, b1 * y, b1 - 2 * y * y * e1, 2 * y * (e0 - e1 * x)


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
    integers, both read off one integer division of f by the real
    quadratic with roots z_i and conj z_i (_eval_scaled).  Each squared
    distance |z_i - z_j|**2, an integer over 4**max(s_i, s_j), is
    computed once, and since
    |prod w|**2 = prod |w|**2, the squared Weierstrass denominator
    |lc * prod_{j != i} (z_i - z_j)|**2 is lc**2 times their product over
    j: an integer over a power of 4.  The larger of |W_i| and
    |f(z_i)/f'(z_i)| is the one with the smaller denominator, chosen by
    one shifted integer comparison, and the radius is the smallest grid
    multiple at or above n times it (one exact ceiling division and one
    isqrt).  |z_i| is rounded down and up onto the grid, and the
    bracket of the disk is that interval widened by the radius, clamped
    below at 0.

    A set closed under conjugation (the triple of each point's conjugate
    is in the set, as _conjugate_closed leaves the rungs' points) is
    certified one point per pair.  Only the real points and the points
    with Im > 0 are evaluated, and the other point of a pair gets the
    mirror disk, the same radius and bracket with the centre's imaginary
    part negated.  f has real coefficients, so f(conj z) = conj f(z),
    and conjugation maps the set onto itself, so the distances from
    conj z_i to the other points are those from z_i: every integer of
    the mirror's certificate equals its partner's, and the mirror disk
    is bit for bit the one the point would get on its own.  Only the
    distances of the evaluated points are formed, and one from z_i to
    z_j or to conj z_j serves, conjugated, z_j too.  Any other set takes
    every point.

    Each point keeps its own exponent, not the least one: shifting every
    point onto the finest would make all of the integers, and the
    division's quotient terms most, that much longer.  The grid does
    follow the finest point, so a near-real point with a tiny imaginary
    part (a double such as 1.18 + 2.9e-47i) would put it that far down;
    _conjugate_closed makes such points exactly real first.

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
    index = {z: i for i, z in enumerate(zs)}
    if len(index) < n:
        return None
    grid = max(res_bits, -min(e for _, _, e in zs)) + _GUARD_BITS
    # z_i = (xs[i] + i*ys[i]) / 2**ss[i]
    ss = [max(0, -e) for _, _, e in zs]
    xs = [a << max(0, e) for a, _, e in zs]
    ys = [b << max(0, e) for _, b, e in zs]
    # In a set closed under conjugation, point i with Im > 0 is paired
    # with point mirror[i] = conj z_i, and only the points with Im >= 0
    # (the rows) are evaluated; otherwise every point is a row.
    mirror = [index.get((a, -b, e)) for a, b, e in zs]
    closed = None not in mirror
    paired = [closed and y > 0 for y in ys]
    rows = [i for i in range(n) if not (closed and ys[i] < 0)]
    # |z_i - z_j|**2 = d / 4**max(ss[i], ss[j]) for each d in dist2[i].
    # For rows i, j the distances from z_i to z_j and to conj z_j serve,
    # conjugated, row j too.
    dist2 = [[] for _ in range(n)]
    for pos, i in enumerate(rows):
        x, y, s, row = xs[i], ys[i], ss[i], dist2[i]
        if paired[i]:  # |z_i - conj z_i|**2 = 4 y**2 / 4**s
            row.append(4 * y * y)
        for j in rows[pos + 1:]:
            k = s - ss[j]
            if k >= 0:
                a, yi, yj = x - (xs[j] << k), y, ys[j] << k
            else:
                a, yi, yj = (x << -k) - xs[j], y << -k, ys[j]
            a2, b = a * a, yi - yj
            d = a2 + b * b
            row.append(d)
            dist2[j].append(d)
            if paired[i] or paired[j]:  # |z_i - conj z_j| = |z_j - conj z_i|
                b = yi + yj
                d = a2 + b * b
                if paired[j]:
                    row.append(d)
                if paired[i]:
                    dist2[j].append(d)
    lc2 = coeffs[-1] ** 2
    n2 = n * n
    disks = [None] * n
    for i in rows:
        x, y, s = xs[i], ys[i], ss[i]
        fa, fb, da, db = _eval_scaled(coeffs, s, x, y)
        f2 = fa * fa + fb * fb
        if f2 == 0:
            r = 0
        else:
            d2 = da * da + db * db
            if d2 == 0:
                return None
            # |lc * prod|**2 = w2 / 4**we and |f'(z)|**2 = d2 / 4**de
            w2, we = lc2 * math.prod(dist2[i]), sum(max(s, t) for t in ss) - s
            de = s * (n - 1)
            q2, qe = (w2, we) if dy.le_scaled(w2, -2 * we, d2, -2 * de) else (d2, de)
            # (r * 2**grid)**2 = n2 * f2 * 4**(grid - s*n + qe) / q2
            k = 2 * (grid - s * n + qe)
            num, den = (n2 * f2 << k, q2) if k >= 0 else (n2 * f2, q2 << -k)
            _, r = dy.sqrt_bounds(num, den)
        up = grid - s
        m_lo, m_hi = dy.sqrt_bounds((x * x + y * y) << 2 * up)
        re, im, lo, hi = x << up, y << up, max(0, m_lo - r), m_hi + r
        disks[i] = _ExactDisk(re, im, r, lo, hi, grid)
        if paired[i]:
            disks[mirror[i]] = _ExactDisk(re, -im, r, lo, hi, grid)
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

    def lookup(self, key):
        """The entry kept for key, or None; always None outside a scope."""
        entries = self.entries
        if entries is not None:
            value = entries.get(key)
            if value is not None:
                self.hits += 1
                return value
        self.misses += 1
        return None

    def keep(self, key, value) -> None:
        """In a scope, keep value under key, dropping the oldest key at maxsize."""
        entries = self.entries
        if entries is not None:
            if len(entries) >= self.maxsize:
                del entries[next(iter(entries))]
            entries[key] = value

    def get(self, key, make):
        """The entry kept for key; on a miss make() builds it, kept in a scope."""
        value = self.lookup(key)
        if value is None:
            value = make()
            self.keep(key, value)
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
    f: IntPoly, tol: Fraction, max_bits: int, part: Optional[IntPoly] = None
) -> tuple[list[_ExactDisk], int]:
    """Certified disks for all roots of f (any nonzero f, roots of 0 excluded).

    The caller is responsible for stripping powers of t.  Returns the
    disks together with the ladder rung they were certified from: 53
    for hardware doubles, otherwise the multiprecision working precision.

    Given p0, the ladder [53, p0, 2*p0, ...] depends on nothing else:
    max_bits only truncates it.  When rung i-1 returned disks (certified,
    but too wide), rung i runs _newton from its points and keeps the
    Newton points if they certify with a widest disk narrower than
    rung i-1's.  Otherwise it runs _aberth from the latest points: the
    Newton ones when _newton converged, else rung i-1's (a cold start
    after a rung that gave none).  The double rung, which has no points
    before it, starts a reciprocal or skew-reciprocal part from the lift
    of its trace polynomial's roots (_trace_start), and any other part,
    or one whose lift does not fit in doubles, from _initial_points.
    With part given, f is that class part's trace polynomial P, the
    double rung runs at most _TRACE_SWEEPS sweeps on P from a cold
    start, and if a disk is then wider than 2**-_TRACE_OWN_BITS, or none
    certify, it takes its points from the part's own iteration started
    from their lift (_trace_points); the ladder is kept under the part
    as well.  The points an iteration returns are first made closed
    under conjugation (_conjugate_closed); those closed points are
    certified, kept and passed on.  Every start is a function of the coefficients
    (and the part) alone, and the rung certifies at grid max(prec, p0),
    so its points and disks are a pure function of (coefficients, part,
    p0, i).  Inside memo_scope() the rungs already run for those keys are
    read back from _ladders, and only the rest are run and kept.  Each rung, read or run, takes the
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
    key = (coeffs, p0) if part is None else (coeffs, p0, part.coeffs)
    rungs = _ladders.get(key, list)
    zs = disks = None
    for i, prec in enumerate(ladder):
        if i < len(rungs):
            zs, disks = rungs[i]
        else:
            # the points are dyadic rationals: _certify converts them exactly
            last, disks = disks, None
            newton = None if last is None else _newton(coeffs, zs, prec)
            if newton is not None:
                zs = _conjugate_closed(newton)
                disks = _certify(coeffs, zs, max(prec, p0))
                # kept only when its widest disk is narrower than the last's
                if disks is not None and dy.le_scaled(
                        max(d.r for d in last), -last[0].grid,
                        max(d.r for d in disks), -disks[0].grid):
                    disks = None
            if disks is None:
                if prec != _DOUBLE_BITS:
                    zs = _aberth(coeffs, prec, zs)
                elif part is None:  # the first rung: no points yet
                    zs = _aberth(coeffs, prec, _trace_start(coeffs))
                else:
                    zs = _aberth(coeffs, prec, None, _TRACE_SWEEPS)
                if zs is not None:
                    zs = _conjugate_closed(zs)
                    disks = _certify(coeffs, zs, max(prec, p0))
                # P's own double disks, unless one is wider than 2**-40
                if part is not None and prec == _DOUBLE_BITS and zs is not None and (
                        disks is None
                        or max(d.r for d in disks) >> disks[0].grid - _TRACE_OWN_BITS):
                    better = _trace_points(part.coeffs, zs)
                    if better is not None:
                        zs = _conjugate_closed(better)
                        disks = _certify(coeffs, zs, max(prec, p0))
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


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite, before any root work.

    A NaN fails both comparisons.  The CLI applies the same rule to --tol.
    """
    if not 0 < tol < _INF:
        raise PolynomialError(f"tolerance must be positive and finite, got {tol!r}")


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
    PrecisionExhausted, and one that is not positive and finite raises
    PolynomialError, as in measure(), mahler() and house().
    """
    if f.is_zero():
        raise PolynomialError("roots of the zero polynomial")
    _check_tol(tol)
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
