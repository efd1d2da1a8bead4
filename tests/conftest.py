"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the package's own algorithms:
root-based quantities come from numpy's eigenvalue-based root finder
and, for the Mahler measure, from Jensen quadrature on an exact Graeffe
iterate (sharing only the exact graeffe transform with the package,
which tests/test_measure.py checks against the product f(t)*f(-t)),
cyclotomic stripping from a gcd scan with t**N - 1, characteristic
polynomials from naive cofactor expansion, and number theory from sympy.  Tests compare certified results against these
independent implementations.  The root certificate is checked against
certify_reference, the earlier certificate that carried every radius
and bracket as an exact rational, on its own copy of the exact complex
dyadic arithmetic (_dy_add, _dy_mul, dyadic_eval), which the package no
longer uses.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import skewrec
from skewrec import _dyadic as dy
from skewrec.errors import PolynomialError
from skewrec.measure import graeffe
from skewrec.poly import (
    ONE,
    IntPoly,
    cyclotomic,
    div_exact,
    divrem_exact,
    euler_phi,
    gcd_primitive,
)

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def brute_roots(f: IntPoly) -> np.ndarray:
    """Roots via numpy's companion-matrix eigenvalues (independent oracle)."""
    return np.roots(list(reversed(f.coeffs)))


def brute_mahler(f: IntPoly) -> float:
    prod = abs(f.leading)
    for r in brute_roots(f):
        prod *= max(1.0, abs(r))
    return float(prod)


def brute_house(f: IntPoly) -> float:
    return float(max(abs(r) for r in brute_roots(f)))


def mahler_graeffe_oracle(f: IntPoly, iterations: int = 8) -> float:
    """Uncertified Mahler estimate from exact Graeffe iterates.

    The polynomial is Graeffe-iterated exactly; a repeat among the integer
    iterates proves measure 1 and returns exactly 1.0.  Otherwise the
    measure of the last iterate f_k is evaluated as its Jensen mean
    exp(avg log |f_k| on the unit circle) by a trapezoidal rule on scaled
    floats, and the 2**k-th root is taken.  Off-circle root contributions
    to the quadrature error decay doubly exponentially in the iteration
    count, so the estimate converges to M(f) as iterations grow.  This
    path shares nothing with the certified root-disk pipeline.
    """
    if not f.is_monic():
        raise PolynomialError("mahler_graeffe_oracle requires monic input")
    if iterations < 0:
        raise PolynomialError("iterations must be nonnegative")
    g = f
    seen = {g.coeffs}
    for _ in range(iterations):
        g = graeffe(g)
        if g.coeffs in seen:
            return 1.0
        seen.add(g.coeffs)
    top = max(abs(c) for c in g.coeffs)
    shift = max(0, top.bit_length() - 53)

    def scaled(c: int) -> float:
        return float(c >> shift if c >= 0 else -((-c) >> shift))

    coeffs = np.array([scaled(c) for c in g.coeffs], dtype=float)
    n_nodes = 16384
    theta = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    values = np.abs(np.polyval(coeffs[::-1], np.exp(1j * theta)))
    values = np.maximum(values, 1e-300)
    mean_log = float(np.mean(np.log(values))) + shift * math.log(2.0)
    return math.exp(max(0.0, mean_log) / (1 << iterations))


def graeffe_iterate_reference(f: IntPoly, steps: int) -> IntPoly:
    """The steps-th Graeffe iterate by a plain loop, with nothing memoized."""
    g = f
    for _ in range(steps):
        g = graeffe(g)
    return g


def kronecker_free_part_gcd_reference(f: IntPoly) -> tuple[IntPoly, int, int]:
    """Reference for skewrec.measure.kronecker_free_part: (u, stripped, k).

    The package divides by each cyclotomic polynomial Phi_N directly; this
    reference instead strips gcd(u, t**N - 1) for every order N with
    euler_phi(N) <= deg u.  By unique factorisation both give the same
    (u, stripped, k).
    """
    if not f.is_monic():
        raise PolynomialError("kronecker_free_part requires monic input")
    k = 0
    coeffs = f.coeffs
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    u = IntPoly(coeffs)
    d = u.degree
    stripped = 0
    if d == 0:
        return u, 0, k
    for n in (n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d):
        # work with (t**n - 1) mod u to keep the gcd inputs small
        tn = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        while u.degree > 0:
            _, r = divrem_exact(tn, u)
            if r.is_zero():
                g = u
            else:
                g = gcd_primitive(u, r)
            if g.degree == 0:
                break
            u = div_exact(u, g)
            stripped += g.degree
    return u, stripped, k


def kronecker_free_part_division_reference(f: IntPoly) -> tuple[IntPoly, int, int]:
    """Reference for skewrec.measure.kronecker_free_part by exact division alone.

    The package's loop with no residue filter: divide by each Phi_N with
    euler_phi(N) <= deg u for as long as the remainder is zero.
    """
    k = 0
    coeffs = f.coeffs
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    u = IntPoly(coeffs)
    stripped = 0
    d = u.degree
    for n in (n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d):
        phi = cyclotomic(n)
        while phi.degree <= u.degree:
            q, r = divrem_exact(u, phi)
            if not r.is_zero():
                break
            u = q
            stripped += phi.degree
    return u, stripped, k


def _dy_add(x, y):
    """x + y for exact dyadic points (a, b, e) = (a + b*i) * 2**e."""
    xa, xb, xe = x
    ya, yb, ye = y
    if xe < ye:
        shift = ye - xe
        return (xa + (ya << shift), xb + (yb << shift), xe)
    shift = xe - ye
    return ((xa << shift) + ya, (xb << shift) + yb, ye)


def _dy_sub(x, y):
    ya, yb, ye = y
    return _dy_add(x, (-ya, -yb, ye))


def _dy_mul(x, y):
    xa, xb, xe = x
    ya, yb, ye = y
    return (xa * ya - xb * yb, xa * yb + xb * ya, xe + ye)


def dyadic_eval(coeffs, z):
    """Exact Horner evaluation of an integer polynomial at a dyadic point."""
    acc = (0, 0, 0)
    for c in reversed(coeffs):
        acc = _dy_add(_dy_mul(acc, z), (c, 0, 0))
    return acc


def dyadic_fractions(x) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a dyadic point as exact rationals."""
    a, b, e = x
    scale = Fraction(2) ** e
    return a * scale, b * scale


def disk_fractions(d) -> tuple[Fraction, ...]:
    """(Re centre, Im centre, radius, modulus lo, modulus hi) of an _ExactDisk."""
    unit = 1 << d.grid
    return tuple(Fraction(v, unit) for v in (d.re, d.im, d.r, d.lo, d.hi))


def disks_overlap(d, other) -> bool:
    """Closed _ExactDisks meet: |centre gap| <= sum of radii, in exact rationals."""
    x0, y0, r0, _, _ = disk_fractions(d)
    x1, y1, r1, _, _ = disk_fractions(other)
    return (x0 - x1) ** 2 + (y0 - y1) ** 2 <= (r0 + r1) ** 2


def brute_components(disks) -> list[list[int]]:
    """All-pairs grouping of overlapping disks, in the order components() promises."""
    n = len(disks)
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if disks_overlap(disks[i], disks[j]):
                old, new = label[j], label[i]
                label = [new if x == old else x for x in label]
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    return list(groups.values())


def mahler_bounds_reference(disk_data) -> tuple[Fraction, Fraction]:
    """_mahler_bounds in plain Fractions over brute_components."""
    lo = hi = Fraction(1)
    for disks, mult in disk_data:
        exact = [disk_fractions(d) for d in disks]
        for group in brute_components(disks):
            k = len(group) * mult
            lo *= max(Fraction(1), min(exact[i][3] for i in group)) ** k
            hi *= max(Fraction(1), max(exact[i][4] for i in group)) ** k
    return lo, hi


def house_bounds_reference(floor, disk_data) -> tuple[Fraction, Fraction]:
    """_house_bounds in plain Fractions."""
    lo = hi = Fraction(floor)
    for disks, _ in disk_data:
        for d in disks:
            _, _, _, d_lo, d_hi = disk_fractions(d)
            lo, hi = max(lo, d_lo), max(hi, d_hi)
    return lo, hi


def _abs2(x) -> Fraction:
    """|x|**2 as an exact rational."""
    a, b, e = x
    m = a * a + b * b
    if e >= 0:
        return Fraction(m << (2 * e))
    return Fraction(m, 1 << (-2 * e))


def _sqrt_bounds(q: Fraction, min_den_bits: int = 0) -> tuple[Fraction, Fraction]:
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
    s = math.isqrt(scaled)
    out_den = den << k
    lo = Fraction(s, out_den)
    hi = lo if s * s == scaled else Fraction(s + 1, out_den)
    return lo, hi


class ReferenceDisk(NamedTuple):
    center: tuple[int, int, int]  # a dyadic point (a, b, e)
    radius: Fraction
    mod_lo: Fraction
    mod_hi: Fraction


def certify_reference(coeffs, points, res_bits=0):
    """Exact certification of a set of complex or mpc approximations.

    Returns a list of ReferenceDisk, or None when the configuration is
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
    zs = [dy.from_mpf_pair(z.real, z.imag) for z in points]
    # exact: from_mpf_pair gives each complex value exactly one triple
    if len(set(zs)) < n:
        return None
    n2 = Fraction(n * n)
    lc2 = Fraction(lc * lc)
    disks = []
    for i, z in enumerate(zs):
        f_at = dyadic_eval(coeffs, z)
        f2 = _abs2(f_at)
        if f2 == 0:
            radius = Fraction(0)
        else:
            prod = (1, 0, 0)
            for j, other in enumerate(zs):
                if j != i:
                    prod = _dy_mul(prod, _dy_sub(z, other))
            weier2 = n2 * f2 / (lc2 * _abs2(prod))
            df_at = dyadic_eval(deriv, z)
            df2 = _abs2(df_at)
            if df2 == 0:
                return None
            newton2 = n2 * f2 / df2
            _, radius = _sqrt_bounds(max(weier2, newton2), res_bits)
        m_lo, m_hi = _sqrt_bounds(_abs2(z), res_bits)
        disks.append(
            ReferenceDisk(
                center=z,
                radius=radius,
                mod_lo=max(Fraction(0), m_lo - radius),
                mod_hi=m_hi + radius,
            )
        )
    return disks


def exact_radius2(coeffs, zs, i: int) -> Fraction:
    """n**2 * max(|W_i|**2, |f(z_i)/f'(z_i)|**2) as an exact rational.

    zs are the dyadic points of a set certify_reference accepted, and
    W_i = f(z_i) / (lc * prod_{j != i} (z_i - z_j)); this is the squared
    radius that certify_reference rounds up.  A root gets 0.
    """
    z = zs[i]
    f2 = _abs2(dyadic_eval(coeffs, z))
    if f2 == 0:
        return Fraction(0)
    prod = (1, 0, 0)
    for j, other in enumerate(zs):
        if j != i:
            prod = _dy_mul(prod, _dy_sub(z, other))
    deriv = [k * c for k, c in enumerate(coeffs) if k > 0]
    denom2 = min(coeffs[-1] ** 2 * _abs2(prod),
                 _abs2(dyadic_eval(deriv, z)))
    return (len(coeffs) - 1) ** 2 * f2 / denom2


def charpoly_cofactor(m) -> IntPoly:
    """det(tI - M) by cofactor expansion over polynomial entries.

    Exponential in the size; intended for matrices up to about 6x6.
    """
    n = m.size
    t = IntPoly((0, 1))
    entries = [
        [
            (t if i == j else IntPoly(())) - IntPoly((m[i, j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        acc = IntPoly(())
        top = rows[0]
        rest = rows[1:]
        for pos, c in enumerate(cols):
            minor = det(rest, cols[:pos] + cols[pos + 1:])
            term = entries[top][c] * minor
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def cyclotomic_products(max_degree: int):
    """Every product of cyclotomic polynomials of total degree <= max_degree.

    Products are generated as multisets of orders (each multiset once),
    excluding the empty product.
    """
    orders = [
        n
        for n in range(1, 2 * max_degree * max_degree + 1)
        if euler_phi(n) <= max_degree
    ]

    def rec(start: int, remaining: int, acc: IntPoly):
        for idx in range(start, len(orders)):
            d = euler_phi(orders[idx])
            if d > remaining:
                continue
            p = acc * cyclotomic(orders[idx])
            yield p
            yield from rec(idx, remaining - d, p)

    yield from rec(0, max_degree, ONE)


def random_monic(rng: random.Random, max_degree: int, height: int) -> IntPoly:
    """A random monic polynomial with nonzero constant term."""
    degree = rng.randint(1, max_degree)
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(degree)]
        if coeffs[0] != 0:
            return IntPoly(coeffs + [1])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260825)


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Run search pools in this process; the list gets each pool's max_workers.

    No worker process starts, so a large --jobs can be tested safely.  Each
    pool's chunks share a fresh cap, as a pool worker's do in one search.
    """
    sizes: list[int] = []
    search = importlib.import_module("skewrec.search")

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            monkeypatch.setattr(search, "_pool_cap", search._LocalCap())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr("skewrec.search._PoolLease", RecordingExecutor)
    return sizes


def run_in_checkout(command):
    """Run command as a separate process that imports this checkout's skewrec.

    PYTHONPATH is led by the directory holding the imported package, so the
    child runs the code under test from any working directory.
    """
    package_root = str(Path(skewrec.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
