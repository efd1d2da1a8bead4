"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the package's own algorithms:
root-based quantities come from numpy's eigenvalue-based root finder
and, for the Mahler measure, from Jensen quadrature on an exact Graeffe
iterate (sharing only the exact graeffe transform with the package,
which tests/test_measure.py checks against the product f(t)*f(-t)),
cyclotomic stripping from a gcd scan with t**N - 1, characteristic
polynomials from naive cofactor expansion, and number theory from sympy.  Tests compare certified results against these
independent implementations.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
