"""Mahler measure, house, Kronecker classification, and the Graeffe oracle.

Expected numeric values are either closed forms (quadratic surds, frozen
below as exact expressions) or come from the independent numpy root
oracle in conftest.
"""

import importlib
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    brute_house,
    brute_mahler,
    cyclotomic_products,
    graeffe_iterate_reference,
    house_bounds_reference,
    kronecker_free_part_division_reference,
    kronecker_free_part_gcd_reference,
    mahler_bounds_reference,
    mahler_graeffe_oracle,
    random_monic,
)
from skewrec.enclosure import Enclosure
from skewrec.errors import PolynomialError, PrecisionExhausted
from skewrec.measure import (
    _bound_steps,
    _chain,
    _chains,
    _cyclotomic_orders,
    _house_bounds,
    _mahler_bounds,
    _root_of_unity_mod,
    graeffe,
    house,
    house_lower_bound,
    house_upper_bound,
    is_kronecker,
    kronecker_free_part,
    mahler,
    mahler_lower_bound,
    mahler_upper_bound,
    measure,
)
from skewrec.poly import (
    LEHMER_POLY,
    IntPoly,
    cyclotomic,
    euler_phi,
    negate_variable,
    squarefree_decomposition,
    substitute_square,
)
from skewrec.roots import _ExactDisk, _ladders, memo_scope
from skewrec.search import SearchSpace, enumerate_space

PHI = (1 + math.sqrt(5)) / 2  # golden ratio, house of t^2 - t - 1

# (t^2 - t - 1)^2 (t - 2) Phi_6: a squared factor, a cyclotomic factor,
# and a house (2) carried by a simple root
SQUARED_WITH_CYCLOTOMIC = IntPoly([-1, -1, 1]) ** 2 * IntPoly([-2, 1]) * cyclotomic(6)

# the numpy root oracle is float root finding; on the inputs below it
# lands up to about 1e-14 outside tight certified enclosures
ORACLE_SLACK = 1e-9


@st.composite
def integer_polys(draw):
    """Nonzero integer polynomials: any degree up to 15, monic or not,
    possibly with a factor t**k."""
    lower = draw(st.lists(st.integers(-40, 40), max_size=12))
    leading = draw(st.just(1) | st.integers(-40, 40).filter(bool))
    return IntPoly(lower + [leading]).shift(draw(st.integers(0, 3)))


class TestGraeffe:
    def test_squares_roots_of_golden_quadratic(self):
        # roots phi, 1/phi with sum 3 and product 1 after squaring
        assert graeffe(IntPoly([1, -3, 1])) == IntPoly([1, -7, 1])

    def test_odd_degree_sign_normalization(self):
        # t - 2 has root 2; the iterate must be t - 4, monic
        assert graeffe(IntPoly([-2, 1])) == IntPoly([-4, 1])

    def test_roots_are_squared(self, rng):
        for _ in range(20):
            f = random_monic(rng, 6, 4)
            g = graeffe(f)
            squared = sorted(
                (round(r.real, 6), round(r.imag, 6))
                for r in (z * z for z in __import__("numpy").roots(
                    list(reversed(f.coeffs))))
            )
            got = sorted(
                (round(r.real, 6), round(r.imag, 6))
                for r in __import__("numpy").roots(list(reversed(g.coeffs)))
            )
            for a, b in zip(squared, got):
                assert abs(a[0] - b[0]) < 1e-4 and abs(a[1] - b[1]) < 1e-4

    def test_leading_coefficient_squares(self):
        f = IntPoly([1, 2, -3])
        assert graeffe(f).leading == 9

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError):
            graeffe(IntPoly([]))
        with pytest.raises(PolynomialError):
            graeffe_iterate_reference(IntPoly([]), 1)

    @given(f=integer_polys(), steps=st.integers(1, 4))
    @example(f=IntPoly([1, 1, 1, 1, 1, 1]), steps=2)  # odd degree
    @example(f=IntPoly([-2, 0, 3]), steps=3)  # non-monic
    @example(f=IntPoly([0, 0, 4, -1, -5]), steps=2)  # negative lc, times t**2
    def test_matches_the_product_reference(self, f, steps):
        # graeffe builds its result unchecked: it must come out canonical
        g = f
        for _ in range(steps):
            g = graeffe(g)
            assert type(g.coeffs) is tuple and g.coeffs[-1] != 0
            assert all(type(c) is int for c in g.coeffs)
        assert g == graeffe_iterate_reference(f, steps)
        assert g.degree == f.degree and g.leading == f.leading ** (2**steps)

    @given(f=integer_polys())
    @example(f=IntPoly([7]))  # degree 0
    @example(f=IntPoly([-1]))
    @example(f=IntPoly([0, 1]))  # t
    @example(f=IntPoly([0, 0, -3, 0, 2]))  # non-monic multiple of t**2
    @example(f=IntPoly([0, 5, 0, 1]))  # odd degree, monic, multiple of t
    def test_is_product_with_negated_variable(self, f):
        # g(t**2) = (-1)**deg(f) * f(t) * f(-t), by plain multiplication
        expected = (-1) ** f.degree * f * negate_variable(f)
        assert substitute_square(graeffe(f)) == expected


class TestIsKronecker:
    def test_cyclotomics_and_products(self):
        assert is_kronecker(cyclotomic(1))
        assert is_kronecker(cyclotomic(105))  # first with coefficient 2
        assert is_kronecker(cyclotomic(5) * cyclotomic(8))
        assert is_kronecker((cyclotomic(3) ** 2) * cyclotomic(4))

    def test_t_power_factors_allowed(self):
        assert is_kronecker(IntPoly([0, 0, 1]))  # t^2
        assert is_kronecker((cyclotomic(6) * IntPoly([0, 1])))

    def test_non_examples(self):
        assert not is_kronecker(LEHMER_POLY)
        assert not is_kronecker(IntPoly([1, -3, 1]))
        assert not is_kronecker(IntPoly([-1, 1, 1]))  # t^2 + t - 1
        assert not is_kronecker(IntPoly([-2, 1]))

    def test_requires_monic(self):
        with pytest.raises(PolynomialError):
            is_kronecker(IntPoly([1, 2]))

    def test_matches_measure_one_on_randoms(self, rng):
        for _ in range(30):
            f = random_monic(rng, 7, 3)
            assert is_kronecker(f) == (brute_mahler(f) < 1 + 1e-8)

    def test_small_sample_of_products_up_to_degree_8(self):
        count = 0
        for p in cyclotomic_products(8):
            assert is_kronecker(p), p
            count += 1
        # [DERIVED] 500 = multisets of cyclotomic orders with totients
        # summing to <= 8, counted independently by a generating-function DP
        assert count == 500


class TestKroneckerFreePart:
    def test_strips_cyclotomic_and_t_factors(self):
        f = LEHMER_POLY * cyclotomic(4) * cyclotomic(1) ** 2
        f = f.shift(3)
        u, stripped, k = kronecker_free_part(f)
        assert u == LEHMER_POLY
        assert stripped == 4  # phi(4) + 2 * phi(1)
        assert k == 3

    def test_pure_kronecker_leaves_unit(self):
        u, stripped, k = kronecker_free_part(cyclotomic(12))
        assert u.degree == 0 and stripped == 4 and k == 0

    def test_cyclotomic_free_input_unchanged(self):
        u, stripped, k = kronecker_free_part(IntPoly([1, -3, 1]))
        assert u == IntPoly([1, -3, 1]) and stripped == 0 and k == 0

    def test_matches_gcd_scan_on_cyclotomic_products(self, rng):
        for p in cyclotomic_products(8):
            while True:
                u = random_monic(rng, 6, 3)
                if kronecker_free_part_gcd_reference(u)[1] == 0:
                    break
            f = p * u
            assert kronecker_free_part(f) == (u, p.degree, 0)
            assert kronecker_free_part(f) == kronecker_free_part_gcd_reference(f)

    def test_matches_gcd_scan_on_repeated_factors(self, rng):
        orders = [n for n in range(1, 201) if euler_phi(n) <= 10]
        for _ in range(60):
            f = IntPoly([1])
            for _ in range(rng.randint(1, 3)):
                phi = cyclotomic(rng.choice(orders))
                mult = rng.randint(1, 3)
                if f.degree + mult * phi.degree <= 30:
                    f = f * phi**mult
            if f.degree < 30:
                f = f * random_monic(rng, min(8, 30 - f.degree), 2)
            assert kronecker_free_part(f) == kronecker_free_part_gcd_reference(f)

    def test_matches_gcd_scan_on_t_power_multiples(self, rng):
        bases = [IntPoly([1]), cyclotomic(1) ** 3, cyclotomic(12) * cyclotomic(2),
                 LEHMER_POLY * cyclotomic(6) ** 2]
        bases += [random_monic(rng, 10, 2) * cyclotomic(rng.choice([1, 3, 5, 8]))
                  for _ in range(10)]
        for base in bases:
            for k in range(1, 4):
                f = base.shift(k)
                got = kronecker_free_part(f)
                assert got == kronecker_free_part_gcd_reference(f)
                assert got[2] == k


# orders N with euler_phi(N) <= 12
SMALL_ORDERS = [n for n in range(1, 289) if euler_phi(n) <= 12]


class TestCyclotomicResidueFilter:
    """The mod-p filter in front of each division by Phi_N."""

    def test_root_of_unity_tables(self):
        for n in _cyclotomic_orders(30):
            p, w = _root_of_unity_mod(n)
            assert sympy.isprime(p) and (p - 1) % n == 0
            assert not any(sympy.isprime(q) for q in range(n + 1, p, n))
            assert sympy.n_order(w, p) == n
            assert cyclotomic(n)(w) % p == 0

    @given(st.lists(st.tuples(st.sampled_from(SMALL_ORDERS), st.integers(1, 3)),
                    max_size=3),
           st.lists(st.integers(-3, 3), max_size=8),
           st.integers(0, 2))
    def test_matches_division_only_reference(self, factors, lower, k):
        f = IntPoly(lower + [1]).shift(k)
        for n, mult in factors:
            f = f * cyclotomic(n) ** mult
        assert kronecker_free_part(f) == kronecker_free_part_division_reference(f)


@st.composite
def disk_data(draw):
    """(disks, multiplicity) parts of integer disks, each part on its own grid.

    Centres lie within three units of 0 and radii reach one unit, so
    disks overlap into components of several disks, and modulus bounds
    fall on both sides of 1.
    """
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        grid = draw(st.sampled_from([0, 3, 8]))
        unit = 1 << grid
        disks = []
        for _ in range(draw(st.integers(1, 8))):
            re = draw(st.integers(-3 * unit, 3 * unit))
            im = draw(st.integers(-3 * unit, 3 * unit))
            r = draw(st.integers(0, unit))
            m_lo = math.isqrt(re * re + im * im)
            m_hi = m_lo + (m_lo * m_lo != re * re + im * im)
            disks.append(_ExactDisk(re, im, r, max(0, m_lo - r), m_hi + r, grid))
        parts.append((disks, draw(st.integers(1, 3))))
    return parts


class TestIntegerBounds:
    """The enclosure readers equal their plain-Fraction references."""

    @given(disk_data())
    def test_mahler_bounds(self, data):
        assert _mahler_bounds(data) == mahler_bounds_reference(data)

    @given(st.sampled_from([0, 1]), disk_data())
    def test_house_bounds(self, floor, data):
        assert _house_bounds(floor, data) == house_bounds_reference(floor, data)


class TestMahler:
    def test_golden_quadratics(self):
        # [DERIVED] M(t^2 - 3t + 1) = (3 + sqrt 5)/2, both roots real > 0
        enc = mahler(IntPoly([1, -3, 1]), tol=1e-12)
        true = (3 + math.sqrt(5)) / 2
        assert enc.lo <= true <= enc.hi and enc.width <= 1e-12
        # [DERIVED] M(t^2 - t - 1) = phi
        enc = mahler(IntPoly([-1, -1, 1]), tol=1e-12)
        assert enc.lo <= PHI <= enc.hi

    def test_integer_roots_exact_value(self):
        # [TRIVIAL] M((t-2)(t-3)) = 6
        enc = mahler(IntPoly([-2, 1]) * IntPoly([-3, 1]), tol=1e-12)
        assert enc.contains(6.0) and enc.width <= 1e-11

    def test_kronecker_point_interval(self):
        enc = mahler(cyclotomic(7))
        assert (enc.lo, enc.hi, enc.bits) == (1.0, 1.0, 0)

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(25):
            f = random_monic(rng, 8, 5)
            enc = mahler(f, tol=1e-9)
            assert abs(enc.midpoint - brute_mahler(f)) < 1e-5

    def test_multiplicativity(self, rng):
        for _ in range(10):
            f = random_monic(rng, 4, 3)
            g = random_monic(rng, 4, 3)
            ef, eg, efg = mahler(f), mahler(g), mahler(f * g)
            prod = ef * eg
            assert efg.intersects(prod)

    def test_multiplicity_handling(self):
        f = IntPoly([1, -3, 1]) ** 3
        enc = mahler(f, tol=1e-10)
        true = ((3 + math.sqrt(5)) / 2) ** 3
        assert enc.lo <= true <= enc.hi

    def test_salem_with_cyclotomic_padding(self):
        f = LEHMER_POLY * cyclotomic(1) * cyclotomic(2)
        enc = mahler(f, tol=1e-10)
        bare = mahler(LEHMER_POLY, tol=1e-10)
        assert enc.intersects(bare)

    def test_requires_monic(self):
        with pytest.raises(PolynomialError):
            mahler(IntPoly([1, 2]))

    def test_width_request_is_honored(self):
        for tol in (1e-4, 1e-8, 1e-13):
            enc = mahler(LEHMER_POLY, tol=tol)
            assert enc.width <= tol


class TestHouse:
    def test_golden_values(self):
        enc = house(IntPoly([1, -3, 1]), tol=1e-12)
        true = (3 + math.sqrt(5)) / 2
        assert enc.lo <= true <= enc.hi
        enc = house(IntPoly([-1, -1, 1]), tol=1e-12)
        assert enc.lo <= PHI <= enc.hi

    def test_integer_roots(self):
        enc = house(IntPoly([-2, 1]) * IntPoly([3, 1]), tol=1e-12)
        assert enc.contains(3.0)

    def test_pure_t_power(self):
        assert house(IntPoly([0, 0, 0, 1])) == Enclosure(0.0, 0.0, 0)

    def test_kronecker_unit_house(self):
        assert house(cyclotomic(5)) == Enclosure(1.0, 1.0, 0)
        assert house(cyclotomic(3).shift(2)) == Enclosure(1.0, 1.0, 0)

    def test_non_monic_direct(self):
        # roots 1/2 and -3
        enc = house(IntPoly([-3, -5, 2]), tol=1e-10)
        assert enc.lo <= 3.0 <= enc.hi and enc.width <= 1e-10

    def test_non_monic_small_house(self):
        # 2t - 1: house 1/2 < 1 must not be clamped for non-monic input
        enc = house(IntPoly([-1, 2]), tol=1e-12)
        assert enc.contains(0.5) and enc.hi < 0.6

    def test_salem_house_equals_mahler(self):
        # Lehmer's polynomial is Salem: one root outside, so house = M
        hm = house(LEHMER_POLY, tol=1e-12)
        mm = mahler(LEHMER_POLY, tol=1e-12)
        assert hm.intersects(mm)

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(25):
            f = random_monic(rng, 8, 5)
            enc = house(f, tol=1e-9)
            assert abs(enc.midpoint - brute_house(f)) < 1e-5

    def test_degree_zero_rejected(self):
        with pytest.raises(PolynomialError):
            house(IntPoly([5]))


class TestMahlerLowerBound:
    def test_at_least_one(self):
        assert mahler_lower_bound(cyclotomic(4)) == 1.0

    def test_below_true_measure(self, rng):
        for _ in range(60):
            f = random_monic(rng, 8, 5)
            assert mahler_lower_bound(f) <= brute_mahler(f) * (1 + 1e-9)

    def test_useful_on_large_measures(self):
        f = IntPoly([-7, 1]) * IntPoly([5, 1])  # M = 35
        assert mahler_lower_bound(f) > 30.0

    def test_requires_monic(self):
        with pytest.raises(PolynomialError):
            mahler_lower_bound(IntPoly([1, 2]))


def _non_kronecker_members(kind, degree, height):
    return [f for f in enumerate_space(SearchSpace(kind, degree, height))
            if not is_kronecker(f)]


def graeffe_iterate(f, steps):
    """The steps-th Graeffe iterate of f from its chain; step 0 is f itself."""
    if steps == 0:
        return f
    return (_chains.lookup(f.coeffs) or _chain(f)).iterate(steps)


def count_graeffe(monkeypatch):
    """A list that records every call of the measure module's graeffe."""
    calls = []

    def counting_graeffe(f):
        calls.append(f)
        return graeffe(f)

    # the package attribute skewrec.measure is the measure() function
    monkeypatch.setattr(importlib.import_module("skewrec.measure"),
                        "graeffe", counting_graeffe)
    return calls


class TestGraeffeChain:
    """In a memo scope, is_kronecker and the lower bounds share one chain."""

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_kronecker_test_then_bound_walk_one_chain(self, monkeypatch, kind):
        calls = count_graeffe(monkeypatch)
        for f in _non_kronecker_members(kind, 8, 1):
            # the Kronecker walk stops at the first iterate past the bound
            bound = math.comb(f.degree, f.degree // 2)
            k_kron = 0
            while max(map(abs, graeffe_iterate_reference(f, k_kron).coeffs)) <= bound:
                k_kron += 1
            calls.clear()
            with memo_scope():
                assert not is_kronecker(f)
                mahler_lower_bound(f)
            assert len(calls) == max(k_kron, _bound_steps(f.degree))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=12).filter(
            lambda c: c[-1] != 0),
        st.integers(0, 3),
        st.integers(0, 6),
    )
    @example([-1, -1, 1], 0, 6)  # even degree, monic
    @example([3, 0, 0, 2], 1, 5)  # odd degree, non-monic, a multiple of t
    def test_matches_the_unmemoized_iteration(self, coeffs, shift, steps):
        f = IntPoly(coeffs).shift(shift)
        expected = graeffe_iterate_reference(f, steps)
        assert graeffe_iterate(f, steps) == expected  # outside a scope
        with memo_scope():
            assert graeffe_iterate(f, steps) == expected
            assert graeffe_iterate(f, steps) == expected  # now from the memo
            assert all(graeffe_iterate(f, k) == graeffe_iterate_reference(f, k)
                       for k in range(steps, -1, -1))

    def test_cache_is_bounded(self):
        maxsize = _chains.maxsize
        assert maxsize is not None and 0 < maxsize < 10**6

    def test_nothing_is_kept_outside_a_scope(self, monkeypatch):
        calls = count_graeffe(monkeypatch)
        f = LEHMER_POLY
        counts = []
        for _ in range(2):
            calls.clear()
            assert not is_kronecker(f)
            counts.append(len(calls))
            assert _chains.entries is None
        assert counts[0] == counts[1] > 0
        with memo_scope():
            calls.clear()
            is_kronecker(f)
            is_kronecker(f)
            assert len(calls) == counts[0]
            # one chain, filed under f and its partner f(-t)
            assert len(_chains.entries) == 2
            assert set(_chains.entries) == {f.coeffs, negate_variable(f).coeffs}
        assert _chains.entries is None and _ladders.entries is None

    def test_a_member_and_its_partner_file_one_chain(self, monkeypatch):
        calls = count_graeffe(monkeypatch)
        for f in _non_kronecker_members("skew_reciprocal", 8, 1):
            g = negate_variable(f)
            with memo_scope():
                assert not is_kronecker(f)
                bound = mahler_lower_bound(f)
                # both keys, or one for a member that is its own partner
                assert set(_chains.entries) == {f.coeffs, g.coeffs}
                assert _chains.entries[f.coeffs] is _chains.entries[g.coeffs]
                walked, hits = len(calls), _chains.hits
                # each later lookup of either is one hit, with no new step
                assert not is_kronecker(g)
                assert mahler_lower_bound(g) == bound
                assert _chains.hits == hits + 2 and len(calls) == walked
            assert _chains.entries is None

    def test_pair_filing_keeps_the_bound(self):
        members = [f for f in _non_kronecker_members("reciprocal", 8, 2)
                   if negate_variable(f) != f]
        assert 2 * len(members) > _chains.maxsize
        with memo_scope():
            for f in members:
                is_kronecker(f)
                assert len(_chains.entries) <= _chains.maxsize
            assert len(_chains.entries) == _chains.maxsize
            last = members[-1]
            assert {last.coeffs, negate_variable(last).coeffs} <= set(_chains.entries)
            assert members[0].coeffs not in _chains.entries
        assert _chains.entries is None

    def test_an_odd_degree_partner_is_not_filed(self):
        # t^3 + t - 2 is monic, its partner -t^3 - t - 2 is not: filing
        # the partner would let a memo hit skip the monic check
        f = IntPoly([-2, 1, 0, 1])
        g = negate_variable(f)
        with memo_scope():
            assert not is_kronecker(f)
            mahler_lower_bound(f)
            assert set(_chains.entries) == {f.coeffs}
            for read in ORBIT_READERS.values():
                with pytest.raises(PolynomialError):
                    read(g)


# every chain reader search.py calls, each with the arguments it passes
ORBIT_READERS = {
    "is_kronecker": is_kronecker,
    "mahler_lower_bound": mahler_lower_bound,
    "mahler_lower_bound above 1.2": lambda f: mahler_lower_bound(f, above=1.2),
    "mahler_lower_bound above 2": lambda f: mahler_lower_bound(f, above=2.0),
    "house_lower_bound": house_lower_bound,
    "house_lower_bound above 1.2": lambda f: house_lower_bound(f, above=1.2),
    "house_lower_bound above 2": lambda f: house_lower_bound(f, above=2.0),
    "mahler_upper_bound": mahler_upper_bound,
    "house_upper_bound": house_upper_bound,
}


class TestOrbitChain:
    """f and f(-t) share one Graeffe chain and everything read from it."""

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_partner_results_are_equal_and_cached(self, monkeypatch, kind):
        calls = count_graeffe(monkeypatch)
        partners = 0
        for degree in (2, 4, 6, 8):
            for f in enumerate_space(SearchSpace(kind, degree, 2)):
                g = negate_variable(f)
                partners += g != f
                for name, read in ORBIT_READERS.items():
                    # outside a scope each read walks a fresh chain
                    alone = read(f)
                    assert read(g) == alone, (f, name)
                    for first, second in ((f, g), (g, f)):
                        with memo_scope():
                            read(first)
                            calls.clear()
                            assert read(second) == alone, (f, name)
                            assert calls == [], (f, name)
        assert partners > 0

    @given(f=integer_polys(), steps=st.integers(0, 6))
    @example(f=IntPoly([0, 5, 0, 1]), steps=3)  # odd degree, monic, times t
    @example(f=IntPoly([1, 0, -1, 0, 1]), steps=2)  # even: its own partner
    def test_negated_variable_shares_the_iterates(self, f, steps):
        g = negate_variable(f)
        for first, second in ((f, g), (g, f)):
            with memo_scope():
                graeffe_iterate(first, steps)
                assert graeffe_iterate(second, 0) is second
                for k in range(1, steps + 1):
                    expected = graeffe_iterate_reference(first, k)
                    assert graeffe_iterate(second, k) == expected
                    assert graeffe_iterate(first, k) == expected


# a threshold the early stop is checked against, besides each member's own
# full bound, its float neighbours and 1e-7 relative either side
EARLY_STOP_THRESHOLDS = (1.0, 1.05, 1.1762808, 1.3, 1.618, 2.0, 3.0)


def _assert_early_stop_decides_as_the_full_bound(lower_bound, brute, members):
    """lower_bound(f, above=a) exceeds a exactly when the full bound does,
    stays below the oracle, and is the full bound unless it stops early."""
    early = 0
    for f in members:
        full = lower_bound(f)
        oracle = brute(f) * (1 + ORACLE_SLACK)
        assert full <= oracle
        thresholds = EARLY_STOP_THRESHOLDS + (
            full, math.nextafter(full, 0.0), math.nextafter(full, math.inf),
            full * (1 - 1e-7), full * (1 + 1e-7),
        )
        for a in thresholds:
            bound = lower_bound(f, above=a)
            assert (bound > a) == (full > a), (f, a, bound, full)
            assert bound <= oracle
            if bound != full:
                early += 1
                assert bound > a
    assert early > 0


EARLY_STOP_SPACES = [(8, 2), (10, 2), (12, 1), (6, 3)]


class TestMahlerLowerBoundEarlyStop:
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("degree,height", EARLY_STOP_SPACES)
    def test_prune_decision_is_the_full_bounds(self, kind, degree, height):
        _assert_early_stop_decides_as_the_full_bound(
            mahler_lower_bound, brute_mahler,
            _non_kronecker_members(kind, degree, height))


class TestHouseLowerBoundEarlyStop:
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("degree,height", EARLY_STOP_SPACES)
    def test_prune_decision_is_the_full_bounds(self, kind, degree, height):
        _assert_early_stop_decides_as_the_full_bound(
            house_lower_bound, brute_house,
            _non_kronecker_members(kind, degree, height))

    def test_power_of_t_never_stops_early(self):
        for f in (IntPoly([1]), IntPoly([0, 0, 1])):
            assert house_lower_bound(f, above=0.5) == 0.0


@pytest.mark.parametrize("lower_bound", [mahler_lower_bound, house_lower_bound])
def test_an_infinite_above_reads_only_the_last_step(lower_bound):
    # no step's bound exceeds inf, so the early stop has nothing to prove
    for f in [LEHMER_POLY, *_non_kronecker_members("skew_reciprocal", 8, 1)]:
        with memo_scope():
            bound = lower_bound(f, above=math.inf)
            steps = {k for _, k in _chains.lookup(f.coeffs).reads}
        assert steps == {_bound_steps(f.degree)}
        assert bound == lower_bound(f)


class TestBoundDepth:
    """The search bounds read step _bound_steps(n), which keeps them sharp."""

    def test_least_step_from_six_with_room_for_thirty_two_n(self):
        steps = [_bound_steps(n) for n in range(1, 300)]
        for n, k in enumerate(steps, start=1):
            assert k >= 6 and 2**k >= 32 * n
            assert k == 6 or 2 ** (k - 1) < 32 * n
        assert steps == sorted(steps)
        assert [_bound_steps(n) for n in (8, 10, 16, 20)] == [8, 9, 9, 10]

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_lower_bounds_within_the_depth_slack(self, kind):
        # Landau: b >= M(f) * 2**(-n / 2**k); Fujiwara with
        # C(n, j)**(1/j) <= n: b >= house(f) * (2n)**(-1 / 2**k)
        for degree in (2, 4, 6, 8, 10):
            for height in (1, 2):
                for f in _non_kronecker_members(kind, degree, height):
                    n, k = f.degree, _bound_steps(f.degree)
                    assert (mahler_lower_bound(f) * (1 + ORACLE_SLACK)
                            >= brute_mahler(f) * 2 ** (-n / 2**k)), f
                    assert (house_lower_bound(f) * (1 + ORACLE_SLACK)
                            >= brute_house(f) * (2 * n) ** (-1 / 2**k)), f


@st.composite
def monic_polys_with_t_powers(draw):
    """Monic integer polynomials of degree 1..14, possibly times t**k,
    including pure powers of t."""
    lower = draw(st.lists(st.integers(-4, 4), max_size=10))
    shift = draw(st.integers(0 if lower else 1, 14 - len(lower)))
    return IntPoly(lower + [1]).shift(shift)


def _assert_house_bound_sound(f):
    bound = house_lower_bound(f)
    assert bound <= house(f, tol=1e-8).hi
    assert bound <= brute_house(f) * (1 + 1e-9)


class TestHouseLowerBound:
    @given(monic_polys_with_t_powers())
    @example(IntPoly([0, 0, 0, 1]))  # t**3, house 0
    @example(IntPoly([-2, 1]) ** 3)  # every coefficient bound is attained
    def test_below_true_house(self, f):
        _assert_house_bound_sound(f)

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_below_true_house_on_every_search_member(self, kind):
        for f in enumerate_space(SearchSpace(kind, 8, 1)):
            _assert_house_bound_sound(f)

    def test_power_of_t_has_bound_zero(self):
        assert house_lower_bound(IntPoly([0, 0, 1])) == 0.0
        assert house_lower_bound(IntPoly([1])) == 0.0

    def test_at_least_one_with_a_nonzero_root(self):
        assert house_lower_bound(cyclotomic(4).shift(2)) == 1.0

    def test_close_to_true_house(self):
        assert house_lower_bound(IntPoly([-1, -1, 1])) > 1.55  # phi = 1.618
        assert house_lower_bound(IntPoly([-7, 1]) * IntPoly([5, 1])) > 6.9

    def test_requires_monic(self):
        with pytest.raises(PolynomialError):
            house_lower_bound(IntPoly([1, 2]))


def _assert_upper_bounds_sound(f):
    """Both upper bounds against a 1e-12 enclosure, the oracle and the lower bound."""
    result = measure(f, tol=1e-12)
    for upper, lower, enc, oracle in (
        (mahler_upper_bound, mahler_lower_bound, result.mahler, brute_mahler),
        (house_upper_bound, house_lower_bound, result.house, brute_house),
    ):
        bound = upper(f)
        assert bound >= enc.lo, (f, upper.__name__, bound, enc)
        assert bound >= oracle(f) * (1 - ORACLE_SLACK), (f, upper.__name__)
        assert bound >= lower(f), (f, upper.__name__)


class TestUpperBounds:
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_above_true_values_on_every_search_member(self, kind):
        for degree in (2, 4, 6, 8):
            for f in _non_kronecker_members(kind, degree, 2):
                _assert_upper_bounds_sound(f)

    def test_above_true_values_on_randoms(self, rng):
        for _ in range(60):
            _assert_upper_bounds_sound(random_monic(rng, 10, 5))

    def test_at_least_one_on_kronecker_input(self):
        for f in cyclotomic_products(6):
            assert mahler_upper_bound(f) >= 1.0
            assert house_upper_bound(f) >= 1.0

    def test_power_of_t(self):
        assert mahler_upper_bound(IntPoly([0, 0, 1])) >= 1.0
        assert house_upper_bound(IntPoly([0, 0, 1])) == 0.0

    def test_close_to_true_values(self):
        # Landau is exact for a single root, Fujiwara within 2**(1/64)
        assert mahler_upper_bound(IntPoly([-7, 1]) * IntPoly([5, 1])) < 35.001
        assert house_upper_bound(IntPoly([-1, -1, 1])) < 1.01 * 2 ** (1 / 64) * PHI

    def test_read_the_cached_iterate(self, monkeypatch):

        calls = count_graeffe(monkeypatch)
        for f in _non_kronecker_members("skew_reciprocal", 8, 1):
            with memo_scope():
                mahler_lower_bound(f)
                house_lower_bound(f)
                calls.clear()
                mahler_upper_bound(f)
                house_upper_bound(f)
            assert calls == []

    def test_huge_coefficients_give_infinity(self):
        f = IntPoly([-(10**400), 1])
        assert mahler_upper_bound(f) == math.inf
        assert house_upper_bound(f) == math.inf

    def test_requires_monic(self):
        for upper in (mahler_upper_bound, house_upper_bound):
            with pytest.raises(PolynomialError):
                upper(IntPoly([1, 2]))


class TestGraeffeOracle:
    def test_kronecker_detected_exactly(self):
        assert mahler_graeffe_oracle(cyclotomic(12) * cyclotomic(3)) == 1.0

    def test_lehmer_to_stated_accuracy(self):
        est = mahler_graeffe_oracle(LEHMER_POLY, iterations=8)
        enc = mahler(LEHMER_POLY, tol=1e-10)
        assert abs(est - enc.midpoint) < 1e-4

    def test_exact_on_clean_quadratic(self):
        est = mahler_graeffe_oracle(IntPoly([1, -3, 1]), iterations=10)
        assert abs(est - (3 + math.sqrt(5)) / 2) < 1e-9

    def test_independent_of_certified_path_on_randoms(self, rng):
        for _ in range(40):
            f = random_monic(rng, 9, 5)
            if is_kronecker(f):
                continue
            est = mahler_graeffe_oracle(f, iterations=8)
            assert abs(est - brute_mahler(f)) < 1e-4


class TestMeasureDriver:
    def test_lehmer_summary(self):
        r = measure(LEHMER_POLY, tol=1e-10)
        assert not r.is_kronecker
        assert r.root_count_outside_unit_circle == 1
        # eight roots sit on the circle, so the count cannot be certified
        assert r.root_count_certified is False
        assert f"{r.mahler.lo:.5f}" == "1.17628"

    def test_counts_for_split_roots(self):
        f = IntPoly([-2, 1]) * IntPoly([-3, 1]) * cyclotomic(3)
        r = measure(f, tol=1e-10)
        assert r.root_count_outside_unit_circle == 2
        assert r.mahler.contains(6.0)

    @pytest.mark.parametrize("f", [IntPoly([1]), IntPoly([0]), IntPoly([3])],
                             ids=str)
    def test_degree_below_one_rejected_first(self, f, monkeypatch):
        def fail(*args):
            raise AssertionError("measure ran work on a constant")

        module = importlib.import_module("skewrec.measure")
        for name in ("is_kronecker", "kronecker_free_part", "house"):
            monkeypatch.setattr(module, name, fail)
        with pytest.raises(PolynomialError, match="measure requires degree >= 1"):
            measure(f)

    def test_kronecker_summary(self):
        r = measure(cyclotomic(8))
        assert r.is_kronecker
        assert r.root_count_outside_unit_circle == 0
        assert r.root_count_certified is True
        assert r.mahler == Enclosure(1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "f",
        [LEHMER_POLY, SQUARED_WITH_CYCLOTOMIC, cyclotomic(8),
         cyclotomic(3).shift(2), IntPoly([0, 0, 0, 1])],
        ids=str,
    )
    def test_walks_no_graeffe_chain(self, f, monkeypatch):
        # the Kronecker decision comes from the cyclotomic stripping
        calls = count_graeffe(monkeypatch)
        r = measure(f, tol=1e-10)
        assert calls == []
        assert _chains.entries is None and _ladders.entries is None
        assert r.is_kronecker == is_kronecker(f)

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize(
        "f",
        [
            LEHMER_POLY,
            IntPoly([-2, 1]) * IntPoly([-3, 1]) * cyclotomic(3),
            IntPoly([1, -3, 1]),
            SQUARED_WITH_CYCLOTOMIC,
            cyclotomic(8).shift(1),
        ],
        ids=str,
    )
    def test_agrees_with_standalone_enclosures(self, f, tol):
        r = measure(f, tol=tol)
        assert r.mahler.intersects(mahler(f, tol=tol))
        assert r.house.intersects(house(f, tol=tol))
        for enc, oracle in ((r.mahler, brute_mahler(f)), (r.house, brute_house(f))):
            assert enc.width <= tol
            assert enc.lo - ORACLE_SLACK <= oracle <= enc.hi + ORACLE_SLACK

    @pytest.mark.parametrize("f", [LEHMER_POLY, SQUARED_WITH_CYCLOTOMIC], ids=str)
    def test_certifies_each_squarefree_part_once(self, f, monkeypatch):
        # the package attribute skewrec.measure is the measure() function
        module = importlib.import_module("skewrec.measure")
        original = module._certified_disks
        calls = []

        def counting(p, tol, max_bits):
            calls.append(p)
            return original(p, tol, max_bits)

        monkeypatch.setattr(module, "_certified_disks", counting)
        measure(f, tol=1e-10)
        u, _, _ = kronecker_free_part(f)
        assert calls == [p for p, _ in squarefree_decomposition(u)]

    def test_json_shape(self):
        doc = measure(IntPoly([1, -3, 1])).to_json()
        assert set(doc) == {
            "mahler",
            "house",
            "is_kronecker",
            "root_count_outside_unit_circle",
            "root_count_certified",
        }


class TestExactDyadicRoots:
    """Roots the solver hits exactly (tiny dyadic denominators).

    These used to pin the rational modulus brackets at integer width, so
    the refinement loop could never meet its tolerance.
    """

    # [DERIVED] t^2 +- 2t + 2 has roots -+1 +- i, all of modulus sqrt(2)
    # outside the unit circle, so M(f) = |constant| = 2 exactly.
    @pytest.mark.parametrize("coeffs", [[2, 2, 1], [2, -2, 1]])
    def test_mahler_tightens(self, coeffs):
        enc = mahler(IntPoly(coeffs), tol=1e-10)
        assert enc.lo <= 2.0 <= enc.hi
        assert enc.width <= 1e-10

    @pytest.mark.parametrize("coeffs", [[2, 2, 1], [2, -2, 1]])
    def test_house_tightens(self, coeffs):
        enc = house(IntPoly(coeffs), tol=1e-10)
        assert enc.lo <= math.sqrt(2.0) <= enc.hi
        assert enc.width <= 1e-10

    def test_exact_integer_root_stays_exact(self):
        enc = mahler(IntPoly([-2, 1]), tol=1e-12)
        assert (enc.lo, enc.hi) == (2.0, 2.0)

    def test_sub_ulp_tolerance_fails_fast(self):
        # float endpoints cannot be 1e-40 apart around a value near 2;
        # the loop must abort instead of refining forever
        with pytest.raises(PrecisionExhausted):
            mahler(IntPoly([2, 2, 1]), tol=1e-40)
        with pytest.raises(PrecisionExhausted):
            house(IntPoly([2, 2, 1]), tol=1e-40)
