"""Mahler measure, house, Kronecker classification, and the Graeffe oracle.

Expected numeric values are either closed forms (quadratic surds, frozen
below as exact expressions) or come from the independent numpy root
oracle in conftest.
"""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    brute_house,
    brute_mahler,
    cyclotomic_products,
    kronecker_free_part_gcd_reference,
    mahler_graeffe_oracle,
    random_monic,
)
from skewrec.enclosure import Enclosure
from skewrec.errors import PolynomialError, PrecisionExhausted
from skewrec.measure import (
    graeffe,
    house,
    is_kronecker,
    kronecker_free_part,
    mahler,
    mahler_lower_bound,
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

    def test_kronecker_summary(self):
        r = measure(cyclotomic(8))
        assert r.is_kronecker
        assert r.root_count_outside_unit_circle == 0
        assert r.root_count_certified is True
        assert r.mahler == Enclosure(1.0, 1.0, 0)

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
