"""Exact polynomial arithmetic, symmetry predicates, and parsing."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import skewrec.poly as poly_module
from skewrec.errors import ParseError, PolynomialError
from skewrec.poly import (
    BREUSCH_BOUND,
    LEHMER_POLY,
    MAX_DEGREE,
    ONE,
    T,
    ZERO,
    IntPoly,
    _gcd_subresultant,
    _strip_t_powers,
    cyclotomic,
    div_exact,
    divrem_exact,
    euler_phi,
    extract_square_substitution,
    gcd_primitive,
    is_reciprocal,
    is_skew_reciprocal,
    pad_to_degree,
    parse_poly,
    poly_to_string,
    reverse,
    squarefree_decomposition,
    substitute_square,
)

_t = sympy.symbols("t")


def to_sympy(f: IntPoly):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], _t)


small_polys = st.builds(
    IntPoly,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8),
)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero())


class TestBasics:
    def test_canonical_form_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0, 0]).coeffs == ()

    def test_zero_polynomial_degree(self):
        assert ZERO.degree == -1
        assert ZERO.is_zero()
        assert not ONE.is_zero()

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(PolynomialError):
            IntPoly([1.5, 2])

    def test_construction_from_intpoly_is_identity(self):
        assert IntPoly(LEHMER_POLY) == LEHMER_POLY

    def test_getitem_beyond_degree(self):
        f = IntPoly([3, 4])
        assert f[0] == 3 and f[1] == 4 and f[7] == 0

    @given(nonzero_polys, st.integers(min_value=0, max_value=5))
    def test_strip_t_powers(self, f, k):
        j, g = _strip_t_powers(f.shift(k))
        assert g.constant != 0 and g.shift(j) == f.shift(k)
        assert _strip_t_powers(ZERO) == (0, ZERO)

    def test_iteration_matches_coeffs(self):
        assert list(IntPoly([1, 0, -2])) == [1, 0, -2]

    def test_height(self):
        assert IntPoly([3, -7, 1]).height() == 7
        assert ZERO.height() == 0

    def test_evaluation(self):
        f = IntPoly([1, -3, 1])  # t^2 - 3t + 1
        assert f(0) == 1 and f(1) == -1 and f(3) == 1
        assert f(Fraction(1, 2)) == Fraction(-1, 4)


class TestArithmetic:
    @given(small_polys, small_polys)
    def test_addition_matches_sympy(self, f, g):
        assert to_sympy(f + g) == (to_sympy(f) + to_sympy(g))

    @given(small_polys, small_polys)
    def test_multiplication_matches_sympy(self, f, g):
        assert to_sympy(f * g) == (to_sympy(f) * to_sympy(g))

    @given(small_polys, st.integers(min_value=0, max_value=4))
    def test_power_matches_repeated_multiplication(self, f, n):
        expected = ONE
        for _ in range(n):
            expected = expected * f
        assert f**n == expected

    @given(small_polys)
    def test_derivative_matches_sympy(self, f):
        assert to_sympy(f.derivative()) == to_sympy(f).diff(_t)

    def test_shift(self):
        assert IntPoly([1, 1]).shift(2) == IntPoly([0, 0, 1, 1])
        assert ZERO.shift(3) == ZERO

    def test_scalar_multiplication(self):
        assert 3 * IntPoly([1, -1]) == IntPoly([3, -3])


class TestDivision:
    @given(small_polys, nonzero_polys.filter(lambda g: g.leading in (1, -1)))
    def test_divrem_identity(self, f, g):
        q, r = divrem_exact(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_divrem_requires_unit_leading(self):
        with pytest.raises(PolynomialError):
            divrem_exact(IntPoly([1, 1]), IntPoly([1, 2]))

    def test_div_exact_raises_on_remainder(self):
        with pytest.raises(PolynomialError):
            div_exact(IntPoly([1, 1]), IntPoly([0, 1]))

    def test_div_exact_quotient(self):
        f = IntPoly([1, 2, 1])  # (t+1)^2
        assert div_exact(f, IntPoly([1, 1])) == IntPoly([1, 1])


class TestGcd:
    @given(small_polys, small_polys)
    def test_gcd_matches_sympy(self, f, g):
        if f.is_zero() and g.is_zero():
            return
        ours = gcd_primitive(f, g)
        theirs = sympy.gcd(to_sympy(f).as_expr(), to_sympy(g).as_expr())
        theirs_poly = sympy.Poly(theirs, _t)
        # sympy returns the monic-or-primitive gcd up to sign; compare
        # primitive positive-leading forms
        coeffs = [int(c) for c in reversed(theirs_poly.all_coeffs())]
        expected = IntPoly(coeffs).primitive() if any(coeffs) else ONE
        if expected.is_zero():
            expected = ONE
        assert ours == expected

    def test_gcd_of_known_product(self):
        a = IntPoly([1, -3, 1]) * IntPoly([1, 1])
        b = IntPoly([1, -3, 1]) * IntPoly([-1, 1])
        assert gcd_primitive(a, b) == IntPoly([1, -3, 1])


monic_factors = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda c: IntPoly(c + [1]))


class TestHeuristicGcd:
    """gcd_primitive's verified heuristic against the subresultant loop."""

    @given(small_polys, small_polys, small_polys, st.integers(-6, 6))
    def test_matches_subresultant(self, common, f, g, content):
        # shared factors, non-monic and non-primitive inputs, constants, zero
        a, b = common * f * content, common * g
        if a.is_zero() and b.is_zero():
            return
        assert gcd_primitive(a, b) == _gcd_subresultant(a, b)

    @given(st.lists(st.tuples(monic_factors, st.integers(1, 5)),
                    min_size=1, max_size=3))
    def test_matches_subresultant_on_repeated_factors(self, spec):
        f = ONE
        for p, mult in spec:
            f = f * p**mult
        df = f.derivative()
        assert gcd_primitive(f, df) == _gcd_subresultant(f, df)
        assert gcd_primitive(df, f) == _gcd_subresultant(f, df)

    @pytest.mark.parametrize("f, want", [
        (IntPoly([1, 1]) ** 5 * LEHMER_POLY**2, IntPoly([1, 1]) ** 4 * LEHMER_POLY),
        (IntPoly([-1, 1]) ** 3 * IntPoly([1, 1, 1]) ** 4,
         IntPoly([-1, 1]) ** 2 * IntPoly([1, 1, 1]) ** 3),
        (cyclotomic(7) ** 2 * cyclotomic(9), cyclotomic(7)),
    ])
    def test_high_multiplicities(self, f, want):
        assert gcd_primitive(f, f.derivative()) == want

    def test_constants_and_zero(self):
        assert gcd_primitive(IntPoly([6]), IntPoly([4])) == ONE
        assert gcd_primitive(IntPoly([-3]), LEHMER_POLY) == ONE
        assert gcd_primitive(ZERO, IntPoly([4, 6])) == IntPoly([2, 3])
        with pytest.raises(PolynomialError):
            gcd_primitive(ZERO, ZERO)

    def test_a_rejected_point_moves_to_a_larger_one(self, monkeypatch):
        # at the first point the candidate for gcd(f, f') does not divide
        f = IntPoly([0, -2, -1, 1])  # t(t - 2)(t + 1)
        seen = []
        read = poly_module._from_digits
        monkeypatch.setattr(poly_module, "_from_digits",
                            lambda gamma, k: seen.append(k) or read(gamma, k))
        monkeypatch.setattr(poly_module, "_gcd_subresultant", None)
        assert gcd_primitive(f, f.derivative()) == ONE
        assert len(seen) == 3 and seen == sorted(seen)

    def test_no_tries_falls_back(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poly_module, "_HEU_TRIES", 0)
        monkeypatch.setattr(poly_module, "_gcd_subresultant",
                            lambda *ab: calls.append(ab) or _gcd_subresultant(*ab))
        f = IntPoly([1, 1]) ** 3 * LEHMER_POLY
        assert gcd_primitive(f, f.derivative()) == IntPoly([1, 1]) ** 2
        assert len(calls) == 1

    @pytest.mark.parametrize("bogus", [IntPoly([5, 1]), IntPoly([2, 1])])
    def test_a_candidate_dividing_neither_or_one_is_rejected(self, monkeypatch, bogus):
        # t + 2 divides a but not b; t + 5 divides neither
        a, b = IntPoly([1, 1]) * IntPoly([2, 1]), IntPoly([1, 1]) * IntPoly([3, 1])
        monkeypatch.setattr(poly_module, "_from_digits", lambda gamma, k: bogus)
        assert gcd_primitive(a, b) == IntPoly([1, 1])

    def test_a_non_monic_gcd_is_found(self):
        # divrem_exact cannot test 2t + 1, so the subresultant loop finds it
        common = IntPoly([1, 2])
        a, b = common * IntPoly([1, 1]), common * IntPoly([-1, 1]) * 3
        assert gcd_primitive(a, b) == common


class TestSquarefree:
    def test_known_decomposition(self):
        f = IntPoly([1, 1]) ** 2 * IntPoly([-2, 1]) ** 3 * IntPoly([1, -3, 1])
        parts = squarefree_decomposition(f)
        assert parts == [
            (IntPoly([1, -3, 1]), 1),
            (IntPoly([1, 1]), 2),
            (IntPoly([-2, 1]), 3),
        ]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_reconstruction_property(self, spec):
        f = ONE
        for root, mult in spec:
            f = f * IntPoly([-root, 1]) ** mult
        parts = squarefree_decomposition(f)
        rebuilt = ONE
        for p, i in parts:
            rebuilt = rebuilt * p**i
        assert rebuilt == f
        assert all(p.is_monic() and p.degree > 0 for p, _ in parts)

    def test_matches_sympy_on_lehmer_square(self):
        f = LEHMER_POLY * LEHMER_POLY
        assert squarefree_decomposition(f) == [(LEHMER_POLY, 2)]


class TestSymmetry:
    def test_reverse_involution(self):
        f = IntPoly([2, -3, 0, 1])
        assert reverse(reverse(f)) == f

    def test_reverse_requires_nonzero_constant(self):
        with pytest.raises(PolynomialError):
            reverse(T)

    def test_lehmer_is_reciprocal(self):
        assert is_reciprocal(LEHMER_POLY)
        assert reverse(LEHMER_POLY) == LEHMER_POLY

    def test_reciprocal_examples(self):
        assert is_reciprocal(IntPoly([1, -3, 1]))
        assert not is_reciprocal(IntPoly([-1, -1, 1]))  # t^2 - t - 1

    def test_skew_examples(self):
        # t^2 + t - 1: d = 1, c_0 = -c_2, c_1 free
        assert is_skew_reciprocal(IntPoly([-1, 1, 1]))
        assert is_skew_reciprocal(IntPoly([-1, -1, 1]))
        assert not is_skew_reciprocal(IntPoly([1, -3, 1]))
        # d = 2: constant +1, c_1 = -c_3
        assert is_skew_reciprocal(IntPoly([1, -1, 0, 1, 1]))
        assert not is_skew_reciprocal(IntPoly([1, 1, 0, 1, 1]))

    def test_skew_rejects_odd_degree(self):
        with pytest.raises(PolynomialError):
            is_skew_reciprocal(IntPoly([1, 1, 1, 1]))

    @given(st.integers(0, 5).flatmap(
        lambda d: st.lists(st.integers(-3, 3), min_size=2 * d, max_size=2 * d)),
        st.sampled_from([-2, -1, 1, 2]), st.booleans())
    def test_skew_matches_the_termwise_identity(self, low, leading, mirror):
        # a mirrored draw satisfies the identity by construction, so both
        # answers are drawn often
        c = [*low, leading]
        d = len(low) // 2
        if mirror:
            for k in range(d):
                c[k] = (-1) ** (d + k) * c[2 * d - k]
        want = all(c[k] == (-1) ** (d + k) * c[2 * d - k]
                   for k in range(2 * d + 1))
        assert is_skew_reciprocal(IntPoly(c)) == want

    def test_skew_rejects_zero(self):
        with pytest.raises(PolynomialError):
            is_skew_reciprocal(ZERO)

    @given(st.lists(st.integers(-4, 4), min_size=0, max_size=4))
    def test_palindromization_produces_reciprocal(self, half):
        # build an even-degree palindrome with nonzero ends
        coeffs = [1] + half + [5] + list(reversed(half)) + [1]
        assert is_reciprocal(IntPoly(coeffs))

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    def test_skew_identity_from_functional_equation(self, upper):
        # construct c_k = (-1)**(d+k) c_(2d-k) explicitly, then verify the
        # predicate agrees with the functional equation f(t) =
        # (-1)**d t**(2d) f(-1/t) evaluated via reverse and negation
        d = len(upper)
        coeffs = [0] * (2 * d + 1)
        coeffs[2 * d] = 1
        for off, c in enumerate(upper[:-1]):
            coeffs[d + 1 + off] = c
        coeffs[d] = upper[-1]
        for k in range(d):
            coeffs[k] = (-1) ** (d + k) * coeffs[2 * d - k]
        f = IntPoly(coeffs)
        assert is_skew_reciprocal(f)
        # the functional equation f(t) = (-1)**d t**(2d) f(-1/t), pointwise
        for x in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            lhs = f(x)
            rhs = (-1) ** d * x ** (2 * d) * f(-1 / x)
            assert lhs == rhs


class TestSquareSubstitution:
    def test_substitute_square(self):
        g = IntPoly([1, -3, 1])
        f = substitute_square(g)
        assert f == IntPoly([1, 0, -3, 0, 1])
        assert extract_square_substitution(f) == g

    def test_extract_returns_none_with_odd_terms(self):
        assert extract_square_substitution(IntPoly([1, 1, 1])) is None

    @given(small_polys)
    def test_round_trip(self, g):
        assert extract_square_substitution(substitute_square(g)) == g

    @given(small_polys.filter(lambda f: not f.is_zero()))
    def test_substitution_evaluates_correctly(self, g):
        f = substitute_square(g)
        for x in (2, -3, Fraction(1, 2)):
            assert f(x) == g(x * x)


class TestPadding:
    def test_pad_keeps_reciprocal_and_monic(self):
        f = IntPoly([1, -3, 1])
        padded = pad_to_degree(f, 6)
        assert padded.degree == 6
        assert padded.is_monic()
        assert is_reciprocal(padded)
        # product structure: padded = f * (t+1)^4
        assert padded == f * IntPoly([1, 1]) ** 4

    def test_pad_rejects_smaller_target(self):
        with pytest.raises(PolynomialError):
            pad_to_degree(IntPoly([1, 0, 0, 0, 1]), 2)

    def test_pad_rejects_nonreciprocal(self):
        with pytest.raises(PolynomialError):
            pad_to_degree(IntPoly([-1, -1, 1]), 4)


class TestCyclotomic:
    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_matches_sympy(self, n):
        ours = cyclotomic(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, _t), _t)
        assert list(reversed(ours.coeffs)) == [int(c) for c in theirs.all_coeffs()]

    @pytest.mark.parametrize("n", list(range(1, 50)))
    def test_euler_phi_matches_sympy(self, n):
        assert euler_phi(n) == int(sympy.totient(n))

    def test_degree_is_totient(self):
        for n in range(1, 40):
            assert cyclotomic(n).degree == euler_phi(n)


class TestParsing:
    def test_list_form(self):
        assert parse_poly("[1, -3, 1]") == IntPoly([1, -3, 1])
        assert parse_poly("[]") == ZERO

    def test_monomial_form(self):
        assert parse_poly("t^2-3t+1") == IntPoly([1, -3, 1])
        assert parse_poly("t^2 - 3*t + 1") == IntPoly([1, -3, 1])
        assert parse_poly("-t^3 + 2") == IntPoly([2, 0, 0, -1])
        assert parse_poly("t") == T
        assert parse_poly("7") == IntPoly([7])

    def test_lehmer_round_trip(self):
        text = "t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1"
        assert parse_poly(text) == LEHMER_POLY
        assert parse_poly(poly_to_string(LEHMER_POLY)) == LEHMER_POLY

    def test_repeated_terms_accumulate(self):
        assert parse_poly("t + t") == IntPoly([0, 2])

    def test_parse_errors(self):
        for bad in ("", "[1, 2", "x^2", "t^", "1.5t"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    @pytest.mark.parametrize("text", ["3 4", "t t", "t^2 3t 1", "t^2 + 3t 1",
                                      "3t4", "-t 2"])
    def test_terms_without_a_sign_between_them_are_rejected(self, text):
        # they used to be added up, so a typo parsed as another polynomial
        with pytest.raises(ParseError, match="missing '\\+' or '-'"):
            parse_poly(text)

    def test_a_leading_sign_and_spaced_products_stay_accepted(self):
        assert parse_poly("+t - 1") == IntPoly([-1, 1])
        assert parse_poly("3 t^2 - 2 * t") == IntPoly([0, -2, 3])

    def test_degree_limit_is_accepted(self):
        assert parse_poly(f"t^{MAX_DEGREE} + 1").degree == MAX_DEGREE
        full = "[" + ",".join(["1"] * (MAX_DEGREE + 1)) + "]"
        assert parse_poly(full).degree == MAX_DEGREE

    @pytest.mark.parametrize("text", [
        f"t^{MAX_DEGREE + 1}",
        "t^3000000+1",
        # read as one integer, never expanded into coefficients
        "2t^" + "9" * 200 + " - 1",
        "1 + t^" + "9" * 200,
        "[" + ",".join(["0"] * (MAX_DEGREE + 2)) + "]",
    ])
    def test_degree_above_the_limit_is_rejected(self, text):
        with pytest.raises(ParseError, match=f"above degree {MAX_DEGREE}"):
            parse_poly(text)

    @given(small_polys)
    def test_to_string_round_trip(self, f):
        assert parse_poly(poly_to_string(f)) == f


class TestConstants:
    def test_breusch_bound_value(self):
        assert BREUSCH_BOUND == Fraction(1179, 1000)
        assert float(BREUSCH_BOUND) == 1.179

    def test_lehmer_poly_shape(self):
        assert LEHMER_POLY.degree == 10
        assert LEHMER_POLY.is_monic()
        assert LEHMER_POLY.height() == 1
