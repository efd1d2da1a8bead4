"""Symplectic and anti-symplectic matrices, companions, and sampling."""

import itertools

import pytest

import skewrec.symplectic as symplectic_module
from conftest import charpoly_cofactor
from skewrec.errors import PolynomialError
from skewrec.poly import IntPoly, is_reciprocal, is_skew_reciprocal
from skewrec.symplectic import (
    IntMatrix,
    charpoly,
    companion_anti_symplectic,
    companion_symplectic,
    is_anti_symplectic,
    is_symplectic,
    omega,
    random_anti_symplectic,
    random_symplectic,
    reversal,
)


class TestIntMatrix:
    def test_identity_and_indexing(self):
        m = IntMatrix.identity(3)
        assert m[0, 0] == 1 and m[0, 1] == 0
        assert m.size == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_matmul(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a @ b == IntMatrix([[2, 1], [4, 3]])

    def test_transpose_and_trace(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
        assert a.trace() == 5


class TestForms:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_omega_is_antisymmetric_and_unimodular(self, g):
        om = omega(g)
        assert om.transpose() == -om
        # omega^2 = -I
        assert om @ om == IntMatrix.identity(2 * g).scaled(-1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_reversal_conjugates_form_to_negative(self, g):
        r = reversal(g)
        om = omega(g)
        assert r @ r == IntMatrix.identity(2 * g)
        assert r @ om @ r == -om

    def test_identity_is_symplectic(self):
        assert is_symplectic(IntMatrix.identity(4))
        assert not is_anti_symplectic(IntMatrix.identity(4))

    def test_odd_size_is_neither(self):
        assert not is_symplectic(IntMatrix.identity(3))
        assert not is_anti_symplectic(IntMatrix.identity(3))

    def test_reversal_is_anti_symplectic(self):
        # R Omega R = -Omega and R^T = R, so R itself is anti-symplectic
        assert is_anti_symplectic(reversal(2))


class TestCharpoly:
    def test_known_two_by_two(self):
        m = IntMatrix([[0, -1], [1, -3]])
        # [DERIVED] det(tI - m) = t^2 + 3t + 1
        assert charpoly(m) == IntPoly([1, 3, 1])

    def test_matches_cofactor_oracle_small(self, rng):
        for size in (1, 2, 3, 4, 5):
            for _ in range(6):
                m = IntMatrix(
                    [
                        [rng.randint(-4, 4) for _ in range(size)]
                        for _ in range(size)
                    ]
                )
                assert charpoly(m) == charpoly_cofactor(m)

    def test_monic_of_matrix_size(self):
        m = IntMatrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
        h = charpoly(m)
        assert h.degree == 3 and h.is_monic()

    def test_determinant_sign_via_constant_term(self):
        # det(M) = (-1)^n * charpoly(0)
        m = IntMatrix([[1, 2], [3, 4]])
        assert charpoly(m)(0) == -2  # det = -2, n = 2


class TestCompanions:
    def test_symplectic_companion_genus_one(self):
        h = IntPoly([1, -3, 1])
        b = companion_symplectic(h)
        assert is_symplectic(b)
        assert charpoly(b) == h
        assert b == IntMatrix([[0, -1], [1, 3]])

    def test_anti_symplectic_companion_genus_one(self):
        f = IntPoly([-1, -1, 1])  # t^2 - t - 1
        a = companion_anti_symplectic(f)
        assert is_anti_symplectic(a)
        assert charpoly(a) == f

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_symplectic_companion_realizes_reciprocal(self, g, rng):
        for _ in range(10):
            half = [rng.randint(-3, 3) for _ in range(g)]
            coeffs = [0] * (2 * g + 1)
            coeffs[2 * g] = 1
            coeffs[0] = 1
            for i in range(1, g):
                coeffs[2 * g - i] = half[i - 1]
                coeffs[i] = half[i - 1]
            coeffs[g] = half[g - 1]
            h = IntPoly(coeffs)
            assert is_reciprocal(h)
            b = companion_symplectic(h)
            assert is_symplectic(b)
            assert charpoly(b) == h

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_anti_symplectic_companion_realizes_skew(self, g, rng):
        for _ in range(10):
            upper = [rng.randint(-3, 3) for _ in range(g)]
            coeffs = [0] * (2 * g + 1)
            coeffs[2 * g] = 1
            for i in range(1, g):
                coeffs[2 * g - i] = upper[i - 1]
            coeffs[g] = upper[g - 1]
            for k in range(g):
                coeffs[k] = (-1) ** (g + k) * coeffs[2 * g - k]
            f = IntPoly(coeffs)
            assert is_skew_reciprocal(f)
            a = companion_anti_symplectic(f)
            assert is_anti_symplectic(a)
            assert charpoly(a) == f

    def test_rejects_nonreciprocal(self):
        with pytest.raises(PolynomialError):
            companion_symplectic(IntPoly([-1, -1, 1]))

    def test_rejects_non_skew(self):
        with pytest.raises(PolynomialError):
            companion_anti_symplectic(IntPoly([1, -3, 1]))


class TestRandomSampling:
    def test_deterministic_for_seed(self):
        assert random_symplectic(2, 15, 99) == random_symplectic(2, 15, 99)
        assert random_anti_symplectic(3, 9, 5) == random_anti_symplectic(3, 9, 5)

    def test_seeds_differ(self):
        mats = {random_symplectic(2, 15, seed).rows for seed in range(8)}
        assert len(mats) > 1

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_symplectic_predicate_and_charpoly(self, g):
        for seed in range(12):
            m = random_symplectic(g, 10 + seed, seed)
            assert is_symplectic(m)
            assert is_reciprocal(charpoly(m))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_anti_symplectic_predicate_and_charpoly(self, g):
        for seed in range(12):
            m = random_anti_symplectic(g, 10 + seed, seed)
            assert is_anti_symplectic(m)
            assert is_skew_reciprocal(charpoly(m))

    def test_word_length_zero_gives_identity_class(self):
        m = random_symplectic(2, 0, 0)
        assert is_symplectic(m)


class TestResultChecksRaise:
    """The result checks raise AssertionError themselves, so python -O keeps them."""

    def test_cayley_hamilton(self, monkeypatch):
        m = companion_symplectic(IntPoly([1, -3, 1]))
        # every trace read as 0: the divisions stay exact, the result is t^2
        monkeypatch.setattr(IntMatrix, "trace", lambda self: 0)
        with pytest.raises(AssertionError, match="Cayley-Hamilton check failed"):
            charpoly(m)

    def test_random_symplectic(self, monkeypatch):
        monkeypatch.setattr(symplectic_module, "is_symplectic", lambda a: False)
        with pytest.raises(AssertionError, match="not symplectic"):
            random_symplectic(2, 5, 1)

    def test_random_anti_symplectic(self, monkeypatch):
        monkeypatch.setattr(symplectic_module, "is_anti_symplectic", lambda a: False)
        with pytest.raises(AssertionError, match="not anti-symplectic"):
            random_anti_symplectic(2, 5, 1)


class TestExhaustiveSmallCompanions:
    def test_all_degree_two_and_four(self):
        # every monic reciprocal / skew-reciprocal of degree 2 and 4 with
        # height <= 2 is realized exactly
        for g, rng_vals in ((1, range(-2, 3)), (2, None)):
            if g == 1:
                for a in rng_vals:
                    h = IntPoly([1, a, 1])
                    assert charpoly(companion_symplectic(h)) == h
                    f = IntPoly([-1, a, 1])
                    assert charpoly(companion_anti_symplectic(f)) == f
            else:
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        h = IntPoly([1, a, b, a, 1])
                        assert charpoly(companion_symplectic(h)) == h
                        f = IntPoly([1, -a, b, a, 1])
                        assert charpoly(companion_anti_symplectic(f)) == f
