"""Certified root disks versus an independent eigenvalue-based oracle."""

import importlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_components,
    brute_house,
    brute_mahler,
    brute_roots,
    certify_reference,
    disk_fractions,
    dyadic_eval,
    dyadic_fractions,
    exact_radius2,
    random_monic,
)
from skewrec import _dyadic as dy
from skewrec.errors import PolynomialError, PrecisionExhausted
from skewrec.measure import _house_bounds, _mahler_bounds, house, mahler, measure
from skewrec.poly import LEHMER_POLY, IntPoly, squarefree_decomposition
from skewrec.roots import (
    DEFAULT_MAX_BITS,
    _aberth,
    _certified_disks,
    _certify,
    _double_initial_points,
    _eval_scaled,
    _ExactDisk,
    _GUARD_BITS,
    _initial_points,
    _ladders,
    _START_BITS,
    components,
    memo_scope,
    roots_certified,
)

ORACLE_INPUTS = [
    (1, -3, 1),
    (-1, -1, 1),
    (2, 0, 1),
    (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
    (5, 4, 3, 2, 1),
    (-2, 0, 0, 0, 0, 0, 1),
]


def assert_disks_cover_oracle(f, disks, slack=1e-7):
    """Each oracle root must lie in some disk (up to oracle error)."""
    oracle = list(brute_roots(f))
    assert len(disks) == f.degree
    for r in oracle:
        assert any(
            abs(complex(r) - d.center) <= d.radius + slack for d in disks
        ), f"oracle root {r} not covered for {f}"


class TestAgainstOracle:
    @pytest.mark.parametrize("coeffs", ORACLE_INPUTS)
    def test_known_polynomials(self, coeffs):
        f = IntPoly(coeffs)
        disks = roots_certified(f, tol=1e-10)
        assert_disks_cover_oracle(f, disks)
        assert all(d.radius <= 1e-10 for d in disks)

    def test_random_polynomials(self, rng):
        for _ in range(40):
            f = random_monic(rng, 8, 6)
            disks = roots_certified(f, tol=1e-8)
            assert_disks_cover_oracle(f, disks)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("coeffs", ORACLE_INPUTS)
    def test_float_disks_contain_their_roots(self, coeffs, tol):
        # no slack: the roots come from a 400-bit solver, and a double
        # disk must contain its root exactly, not just up to float noise
        disks = roots_certified(IntPoly(coeffs), tol=tol)
        assert all(d.radius <= tol for d in disks)
        with mp.workprec(400):
            roots = mp.polyroots(list(reversed(coeffs)), maxsteps=400,
                                 extraprec=400)
            assert len(disks) == len(roots)

            def inside(r, d):
                return abs(r - mp.mpc(d.center)) <= mp.mpf(d.radius)

            for d in disks:
                assert any(inside(r, d) for r in roots), d
            for r in roots:
                assert any(inside(r, d) for d in disks), r


class TestStructure:
    def test_roots_at_zero_are_exact(self):
        f = IntPoly([0, 0, 0, 1, -3, 1]).shift(0)  # t^3 (t^2 - 3t + 1)
        disks = roots_certified(f, tol=1e-12)
        zeros = [d for d in disks if d.center == 0 and d.radius == 0.0]
        assert len(zeros) == 3
        assert len(disks) == 5

    def test_multiplicities_replicated(self):
        f = IntPoly([-2, 1]) ** 3 * IntPoly([1, 1]) ** 2
        disks = roots_certified(f, tol=1e-10)
        assert len(disks) == 5
        near_two = [d for d in disks if abs(d.center - 2) < 1e-9]
        near_minus_one = [d for d in disks if abs(d.center + 1) < 1e-9]
        assert len(near_two) == 3 and len(near_minus_one) == 2

    def test_non_monic_squarefree(self):
        f = IntPoly([1, -3, 2])  # (2t - 1)(t - 1)
        disks = roots_certified(f, tol=1e-12)
        assert_disks_cover_oracle(f, disks)
        mods = sorted(abs(d.center) for d in disks)
        assert abs(mods[0] - 0.5) < 1e-10 and abs(mods[1] - 1.0) < 1e-10

    def test_radii_never_exceed_tolerance(self, rng):
        for _ in range(10):
            f = random_monic(rng, 6, 4)
            for tol in (1e-6, 1e-12):
                disks = roots_certified(f, tol=tol)
                assert all(d.radius <= tol for d in disks)

    def test_determinism(self):
        a = roots_certified(LEHMER_POLY, tol=1e-12)
        b = roots_certified(LEHMER_POLY, tol=1e-12)
        assert [(d.center, d.radius) for d in a] == [
            (d.center, d.radius) for d in b
        ]


class TestErrors:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(PolynomialError):
            roots_certified(IntPoly([]))

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(PolynomialError):
            roots_certified(IntPoly([1, 1]), tol=0.0)

    def test_precision_exhausted_is_raised(self):
        with pytest.raises(PrecisionExhausted):
            roots_certified(LEHMER_POLY, tol=1e-40, max_bits=64)

    def test_tolerance_below_double_spacing_is_exhausted(self):
        # the exact disks certify, but a double centre near sqrt(2) is
        # about 1e-16 off, so no double disk of radius 1e-30 holds the root
        with pytest.raises(PrecisionExhausted):
            roots_certified(IntPoly([-2, 0, 1]), tol=1e-30)

    def test_constant_polynomial_has_no_roots(self):
        assert roots_certified(IntPoly([7])) == []

    @pytest.mark.parametrize("quantity", [roots_certified, mahler, house, measure],
                             ids=lambda fn: fn.__name__)
    def test_coefficients_beyond_the_double_range(self, quantity):
        # a root near -10**400 has no double centre and no finite enclosure
        with pytest.raises(PrecisionExhausted):
            quantity(IntPoly([1, 10**400, 1]))


class TestSerialization:
    def test_disk_json(self):
        (disk,) = roots_certified(IntPoly([-2, 1]), tol=1e-12)
        doc = disk.to_json()
        assert set(doc) == {"re", "im", "radius"}
        assert float(doc["re"]) == disk.center.real


def _disk_data(parts, certify):
    return [(certify(p), mult) for p, mult in parts]


class TestDoubleFastPath:
    """The hardware-double seed against a forced multiprecision run.

    Both disk sets are exact certificates, so each must meet the
    tolerance, and the enclosures read from them must intersect and
    contain the numpy oracle values.
    """

    TOL = Fraction(1e-10)

    def check(self, f):
        parts = squarefree_decomposition(f)
        fast = _disk_data(parts, lambda p: _certified_disks(
            p, self.TOL, DEFAULT_MAX_BITS)[0])
        forced = _disk_data(parts, lambda p: _certify(
            p.coeffs, _aberth(p.coeffs, _START_BITS, None), _START_BITS))
        for data in (fast, forced):
            for disks, _ in data:
                assert disks is not None
                assert all(disk_fractions(d)[2] <= self.TOL for d in disks)
        slack = 1e-9  # the oracle is float root finding
        for read, oracle in ((_mahler_bounds, brute_mahler(f)),
                             (lambda data: _house_bounds(0, data),
                              brute_house(f))):
            (lo1, hi1), (lo2, hi2) = read(fast), read(forced)
            assert max(lo1, lo2) <= min(hi1, hi2)
            for lo, hi in ((lo1, hi1), (lo2, hi2)):
                assert float(lo) - slack <= oracle <= float(hi) + slack

    def test_lehmer(self):
        self.check(LEHMER_POLY)
        _, bits = _certified_disks(LEHMER_POLY, self.TOL, DEFAULT_MAX_BITS)
        assert bits == 53

    @settings(max_examples=40)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=12)
           .filter(lambda cs: cs[0] != 0))
    def test_random_monic(self, coeffs):
        self.check(IntPoly(coeffs + [1]))

    def test_fallback_is_warm_started(self, monkeypatch):
        module = importlib.import_module("skewrec.roots")
        original = module._aberth
        calls = []

        def recording(coeffs, prec, warm):
            calls.append((prec, warm))
            return original(coeffs, prec, warm)

        monkeypatch.setattr(module, "_aberth", recording)
        tol = Fraction(1e-20)  # out of reach of double approximations
        disks, bits = _certified_disks(IntPoly([1, -3, 1]), tol,
                                       DEFAULT_MAX_BITS)
        assert len(disks) == 2 and all(disk_fractions(d)[2] <= tol for d in disks)
        assert bits > 53
        assert calls[0] == (53, None)
        warms = [warm for prec, warm in calls if prec > 53]
        assert warms and warms[0] is not None

    def test_double_rung_recovers_from_coincident_points(self):
        # every pair collides at the start; the nudges must separate them
        zs = _aberth(LEHMER_POLY.coeffs, 53, [1.5 + 0.5j] * 10)
        assert zs is not None and all(type(z) is complex for z in zs)
        disks = _certify(LEHMER_POLY.coeffs, zs, _START_BITS)
        assert disks is not None
        assert all(disk_fractions(d)[2] <= Fraction(1e-10) for d in disks)

    def test_oversized_coefficients_skip_the_double_rung(self):
        coeffs = (1, 10**400, 1)
        assert _aberth(coeffs, 53, None) is None
        disks, bits = _certified_disks(IntPoly(coeffs), Fraction(1e-10),
                                       DEFAULT_MAX_BITS)
        assert len(disks) == 2 and bits > 53


def _certified_or_exhausted(p, tol, max_bits):
    try:
        return _certified_disks(p, tol, max_bits)
    except PrecisionExhausted:
        return "exhausted"


class TestLadderMemo:
    """Resumed precision ladders return exactly what fresh ones do."""

    # p0 is 64 for the first three and 128 for the last two
    TOLS = [Fraction(1e-8), Fraction(1e-15), Fraction(1e-19),
            Fraction(1e-25), Fraction(1e-33)]

    @settings(max_examples=30)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=9)
           .filter(lambda cs: cs[0] != 0),
           st.lists(st.tuples(st.sampled_from(TOLS),
                              st.sampled_from([64, DEFAULT_MAX_BITS])),
                    min_size=2, max_size=6))
    def test_resumed_ladders_match_fresh_ones(self, coeffs, calls):
        parts = [p for p, _ in squarefree_decomposition(IntPoly(coeffs + [1]))]
        fresh = [_certified_or_exhausted(p, tol, bits)
                 for tol, bits in calls for p in parts]
        with memo_scope():
            resumed = [_certified_or_exhausted(p, tol, bits)
                       for tol, bits in calls for p in parts]
        assert resumed == fresh

    def test_exhaustion_then_success_gives_the_fresh_result(self, monkeypatch):
        f, tol = IntPoly([1, -3, 1]), Fraction(1, 1 << 64)  # p0 = 64
        fresh = _certified_disks(f, tol, DEFAULT_MAX_BITS)
        module = importlib.import_module("skewrec.roots")
        original = module._aberth
        precs = []

        def recording(coeffs, prec, warm):
            precs.append(prec)
            return original(coeffs, prec, warm)

        monkeypatch.setattr(module, "_aberth", recording)
        with memo_scope():
            with pytest.raises(PrecisionExhausted):
                _certified_disks(f, tol, 64)
            assert precs == [53, 64]
            assert _certified_disks(f, tol, DEFAULT_MAX_BITS) == fresh
        # the second call ran only the rung past the cap
        assert precs == [53, 64, 128] and fresh[1] == 128

    def test_nothing_is_kept_outside_a_scope(self):
        f, tol = IntPoly([1, -3, 1]), Fraction(1e-12)
        hits, misses = _ladders.hits, _ladders.misses
        _certified_disks(f, tol, DEFAULT_MAX_BITS)
        _certified_disks(f, tol, DEFAULT_MAX_BITS)
        assert (_ladders.hits, _ladders.entries) == (hits, None)
        assert _ladders.misses == misses + 2
        with memo_scope():
            _certified_disks(f, tol, DEFAULT_MAX_BITS)
            with memo_scope():  # an inner scope is part of the outer one
                _certified_disks(f, tol, DEFAULT_MAX_BITS)
            assert len(_ladders.entries) == 1
        assert (_ladders.hits, _ladders.entries) == (hits + 1, None)


class TestCertifyCoincidentPoints:
    def test_equal_values_of_either_type_are_rejected(self):
        coeffs = (1, -3, 1)
        z = _aberth(coeffs, 53, None)[0]
        assert _certify(coeffs, [z, mp.mpc(z)]) is None
        assert _certify(coeffs, [mp.mpc(z), z]) is None
        apart = complex(math.nextafter(z.real, math.inf), z.imag)
        assert _certify(coeffs, [z, mp.mpc(apart)]) is not None


@st.composite
def certify_cases(draw):
    """(coeffs, prec, res_bits): an integer polynomial of degree 1-20 with
    a nonzero constant term, monic or not, a ladder rung and a grid floor."""
    degree = draw(st.integers(1, 20))
    height = draw(st.sampled_from([1, 4, 1000]))
    lower = draw(st.lists(st.integers(-height, height), min_size=degree,
                          max_size=degree).filter(lambda cs: cs[0] != 0))
    lc = draw(st.one_of(st.just(1), st.integers(-7, 7).filter(bool)))
    return (tuple(lower) + (lc,), draw(st.sampled_from([53, 64])),
            draw(st.sampled_from([0, 64])))


def _modulus2(z):
    a, b, e = z
    return Fraction(a * a + b * b) * Fraction(2) ** (2 * e)


class TestDyadicCertificate:
    """The grid certificate against the exact-rational reference.

    Every grid value must contain the exact certificate: radii at or
    above the exact n * max(|W|, |f/f'|) and at most one grid step above
    the reference's, and modulus brackets around |z| widened by at least
    the radius.
    """

    def check(self, coeffs, points, res_bits):
        got = _certify(coeffs, points, res_bits)
        want = certify_reference(coeffs, points, res_bits)
        assert (got is None) == (want is None)
        if got is None:
            return
        zs = [d.center for d in want]
        grid = max(res_bits, -min(e for _, _, e in zs)) + _GUARD_BITS
        assert all(d.grid == grid for d in got)
        step = Fraction(1, 1 << grid)
        for i, (d, ref) in enumerate(zip(got, want)):
            re, im, radius, mod_lo, mod_hi = disk_fractions(d)
            assert (re, im) == dyadic_fractions(ref.center)
            assert radius ** 2 >= exact_radius2(coeffs, zs, i)
            assert radius <= ref.radius + step
            mod2 = _modulus2(ref.center)
            assert mod_lo >= 0
            assert mod_lo == 0 or (mod_lo + radius) ** 2 <= mod2
            assert mod2 <= (mod_hi - radius) ** 2

    @settings(max_examples=80)
    @given(certify_cases())
    def test_contains_the_reference_certificate(self, case):
        coeffs, prec, res_bits = case
        points = _aberth(coeffs, prec, None)
        assume(points is not None)
        self.check(coeffs, points, res_bits)

    @pytest.mark.parametrize("coeffs, points", [
        ((-1, 0, 1), [0j, 3 + 0j]),  # f'(0) = 0 at a non-root
        ((-1, 0, 1), [1 + 0j, -1 + 0j]),  # both points are roots
        ((2, -3, 1), [1.5 + 0j, mp.mpc(1.5)]),  # coincident points
        ((-1, 2**600), [2.0**-600]),  # an exact root far below 1
    ])
    @pytest.mark.parametrize("res_bits", [0, 64])
    def test_degenerate_and_exact_points(self, coeffs, points, res_bits):
        self.check(coeffs, points, res_bits)


class TestHomogeneousHorner:
    """_eval_scaled against exact dyadic evaluation of f and f'."""

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12),
           st.integers(-9, 9).filter(bool),
           st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
           st.integers(0, 80))
    def test_matches_dyadic_evaluation(self, lower, lc, x, y, s):
        coeffs = tuple(lower) + (lc,)
        n = len(coeffs) - 1
        deriv = [k * c for k, c in enumerate(coeffs) if k > 0]
        fa, fb, da, db = _eval_scaled(coeffs, s, x, y)
        scale = Fraction(1, 1 << s)
        want_f = dyadic_fractions(dyadic_eval(coeffs, (x, y, -s)))
        want_df = dyadic_fractions(dyadic_eval(deriv, (x, y, -s)))
        assert (fa * scale ** n, fb * scale ** n) == want_f
        assert (da * scale ** (n - 1), db * scale ** (n - 1)) == want_df


class TestRelativeGrid:
    """The grid follows the points: a tiny exact root keeps an exact bracket."""

    F = IntPoly([-1, 2**600])

    def test_house_stays_an_exact_point(self):
        enc = house(self.F)
        assert (enc.lo, enc.hi, enc.bits) == (2.0**-600, 2.0**-600, 53)

    def test_roots_certify_at_a_tiny_tolerance(self):
        (disk,) = roots_certified(self.F, tol=1e-200)
        assert disk.center == 2.0**-600 and disk.radius <= 1e-200


def _direct_initial_points(coeffs, n):
    """The start points with cos and sin evaluated afresh, at mp's precision."""
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    pts = []
    for k in range(n):
        r = bound * (1.0 + 0.041 * (k % 3) + 0.0127 * (k % 5))
        theta = (2 * mp.pi * k + mp.mpf("0.7")) / n
        pts.append(mp.mpc(r * mp.cos(theta), r * mp.sin(theta)))
    return pts


class TestInitialPoints:
    @pytest.mark.parametrize("prec", [53, 64, 128, 256])
    def test_cached_angles_are_bit_identical(self, rng, prec):
        for n in range(1, 40):
            coeffs = [rng.randint(-9, 9) for _ in range(n)]
            coeffs.append(rng.choice((1, 2, -3)))
            with mp.workprec(prec):
                for _ in range(2):  # the second call reads the cache
                    got = _initial_points(coeffs, n)
                    want = _direct_initial_points(coeffs, n)
                    assert [(z.real._mpf_, z.imag._mpf_) for z in got] == \
                        [(z.real._mpf_, z.imag._mpf_) for z in want]

    def test_double_points_are_the_53_bit_points(self, rng):
        # the double rung starts from Python complex numbers, without mpmath
        for n in [*range(1, 65), 100, 200]:
            height = rng.choice((9, 10**6, 10**15))
            coeffs = [rng.randint(-height, height) for _ in range(n)]
            coeffs.append(rng.choice((1, 2, -3, 7919)))
            with mp.workprec(53):
                want = [complex(z) for z in _direct_initial_points(coeffs, n)]
            for _ in range(2):  # the second call reads the cache
                got = _double_initial_points(coeffs, n)
                assert all(type(z) is complex for z in got)
                assert [(z.real.hex(), z.imag.hex()) for z in got] == \
                    [(z.real.hex(), z.imag.hex()) for z in want]


def _disk(a, b, e, radius):
    """The disk about (a + b*i) * 2**e, on the grid 2**-8 that all of them share."""
    grid = 8
    r = Fraction(radius) * (1 << grid)
    assert r.denominator == 1 and e + grid >= 0
    return _ExactDisk(a << (e + grid), b << (e + grid), int(r), 0, 0, grid)


class TestComponents:
    @pytest.mark.parametrize("b", [0, 4], ids=["real-axis", "diagonal"])
    def test_tangent_disks_join(self, b):
        # centres 0 and 3 + b*i (or 5) are 5 apart; radii 2 and 3 touch,
        # and on the real axis the real extents meet in one point
        a = 5 if b == 0 else 3
        tangent = [_disk(0, 0, 0, 2), _disk(a, b, 0, 3)]
        assert components(tangent) == [[0, 1]]
        apart = [_disk(0, 0, 0, 2), _disk(a, b, 0, 3 - Fraction(1, 256))]
        assert components(apart) == [[0], [1]]

    def test_conjugate_pairs(self):
        # conjugates share their real extent; only the nearby pair joins
        disks = [_disk(1, 3, 0, 1), _disk(1, -3, 0, 1),
                 _disk(1, 1, -2, Fraction(1, 4)), _disk(1, -1, -2, Fraction(1, 4))]
        assert components(disks) == [[0], [1], [2, 3]]

    def test_matches_all_pairs_grouping(self):
        rng = random.Random(20261018)
        for _ in range(300):
            disks = []
            for _ in range(rng.randint(0, 14)):
                a, b, e = rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-2, 0)
                radius = Fraction(rng.randint(0, 12), 8)
                disks.append(_disk(a, b, e, radius))
                if rng.random() < 0.3:
                    disks.append(_disk(a, -b, e, radius))
            rng.shuffle(disks)
            assert components(disks) == brute_components(disks)


class TestFloatToDyadic:
    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -0.75, 0.1, 5e-324, -5e-324, 2.2250738585072014e-308,
        2.225073858507201e-308, 1.7976931348623157e308, -2.0**1000, 3.0 * 2.0**-1060,
    ])
    def test_round_trip(self, x):
        man, exp = dy.from_float(x)
        assert Fraction(man) * Fraction(2) ** exp == Fraction(x)
        assert man == 0 and exp == 0 or man % 2 == 1

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_mpmath_normal_form(self, x):
        assert dy.from_float(x) == dy._to_int_exp(mp.mpf(x))
        point = dy.from_mpf_pair(x, -x)
        assert dyadic_fractions(point) == (Fraction(x), Fraction(-x))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            dy.from_float(x)
