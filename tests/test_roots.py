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
    conjugate_closed_reference,
    disk_fractions,
    dyadic_eval,
    dyadic_fractions,
    exact_radius2,
    expand_trace,
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
    _conjugate_closed,
    _eval_scaled,
    _ExactDisk,
    _GUARD_BITS,
    _initial_points,
    _ladders,
    _newton,
    _start_radii,
    _START_BITS,
    _trace_polynomial,
    _trace_start,
    components,
    memo_scope,
    roots_certified,
)
from skewrec.search import SearchSpace, enumerate_space

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

    @pytest.mark.parametrize("f", [LEHMER_POLY, IntPoly([1, 1, 1])],
                             ids=["lehmer", "kronecker"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("quantity", [roots_certified, mahler, house, measure],
                             ids=lambda fn: fn.__name__)
    def test_tolerance_must_be_positive_and_finite(self, quantity, tol, f, monkeypatch):
        # rejected before any root work: the ladder would run to the cap
        def no_root_work(*args):
            raise AssertionError("root work ran")

        for name in ("skewrec.roots", "skewrec.measure"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "_certified_disks", no_root_work)
        with pytest.raises(PolynomialError, match="positive and finite"):
            quantity(f, tol)

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


def record_rungs(monkeypatch) -> list:
    """Record each _aberth and _newton call as (name, prec, points passed in).

    An _aberth call on a trace polynomial, the cold double start of a
    reciprocal or skew-reciprocal part, is named "trace"; every other
    _aberth call, on the part itself, "aberth".  Wraps whatever the
    module holds at the time, so a test may first replace either
    function and then record the replacement.
    """
    module = importlib.import_module("skewrec.roots")
    aberth, newton, trace = module._aberth, module._newton, module._trace_polynomial
    calls, traces = [], []

    def recording_trace(coeffs):
        out = trace(coeffs)
        if out is not None:
            traces.append(out[0])
        return out

    def recording_aberth(coeffs, prec, warm, *sweeps):
        name = "trace" if any(coeffs is p for p in traces) else "aberth"
        calls.append((name, prec, warm))
        return aberth(coeffs, prec, warm, *sweeps)

    def recording_newton(coeffs, points, prec):
        calls.append(("newton", prec, points))
        return newton(coeffs, points, prec)

    monkeypatch.setattr(module, "_trace_polynomial", recording_trace)
    monkeypatch.setattr(module, "_aberth", recording_aberth)
    monkeypatch.setattr(module, "_newton", recording_newton)
    return calls


def rung_names(calls) -> list:
    return [(name, prec) for name, prec, _ in calls]


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
        # two coincident double points certify nothing, so the 64-bit rung
        # runs the iteration from them rather than from a cold start; the
        # double rung itself starts from its trace polynomial's roots
        module = importlib.import_module("skewrec.roots")
        aberth = module._aberth
        f, collided = IntPoly([1, -3, 1]), [1.5 + 0.5j] * 2
        monkeypatch.setattr(module, "_aberth", lambda coeffs, prec, warm, *sweeps: (
            collided if prec == 53 and coeffs == f.coeffs
            else aberth(coeffs, prec, warm, *sweeps)))
        calls = record_rungs(monkeypatch)
        tol = Fraction(1e-12)
        disks, bits = _certified_disks(f, tol, DEFAULT_MAX_BITS)
        assert len(disks) == 2 and all(disk_fractions(d)[2] <= tol for d in disks)
        assert bits == 64
        assert rung_names(calls) == [("trace", 53), ("aberth", 53), ("aberth", 64)]
        assert calls[0][2] is None and len(calls[1][2]) == 2
        assert calls[2][2] is collided

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
        # no double holds 10**400, and the 64-bit iteration leaves the root
        # near -10**400 far wider than 2**-64; the Newton rung at 128 bits
        # puts it on the grid 2**-128
        f, tol = IntPoly([1, 10**400, 1]), Fraction(1, 1 << 64)  # p0 = 64
        fresh = _certified_disks(f, tol, DEFAULT_MAX_BITS)
        calls = record_rungs(monkeypatch)
        with memo_scope():
            with pytest.raises(PrecisionExhausted):
                _certified_disks(f, tol, 64)
            # P = t + 10**400 fits no double either: the plain cold start
            assert rung_names(calls) == [("trace", 53), ("aberth", 53), ("aberth", 64)]
            assert calls[1][2] is None
            assert _certified_disks(f, tol, DEFAULT_MAX_BITS) == fresh
        # the second call ran only the rung past the cap
        assert rung_names(calls) == [("trace", 53), ("aberth", 53), ("aberth", 64),
                                     ("newton", 128)]
        assert fresh[1] == 128

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


def _newton_reference(coeffs, z, prec):
    """_newton's rule for one point, in exact complex rationals.

    The point starts on the grid 2**-(s + prec), s as in _certify; each
    step f/f' is rounded to the nearest grid point (halves up), until
    one rounds to zero.  None when eight steps do not get there.
    """
    a, b, e = dy.from_mpf_pair(z.real, z.imag)
    grid = 1 << (max(0, -e) + prec)
    x, y = dyadic_fractions((a, b, e))
    for _ in range(8):
        fr = fi = dr = di = Fraction(0)
        for c in reversed(coeffs):
            dr, di = dr * x - di * y + fr, dr * y + di * x + fi
            fr, fi = fr * x - fi * y + c, fr * y + fi * x
        m = dr * dr + di * di
        sx = math.floor((fr * dr + fi * di) / m * grid + Fraction(1, 2))
        sy = math.floor((fi * dr - fr * di) / m * grid + Fraction(1, 2))
        if sx == sy == 0:
            return x, y
        x, y = x - Fraction(sx, grid), y - Fraction(sy, grid)
    return None


class TestNewtonRung:
    """A rung after certified but too wide disks: exact Newton steps."""

    def test_lehmer_at_1e_15_runs_no_multiprecision_iteration(self, monkeypatch):
        calls = record_rungs(monkeypatch)
        tol = Fraction(1e-15)
        disks, bits = _certified_disks(LEHMER_POLY, tol, DEFAULT_MAX_BITS)
        assert bits == 64 and all(disk_fractions(d)[2] <= tol for d in disks)
        assert rung_names(calls) == [("trace", 53), ("aberth", 53), ("newton", 64)]
        calls.clear()
        result = measure(LEHMER_POLY, 1e-15)
        assert result.mahler.bits == result.house.bits == 64
        assert calls and all(prec == 53 for name, prec, _ in calls if name != "newton")

    @pytest.mark.parametrize("failure", ["uncertified", "unconverged"])
    def test_a_failed_newton_rung_warm_starts_the_iteration(self, monkeypatch, failure):
        module = importlib.import_module("skewrec.roots")
        newton = module._newton
        handed = []

        def failing(coeffs, points, prec):
            if failure == "unconverged":
                return None
            zs = newton(coeffs, points, prec)
            handed.append(zs[:1] + zs[:-1])  # two coincide: no certificate
            return handed[0]

        monkeypatch.setattr(module, "_newton", failing)
        calls = record_rungs(monkeypatch)
        tol = Fraction(1e-15)
        disks, bits = _certified_disks(LEHMER_POLY, tol, DEFAULT_MAX_BITS)
        assert bits == 64 and all(disk_fractions(d)[2] <= tol for d in disks)
        assert rung_names(calls) == [("trace", 53), ("aberth", 53), ("newton", 64),
                                     ("aberth", 64)]
        # the Newton points when they converged, else the double rung's
        warm = handed[0] if handed else calls[2][2]
        assert calls[3][2] is warm

    def test_closed_points_step_one_per_pair(self):
        # the partner below the axis is the exact mirror of the stepped
        # point, which is where its own steps would have taken it
        coeffs = LEHMER_POLY.coeffs
        points = _conjugate_closed(_aberth(coeffs, 53, None))
        got = _triples(_newton(coeffs, points, 128))
        assert all((a, -b, e) in got for a, b, e in got)
        want = [_newton_reference(coeffs, z, 128) for z in points]
        assert [dyadic_fractions(z) for z in got] == want

    @pytest.mark.parametrize("prec", [64, 128, 512])
    def test_steps_match_an_exact_rational_reference(self, rng, prec):
        inputs = [LEHMER_POLY, IntPoly([1, -3, 1])]
        inputs += [random_monic(rng, 12, 5) for _ in range(6)]
        for f in inputs:
            for p, _ in squarefree_decomposition(f):
                points = _aberth(p.coeffs, 53, None)
                got = _newton(p.coeffs, points, prec)
                want = [_newton_reference(p.coeffs, z, prec) for z in points]
                if None in want:
                    assert got is None
                else:
                    assert [dyadic_fractions(dy.from_mpf_pair(z.real, z.imag))
                            for z in got] == want


def _triples(points):
    return [dy.from_mpf_pair(z.real, z.imag) for z in points]


class TestConjugateClosed:
    """Exactly real points and exact conjugate pairs, or the input itself."""

    def test_double_points(self):
        points = [1.5 + 3e-20j, 0.25 - 1.0000001j, -2 - 4.5e-52j, 0.25 + 1j]
        out = _conjugate_closed(points)
        assert out == [1.5 + 0j, 0.25 - 1j, -2 + 0j, 0.25 + 1j]
        assert all(type(z) is complex for z in out)
        assert points[1] == 0.25 - 1.0000001j  # the input is not changed

    def test_multiprecision_points_keep_every_bit(self):
        # built at 256 bits and closed at the default 53: mpc() or
        # conjugate() would round the parts to 53 bits
        with mp.workprec(256):
            x, y = mp.mpf(1) / 3, mp.sqrt(2)
            points = [mp.mpc(x, y), mp.mpc(x, mp.mpf(2) ** -200 / 7 - y),
                      mp.mpc(-y, mp.mpf(2) ** -300)]
        a, b, e = _triples(points)[0]
        real = dy.from_mpf_pair(points[2].real, 0.0)
        assert a.bit_length() > 200 and real[0].bit_length() > 200
        out = _conjugate_closed(points)
        assert out[0] is points[0]
        assert _triples(out) == [(a, b, e), (a, -b, e), real]

    def test_a_matching_that_is_no_involution_returns_the_input(self):
        # both upper points are nearest the conjugate of the lower one
        points = [1 + 1j, 1.1 + 1j, 1 - 1j]
        assert _conjugate_closed(points) is points

    def test_a_point_past_the_double_range_returns_the_input(self):
        points = [mp.mpc(mp.mpf(2) ** 2000, 1), mp.mpc(1, 0)]
        assert _conjugate_closed(points) is points

    @pytest.mark.parametrize("f", [LEHMER_POLY, IntPoly([-2] + [0] * 15 + [1]),
                                   IntPoly([1, -3, 0, 0, 0, 0, 0, 1])],
                             ids=["lehmer", "t^16-2", "t^7-3t+1"])
    def test_roots_certified_centres_come_in_exact_pairs(self, f):
        centres = [d.center for d in roots_certified(f, 1e-12)]
        assert sorted(centres, key=repr) == sorted((z.conjugate() for z in centres),
                                                   key=repr)
        real = [z for z in centres if z.imag == 0]
        assert len(real) == sum(1 for r in brute_roots(f) if abs(r.imag) < 1e-9)

    @pytest.mark.parametrize("coeffs", [(1, -3, 0, 0, 0, 0, 0, 1), (6, 0, -5, 0, 1)],
                             ids=["t^7-3t+1", "(t^2-2)(t^2-3)"])
    def test_real_roots_keep_the_certificate_grid_at_128_bits(self, coeffs):
        # double points of real roots used to carry imaginary parts near
        # 2**-240 and put the whole grid that far down
        disks, bits = _certified_disks(IntPoly(coeffs), Fraction(1e-10),
                                       DEFAULT_MAX_BITS)
        assert bits == 53
        assert {d.grid for d in disks} == {53 + 11 + _GUARD_BITS}


def _exactly(points):
    """Each point's type and exact parts, and a double's signed zeros."""
    return [(type(z), dy.from_mpf_pair(z.real, z.imag),
             repr(z) if type(z) is complex else None) for z in points]


_GRID = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
_SPREAD = st.floats(-1e3, 1e3)


class TestConjugateMatching:
    """The outward scan by real part against the all-pairs rule."""

    def check(self, points):
        out, want = _conjugate_closed(points), conjugate_closed_reference(points)
        assert (out is points) == (want is points)
        assert _exactly(out) == _exactly(want)

    @settings(max_examples=300)
    @given(st.lists(st.builds(complex, _GRID, _GRID), min_size=1, max_size=12))
    def test_grid_points_full_of_ties(self, points):
        self.check(points)

    @settings(max_examples=200)
    @given(st.lists(st.builds(complex, _SPREAD, _SPREAD), min_size=1, max_size=16))
    def test_random_points(self, points):
        self.check(points)

    def test_perturbed_conjugate_sets(self, rng):
        # the sets the ladder meets: near-real points and near-conjugate
        # pairs, some of them one double apart
        for _ in range(300):
            points = []
            for _ in range(rng.randint(1, 12)):
                x, y = rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-3, 3)])
                points.append(complex(x, y * rng.choice([1e-30, 1])))
                if y and rng.random() < 0.8:
                    points.append(complex(x + rng.choice([0, 1e-15]),
                                          -y + rng.choice([0, 1e-12, -1e-15])))
            rng.shuffle(points)
            self.check(points)

    @pytest.mark.parametrize("points", [
        # the conjugate of 1j is as near 1 - 1j as -1 - 1j; the lower index wins
        [1j, 1 - 1j, -1 - 1j, -1 + 1j],
        [1j, -1 - 1j, 1 - 1j, -1 + 1j],
        [1 + 1j, 1 - 1j, 1 - 1j],
        [2 + 0j, 2 + 0j],
        [0.5 + 0j, -0.5 + 0j, 0j, -0.0 + 0j],
        [1 + 2j, 1 - 2j, 1 + 2j, 1 - 2j],
    ])
    def test_ties_go_to_the_lowest_index(self, points):
        self.check(points)

    def test_iterates_of_either_type(self, rng):
        inputs = [LEHMER_POLY] + [random_monic(rng, 24, 3) for _ in range(6)]
        for f in inputs:
            for p, _ in squarefree_decomposition(f):
                points = _aberth(p.coeffs, 53, None)
                self.check(points)
                self.check(_aberth(p.coeffs, 128, points))


def _squarefree_members(kind, degree, height):
    return [f.coeffs for f in enumerate_space(SearchSpace(kind, degree, height))
            if squarefree_decomposition(f) == [(f, 1)]]


class TestTracePolynomial:
    """f(t) = t**d * P(t + sigma/t) for the members of both classes."""

    @pytest.mark.parametrize("degree, height", [(4, 3), (8, 2), (12, 1)])
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_every_member_round_trips(self, kind, degree, height):
        for f in enumerate_space(SearchSpace(kind, degree, height)):
            p, sigma = _trace_polynomial(f.coeffs)
            assert len(p) == degree // 2 + 1 and p[-1] == 1
            assert expand_trace(p, sigma) == f.coeffs
            # a member of both classes takes the reciprocal reading
            assert sigma == (1 if f.coeffs == f.coeffs[::-1] else -1)

    @settings(max_examples=200)
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=16)
           .filter(lambda p: p[-1] != 0), st.sampled_from([1, -1]))
    def test_any_trace_polynomial_comes_back(self, p, sigma):
        f = expand_trace(p, sigma)
        got = _trace_polynomial(f)
        assert expand_trace(*got) == f
        if sigma == 1 or f != f[::-1]:
            assert got == (tuple(p), sigma)

    @pytest.mark.parametrize("coeffs", [
        (7,), (1, 1), (-1, 1), (1, 1, 1, 1), (1, -3, 3, -1, 0, 2),  # odd degree
        (-1, 0, 0, 0, 1), (-1, -1, 0, 1, 1), (1, -2, 0, 2, -1),  # anti-palindromic
        (1, 2, 3), (2, 0, 1), (1, 1, 1, 1, -1),  # neither
        (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 2),
    ])
    def test_none_outside_both_classes(self, coeffs):
        assert _trace_polynomial(coeffs) is None
        assert _trace_start(coeffs) is None

    @pytest.mark.parametrize("degree, height", [(8, 2), (12, 1)])
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_lifted_start_points_are_closed_under_conjugation(self, kind, degree, height):
        for coeffs in _squarefree_members(kind, degree, height):
            points = _trace_start(coeffs)
            assert len(points) == degree and all(type(z) is complex for z in points)
            got = _triples(points)
            assert sorted(got) == sorted((a, -b, e) for a, b, e in got)

    @pytest.mark.parametrize("coeffs", [
        LEHMER_POLY.coeffs, (1, -3, 1), (-1, -1, 1), (1, 0, -3, 0, 1),
        (-1, -1, -1, 1, 1, -1, 1), (1, 10**40, 1), (1, 2, 0, -3, 0, 2, 1)])
    def test_lifted_points_start_near_the_roots(self, coeffs):
        # each lifted pair solves a**2 - x a + sigma = 0 for a root x of P,
        # so each point is a root of f up to the double rung's error
        roots = brute_roots(IntPoly(coeffs))
        points = _trace_start(coeffs)
        assert len(points) == len(roots)
        for z in points:
            assert min(abs(z - r) for r in roots) <= 1e-8 * max(1.0, abs(z))

    def test_the_double_rung_starts_from_the_lift(self, monkeypatch):
        calls = record_rungs(monkeypatch)
        _certified_disks(LEHMER_POLY, Fraction(1e-10), DEFAULT_MAX_BITS)
        assert rung_names(calls) == [("trace", 53), ("aberth", 53)]
        assert calls[0][2] is None
        assert calls[1][2] == _trace_start(LEHMER_POLY.coeffs)

    @pytest.mark.parametrize("coeffs", [(1, 10**400, 1), (1, 10**100, 1)],
                             ids=["P past doubles", "lift past doubles"])
    def test_a_lift_that_does_not_fit_keeps_the_plain_cold_start(self, coeffs,
                                                                  monkeypatch):
        # P = x + c: 10**400 fits no double, and at c = 10**100 the root
        # x = -c does, but |x**2 - 4|, taken as sqrt(u**2 + v**2), does not
        assert _trace_polynomial(coeffs) == ((coeffs[1], 1), 1)
        assert _trace_start(coeffs) is None
        calls = record_rungs(monkeypatch)
        disks, _ = _certified_disks(IntPoly(coeffs), Fraction(1e-10), DEFAULT_MAX_BITS)
        assert len(disks) == 2
        assert rung_names(calls)[:2] == [("trace", 53), ("aberth", 53)]
        assert calls[1][2] is None


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

    @settings(max_examples=60)
    @given(certify_cases())
    def test_conjugate_closed_points_get_mirror_disks(self, case):
        coeffs, prec, res_bits = case
        points = _aberth(coeffs, prec, None)
        assume(points is not None)
        points = _conjugate_closed(points)
        zs = _triples(points)
        assume(all((a, -b, e) in zs for a, b, e in zs))
        self.check(coeffs, points, res_bits)
        disks = _certify(coeffs, points, res_bits)
        if disks is not None:
            for (a, b, e), d in zip(zs, disks):
                mirror = disks[zs.index((a, -b, e))]
                assert mirror == _ExactDisk(d.re, -d.im, d.r, d.lo, d.hi, d.grid)

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
    """_eval_scaled against exact dyadic evaluation of f and f'.

    Measure-batch points reach s = 209 at degree 30.
    """

    @staticmethod
    def check(coeffs, s, x, y):
        n = len(coeffs) - 1
        deriv = [k * c for k, c in enumerate(coeffs) if k > 0]
        fa, fb, da, db = _eval_scaled(coeffs, s, x, y)
        scale = Fraction(1, 1 << s)
        want_f = dyadic_fractions(dyadic_eval(coeffs, (x, y, -s)))
        want_df = dyadic_fractions(dyadic_eval(deriv, (x, y, -s)))
        assert (fa * scale ** n, fb * scale ** n) == want_f
        assert (da * scale ** (n - 1), db * scale ** (n - 1)) == want_df

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
           st.integers(-9, 9).filter(bool),
           st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
           st.integers(0, 300))
    def test_matches_dyadic_evaluation(self, lower, lc, x, y, s):
        self.check(tuple(lower) + (lc,), s, x, y)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
           st.integers(-9, 9).filter(bool),
           st.integers(-2**70, 2**70), st.sampled_from(["x", "y", "both"]),
           st.integers(0, 300))
    def test_points_on_an_axis(self, lower, lc, v, zero, s):
        x, y = {"x": (0, v), "y": (v, 0), "both": (0, 0)}[zero]
        self.check(tuple(lower) + (lc,), s, x, y)

    @given(st.integers(-1000, 1000), st.integers(-9, 9).filter(bool),
           st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
           st.integers(0, 300))
    def test_degree_one(self, c0, c1, x, y, s):
        self.check((c0, c1), s, x, y)


class TestRelativeGrid:
    """The grid follows the points: a tiny exact root keeps an exact bracket."""

    F = IntPoly([-1, 2**600])

    def test_house_stays_an_exact_point(self):
        enc = house(self.F)
        assert (enc.lo, enc.hi, enc.bits) == (2.0**-600, 2.0**-600, 53)

    def test_roots_certify_at_a_tiny_tolerance(self):
        (disk,) = roots_certified(self.F, tol=1e-200)
        assert disk.center == 2.0**-600 and disk.radius <= 1e-200


def _stagger(k):
    return 1.0 + 0.041 * (k % 3) + 0.0127 * (k % 5)


def _polygon_exponents(coeffs):
    """Start-radius exponents from the upper envelope U of (k, bl_k), by brute force.

    U(k) is the largest value at k of a chord between two points around
    it (or of the point itself), so U is the upper hull.  On [j-1, j] it
    has slope U(j) - U(j-1), the root modulus there is about
    2**(U(j-1) - U(j)), and the exponent is that rounded, halves up.
    """
    n = len(coeffs) - 1
    bl = [abs(c).bit_length() for c in coeffs]
    u = []
    for k in range(n + 1):
        # the chord's value at k is num / den; keep the largest
        num, den = bl[k], 1
        for a in range(k):
            for b in range(k + 1, n + 1):
                v, d = bl[a] * (b - a) + (bl[b] - bl[a]) * (k - a), b - a
                if v * den > num * d:
                    num, den = v, d
        u.append(Fraction(num, den))
    return [math.floor(u[j - 1] - u[j] + Fraction(1, 2)) for j in range(1, n + 1)]


def _direct_initial_points(coeffs, n):
    """The start points from the brute-force radii, with cos and sin afresh, at mp's precision."""
    pts = []
    for k, e in enumerate(_polygon_exponents(coeffs)):
        r = mp.ldexp(_stagger(k), e)
        theta = (2 * mp.pi * k + mp.mpf("0.7")) / n
        pts.append(mp.mpc(r * mp.cos(theta), r * mp.sin(theta)))
    return pts


# flat, steep and gapped bit-length profiles, and one past the double range
POLYGON_CASES = [
    [1] * 9,
    [3, 5, 7, 2, 6, 4, 5, 1],
    [2**(20 * k) for k in range(7)],
    [2**(20 * (6 - k)) for k in range(7)],
    [1, 2**60, 2**100, 2**120, 2**130, 1],
    [7, -2**40, 2**41, 3, -2**90, 1],
    [1, 0, 0, 0, 0, 0, 1],
    [5, 0, 0, 2**50, 0, 0, 0, 1],
    [-(2**90), 0, 0, 0, 2**3, 0, 1],
    [1, 10**400, 1],
]


class TestInitialPoints:
    @pytest.mark.parametrize("coeffs", POLYGON_CASES, ids=str)
    def test_radii_follow_the_newton_polygon(self, coeffs):
        n = len(coeffs) - 1
        got = _start_radii(coeffs, n)
        # exact: each radius is a power of two times a double
        assert [mp.mpf(r) for r in got] == \
            [mp.ldexp(_stagger(k), e) for k, e in enumerate(_polygon_exponents(coeffs))]
        assert all(type(r) is float for r in got) == (coeffs != [1, 10**400, 1])

    def test_radii_past_the_double_range(self):
        assert [mp.mpf(r) for r in _start_radii([1, 10**400, 1], 2)] == \
            [mp.ldexp(1.0, -1328), mp.ldexp(_stagger(1), 1328)]

    @settings(max_examples=60)
    @given(st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80)),
                    min_size=1, max_size=24),
           st.integers(1, 2**40))
    def test_radii_match_the_brute_force_hull(self, lower, lead):
        assume(lower[0] != 0)
        coeffs = lower + [lead]
        n = len(coeffs) - 1
        assert [mp.mpf(r) for r in _start_radii(coeffs, n)] == \
            [mp.ldexp(_stagger(k), e) for k, e in enumerate(_polygon_exponents(coeffs))]

    @pytest.mark.parametrize("prec", [53, 64, 128, 256])
    def test_cached_angles_are_bit_identical(self, rng, prec):
        for n in range(1, 40):
            coeffs = [rng.randint(-9, 9) for _ in range(n)]
            coeffs.append(rng.choice((1, 2, -3)))
            with mp.workprec(prec):
                for _ in range(2):  # the second call reads the cache
                    got = _initial_points(coeffs, n, prec)
                    want = _direct_initial_points(coeffs, n)
                    # exact: a double is a 53-bit mpf
                    assert [(mp.mpf(z.real)._mpf_, mp.mpf(z.imag)._mpf_)
                            for z in got] == \
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
                got = _initial_points(coeffs, n, 53)
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
