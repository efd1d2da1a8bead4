"""Class parts read from their trace polynomials, against mpmath at 60 digits.

A reciprocal or skew-reciprocal part p(t) = t**d P(t + sigma/t) has, for
each root x of P, the two roots of a**2 - x a + sigma.  measure.py reads
p's Mahler measure, house and outside count from brackets of
L(x) = max(|a|, |sigma/a|) over P's certified disks (_trace_brackets).
Here every bracket is held against L at points all over its disk, and
every enclosure against the roots of the input found by mpmath at 60
digits and against the enclosure of the part's own disks, the path
every other part takes (forced by hiding the trace polynomial).  A part
whose P has a disk too near a branch point (x = +-2 for sigma = 1,
+-2i for sigma = -1) must take that path.
"""

import importlib
import random
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import expand_trace
from skewrec.measure import _trace_brackets, house, mahler, measure
from skewrec.poly import LEHMER_POLY, IntPoly, squarefree_decomposition
from skewrec.roots import (
    DEFAULT_MAX_BITS,
    _aberth,
    _certified_disks,
    _certify,
    _conjugate_closed,
    _pair_points,
    _TRACE_SWEEPS,
    _trace_points,
    _trace_polynomial,
    _trace_start,
)

MEASURE = importlib.import_module("skewrec.measure")
TOL = 1e-10
DPS = 60


def member(rng: random.Random, sigma: int, degree: int) -> IntPoly:
    """A monic height-1 member of the class of sigma, squarefree."""
    d = degree // 2
    while True:
        upper = [rng.choice((-1, 0, 1)) for _ in range(d)] + [1]
        lower = [c if sigma == 1 or k % 2 == 0 else -c for k, c in enumerate(upper)]
        f = IntPoly(lower[:0:-1] + upper)
        if squarefree_decomposition(f) == [(f, 1)]:
            return f


def family(n: int, sigma: int) -> IntPoly:
    """t**(n+1) P(t + sigma/t) with a root of P about 2**-n from a branch point.

    sigma = 1: P = x**n (x - 2) - 1, a root near 2.  sigma = -1:
    P = x**(n-1) (x**2 + 4) - 1, a root near 2i.
    """
    p = [-1] + [0] * (n + 1)
    p[-1] = 1
    if sigma == 1:
        p[-2] = -2
    else:
        p[-3] = 4
    return IntPoly(expand_trace(tuple(p), sigma))


# degree 4 and 6: a root of P within 2**-60 of the branch point 2, or 2i,
# nearer than the double rung's disk radius can tell from it
FALLBACK = [
    IntPoly(expand_trace((2**61 - 1, -(2**60 + 2), 1), 1)),  # (x - 2)(x - 2**60) - 1
    IntPoly(expand_trace((-(2**62) - 1, 4, -(2**60), 1), -1)),  # (x**2 + 4)(x - 2**60) - 1
]

SALEM = [
    LEHMER_POLY,
    IntPoly([1, -1, 0, 0, -1, 0, -1, 0, 0, -1, 1]),
    IntPoly([1, 0, 0, -1, -1, 0, 0, 1, 0, 0, -1, -1, 0, 0, 1]),
    IntPoly([1, 0, 0, -1, -1, -1, 0, 0, 1]),
    IntPoly([1, 0, -1, -1, -1, 0, 1]),
]


def _inputs():
    rng = random.Random(2036)
    out = [(f"salem-{f.degree}", f) for f in SALEM]
    for sigma, kind in ((1, "reciprocal"), (-1, "skew")):
        out += [(f"{kind}-{d}", member(rng, sigma, d))
                for d in (2, 4, 6, 8, 12, 16, 24, 32, 48, 64)]
        out += [(f"{kind}-branch-{n}", family(n, sigma)) for n in (6, 12, 20)]
    return out


INPUTS = _inputs()
IDS = [name for name, _ in INPUTS]


def lift(x, sigma):
    """L(x) = max(|a|, |sigma/a|) for a root a of a**2 - x a + sigma, in mpmath."""
    a = (x + mp.sqrt(x * x - 4 * sigma)) / 2
    return max(abs(a), 1 / abs(a))


def oracle(f: IntPoly):
    """(Mahler measure, house, roots outside the circle) of f at 60 digits.

    Every input here is in a class: its roots are the lifts of the roots
    of its own trace polynomial, found by mpmath's polyroots, so the
    degree-64 members need roots of degree 32 only.  expand_trace, not
    the package, checks that P is f's.
    """
    p, sigma = _trace_polynomial(f.coeffs)
    assert expand_trace(p, sigma) == f.coeffs
    with mp.workdps(DPS):
        xs = mp.polyroots(p[::-1], maxsteps=400, extraprec=400) if len(p) > 1 else []
        ls = [lift(x, sigma) for x in xs]
        return (mp.fprod(ls), max(ls), sum(1 for v in ls if v > 1 + mp.mpf(10) ** -40))


def today(monkeypatch, quantity, f, tol=TOL):
    """quantity(f, tol) read from every part's own disks."""
    with monkeypatch.context() as m:
        m.setattr(MEASURE, "_trace_polynomial", lambda coeffs: None)
        return quantity(f, tol)


def holds(enc, value) -> bool:
    with mp.workdps(DPS):
        return mp.mpf(enc.lo) <= value <= mp.mpf(enc.hi)


class TestBracketOverTheDisk:
    """lo <= L(x) <= hi for every x in a disk that gets a record."""

    @staticmethod
    def samples(d, g):
        """The centre, and points on the boundary circle and half way out."""
        with mp.workdps(DPS):
            c = mp.mpc(d.re, d.im) / g
            r = mp.mpf(d.r) / g
            pts = [c]
            for k in range(16):
                w = mp.expj(2 * mp.pi * k / 16)
                pts += [c + r * w, c + r * w / 2]
            return pts

    def check(self, disks, sigma, tol):
        records = _trace_brackets(disks, sigma, tol)
        if records is None:
            return False
        g = 1 << records[0].grid
        for d in records:
            assert d.lo <= d.hi
            for x in self.samples(d, g):
                with mp.workdps(DPS):
                    value = lift(x, sigma) * g
                    assert d.lo <= value <= d.hi
        return True

    @pytest.mark.parametrize("name, f", INPUTS, ids=IDS)
    def test_certified_disks(self, name, f):
        p, sigma = _trace_polynomial(f.coeffs)
        tol = Fraction(1, 10**12)
        disks, _ = _certified_disks(IntPoly(p), tol, DEFAULT_MAX_BITS)
        assert self.check(disks, sigma, tol)

    def test_an_exact_root_tightens_with_the_tolerance(self):
        # P = x - 3 (t**2 - 3t + 1) certifies with radius 0 at any
        # tolerance, and a 64-bit cap stops its grid: the records' grid
        # follows tol instead, so _refine's brackets keep tightening
        disks, _ = _certified_disks(IntPoly([-3, 1]), Fraction(1, 2**200), 64)
        assert disks[0].r == 0 and disks[0].grid < 200
        for bits in (100, 200, 400):
            (d,) = _trace_brackets(disks, 1, Fraction(1, 2**bits))
            assert d.grid > bits + 64 and d.hi - d.lo <= 2

    @pytest.mark.parametrize("name, f", INPUTS[::3], ids=IDS[::3])
    def test_inflated_disks(self, name, f):
        # wider disks about the same centres still hold their roots: each
        # radius times 2**k until some disk is too near a branch point
        p, sigma = _trace_polynomial(f.coeffs)
        tol = Fraction(1, 10**12)
        disks, _ = _certified_disks(IntPoly(p), tol, DEFAULT_MAX_BITS)
        grid = disks[0].grid
        for k in range(0, grid + 16, 8):
            wide = [type(d)(d.re, d.im, (d.r + 1) << k, 0, 0, grid) for d in disks]
            if not self.check(wide, sigma, tol):
                break
        else:
            pytest.fail("no radius reached a branch point")


class TestEnclosures:
    """Enclosures from the trace reading against mpmath and the part's own disks."""

    @pytest.mark.parametrize("name, f", INPUTS, ids=IDS)
    def test_measure(self, name, f, monkeypatch):
        m_value, h_value, outside = oracle(f)
        got = measure(f, TOL)
        own = today(monkeypatch, measure, f)
        for enc, ref, value in ((got.mahler, own.mahler, m_value),
                                (got.house, own.house, h_value)):
            assert enc.width <= TOL
            assert holds(enc, value), (enc, value)
            assert enc.intersects(ref)
        if got.root_count_certified:
            assert got.root_count_outside_unit_circle == outside
        else:
            assert got.root_count_outside_unit_circle <= outside
        # a count today's path certifies stays certified
        assert got.root_count_certified or not own.root_count_certified

    @pytest.mark.parametrize("name, f", INPUTS[::2], ids=IDS[::2])
    @pytest.mark.parametrize("quantity", [mahler, house], ids=["mahler", "house"])
    def test_mahler_and_house(self, quantity, name, f, monkeypatch):
        value = oracle(f)[0 if quantity is mahler else 1]
        enc = quantity(f, TOL)
        assert enc.width <= TOL
        assert holds(enc, value), (enc, value)
        assert enc.intersects(today(monkeypatch, quantity, f))

    def test_salem_counts(self):
        # one root outside the circle, the others on it: a disk pair on
        # the circle cannot be resolved, so the count is a lower bound
        for f in SALEM:
            r = measure(f, TOL)
            assert r.root_count_outside_unit_circle == 1
            assert not r.root_count_certified


class TestBranchPointFallback:
    """A part whose P has a disk too near a branch point certifies itself."""

    @pytest.mark.parametrize("f", FALLBACK, ids=["reciprocal", "skew"])
    def test_house_takes_the_part_path(self, f, monkeypatch):
        calls = []
        original = MEASURE._certified_disks

        def recording(p, tol, max_bits, **kwargs):
            calls.append(p)
            return original(p, tol, max_bits, **kwargs)

        monkeypatch.setattr(MEASURE, "_certified_disks", recording)
        # the house is about 2**60, so 1e4 is a few ulps of it
        enc = house(f, 1e4)
        p, _ = _trace_polynomial(f.coeffs)
        assert calls == [IntPoly(p), f]
        assert holds(enc, oracle(f)[1])
        monkeypatch.undo()
        assert enc == today(monkeypatch, house, f, 1e4)

    @pytest.mark.parametrize("f", FALLBACK, ids=["reciprocal", "skew"])
    def test_no_record_near_the_branch_point(self, f):
        p, sigma = _trace_polynomial(f.coeffs)
        tol = Fraction(4)
        disks, prec = _certified_disks(IntPoly(p), tol, DEFAULT_MAX_BITS)
        assert prec == 53
        assert _trace_brackets(disks, sigma, tol) is None


class TestTracePoints:
    """P's double points come from the part's own iteration, paired a with sigma/a."""

    @pytest.mark.parametrize("degree", [32, 64, 128])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_points_certify_as_tightly_as_the_part(self, sigma, degree):
        # an iteration on P alone stalls far above a double's precision
        # from degree 32 on; from its lift, the part's points certify P to
        # about 1e-14, and the double rung of P's ladder takes them
        rng = random.Random(degree)
        while True:  # P(0) != 0: no factor t**2 + sigma
            f = member(rng, sigma, degree)
            p, _ = _trace_polynomial(f.coeffs)
            if p[0]:
                break
        own = _conjugate_closed(_aberth(p, 53, None, _TRACE_SWEEPS))
        disks = _certify(p, _conjugate_closed(_trace_points(f.coeffs, own)), 64)
        assert max(d.r for d in disks) < 2**disks[0].grid // 10**13
        tol = Fraction(1, 10**12)
        assert _certified_disks(IntPoly(p), tol, 64, part=f) == (disks, 53)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_pairs_found_after_the_points_leave_their_slots(self, sigma):
        f = member(random.Random(5), sigma, 24)
        zs = _aberth(f.coeffs, 53, _trace_start(f.coeffs))
        slots = {frozenset(pair) for pair in zip(zs[0::2], zs[1::2])}
        shuffled = list(zs)
        random.Random(1).shuffle(shuffled)
        pairs = _pair_points(shuffled, sigma)
        assert {frozenset(pair) for pair in pairs} == slots

    def test_points_that_do_not_pair_up(self):
        # 3 and 1/3 are each other's partners, and 2's, nearest 1/2, is 1/3
        assert _pair_points([2 + 0j, 3 + 0j, 1 / 3 + 0j], 1) is None
        assert _pair_points([0j, 1 + 0j], 1) is None
