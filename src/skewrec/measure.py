"""Mahler measure, house, and exact Kronecker classification.

The quantities with certified enclosures (mahler, house) are read from
certified root disks by one refinement loop, _refine, which lets
measure() take both from a single disk set.  The near-unit-circle
headache — deciding whether a root modulus equals 1 — is never decided
numerically.  Instead:

  * is_kronecker is an exact integer decision procedure (Graeffe
    iteration with a binomial coefficient bound and cycle detection);
  * before root finding, all cyclotomic factors are stripped exactly by
    dividing by each cyclotomic polynomial Phi_N, for the finitely many
    N whose totient fits the degree, as often as it divides.  The
    factors that would pin root disks onto the unit circle are gone and
    contribute their exact factor 1.  A division is tried only when the
    input vanishes at an element w of order N modulo a prime p = 1
    (mod N), because Phi_N(w) = 0 (mod p) (see kronecker_free_part), so
    a nonzero residue proves Phi_N does not divide; this is the modular
    form of the cyclotomic tests of Bradford and Davenport (ISSAC 1988).

The enclosure readers work on the certified disks' integer numerators
(see roots._ExactDisk) and build one Fraction per bound at the end.

Roots of a Salem-type factor still sit on the circle; the disk product
remains a sound enclosure for them because max(1, .) is applied to the
whole modulus interval of each disk component.

The Graeffe chains that is_kronecker and the search bounds walk, and
the squarefree parts the enclosures read (_free_parts), are memoized
under the package's one rule for per-input work (see roots.memo_scope):
they are kept only inside a memo scope, which a search or a
decomposition survey opens, so no operation reads another's work.
measure(), mahler() and house() walk no chain at all: they read the
Kronecker decision from the exact cyclotomic stripping.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional

from ._record import Record
from .enclosure import Enclosure
from .errors import PolynomialError, PrecisionExhausted
from .poly import (
    IntPoly,
    _canonical,
    _strip_t_powers,
    cyclotomic,
    divrem_exact,
    euler_phi,
    gcd_primitive,  # not called here; perfbench/tracer.py wraps this name
    squarefree_decomposition,
)
from .roots import (DEFAULT_MAX_BITS, _check_tol, _ScopedMemo, _certified_disks,
                    components)

__all__ = [
    "graeffe",
    "is_kronecker",
    "kronecker_free_part",
    "mahler",
    "house",
    "mahler_lower_bound",
    "house_lower_bound",
    "mahler_upper_bound",
    "house_upper_bound",
    "MeasureResult",
    "measure",
]


# Keys the chain memo keeps in a scope.  Each chain of an even-degree
# polynomial is filed under two keys, its own coefficients and its
# t -> -t partner's.  A search scan and the decomposition survey each
# take a leaf of the power-sum tree and then the leaf's partner: one
# chain of at most ten or so steps (its Kronecker walk on the spaces up
# to degree 16, and the bounds' depth _bound_steps(n), 9 at degrees 10
# to 16, often cut short by an early stop), read back-to-back and never
# again, so this holds dozens of such pairs, and memory stays bounded
# for any input.
_CHAIN_MEMO_SIZE = 64

# Members whose squarefree parts the parts memo keeps in a scope: a
# search chunk's enclosed members, read again by its survivors'
# enclosures at the search tolerance and their tie keys.
_PARTS_MEMO_SIZE = 256


@functools.lru_cache(maxsize=None)
def _bound_steps(n: int) -> int:
    """The Graeffe step the search bounds read for degree n.

    The least k >= 6 with 2**k >= 32*n: 8 at degree 8, 9 at degrees 10
    to 16 and 10 at degree 20.  The Landau slack of mahler_lower_bound
    is then n / 2**k <= 1/32 in log2 at every degree, and that of
    house_lower_bound log2(2n) / 2**k smaller still.  The upper bounds
    read the same iterate as the lower bounds, so after a lower bound
    on f they make no Graeffe step.
    """
    return max(6, (32 * n - 1).bit_length())


def _square(a: tuple[int, ...]) -> list[int]:
    """Coefficients of a(t)**2, each cross product computed once and doubled."""
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = x + x
            for j in range(i + 1, n):
                out[i + j] += x2 * a[j]
    return out


def graeffe(f: IntPoly) -> IntPoly:
    """The root-squaring transform: a polynomial whose roots are the squares.

    Splitting f(t) = e(t**2) + t*o(t**2) gives f(t)*f(-t) = g(t**2) with
    g = e**2 - t*o**2.  The sign is normalized so that the leading
    coefficient of the result equals lc(f)**2; in particular monic input
    stays monic.  Everything is exact integer arithmetic on coefficient
    lists, with a single IntPoly built for the result.
    """
    c = f.coeffs
    n = len(c)
    if not n:
        raise PolynomialError("graeffe of the zero polynomial")
    coeffs = _square(c[0::2])
    coeffs += [0] * (n - len(coeffs))
    for k, y in enumerate(_square(c[1::2])):
        coeffs[k + 1] -= y
    if n % 2 == 0:  # odd degree
        coeffs = [-x for x in coeffs]
    # coeffs has n integer entries, so a last one of lc(f)**2, which is
    # nonzero, proves it canonical: the result is built unchecked
    if coeffs[-1] != c[-1] * c[-1]:
        g = IntPoly(coeffs)
        raise PolynomialError(
            f"graeffe of a degree-{f.degree} polynomial gave degree "
            f"{g.degree} with leading coefficient {g.leading}"
        )
    return _canonical(tuple(coeffs))


class _Chain:
    """The Graeffe iterates shared by g and g(-t), and what is read from them.

    graeffe(g(-t)) = graeffe(g): both come from the product
    g(t) * g(-t), normalized to the same leading coefficient lc(g)**2.
    So the iterates from step 1 on are the same for g and g(-t), and so
    is every result read from them alone.  iterates[0] is whichever of
    the two was seen first; every reader below reads a step k >= 2 and
    takes only absolute values of its coefficients, which t -> -t keeps.

    The Kronecker decision is shared too: t -> -t negates every root,
    so it keeps every root modulus, and with it the answer.  A chain a
    bound made for t**k * g (k > 0) walks the iterates t**k * g_k, whose
    coefficients are g_k's under a larger central binomial bound, so it
    reaches the same decision as g's.
    """

    __slots__ = ("iterates", "kronecker", "reads")

    def __init__(self, g: IntPoly):
        self.iterates = [g]
        self.kronecker: Optional[bool] = None
        self.reads: dict = {}  # (reader, k) -> reader(g_k, k)

    def iterate(self, k: int) -> IntPoly:
        """g_k, each missing step one call of the module's graeffe."""
        iterates = self.iterates
        while len(iterates) <= k:
            iterates.append(graeffe(iterates[-1]))
        return iterates[k]

    def is_kronecker(self) -> bool:
        """is_kronecker's decision for iterates[0], walked once."""
        if self.kronecker is None:
            c = self.iterates[0].coeffs
            bound = _central_binomial(len(c) - 1)
            seen = {c}
            for k in itertools.count(1):
                if max(map(abs, c)) > bound:
                    self.kronecker = False
                    break
                c = self.iterate(k).coeffs
                if c in seen:
                    self.kronecker = True
                    break
                seen.add(c)
        return self.kronecker

    def read(self, reader, k: int) -> float:
        """reader(g_k, k), computed once per chain."""
        key = (reader, k)
        value = self.reads.get(key)
        if value is None:
            value = self.reads[key] = reader(self.iterate(k), k)
        return value


@functools.lru_cache(maxsize=None)
def _central_binomial(n: int) -> int:
    """C(n, floor(n/2)), the largest coefficient of (t + 1)**n."""
    return math.comb(n, n // 2)


# coefficients -> the _Chain they share with their t -> -t partner
_chains = _ScopedMemo(_CHAIN_MEMO_SIZE)


def _chain(g: IntPoly) -> _Chain:
    """A new Graeffe chain of g, which its caller checked and found no chain of.

    Inside a memo scope the chain is filed under g and, at even degree,
    under g(-t), so a search member and its partner share all of their
    Graeffe work, and a later lookup of either is one memo hit.  Only at
    even degree is g(-t) monic with g, so every key filed was checked
    monic, and a hit stands for that check.  Outside a scope nothing is
    filed.
    """
    chain = _Chain(g)
    c = g.coeffs
    _chains.keep(c, chain)
    # even degree, and g(-t) != g: some odd coefficient is nonzero
    if _chains.entries is not None and len(c) % 2 and any(c[1::2]):
        partner = list(c)
        partner[1::2] = [-x for x in c[1::2]]
        _chains.keep(tuple(partner), chain)
    return chain


def _monic_chain(f: IntPoly, name: str) -> _Chain:
    """The chain of monic f: the memo's, else a new one once f is checked."""
    chain = _chains.lookup(f.coeffs)
    if chain is None:
        if not f.is_monic():
            raise PolynomialError(f"{name} requires monic input")
        chain = _chain(f)
    return chain


def is_kronecker(f: IntPoly) -> bool:
    """Exact decision: are all roots of f in {0} union the unit circle?

    For monic integer f this is equivalent to Mahler measure 1, i.e. f is
    t**k times a product of cyclotomic polynomials.  The procedure strips
    t-powers and then iterates the Graeffe transform: if all roots lie on
    the circle, every iterate has coefficients bounded by the central
    binomial coefficient C(d, floor(d/2)), so the integer iterates live in
    a finite set and must eventually repeat (answer: yes).  If some root
    lies off the circle, the measure of the iterates grows like M**(2**k),
    which forces a coefficient past the bound (answer: no).  Either way
    the loop terminates, with no floating arithmetic anywhere.

    The walk runs on f's Graeffe chain (see _chain), and its decision is
    kept on the chain.  Like every memo of per-input work, the chain is
    kept only inside a memo scope (roots.memo_scope), which a search or
    a decomposition survey opens; outside one, each call walks a fresh
    chain and keeps nothing.  In a scope, f(-t), with the same roots up
    to sign and from step 1 on the same iterates, shares both: its own
    test is a memo hit, as are the Graeffe bounds taken next on f or on
    f(-t) (with no t-power factor, as for every search member), which
    continue this chain instead of starting it again.

    The memo is looked up first, under f's own coefficients.  A hit
    skips the checks below: every key is filed by a caller that checked
    it monic, and so nonzero (see _chain).
    """
    chain = _chains.lookup(f.coeffs)
    if chain is None:
        if f.is_zero():
            raise PolynomialError("is_kronecker of the zero polynomial")
        if not f.is_monic():
            raise PolynomialError("is_kronecker requires monic input")
        if not f.coeffs[0]:
            f = _strip_t_powers(f)[1]
            chain = _chains.lookup(f.coeffs)
        if f.degree == 0:
            return True
        if chain is None:
            chain = _chain(f)
    return chain.is_kronecker()


@functools.lru_cache(maxsize=None)
def _cyclotomic_orders(d: int) -> tuple[int, ...]:
    """Every N with euler_phi(N) <= d (totient lower bound gives N <= 2*d*d)."""
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d)


@functools.lru_cache(maxsize=None)
def _root_of_unity_mod(n: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 (mod n) and an element w of order n mod p.

    The multiplicative group mod p is cyclic of order p - 1, which n
    divides, so g**((p - 1) / n) has order exactly n for a generator g.
    """
    p = n + 1
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += n
    divisors = [d for d in range(1, n) if n % d == 0]
    for g in range(1, p):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, d, p) != 1 for d in divisors):
            return p, w
    raise AssertionError(f"no element of order {n} mod {p}")


def kronecker_free_part(f: IntPoly) -> tuple[IntPoly, int, int]:
    """Split monic f into t**k * (cyclotomic product) * u with u cyclotomic-free.

    Returns (u, degree of the cyclotomic part, k).  Any cyclotomic factor
    of f is some Phi_N with euler_phi(N) <= deg f, so dividing f exactly by
    each such monic Phi_N for as long as the remainder is zero removes
    every cyclotomic factor including multiplicities.

    A division is tried only when u(w) = 0 (mod p) for the (p, w) of
    _root_of_unity_mod(N), since a nonzero residue proves Phi_N does not
    divide u.  Proof: w has order N, so it is a root of
    t**N - 1 = prod_{d | N} Phi_d(t) in the field Z/p, but of no t**d - 1,
    hence of no Phi_d, with d | N and d < N; so Phi_N(w) = 0, and
    u = Phi_N * q forces u(w) = Phi_N(w) * q(w) = 0 (mod p).
    """
    if not f.is_monic():
        raise PolynomialError("kronecker_free_part requires monic input")
    k, u = _strip_t_powers(f)
    stripped = 0
    for n in _cyclotomic_orders(u.degree):
        phi = cyclotomic(n)
        p, w = _root_of_unity_mod(n)
        while phi.degree <= u.degree:
            residue = 0
            for c in reversed(u.coeffs):
                residue = (residue * w + c) % p
            if residue:
                break
            q, r = divrem_exact(u, phi)
            if not r.is_zero():
                break
            u = q
            stripped += phi.degree
    return u, stripped, k


# coefficients -> _free_parts of that monic polynomial
_parts = _ScopedMemo(_PARTS_MEMO_SIZE)


def _free_parts(f: IntPoly) -> tuple[tuple[tuple[IntPoly, int], ...], int]:
    """The squarefree parts of monic f's cyclotomic-free part, and its stripped degree.

    kronecker_free_part, then squarefree_decomposition of what is left.
    No parts means f is Kronecker: t**k times a product of cyclotomics.
    Inside a memo scope the result is kept per coefficients, so a search
    factors each member once for its enclosures at every tolerance and
    its tie key; the parts are a tuple, shared with the memo.
    """

    def make():
        u, stripped, _ = kronecker_free_part(f)
        return tuple(squarefree_decomposition(u)), stripped

    return _parts.get(f.coeffs, make)


# -- certified enclosures --------------------------------------------------


def _disk_data(parts, tol: Fraction, max_bits: int):
    """Certified disks for each (factor, multiplicity) pair of parts.

    Returns (disks, multiplicity) pairs plus the largest precision used.
    """
    bits = 0
    out = []
    for p, mult in parts:
        disks, prec = _certified_disks(p, tol, max_bits)
        bits = max(bits, prec)
        out.append((disks, mult))
    return out, bits


def _mahler_bounds(disk_data) -> tuple[Fraction, Fraction]:
    """Rational bounds on the product of max(1, |alpha|) over all roots.

    Overlapping disks are grouped into components; a component of k disks
    holds exactly k roots, so it contributes its modulus interval, clamped
    below at 1, to the k-th power.  This keeps the product sound even when
    disks cannot be told apart.  Each bound is carried as an integer
    numerator and a power-of-two exponent, with one Fraction at the end.
    """
    lo = hi = 1  # the bounds are lo * 2**-lo_exp and hi * 2**-hi_exp
    lo_exp = hi_exp = 0
    for disks, mult in disk_data:
        for group in components(disks):
            grid = disks[group[0]].grid
            unit = 1 << grid
            k = len(group) * mult
            g_lo = min(disks[i].lo for i in group)
            if g_lo > unit:
                lo *= g_lo ** k
                lo_exp += grid * k
            g_hi = max(disks[i].hi for i in group)
            if g_hi > unit:
                hi *= g_hi ** k
                hi_exp += grid * k
    return Fraction(lo, 1 << lo_exp), Fraction(hi, 1 << hi_exp)


def _house_bounds(floor: int, disk_data) -> tuple[Fraction, Fraction]:
    """Rational bounds on max(floor, largest root modulus), for an integer floor.

    The lower bound uses the fact that each certified disk contains at
    least one root.  The maxima are taken on integers: each part's on
    its grid, then across parts by cross-shifting.
    """
    lo = hi = floor  # the bounds are lo * 2**-lo_grid and hi * 2**-hi_grid
    lo_grid = hi_grid = 0
    for disks, _ in disk_data:
        if not disks:
            continue
        grid = disks[0].grid
        part_lo = max(d.lo for d in disks)
        if part_lo << lo_grid > lo << grid:
            lo, lo_grid = part_lo, grid
        part_hi = max(d.hi for d in disks)
        if part_hi << hi_grid > hi << grid:
            hi, hi_grid = part_hi, grid
    return Fraction(lo, 1 << lo_grid), Fraction(hi, 1 << hi_grid)


def _refine(parts, tol: float, root_tol: Fraction, max_bits: int, readers):
    """Certify disks for parts until every reader's enclosure is at most tol wide.

    Each reader maps the disk data to rational (lo, hi) bounds.  The root
    tolerance starts at root_tol and shrinks 16-fold per round.  Returns
    the enclosures in reader order and the disk data they were read from.

    Enclosures carry float endpoints, so their width can never drop below
    about one ulp of the value.  If an exact interval is already four
    times tighter than the request while its rounded enclosure is not,
    further refinement cannot help, and PrecisionExhausted is raised
    instead of looping forever.
    """
    while True:
        disk_data, bits = _disk_data(parts, root_tol, max_bits)
        encs = []
        for read in readers:
            lo, hi = read(disk_data)
            enc = Enclosure.from_bounds(lo, hi, bits)
            if enc.width > tol and hi - lo <= Fraction(tol) / 4:
                raise PrecisionExhausted(
                    f"enclosure width {enc.width:.3g} cannot reach {tol:.3g} "
                    "with float endpoints",
                    max_bits,
                )
            encs.append(enc)
        if all(enc.width <= tol for enc in encs):
            return encs, disk_data
        root_tol /= 16


def _mahler_root_tol(f: IntPoly, tol: float) -> Fraction:
    """Starting root tolerance for a Mahler enclosure of width tol."""
    return Fraction(min(tol, 1.0)) / (8 * (f.degree + 1) * _height_bound(f))


def _height_bound(f: IntPoly) -> int:
    """Integer upper bound for M(f), from the coefficient l2 norm."""
    s = sum(map(operator.mul, f.coeffs, f.coeffs))
    return max(1, math.isqrt(s) + 1)


def mahler(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> Enclosure:
    """Certified enclosure of the Mahler measure of a monic f, width <= tol.

    M(f) is the product of max(1, |alpha|) over all roots.  Kronecker
    inputs return the exact point [1, 1].  Otherwise the cyclotomic part
    is stripped (factor exactly 1) and the remaining roots are enclosed by
    certified disks (see _mahler_bounds).  The disks' bounds are integer
    numerators on a dyadic grid, already rounded outward by the
    certificate; products of them are exact until the final outward
    float conversion.
    """
    if not f.is_monic():
        raise PolynomialError("mahler requires monic input")
    _check_tol(tol)
    parts, _ = _free_parts(f)
    if not parts:  # f is Kronecker
        return Enclosure(1.0, 1.0, 0)
    (enc,), _ = _refine(parts, tol, _mahler_root_tol(f, tol), max_bits,
                        (_mahler_bounds,))
    return enc


def house(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> Enclosure:
    """Certified enclosure of the house (largest root modulus), width <= tol.

    For monic input: [0, 0] for a pure power of t, the exact point [1, 1]
    for Kronecker input with a nonzero root, and otherwise a disk-based
    enclosure of the largest modulus, with the cyclotomic part stripped
    first (it contributes exactly 1).  Non-monic input is enclosed
    directly from root disks without exact stripping.
    """
    if f.is_zero() or f.degree < 1:
        raise PolynomialError("house requires degree >= 1")
    _check_tol(tol)
    if f.is_monic():
        parts, stripped = _free_parts(f)
        if not parts:
            return Enclosure(1.0, 1.0, 0) if stripped else Enclosure(0.0, 0.0, 0)
        # monic with a nonzero root forces house >= 1
        floor = 1
    else:
        _, u = _strip_t_powers(f)
        if u.degree == 0:
            return Enclosure(0.0, 0.0, 0)
        parts, floor = [(u, 1)], 0
    (enc,), _ = _refine(parts, tol, Fraction(min(tol, 1.0)) / 4, max_bits,
                        (functools.partial(_house_bounds, floor),))
    return enc


def _log2_below(n: int) -> float:
    """log2 of a positive integer, safe for huge n (mantissa truncated down)."""
    bl = n.bit_length()
    mant = n >> max(0, bl - 53)
    return math.log2(mant) + max(0, bl - 53)


def _log2_norm_bound(g: IntPoly, k: int) -> float:
    """(log2 ||g||_2 - deg g) / 2**k, for g the k-th Graeffe iterate of f.

    g has the degree of f.  A chain reader, as are the three below that
    compute each bound from its iterate.
    """
    c = g.coeffs
    # log2 ||g||_2 = log2(s)/2, computed safely for huge integers
    log2_s = _log2_below(sum(map(operator.mul, c, c)))
    return (log2_s / 2 - g.degree) / (1 << k)


def mahler_lower_bound(f: IntPoly, *, above: Optional[float] = None) -> float:
    """A cheap certified lower bound for M(f), used to prune searches.

    After k Graeffe steps, M(f)**(2**k) = M(f_k) >= ||f_k||_2 / 2**d
    (coefficient j of f_k is at most C(d, j) * M(f_k) in absolute value),
    so the 2**k-th root of that quotient bounds M(f) from below, here at
    k = _bound_steps(d).  The float evaluation rounds downward by a
    generous margin.

    With a positive above given, the bound may stop at an earlier step
    k (2 <= k < s, s = _bound_steps(d)) and return that step's bound,
    but only once it proves that the full bound exceeds above.  Write
    b_k for log2 of the step-k bound.  Landau's inequality
    ||f_s||_2 >= M(f_s) = M(f)**(2**s) (f monic) gives
    b_s >= log2 M(f) - d / 2**s >= b_k - d / 2**s,
    so b_k - d / 2**s > log2(above) + 1e-6 forces b_s > log2(above) with
    room to spare: the 1e-6 margin covers the downward 1e-9 and every
    float rounding in computing b_k and b_s.  So the result exceeds
    above exactly when the full bound does, and whenever it does not,
    the result is the full bound itself.

    Each b_k is read once per chain, which f shares with f(-t) inside a
    memo scope: the bound of f(-t), with any above, is then a memo hit
    on the steps already read, and equals that of f.  As in
    is_kronecker, a memo hit skips the monic check.
    """
    chain = _monic_chain(f, "mahler_lower_bound")
    return _lower_bound(chain, _log2_norm_bound, _bound_steps(f.degree),
                        f.degree, above)


def house_lower_bound(f: IntPoly, *, above: Optional[float] = None) -> float:
    """A cheap certified lower bound for house(f), used to prune searches.

    The k-th Graeffe iterate g_k of a monic f of degree n is monic with
    roots alpha**(2**k), so its coefficient c_(n-j), an elementary
    symmetric function of those roots up to sign, satisfies
    |c_(n-j)| <= C(n, j) * house(f)**(j * 2**k).  Every nonzero c_(n-j)
    therefore gives house(f) >= (|c_(n-j)| / C(n, j))**(1 / (j * 2**k)),
    and the bound is the largest of these, at k = _bound_steps(n).  The
    coefficients are exact integers; only the final root is taken in
    floats, rounded downward by a generous margin.  A nonzero root makes
    the bound at least 1 (the nonzero roots of monic integer f multiply
    to a nonzero integer); a pure power of t, whose house is 0, gets 0.

    With a positive above given, the bound may stop at an earlier step
    k (2 <= k < s, s = _bound_steps(n)) and return that step's bound,
    on the same terms as mahler_lower_bound's.  Write b_k for log2 of
    the step-k bound.  Fujiwara's bound on g_s (see house_upper_bound)
    gives house(f)**(2**s) <= 2 * max_j |c_(n-j)|**(1/j), and
    C(n, j)**(1/j) <= n, so b_s >= log2 house(f) - log2(2n) / 2**s
    >= b_k - log2(2n) / 2**s.  So b_k - log2(2n) / 2**s > log2(above)
    + 1e-6 forces b_s > log2(above), the 1e-6 margin covering the
    downward 1e-9 and every float rounding in computing b_k and b_s.
    The result exceeds above exactly when the full bound does, and
    whenever it does not, the result is the full bound itself.  A pure
    power of t has no b_k, and never stops early.

    It is read once per chain, which f shares with f(-t) inside a memo
    scope, and a memo hit skips the monic check.
    """
    if f.coeffs == (1,):  # no roots: the empty maximum, as for a power of t
        return 0.0
    chain = _monic_chain(f, "house_lower_bound")
    return _lower_bound(chain, _log2_house_bound, _bound_steps(f.degree),
                        math.log2(2 * f.degree), above)


def _lower_bound(chain: _Chain, reader, steps: int, slack: float,
                 above: Optional[float]) -> float:
    """2**(b_s - 1e-9), at least 1, for b_k = chain.read(reader, k).

    With above given, stops at the first step k in [2, steps) with
    b_k - slack / 2**steps > log2(above) + 1e-6 and reads b_k instead;
    the two lower bounds above prove that sound.  No b_k exceeds an
    above of inf, so then only b_s is read.  A b_s of -inf (f a pure
    power of t) gives 0.
    """
    if above is not None and above < math.inf:
        stop = math.log2(above) + slack / (1 << steps) + 1e-6
        for k in range(2, steps):
            log2_bound = chain.read(reader, k)
            if log2_bound > stop:
                return max(1.0, 2.0 ** (log2_bound - 1e-9))
    log2_bound = chain.read(reader, steps)
    if log2_bound == -math.inf:
        return 0.0
    return max(1.0, 2.0 ** (log2_bound - 1e-9))


def _log2_house_bound(g: IntPoly, k: int) -> float:
    """max_j (log2|c_(n-j)| - log2 C(n, j)) / (j * 2**k) over g_k = g's
    nonzero coefficients below the leading one; -inf if there is none."""
    c = g.coeffs
    n = len(c) - 1
    log2_binomials = _log2_binomials(n)
    return max(
        [(_log2_below(abs(c[n - j])) - log2_binomials[j]) / (j << k)
         for j in range(1, n + 1) if c[n - j]],
        default=-math.inf,
    )


@functools.lru_cache(maxsize=64)
def _log2_binomials(n: int) -> tuple[float, ...]:
    """log2 C(n, j) for j = 0..n, the row _log2_house_bound reads."""
    return tuple([math.log2(math.comb(n, j)) for j in range(n + 1)])


def _log2_above(n: int) -> float:
    """log2 of a positive integer, safe for huge n (mantissa rounded up)."""
    shift = max(0, n.bit_length() - 53)
    return math.log2(-(-n >> shift)) + shift


def _pow2_above(x: float) -> float:
    """2**x rounded upward for a float x >= 0; inf past the float range.

    x carries the relative error of a few float roundings (each at most
    2**-52) from the way the upper bounds compute it, so the exponent is
    raised by 2**-40 relative before 1e-9 absolute, which in turn
    exceeds the one-ulp relative error of the float power
    (2**1e-9 - 1 is about 6.9e-10, an ulp about 2.2e-16).
    """
    try:
        return 2.0 ** (x + x * 2.0**-40 + 1e-9)
    except OverflowError:
        return math.inf


def mahler_upper_bound(f: IntPoly) -> float:
    """A cheap certified upper bound for M(f), used to cap search chunks.

    The k-th Graeffe iterate g_k of a monic f is monic with
    M(g_k) = M(f)**(2**k), and Landau's inequality M(g) <= ||g||_2
    (Mignotte, "Some useful bounds", 1982) gives
    log2 M(f) <= log2(||g_k||_2**2) / 2**(k+1).

    It rounds upward where mahler_lower_bound rounds downward.  log2
    of the integer ||g_k||_2**2 is taken from its top 53 bits rounded
    up (ceil(n / 2**s) * 2**s >= n), the division by 2**(k+1) is exact,
    and _pow2_above covers the float error of log2, of adding s and of
    the final power.  The exponent is nonnegative (||g_k||_2 >= 1), so
    the result is at least 1.

    It reads g_k at k = _bound_steps(n), the iterate
    mahler_lower_bound(f) reads in full, from f's chain: inside a memo
    scope, after that lower bound on f or on f(-t) this makes no
    Graeffe step, and the bound itself is read once per chain.
    """
    chain = _monic_chain(f, "mahler_upper_bound")
    return chain.read(_mahler_upper_bound, _bound_steps(f.degree))


def _mahler_upper_bound(g: IntPoly, k: int) -> float:
    c = g.coeffs
    return _pow2_above(_log2_above(sum(map(operator.mul, c, c))) / (2 << k))


def house_upper_bound(f: IntPoly) -> float:
    """A cheap certified upper bound for house(f), used to cap search chunks.

    Fujiwara's bound (Tohoku Math. J. 10, 1916): every root z of a
    monic g = t**n + c_(n-1) t**(n-1) + ... + c_0 satisfies
    |z| <= 2 * R with R = max_j |c_(n-j)|**(1/j).  (If |z| > 2R, then
    |c_(n-j) z**(n-j)| <= R**j |z|**(n-j) < 2**-j |z|**n, and these
    terms sum to less than |z|**n, so g(z) != 0.)  The k-th Graeffe
    iterate g_k of a monic f has house(g_k) = house(f)**(2**k), so
    log2 house(f) <= (1 + max_j log2|c_(n-j)| / j) / 2**k.

    It rounds upward where house_lower_bound rounds downward: each
    log2 |c_(n-j)| comes from the top 53 bits rounded up, the division
    by 2**k is exact, and _pow2_above covers the float error of log2,
    of the division by j, of the sums and of the final power.  Every
    nonzero integer coefficient has |c| >= 1, so the exponent is at
    least 1 / 2**k and the result above 1 whenever f has a nonzero
    root; a pure power of t, whose house is 0, gets 0.

    It reads g_k at k = _bound_steps(n), the iterate
    house_lower_bound(f) reads in full, from f's chain: inside a memo
    scope, after that lower bound on f or on f(-t) this makes no
    Graeffe step, and the bound itself is read once per chain.
    """
    chain = _monic_chain(f, "house_upper_bound")
    return chain.read(_house_upper_bound, _bound_steps(f.degree))


def _house_upper_bound(g: IntPoly, k: int) -> float:
    c = g.coeffs
    n = len(c) - 1
    logs = [_log2_above(abs(c[n - j])) / j for j in range(1, n + 1) if c[n - j]]
    if not logs:  # f is a power of t
        return 0.0
    return _pow2_above((1 + max(logs)) / (1 << k))


# -- aggregate result -------------------------------------------------------


class MeasureResult(Record):
    """Everything the measure command reports about one polynomial.

    Fields: the mahler and house enclosures, is_kronecker, and
    root_count_outside_unit_circle, exact when root_count_certified.
    """

    __slots__ = ("mahler", "house", "is_kronecker",
                 "root_count_outside_unit_circle", "root_count_certified")


def measure(
    f: IntPoly, tol: float = 1e-10, max_bits: int = DEFAULT_MAX_BITS
) -> MeasureResult:
    """Certified Mahler/house enclosures plus exact classification data.

    The Kronecker decision is exact, read from the cyclotomic stripping
    as mahler() reads it, so no Graeffe chain is walked.  Both enclosures
    and the root count are read from one set of certified disks, refined
    until both enclosures meet tol.  The root count outside the unit
    circle is exact whenever every disk is resolved against the circle;
    Salem-type roots on the circle leave straddling disks, in which case
    the count is a certified lower bound and the certified flag is False.
    """
    if f.degree < 1:
        raise PolynomialError("measure requires degree >= 1")
    if not f.is_monic():
        raise PolynomialError("measure requires monic input")
    _check_tol(tol)
    parts, _ = _free_parts(f)
    if not parts:  # f is Kronecker
        return MeasureResult(Enclosure(1.0, 1.0, 0), house(f, tol, max_bits),
                             True, 0, True)
    # the count needs disks no coarser than 1e-6
    root_tol = min(_mahler_root_tol(f, tol), Fraction(min(tol, 1e-6)))
    readers = (_mahler_bounds, functools.partial(_house_bounds, 1))
    (m, h), disk_data = _refine(parts, tol, root_tol, max_bits, readers)
    outside = 0
    certified = True
    for disks, mult in disk_data:
        for d in disks:
            unit = 1 << d.grid
            if d.lo > unit:
                outside += mult
            elif not d.hi < unit:
                certified = False
    return MeasureResult(m, h, False, outside, certified)
