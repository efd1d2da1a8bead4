"""Exact integer polynomials in one variable.

Coefficients are stored densely, lowest degree first, with no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -1.
All arithmetic is over unbounded Python integers, so nothing here ever
rounds.  Instances are immutable values: every operation returns a new
polynomial and it is safe to share them across threads and processes.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from ._record import Record
from .errors import ParseError, PolynomialError

__all__ = [
    "IntPoly",
    "MAX_DEGREE",
    "ZERO",
    "ONE",
    "T",
    "LEHMER_POLY",
    "LEHMER_MAHLER_5DP",
    "BREUSCH_BOUND",
    "reverse",
    "is_reciprocal",
    "is_skew_reciprocal",
    "substitute_square",
    "extract_square_substitution",
    "negate_variable",
    "divrem_exact",
    "gcd_primitive",
    "pad_to_degree",
    "cyclotomic",
    "euler_phi",
    "squarefree_decomposition",
    "parse_poly",
    "poly_to_string",
]


# The largest degree parse_poly accepts and a search space may have: a
# 13-byte "t^3000000+1" would otherwise allocate millions of
# coefficients, and the search walk keeps one frame per free coefficient.
MAX_DEGREE = 1024


class IntPoly(Record):
    """A polynomial with integer coefficients, in canonical dense form."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        if isinstance(coeffs, IntPoly):
            coeffs = coeffs.coeffs
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise PolynomialError(f"non-integer coefficient {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def height(self) -> int:
        """Largest coefficient in absolute value (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    def __getitem__(self, k: int) -> int:
        """Coefficient of t**k (0 beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __iter__(self):
        """Iterate over stored coefficients, lowest degree first."""
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise PolynomialError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t**k."""
        if self.is_zero():
            return ZERO
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def content(self) -> int:
        """Gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return ZERO
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction, float, complex."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return poly_to_string(self)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def _canonical(coeffs: tuple[int, ...]) -> IntPoly:
    """The IntPoly of a tuple already in canonical form, built unchecked.

    For hot callers whose own invariants prove what IntPoly() checks:
    every entry an int and the last one nonzero.
    """
    f = object.__new__(IntPoly)
    object.__setattr__(f, "coeffs", coeffs)
    return f


ZERO = IntPoly(())
ONE = IntPoly((1,))
T = IntPoly((0, 1))

# t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1, the degree-10 monic
# reciprocal polynomial whose Mahler measure 1.17628... is the smallest
# value above 1 ever found.
LEHMER_POLY = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))

# Reference value of the Lehmer number, correct to the five decimals shown.
LEHMER_MAHLER_5DP = "1.17628"

# Every monic irreducible nonreciprocal integer polynomial other than t and
# t - 1 has Mahler measure strictly greater than this rational threshold.
BREUSCH_BOUND = Fraction(1179, 1000)


# -- structural operations ----------------------------------------------


def _strip_t_powers(f: IntPoly) -> tuple[int, IntPoly]:
    """(k, g) with f = t**k * g and g(0) != 0; (0, f) for f = 0."""
    coeffs = f.coeffs
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    return k, IntPoly(coeffs[k:])


def reverse(f: IntPoly) -> IntPoly:
    """Coefficient reversal t**deg(f) * f(1/t).

    Requires a nonzero constant term, otherwise the reversal would drop
    degree and the operation would not be an involution.
    """
    if f.is_zero():
        raise PolynomialError("reverse of the zero polynomial")
    if f.constant == 0:
        raise PolynomialError("reverse requires a nonzero constant term")
    return IntPoly(tuple(reversed(f.coeffs)))


def is_reciprocal(f: IntPoly) -> bool:
    """True iff f(t) = t**deg(f) * f(1/t), i.e. the coefficients are palindromic.

    A zero constant term makes this automatically false, since the
    reversed polynomial would have smaller degree.
    """
    if f.is_zero():
        raise PolynomialError("is_reciprocal of the zero polynomial")
    return f.coeffs == tuple(reversed(f.coeffs))


def is_skew_reciprocal(f: IntPoly) -> bool:
    """True iff f(t) = (-1)**d * t**(2d) * f(-1/t) for f of even degree 2d.

    Expanding the functional equation termwise gives the coefficient
    identity c_k = (-1)**(d+k) * c_(2d-k), which is what is checked here:
    against the reversal c_(2d-k) with the sign (-1)**d at even k and
    its opposite at odd k.  Odd-degree input is rejected: the defining
    identity forces the leading coefficient of an odd-degree candidate
    to vanish.
    """
    if f.is_zero():
        raise PolynomialError("is_skew_reciprocal of the zero polynomial")
    if f.degree % 2 != 0:
        raise PolynomialError("skew-reciprocity is defined for even degree only")
    c = f.coeffs
    rev = c[::-1]
    neg = tuple(-x for x in rev)
    even, odd = (rev, neg) if f.degree % 4 == 0 else (neg, rev)
    return c[::2] == even[::2] and c[1::2] == odd[1::2]


def negate_variable(f: IntPoly) -> IntPoly:
    """f(-t)."""
    return IntPoly([(-1) ** i * c for i, c in enumerate(f.coeffs)])


def substitute_square(g: IntPoly) -> IntPoly:
    """g(t**2)."""
    if g.is_zero():
        return ZERO
    out = [0] * (2 * g.degree + 1)
    for i, c in enumerate(g.coeffs):
        out[2 * i] = c
    return IntPoly(out)


def extract_square_substitution(f: IntPoly):
    """Inverse of substitute_square: g with f(t) = g(t**2), or None.

    Returns None when f has any odd-index coefficient; that is a normal
    outcome, not an error.
    """
    if f.is_zero():
        return ZERO
    if any(c != 0 for c in f.coeffs[1::2]):
        return None
    return IntPoly(f.coeffs[0::2])


def divrem_exact(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of f by g, for g with unit leading coefficient.

    With lc(g) in {1, -1} long division stays inside the integers, so
    f = q*g + r holds exactly with deg(r) < deg(g).
    """
    if g.is_zero():
        raise PolynomialError("division by the zero polynomial")
    if g.leading not in (1, -1):
        raise PolynomialError("divrem_exact requires a unit leading coefficient")
    rem = list(f.coeffs)
    dg = g.degree
    if f.degree < dg:
        return ZERO, f
    q = [0] * (f.degree - dg + 1)
    sign = g.leading
    for i in range(f.degree - dg, -1, -1):
        c = rem[i + dg] * sign
        q[i] = c
        if c:
            for j, y in enumerate(g.coeffs):
                rem[i + j] -= c * y
    return IntPoly(q), IntPoly(rem[:dg])


def div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact quotient f/g for a unit-leading divisor; raises if g does not divide f."""
    q, r = divrem_exact(f, g)
    if not r.is_zero():
        raise PolynomialError("division is not exact")
    return q


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b, over the integers."""
    delta = a.degree - b.degree
    lc = b.leading
    rem = list(a.coeffs)
    for i in range(delta, -1, -1):
        top = rem[i + b.degree]
        for j in range(len(rem)):
            rem[j] *= lc
        if top:
            for j, y in enumerate(b.coeffs):
                rem[i + j] -= top * y
        if rem[i + b.degree]:
            raise ArithmeticError("pseudo-remainder step left its leading term")
    return IntPoly(rem[: b.degree])


# Points xi that gcd_primitive's heuristic tries before the subresultant loop
_HEU_TRIES = 4


def gcd_primitive(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive positive-leading gcd in Z[t]: the heuristic gcd, verified.

    GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989) rests on
    this identity.  Let a, b be primitive with |a|_inf <= |b|_inf, xi an
    integer >= 2*|a|_inf + 2, and h the primitive part of the polynomial
    whose coefficients are the symmetric xi-adic digits of
    gcd(a(xi), b(xi)).  If h divides a and b, then h = gcd(a, b)
    (Geddes, Czapor & Labahn, Thm 7.7): the cofactor gcd/h at xi divides
    the content of h, at most xi/2, while its roots are roots of a, so
    within |a|_inf + 1 of 0, and unless it is constant it is larger than
    xi/2 at xi.  xi is a power of two, so evaluating and reading digits
    are shifts, and math.gcd does the integer work.  A
    candidate is accepted only when it is constant or monic and
    divrem_exact leaves no remainder on either input; otherwise xi grows.
    After _HEU_TRIES points the subresultant loop decides.  Inside
    squarefree_decomposition every gcd divides a monic input, so it is
    monic.  Contents of the inputs are dropped: the result is primitive.
    """
    if f.is_zero() and g.is_zero():
        raise PolynomialError("gcd of two zero polynomials")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    a, b = f.primitive(), g.primitive()
    # the smallest k with 2**k >= 2*min(|a|, |b|) + 2
    k = (2 * min(a.height(), b.height()) + 1).bit_length()
    for _ in range(_HEU_TRIES):
        h = _from_digits(math.gcd(_at_power_of_two(a, k), _at_power_of_two(b, k)), k)
        if h.degree == 0:
            return ONE
        if (h.leading == 1 and divrem_exact(a, h)[1].is_zero()
                and divrem_exact(b, h)[1].is_zero()):
            return h
        k += k // 2 + 1
    return _gcd_subresultant(a, b)


def _at_power_of_two(f: IntPoly, k: int) -> int:
    """f(2**k), by Horner's rule in shifts."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc << k) + c
    return acc


def _from_digits(gamma: int, k: int) -> IntPoly:
    """Primitive part of the polynomial with gamma > 0's symmetric 2**k-adic digits."""
    mask, half, xi = (1 << k) - 1, 1 << (k - 1), 1 << k
    digits = []
    while gamma:
        d = gamma & mask
        if d > half:
            d -= xi
        digits.append(d)
        gamma = (gamma - d) >> k
    return IntPoly(digits).primitive()


def _gcd_subresultant(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive positive-leading gcd in Z[t], via a subresultant remainder sequence.

    The subresultant sequence keeps all intermediate polynomials integral
    while dividing out the predictable growth factors, so no fractions and
    no coefficient gcd computations appear in the loop.  Contents of the
    inputs are deliberately dropped: the result is always primitive.
    """
    if f.is_zero() and g.is_zero():
        raise PolynomialError("gcd of two zero polynomials")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    gg, h = 1, 1
    while True:
        delta = a.degree - b.degree
        r = _pseudo_rem(a, b)
        if r.is_zero():
            return b.primitive()
        if r.degree == 0:
            return ONE
        denom = gg * h**delta
        if any(c % denom for c in r.coeffs):
            raise ArithmeticError("subresultant division is not exact")
        a, b = b, IntPoly([c // denom for c in r.coeffs])
        gg = a.leading
        if delta == 0:
            # h unchanged by a zero-delta step
            continue
        h = gg**delta // h ** (delta - 1)


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's decomposition f = prod p_i**i with p_i squarefree and coprime.

    Requires monic input; every returned p_i is monic and nonconstant,
    and the pairs are ordered by increasing multiplicity i.
    """
    if not f.is_monic():
        raise PolynomialError("squarefree decomposition requires monic input")
    if f.degree == 0:
        return []
    out: list[tuple[IntPoly, int]] = []
    df = f.derivative()
    a = gcd_primitive(f, df)
    b = div_exact(f, a)
    c = div_exact(df, a)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        p = gcd_primitive(b, d)
        if p.degree > 0:
            out.append((p, i))
        b2 = div_exact(b, p)
        c2 = div_exact(d, p)
        b, d = b2, c2 - b2.derivative()
        i += 1
    return out


def pad_to_degree(f: IntPoly, target: int) -> IntPoly:
    """Multiply a monic reciprocal f by (t+1)**k to reach the target degree.

    Padding with t+1 keeps the polynomial monic and reciprocal and leaves
    both the Mahler measure and (whenever the house is at least 1) the
    house unchanged, because all new roots are -1.
    """
    if not f.is_monic():
        raise PolynomialError("pad_to_degree requires monic input")
    if not is_reciprocal(f):
        raise PolynomialError("pad_to_degree requires reciprocal input")
    if target < f.degree:
        raise PolynomialError(
            f"target degree {target} is below deg(f) = {f.degree}"
        )
    return f * (IntPoly((1, 1)) ** (target - f.degree))


# -- cyclotomic helpers ---------------------------------------------------


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization (intended for small n)."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        result *= m - 1
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by dividing t**n - 1 by the lower ones."""
    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            num = div_exact(num, cyclotomic(d))
    return num


# -- text input/output ----------------------------------------------------

_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*?\s*t(?:\^(?P<exp1>\d+))?)?
          | t(?:\^(?P<exp2>\d+))?
        )\s*""",
    re.VERBOSE,
)


def _parse_int(digits: str) -> int:
    """int(digits), with CPython's limit on digit strings reported as a ParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"bad number of {len(digits)} digits: {exc}") from None


def parse_poly(text: str) -> IntPoly:
    """Parse either a dense coefficient list or a monomial expression.

    A leading '[' selects the list form, lowest degree first, e.g.
    "[1, 3, 1]" for t^2 + 3t + 1.  Otherwise the text is a sum of
    monomials in t such as "t^10+t^9-t^7-1" or "2t^3 - 4": every term
    after the first needs its '+' or '-', so "3 4" is an error, not 7.
    A degree above MAX_DEGREE is a ParseError, raised before any
    coefficient list is built.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial text")
    if text[0] == "[":
        if not text.endswith("]"):
            raise ParseError("unterminated coefficient list")
        body = text[1:-1].strip()
        if not body:
            return ZERO
        parts = body.split(",")
        if len(parts) > MAX_DEGREE + 1:
            raise ParseError(f"coefficient list of {len(parts)} entries is "
                             f"above degree {MAX_DEGREE}")
        try:
            return IntPoly(int(part.strip()) for part in parts)
        except ValueError as exc:
            raise ParseError(f"bad coefficient list: {exc}") from None
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
        if pos and not m.group("sign"):
            # "t^2 3t" is a typo, not t^2 + 3t
            raise ParseError(f"missing '+' or '-' before {text[pos:pos+12]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coeff") is not None:
            coeff = sign * _parse_int(m.group("coeff"))
            if "t" in m.group(0):
                exp = _parse_int(m.group("exp1")) if m.group("exp1") else 1
            else:
                exp = 0
        else:
            coeff = sign
            exp = _parse_int(m.group("exp2")) if m.group("exp2") else 1
        if exp > MAX_DEGREE:
            raise ParseError(f"exponent {exp} is above degree {MAX_DEGREE}")
        coeffs[exp] = coeffs.get(exp, 0) + coeff
        pos = m.end()
    if not coeffs:
        raise ParseError(f"cannot parse polynomial {text!r}")
    top = max(coeffs)
    return IntPoly([coeffs.get(k, 0) for k in range(top + 1)])


def poly_to_string(f: IntPoly) -> str:
    """Human form, highest degree first: 't^2 - 3t + 1'."""
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        c = f[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
