"""Integer symplectic and anti-symplectic matrices, companions, sampling.

The symplectic form is the block matrix Omega = [[0, I_g], [-I_g, 0]].
A is symplectic when A^T Omega A = Omega and anti-symplectic when
A^T Omega A = -Omega; both predicates are exact integer checks.  The
reversal matrix R = diag(-I_g, I_g) conjugates the form to its negative
(R Omega R = -Omega), which turns symplectic matrices into
anti-symplectic ones by one multiplication.

Characteristic polynomials are computed by the Faddeev-LeVerrier
recurrence over exact integers, with every interior division verified to
be exact and the Cayley-Hamilton identity asserted at the end.
"""

from __future__ import annotations

import functools

from ._record import Record
from .errors import PolynomialError
from .poly import IntPoly, is_reciprocal, is_skew_reciprocal

__all__ = [
    "IntMatrix",
    "omega",
    "reversal",
    "is_symplectic",
    "is_anti_symplectic",
    "charpoly",
    "companion_symplectic",
    "companion_anti_symplectic",
    "random_symplectic",
    "random_anti_symplectic",
]


class IntMatrix(Record):
    """An immutable square integer matrix."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        super().__init__(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.rows
            )
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(k * a for a in row) for row in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.size))

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def omega(g: int) -> IntMatrix:
    """The standard symplectic form [[0, I_g], [-I_g, 0]] of size 2g."""
    if g < 1:
        raise ValueError("omega requires g >= 1")
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix(rows)


def reversal(g: int) -> IntMatrix:
    """R = diag(-I_g, I_g); satisfies R Omega R = -Omega and R**2 = I."""
    if g < 1:
        raise ValueError("reversal requires g >= 1")
    return IntMatrix(
        tuple(
            tuple((-1 if i < g else 1) * int(i == j) for j in range(2 * g))
            for i in range(2 * g)
        )
    )


def _form_check(a: IntMatrix, sign: int) -> bool:
    if a.size % 2 != 0 or a.size == 0:
        return False
    g = a.size // 2
    om = omega(g)
    return a.transpose() @ om @ a == (om if sign > 0 else -om)


def is_symplectic(a: IntMatrix) -> bool:
    """Exact test of A^T Omega A == Omega (even size required)."""
    return _form_check(a, +1)


def is_anti_symplectic(a: IntMatrix) -> bool:
    """Exact test of A^T Omega A == -Omega."""
    return _form_check(a, -1)


def charpoly(a: IntMatrix) -> IntPoly:
    """det(tI - A) by the Faddeev-LeVerrier recurrence, exactly.

    The trace divisions by k are exact for integer matrices; each one is
    verified, and the final Cayley-Hamilton identity A*M_(n-1) + c_0*I = 0
    is checked (AssertionError, also under python -O), so a wrong result
    cannot escape silently.
    """
    n = a.size
    if n == 0:
        return IntPoly((1,))
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        tr = am.trace()
        q, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = q
        m = am + IntMatrix.identity(n).scaled(q)
    if m != IntMatrix.identity(n).scaled(0):
        raise AssertionError("Cayley-Hamilton check failed")
    return IntPoly(coeffs)


def _companion_coefficients(h: IntPoly) -> tuple[int, list[int]]:
    """Extract g and [a_1..a_g] from a monic (skew-)reciprocal h of degree 2g.

    The top half of the coefficients determines the bottom half through
    the symmetry class, so only a_i = c_(2g-i), i = 1..g, are needed.
    """
    if not h.is_monic():
        raise PolynomialError("companion requires monic input")
    if h.degree < 2 or h.degree % 2 != 0:
        raise PolynomialError("companion requires even degree >= 2")
    g = h.degree // 2
    return g, [h[2 * g - i] for i in range(1, g + 1)]


def companion_symplectic(h: IntPoly) -> IntMatrix:
    """A symplectic matrix B with characteristic polynomial h.

    For monic reciprocal h(t) = t**2g + sum a_i (t**i + t**(2g-i)) + a_g t**g
    the matrix is a companion shape: a full subdiagonal of ones, last
    column (-1, -a_1, ..., -a_(g-1)) in rows 0..g-1, and row g carrying
    -a_1..-a_g in columns g..2g-1 (for g = 1 this is [[0, -1], [1, -a_1]];
    for g = 2 the two interior bands merge).  Both postconditions —
    charpoly(B) == h and B symplectic — are asserted before returning.
    """
    if not is_reciprocal(h):
        raise PolynomialError("companion_symplectic requires reciprocal input")
    g, a = _companion_coefficients(h)
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[0][n - 1] = -1
    for i in range(1, g):
        rows[i][n - 1] = -a[i - 1]
    for k in range(1, g + 1):
        rows[g][g - 1 + k] += -a[k - 1]
    b = IntMatrix(rows)
    if charpoly(b) != h:
        raise AssertionError("companion charpoly does not match input")
    if not is_symplectic(b):
        raise AssertionError("companion matrix is not symplectic")
    return b


def companion_anti_symplectic(f: IntPoly) -> IntMatrix:
    """An anti-symplectic matrix with characteristic polynomial f.

    A monic skew-reciprocal f of degree 2g shares its top-half
    coefficients a_i = c_(2g-i) with a unique monic reciprocal h; the
    result is R @ companion_symplectic(h), i.e. the companion with its
    first g rows negated, which flips the sign of the t**i coefficients
    (i < g) exactly as skew-reciprocity demands.  Both postconditions are
    asserted.
    """
    if not is_skew_reciprocal(f):
        raise PolynomialError(
            "companion_anti_symplectic requires skew-reciprocal input"
        )
    g, a = _companion_coefficients(f)
    h_coeffs = [0] * (2 * g + 1)
    h_coeffs[2 * g] = 1
    h_coeffs[0] = 1
    for i in range(1, g):
        h_coeffs[2 * g - i] += a[i - 1]
        h_coeffs[i] += a[i - 1]
    h_coeffs[g] += a[g - 1]
    b = companion_symplectic(IntPoly(h_coeffs))
    rb = reversal(g) @ b
    if charpoly(rb) != f:
        raise AssertionError("anti-symplectic companion charpoly mismatch")
    if not is_anti_symplectic(rb):
        raise AssertionError("companion matrix is not anti-symplectic")
    return rb


# -- deterministic random words ---------------------------------------------


def _splitmix64(state: int):
    """The splitmix64 sequence; the exact constants are part of the API.

    state_(n+1) = (state_n + 0x9E3779B97F4A7C15) mod 2**64
    output x = state_(n+1) mixed by two xor-shift-multiply rounds:
        x ^= x >> 30; x *= 0xBF58476D1CE4E5B9 (mod 2**64)
        x ^= x >> 27; x *= 0x94D049BB133111EB (mod 2**64)
        x ^= x >> 31
    """
    mask = (1 << 64) - 1
    state &= mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        x = state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        x ^= x >> 31
        yield x


@functools.lru_cache(maxsize=None)
def _generators(g: int) -> tuple[tuple[IntMatrix, IntMatrix], ...]:
    """Standard integer generators of the symplectic group, with inverses.

    Three families, in this fixed order (indices matter for seeding):
      * upper transvections [[I, S], [0, I]] for S = E_ii and S = E_ij+E_ji,
        i <= j, ordered lexicographically by (i, j);
      * lower transvections [[I, 0], [S, I]] for the same S list;
      * GL factors diag(U, U^-T) for U = I + E_ij over all i != j,
        ordered lexicographically.
    Each entry is (generator, inverse); both are integral.
    """
    if g < 1:
        raise ValueError("generators require g >= 1")
    n = 2 * g
    pairs: list[tuple[IntMatrix, IntMatrix]] = []

    def block(upper: bool, s, sign: int) -> IntMatrix:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in s.items():
            if upper:
                rows[i][g + j] = sign * v
            else:
                rows[g + i][j] = sign * v
        return IntMatrix(rows)

    sym_basis = []
    for i in range(g):
        for j in range(i, g):
            s = {(i, j): 1}
            if i != j:
                s[(j, i)] = 1
            sym_basis.append(s)
    for s in sym_basis:
        pairs.append((block(True, s, 1), block(True, s, -1)))
    for s in sym_basis:
        pairs.append((block(False, s, 1), block(False, s, -1)))
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            fwd = [[int(p == q) for q in range(n)] for p in range(n)]
            inv = [[int(p == q) for q in range(n)] for p in range(n)]
            fwd[i][j] = 1
            fwd[g + j][g + i] = -1
            inv[i][j] = -1
            inv[g + j][g + i] = 1
            pairs.append((IntMatrix(fwd), IntMatrix(inv)))
    return tuple(pairs)


def random_symplectic(g: int, word_length: int, seed: int) -> IntMatrix:
    """A deterministic symplectic sample: a word in the standard generators.

    The splitmix64 stream of the seed picks word_length symbols; each
    64-bit draw x selects generator (x >> 1) % len(generators) and uses
    its inverse when x & 1.  word_length 0 returns the identity.  The
    symplectic predicate is asserted on the result.
    """
    if word_length < 0:
        raise ValueError("word_length must be nonnegative")
    gens = _generators(g)
    result = IntMatrix.identity(2 * g)
    stream = _splitmix64(seed)
    for _ in range(word_length):
        x = next(stream)
        gen, inv = gens[(x >> 1) % len(gens)]
        result = result @ (inv if x & 1 else gen)
    if not is_symplectic(result):
        raise AssertionError("random_symplectic result is not symplectic")
    return result


def random_anti_symplectic(g: int, word_length: int, seed: int) -> IntMatrix:
    """random_symplectic(g, word_length, seed) @ R; word_length 0 gives R."""
    result = random_symplectic(g, word_length, seed) @ reversal(g)
    if not is_anti_symplectic(result):
        raise AssertionError("random_anti_symplectic result is not anti-symplectic")
    return result
