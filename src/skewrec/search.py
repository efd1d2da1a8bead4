"""Height-bounded searches over reciprocal and skew-reciprocal families.

A search space fixes the symmetry class, an even degree 2d, and a height
bound H; members are monic, the free coefficients are c_d..c_(2d-1), each
ranging over [-H, H] in lexicographic order, and the bottom half is
derived from the class identity (c_k = c_(2d-k), respectively
c_k = (-1)**(d+k) * c_(2d-k)).  Enumeration size is exactly (2H+1)**d.

Minimum searches run in two phases so that results are bit-identical for
any worker count:

  * phase 1 walks, per chunk, a tree over the top coefficients
    c_(2d-1), ..., c_d whose nodes are cut by Newton power sums against
    a cap on the quantity (see _PowerSumTree): one chunk per value
    c_(2d-1) = 0, -1, ..., -H, each leaf followed by its t -> -t
    partner.  Every chunk of a search reads and lowers one shared cap,
    which starts at inf (see _scan_chunk).  Phase 1 excludes Kronecker
    members exactly (the tree never cuts one) and computes a base
    enclosure per remaining member; a chunk returns only its member,
    cut and Kronecker counts and, sorted by free vector, the members
    whose lower bound is at most its own best upper bound, since the
    search-wide best is never above any chunk's best and phase 2 would
    drop every other member; the parent sorts all of them before phase
    2.  However the shared cap falls, phase 2 gets the same candidates
    (see _scan_chunk), so the worker count cannot influence the report,
    only a pool search's walked and cut counts;
  * phase 2 keeps every candidate whose certified lower bound does not
    exceed the smallest certified upper bound, then refines this set at
    progressively finer tolerances until a single witness remains, the
    escalation budget is spent, or every candidate left has the same
    exact tie-class key (see _tie_key); unresolved ties are reported in
    full.  Equal keys prove equal values: each candidate's enclosure
    then contains the common value v, and its Graeffe bound is at most
    v, so every lower bound is at most v, which is at most the smallest
    upper bound.  No later round could drop a candidate, and the
    witnesses are the ones every round would give; only the
    enclosures, still at most tol wide, precision_escalations, and
    precision_exhausted (had a later round passed max_bits) can
    differ.  The keys are computed in the parent, once per candidate,
    and only when a round leaves more than one candidate.
    Each round maps its candidates over the phase-1 worker pool, which
    stays open for it, and reads the enclosures back in candidate order
    (a candidate past the precision cap keeps its previous enclosure and
    marks the report exhausted), so the round's outcome does not depend
    on the worker count.  A round goes to the pool as one task per
    worker, a contiguous batch of ceil(n / workers) candidates: a round
    trip per batch, not per candidate.  With one worker everything runs
    in-process.  One pool serves every search of a process (see
    _PoolLease).  The search runs in one memo scope, and each task it
    sends to a pool worker runs in a scope of its own (see _run_task
    and roots.memo_scope); outside a scope no memo keeps anything, so
    no search or task reads another's Graeffe chains or ladders.  So
    a certification resumes a part's root-certification ladder where
    an earlier one in the same scope left it, instead of rerunning the
    Aberth iteration and the exact certificate from the start.  With
    one worker a round resumes the ladders of phase 1 and of the round
    before; in a pool the candidates of one batch share the ladders of
    the parts they have in common.  A resumed ladder returns the bits a
    fresh one would.

Both quantities have cheap certified lower and upper bounds read from
exact Graeffe iterates (mahler_lower_bound, house_lower_bound,
mahler_upper_bound, house_upper_bound).  The lower bound participates
in candidate elimination unconditionally; the prune flag only controls
whether members disqualified by the cap alone are cut from the tree or
skip the expensive enclosure computation.  Pruned or not, reports are
identical.  The Kronecker test and the bounds walk one memoized Graeffe
chain per leaf and partner, and a pruning scan lets the lower bound
stop at an earlier step once it provably exceeds the chunk's cap
(the member is pruned either way, and the bound of every member kept is
the full one).  enumerated is the space size, the members reached plus
those cut.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import operator
import threading
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .enclosure import Enclosure, float_above, log_of_fraction
from .errors import DEFAULT_BUDGET, BudgetExceeded, PolynomialError, PrecisionExhausted
from .measure import (
    _free_parts,
    house,
    house_lower_bound,
    house_upper_bound,
    is_kronecker,
    mahler,
    mahler_lower_bound,
    mahler_upper_bound,
)
from .poly import BREUSCH_BOUND, IntPoly, negate_variable, reverse
from .roots import DEFAULT_MAX_BITS, _memos, memo_scope
from .structure import NonreciprocalWitness, decompose_skew_reciprocal

__all__ = [
    "SearchSpace",
    "SearchReport",
    "enumerate_space",
    "min_mahler",
    "min_house",
    "SequenceRow",
    "SequenceTable",
    "sequence_table",
    "DecompositionSurvey",
    "verify_decomposition_over_space",
    "DEFAULT_BUDGET",
]

_ESCALATION_ROUNDS = 3

RECIPROCAL = "reciprocal"
SKEW = "skew_reciprocal"


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """The family of monic degree-2d polynomials of one symmetry class."""

    kind: str
    degree: int
    height: int

    def __post_init__(self):
        if self.kind not in (RECIPROCAL, SKEW):
            raise PolynomialError(f"unknown kind {self.kind!r}")
        if self.degree < 2 or self.degree % 2 != 0:
            raise PolynomialError("degree must be even and >= 2")
        if self.height < 0:
            raise PolynomialError("height must be >= 0")

    @property
    def half_degree(self) -> int:
        return self.degree // 2

    @property
    def size(self) -> int:
        return (2 * self.height + 1) ** self.half_degree

    def member(self, free: tuple[int, ...]) -> IntPoly:
        """The member with free coefficients (c_d, ..., c_(2d-1))."""
        d = self.half_degree
        if len(free) != d:
            raise PolynomialError("free coefficient vector has wrong length")
        coeffs = [0] * (self.degree + 1)
        coeffs[self.degree] = 1
        for offset, c in enumerate(free):
            coeffs[d + offset] = c
        for k in range(d):
            mirror = coeffs[self.degree - k]
            if self.kind == RECIPROCAL:
                coeffs[k] = mirror
            else:
                coeffs[k] = (-1) ** (d + k) * mirror
        return IntPoly(coeffs)

    def free_vector(self, f: IntPoly) -> tuple[int, ...]:
        d = self.half_degree
        return tuple(f[d + i] for i in range(d))

    def contains(self, f: IntPoly) -> bool:
        if f.degree != self.degree or not f.is_monic():
            return False
        free = self.free_vector(f)
        if any(abs(c) > self.height for c in free):
            return False
        return self.member(free) == f

    def free_vectors(self) -> Iterator[tuple[int, ...]]:
        rng = range(-self.height, self.height + 1)
        return itertools.product(rng, repeat=self.half_degree)

    def partner(self, free: tuple[int, ...]) -> tuple[int, ...]:
        """The free vector of f(-t), for f the member with this one.

        t -> -t multiplies c_k by (-1)**k and keeps both classes (their
        identities pair c_k with c_(2d-k), of the same parity), so it
        negates free coefficient i exactly when d + i is odd.
        """
        d = self.half_degree
        return tuple(-c if (d + i) % 2 else c for i, c in enumerate(free))

    def to_json(self) -> dict:
        return {"kind": self.kind, "degree": self.degree, "height": self.height}


def enumerate_space(space: SearchSpace) -> Iterator[IntPoly]:
    """All members in lexicographic order of the free coefficient vector."""
    for free in space.free_vectors():
        yield space.member(free)


# -- phase 1 -----------------------------------------------------------------


class _PowerSumTree:
    """One chunk's depth-first walk over c_(2d-1) = first, c_(2d-2), ..., c_d.

    Write n = 2d, a_k = c_(n-k) (a_0 = 1) and s_k for the k-th power sum
    of a member's roots.  Newton's identities
    s_k + a_1 s_(k-1) + ... + a_(k-1) s_1 + k a_k = 0 (k <= n) fix s_k
    from a_1..a_k, so the node that picks a_k knows s_k exactly, as an
    integer.  The free coefficients are a_1..a_d, and a leaf's low
    coefficients a_(d+1)..a_n mirror a_(d-1)..a_0 by the class identity,
    giving s_(d+1)..s_n.

    Both classes pair the roots as alpha and +-1/alpha, so the moduli
    pair as r and 1/r.  If M(f) <= B, write r_i = e**(x_i) >= 1 for the
    n/2 pairs: sum x_i <= log B, and x -> e**(kx) + e**(-kx) - 2 is
    convex and 0 at 0, so superadditive on x >= 0, which gives
    |s_k| <= sum |alpha|**k <= n - 2 + B**k + B**-k.  If house(f) <= h,
    every pair has r <= h, so |s_k| <= (n/2) * (h**k + h**-k).  A node
    whose |s_k| breaks the bound is cut with its whole subtree, and a
    leaf whose s_(d+1)..s_n break it is cut too; every member cut has a
    value above the cap (see set_cap).  A Kronecker member has
    |s_k| <= n, within every bound, so it is never cut.

    f(t) -> f(-t) negates a_k for odd k and keeps both classes; it maps
    s_k to (-1)**k s_k, so a member and its partner are cut together.
    The walk takes only one member of each pair: the one whose first
    nonzero odd-indexed a_k is negative (a member with none is its own
    partner).  So first <= 0, and until such an a_k is picked, odd-
    indexed coefficients take values <= 0 only.  Each leaf is followed
    by its partner.  Values are tried small-first (0, -1, 1, -2, 2, ...),
    which reaches the members of small value, and so a low cap, early.

    cut counts the members, partners included, in the subtrees cut so
    far, so the members walked plus cut are the chunk: the 2 * (2H+1)**(d-1)
    members with c_(2d-1) = +-first, or the (2H+1)**(d-1) with
    c_(2d-1) = 0.
    """

    def __init__(self, space: SearchSpace, quantity: str, first: int):
        self.space = space
        self.quantity = quantity
        self.first = first
        self.limits: Optional[list[int]] = None  # limits[k] bounds |s_k|
        self.cut = 0

    def set_cap(self, cap: float) -> None:
        """Cut from now on the members whose value is above cap (inf: none).

        The bound of the class docstring is taken at B = cap * (1 + 2**-40),
        an exact rational, and floored to an integer limit per k: the
        integer |s_k| is at most the bound exactly when it is at most the
        limit, so every member of value at most B is walked.  The margin
        absorbs the float rounding that _scan_chunk's proof allows for.
        A lower cap only lowers the limits, so the subtrees cut before
        stay cut soundly.
        """
        if cap == math.inf:
            self.limits = None
            return
        num, den = cap.as_integer_ratio()
        top, bottom = num * ((1 << 40) + 1), den << 40  # B = top / bottom
        n = self.space.degree
        limits = [0]
        p = q = 1
        for _ in range(n):
            p, q = p * top, q * bottom  # B**k + B**-k = (p*p + q*q) / (p*q)
            if self.quantity == "mahler":
                limits.append(n - 2 + (p * p + q * q) // (p * q))
            else:
                limits.append(n * (p * p + q * q) // (2 * p * q))
        self.limits = limits

    def members(self) -> Iterator[tuple[int, ...]]:
        """The free vectors walked, in walk order, each leaf then its partner."""
        space = self.space
        n, d, height = space.degree, space.half_degree, space.height
        if space.kind == RECIPROCAL:
            sign = [1] * (n + 1)
        else:
            sign = [(-1) ** (d + k) for k in range(n + 1)]
        any_sign = sorted(range(-height, height + 1), key=lambda v: (abs(v), v))
        nonpositive = tuple(range(0, -height - 1, -1))
        width = 2 * height + 1
        a = [1] + [0] * n
        s = [0] * (n + 1)

        def leaf_passes(limits) -> bool:
            for k in range(d + 1, n + 1):
                a[k] = sign[k] * a[n - k]
                sk = -(k * a[k] + sum(map(operator.mul, a[1:k], s[k - 1:0:-1])))
                if abs(sk) > limits[k]:
                    return False
                s[k] = sk
            return True

        def visit(k: int, paired: bool) -> Iterator[tuple[int, ...]]:
            # a_1..a_(k-1) and s_1..s_(k-1) are set; this node picks a_k
            rest = sum(map(operator.mul, a[1:k], s[k - 1:0:-1]))
            if k == 1:
                values = (self.first,)
            elif paired or k % 2 == 0:
                values = any_sign
            else:
                values = nonpositive
            for v in values:
                sk = -(k * v + rest)
                pair = paired or (k % 2 == 1 and v != 0)
                limits = self.limits
                if limits is not None and abs(sk) > limits[k]:
                    self.cut += width ** (d - k) << pair
                    continue
                a[k], s[k] = v, sk
                if k < d:
                    yield from visit(k + 1, pair)
                elif limits is None or leaf_passes(limits):
                    free = tuple(a[d:0:-1])
                    yield free
                    if pair:
                        yield space.partner(free)
                else:
                    self.cut += 1 << pair

        yield from visit(1, False)


def _chunk_firsts(space: SearchSpace) -> range:
    """The chunks' values of c_(2d-1): 0, -1, ..., -H."""
    return range(0, -space.height - 1, -1)


def _lower(candidate) -> float:
    """Certified lower bound of a (free, Enclosure, Graeffe bound) triple."""
    _, enc, gb = candidate
    return max(enc.lo, gb)


class _LocalCap:
    """The shared cap of a search whose chunks run in this process.

    It has what _scan_chunk uses of a pool's multiprocessing.Value.
    """

    value = math.inf

    def get_lock(self):
        return contextlib.nullcontext()


def _scan_chunk(args, shared=None) -> tuple[int, int, int, list]:
    """Phase 1 over one chunk: (scanned, cut, kronecker, survivors).

    The chunk is the _PowerSumTree with c_(2d-1) = first: scanned
    counts the members it walks, cut those it cuts.  Each leaf is
    followed directly by its partner, whose Kronecker test and Graeffe
    bounds are then hits on the chain memo the two share (see
    is_kronecker).  Each survivor is a (free, Enclosure, gb) triple
    whose lower bound is at most the chunk's final best upper bound,
    and survivors are returned sorted by free.

    shared is the search's cap, which all its chunks read and lower (a
    _LocalCap; None in a pool worker, which reads its pool's, see
    _start_worker).  When pruning, the chunk starts from the shared cap and
    is scanned twice.  Pass A walks the tree, which cuts against the
    live cap: each member walked takes the Kronecker test; a
    non-Kronecker member then takes the shared cap if another chunk has
    lowered it below the chunk's own, then the Graeffe lower bound gb
    (which may stop early above the cap, see mahler_lower_bound and
    house_lower_bound), and a member with gb above the cap is pruned.
    Every other member lowers the cap to its Graeffe upper bound
    (mahler_upper_bound, house_upper_bound) plus 2*tol0, and the shared
    cap with it, and is kept as (free, gb); the tree's limits are
    recomputed only when the cap falls.  Pass B encloses the kept
    members in scan order, with its best upper bound starting at the
    final cap, and prunes and filters as the single-pass scan does.
    This leaves phase 2 the candidates a full scan capped by enclosures
    alone would give it, in the same order:

      * take m, the smallest hi of the tol0 enclosures of all
        non-Kronecker members of the space.  The shared cap starts at
        inf, so every cap the chunk holds is ub(x) + 2*tol0 for x a
        non-Kronecker member of the space walked by some chunk.  x's
        tol0 enclosure, made or not, contains x's value, which is at
        most ub(x), and is at most tol0 wide (the second tol0 absorbs
        the float rounding of Enclosure.width and of the sum, as in
        verify_decomposition_over_space), so every cap the chunk ever
        holds is at least hi(x) >= m, and so is every best upper bound
        pass B holds;
      * a member y whose lower bound max(lo, gb) is at most m has value
        at most hi(y) <= m + tol0 <= hi(x) + tol0 <= ub(x) + 2*tol0,
        up to the float rounding of two widths and of the cap's sum,
        a relative error below 2**-50 of the cap (which is above 1 and
        above tol0).  So its value is at most cap * (1 + 2**-40) for
        every cap held, the tree walks it (see _PowerSumTree.set_cap),
        and it passes both prunes, is enclosed, and survives the final
        filter, with the full gb (the early stop changes gb only for
        members it prunes); every member cut, pruned or filtered out
        has a lower bound above m;
      * phase 2's first filter keeps exactly the candidates whose
        lower bound is at most the smallest candidate hi, which is m
        (the member attaining it is a candidate), so it keeps the same
        candidates, with the same enclosures, in the same order.

    The same argument makes phase 2 independent of the chunk layout, of
    the walk order within a chunk and of when the other chunks lower
    the shared cap.  m, every member's tol0 enclosure and its full gb
    do not depend on them, and every member whose lower bound is at
    most m survives its chunk, whichever chunk holds it; the other
    survivors are dropped by the first filter.  So the parent, which
    sorts all candidates by free before that filter, gives phase 2 the
    members whose lower bound is at most m in lexicographic order, as a
    scan of the space in that order would.

    Without pruning the cap is ignored, the tree cuts nothing and
    nothing is deferred: each member is enclosed as pass A reaches it,
    so retained memory is the survivors, not the chunk.
    """
    (kind, degree, height, first, quantity, tol0, prune, max_bits) = args
    if shared is None:
        shared = _pool_cap
    space = SearchSpace(kind, degree, height)
    if quantity == "mahler":
        lower_bound, upper_bound = mahler_lower_bound, mahler_upper_bound
        measure_fn = mahler
    else:
        lower_bound, upper_bound = house_lower_bound, house_upper_bound
        measure_fn = house
    cap = shared.value if prune else math.inf
    tree = _PowerSumTree(space, quantity, first)
    tree.set_cap(cap)
    scanned = kron = 0

    def pass_a():
        nonlocal scanned, kron, cap
        for free in tree.members():
            scanned += 1
            f = space.member(free)
            if is_kronecker(f):
                kron += 1
                continue
            if not prune:
                yield free, lower_bound(f)
                continue
            held = shared.value
            if held < cap:
                cap = held
                tree.set_cap(cap)
            gb = lower_bound(f, above=cap)
            if gb <= cap:
                ub = upper_bound(f) + 2 * tol0
                if ub < cap:
                    cap = ub
                    tree.set_cap(cap)
                    with shared.get_lock():
                        shared.value = min(shared.value, cap)
                yield free, gb

    kept = list(pass_a()) if prune else pass_a()
    best_hi = cap
    survivors = []
    for free, gb in kept:
        if prune and gb > best_hi:
            continue
        enc = measure_fn(space.member(free), tol0, max_bits)
        best_hi = min(best_hi, enc.hi)
        # best_hi only falls, so a member above it now stays above it
        candidate = (free, enc, gb)
        if _lower(candidate) <= best_hi:
            survivors.append(candidate)
    survivors = [c for c in survivors if _lower(c) <= best_hi]
    survivors.sort(key=_free)
    return scanned, tree.cut, kron, survivors


def _free(candidate) -> tuple[int, ...]:
    """The free vector of a (free, Enclosure, gb) triple, its sort key."""
    return candidate[0]


class _Pool(NamedTuple):
    """Worker processes and the multiprocessing.Value('d') cap they share."""

    executor: object
    shared: object


class _IdlePool:
    """The process's search pool while no search holds it.

    A search takes the pool out (see _PoolLease) and gives it back when
    it ends, so one pool serves one search at a time.  A search that
    finds no idle pool of its worker count shuts the idle one down and
    forks its own; of two pools given back (by searches run side by
    side) only one is kept.  concurrent.futures joins the kept pool's
    workers at interpreter exit.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._workers = 0

    def take(self, workers: int):
        """(pool, reused): the idle pool if of this size, else a new one."""
        with self._lock:
            pool, kept, self._pool = self._pool, self._workers, None
        if pool is not None and kept == workers:
            return pool, True
        if pool is not None:
            pool.executor.shutdown()
        return _fork_pool(workers), False

    def give_back(self, pool, workers: int) -> None:
        """Keep pool as the idle pool, unless one is kept already."""
        with self._lock:
            if self._pool is None:
                self._pool, self._workers = pool, workers
                return
        pool.executor.shutdown()

    def shutdown(self) -> None:
        """Shut the idle pool down, joining its workers."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.executor.shutdown()


def _fork_pool(workers: int) -> _Pool:
    """A new pool, whose workers take the cap from its initializer.

    multiprocessing is imported here: commands that never start a pool
    (every --jobs 1 run) should not pay for it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    shared = multiprocessing.Value("d", math.inf)
    executor = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                   initargs=(shared,))
    return _Pool(executor, shared)


_idle_pool = _IdlePool()


class _PoolLease:
    """One search's loan of the process pool: map tasks, then give it back.

    One pool serves every search of the process (see _IdlePool): it is
    forked at the first search that needs workers and kept, and it is
    replaced only for another worker count or after a failure.  Each
    task runs in a memo scope of its own (see _run_task), and the lease
    starts the pool's shared cap at inf: a cap left by another search
    could cut members unsoundly (see _scan_chunk).  So no search reads
    another's work.  Phase 2's candidates do not depend on which chunks
    ran before, so a map that finds a pool taken over from an earlier
    search broken (a worker died between searches) is rerun once on a
    fresh pool.  A search that raises shuts its pool down, so the next
    one starts clean.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        self._reused = False

    def __enter__(self) -> _PoolLease:
        self._pool, self._reused = _idle_pool.take(self.workers)
        self._pool.shared.value = math.inf
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        pool, self._pool = self._pool, None
        if exc_type is None:
            _idle_pool.give_back(pool, self.workers)
        else:
            pool.executor.shutdown(cancel_futures=True)
        return False

    def map(self, fn, iterable) -> list:
        """[fn(x) for x in iterable], one task per x, computed on the pool."""
        from concurrent.futures.process import BrokenProcessPool

        items = list(iterable)
        fns = itertools.repeat(fn)
        try:
            return list(self._pool.executor.map(_run_task, fns, items))
        except BrokenProcessPool:
            if not self._reused:
                raise
        self._reused = False
        self._pool.executor.shutdown()
        self._pool = _fork_pool(self.workers)
        return list(self._pool.executor.map(_run_task, fns, items))


# The shared cap of the pool this worker process belongs to (see _start_worker).
_pool_cap = None


def _start_worker(shared) -> None:
    """A pool worker's initializer: keep the pool's shared cap, close memos.

    A worker forked inside a search's memo scope starts with copies of
    its open memos; it closes them, so that each task opens a scope of
    its own (see _run_task) instead of joining the copied one for good.
    """
    global _pool_cap
    _pool_cap = shared
    for memo in _memos:
        memo.entries = None


def _run_task(fn, args):
    """A pool worker's entry point: fn(args) in a memo scope of its own.

    A worker's memos are closed between tasks (see _start_worker), so
    its Graeffe chains and root ladders serve one task only and are
    dropped when it ends (see roots.memo_scope).
    """
    with memo_scope():
        return fn(args)


def _enclose(args) -> list[Optional[Enclosure]]:
    """Phase 2 for one batch: each candidate's enclosure, or None past max_bits.

    The batch is one task, so in a pool its candidates share one memo
    scope, and candidates with a squarefree part in common share its
    ladder.
    """
    quantity, members, tol, max_bits = args
    measure_fn = mahler if quantity == "mahler" else house
    encs = []
    for f in members:
        try:
            encs.append(measure_fn(f, tol, max_bits))
        except PrecisionExhausted:
            encs.append(None)
    return encs


def _tie_key(quantity: str, f: IntPoly) -> tuple:
    """An exact tie-class key of a monic f: equal keys prove equal values.

    Write f = t**k * (cyclotomic part) * u with u cyclotomic-free and
    u = prod p**m (measure._free_parts gives the pairs (p, m)).  The
    t**k and cyclotomic factors have measure 1, so M(f) = prod M(p)**m;
    and when u is not constant, house(f) = max house(p), which is above
    1.  The key is the sorted (_tie_form(p), m) pairs, and each form
    keeps its part's value, so two members with one key have one value,
    exactly.
    """
    parts, _ = _free_parts(f)
    return tuple(sorted((_tie_form(quantity, p), m) for p, m in parts))


def _tie_form(quantity: str, p: IntPoly) -> tuple:
    """A canonical form of a part p (p(0) != 0) that keeps its value.

    Both deflate, p(t) = q(s) with s = t**g and g the gcd of p's
    exponents: the roots of p are the g-th roots of q's, so M(p) = M(q)
    and house(p) = house(q)**(1/g).  Both then take the smallest of
    +-q(s), +-q(-s) with a positive leading coefficient; s -> -s only
    negates the roots.  Mahler also takes reverse(q), whose roots are
    the inverses of q's: M(reverse q) = M(q).  House does not, since
    that changes the largest root modulus, and its form keeps g.
    """
    g = math.gcd(*(k for k, c in enumerate(p.coeffs) if c))
    q = IntPoly(p.coeffs[::g])
    forms = (q, reverse(q)) if quantity == "mahler" else (q,)
    form = min((h if h.leading > 0 else -h).coeffs
               for r in forms for h in (r, negate_variable(r)))
    return form if quantity == "mahler" else (g, form)


@dataclasses.dataclass(frozen=True)
class SearchReport:
    """Outcome of a minimum search, deterministic for a given configuration."""

    space: SearchSpace
    quantity: str
    tol: float
    enumerated: int
    excluded_kronecker: int
    minimum: Optional[Enclosure]
    witnesses: tuple[IntPoly, ...]
    witness_enclosures: tuple[Enclosure, ...]
    precision_escalations: int
    precision_exhausted: bool

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "quantity": self.quantity,
            "tol": repr(self.tol),
            "enumerated": self.enumerated,
            "excluded_kronecker": self.excluded_kronecker,
            "minimum": self.minimum.to_json() if self.minimum else None,
            "witnesses": [list(w.coeffs) for w in self.witnesses],
            "witness_enclosures": [e.to_json() for e in self.witness_enclosures],
            "precision_escalations": self.precision_escalations,
            "precision_exhausted": self.precision_exhausted,
        }


def _min_search(
    space: SearchSpace,
    quantity: str,
    tol: float,
    jobs: int,
    prune: bool,
    max_bits: int,
    budget: int,
) -> SearchReport:
    if space.size > budget:
        raise BudgetExceeded(
            f"{quantity} search over {space.kind} degree {space.degree}",
            space.size,
            budget,
        )
    tol0 = max(tol, 1e-6)
    firsts = _chunk_firsts(space)
    workers = min(jobs, len(firsts))
    pool = _PoolLease(workers) if workers > 1 else contextlib.nullcontext()
    with memo_scope(), pool:
        chunk_args = [(space.kind, space.degree, space.height, first, quantity,
                       tol0, prune, max_bits) for first in firsts]
        if workers > 1:
            chunk_results = list(pool.map(_scan_chunk, chunk_args))
        else:
            # in turn, each chunk from the cap the one before ended at
            shared = _LocalCap()
            chunk_results = [_scan_chunk(args, shared) for args in chunk_args]

        enumerated = space.size
        assert sum(scanned + cut for scanned, cut, *_ in chunk_results) \
            == enumerated
        kron = sum(k for _, _, k, _ in chunk_results)
        candidates = sorted(
            (c for _, _, _, survivors in chunk_results for c in survivors),
            key=_free)
        if not candidates:
            return SearchReport(space, quantity, tol, enumerated, kron, None,
                                (), (), 0, False)

        min_hi = min(enc.hi for _, enc, _ in candidates)
        active = [c for c in candidates if _lower(c) <= min_hi]

        escalations = 0
        exhausted = False
        cur_tol = tol
        keys = {}
        while True:
            # one batch per worker: a round trip per batch, not per candidate
            members = [space.member(free) for free, _, _ in active]
            size = -(-len(members) // workers)
            batches = [(quantity, members[i:i + size], cur_tol, max_bits)
                       for i in range(0, len(members), size)]
            if workers > 1:
                encs = itertools.chain.from_iterable(pool.map(_enclose, batches))
            else:
                encs = _enclose(batches[0])
            refined = []
            for (free, enc, gb), new in zip(active, encs):
                if new is None:
                    exhausted = True
                else:
                    enc = new
                refined.append((free, enc, gb))
            min_hi = min(enc.hi for _, enc, _ in refined)
            active = [e for e in refined if _lower(e) <= min_hi]
            if len(active) <= 1 or escalations >= _ESCALATION_ROUNDS or exhausted:
                break
            # one exact tie class: no round can shrink the active set
            for free, _, _ in active:
                if free not in keys:
                    keys[free] = _tie_key(quantity, space.member(free))
            if len({keys[free] for free, _, _ in active}) == 1:
                break
            escalations += 1
            cur_tol /= 16
    minimum = Enclosure(
        min(enc.lo for _, enc, _ in active),
        min_hi,
        max(enc.bits for _, enc, _ in active),
    )
    witnesses = tuple(space.member(free) for free, _, _ in active)
    enclosures = tuple(enc for _, enc, _ in active)
    return SearchReport(
        space, quantity, tol, enumerated, kron, minimum, witnesses,
        enclosures, escalations, exhausted,
    )


def min_mahler(
    space: SearchSpace,
    tol: float = 1e-10,
    jobs: int = 1,
    prune: bool = True,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Minimum Mahler measure over the non-Kronecker members of the space.

    Membership in the "measure > 1" side is decided exactly by the
    Kronecker test, never by a numeric threshold; the minimum and every
    reported witness carry certified enclosures.  Results are identical
    for any jobs count and for prune on/off.
    """
    return _min_search(space, "mahler", tol, jobs, prune, max_bits, budget)


def min_house(
    space: SearchSpace,
    tol: float = 1e-10,
    jobs: int = 1,
    prune: bool = True,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Minimum house over the non-Kronecker members of the space.

    Certified in the same way as min_mahler, with house_lower_bound as the
    pruning bound; results are identical for any jobs count and for prune
    on/off.
    """
    return _min_search(space, "house", tol, jobs, prune, max_bits, budget)


# -- sequence table ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SequenceRow:
    """Row i: minima over both classes in degree 2**i at one height bound."""

    i: int
    degree: int
    height: int
    mahler_reciprocal: Optional[Enclosure]
    mahler_skew: Optional[Enclosure]
    house_reciprocal: Optional[Enclosure]
    house_skew: Optional[Enclosure]
    r: Optional[Enclosure]  # 2**i * log(min house, reciprocal)
    s: Optional[Enclosure]  # 2**i * log(min house, skew)
    q: Optional[Enclosure]  # running product of r_j / s_j
    breusch_check: Optional[bool]  # s_i >= min(r_(i-1), log(1179/1000)), certified

    def to_json(self) -> dict:
        opt = lambda e: e.to_json() if e is not None else None
        return {
            "i": self.i,
            "degree": self.degree,
            "height": self.height,
            "mahler_reciprocal": opt(self.mahler_reciprocal),
            "mahler_skew": opt(self.mahler_skew),
            "house_reciprocal": opt(self.house_reciprocal),
            "house_skew": opt(self.house_skew),
            "r": opt(self.r),
            "s": opt(self.s),
            "q": opt(self.q),
            "breusch_check": self.breusch_check,
        }


@dataclasses.dataclass(frozen=True)
class SequenceTable:
    rows: tuple[SequenceRow, ...]

    def to_json(self) -> dict:
        return {"rows": [row.to_json() for row in self.rows]}

    def to_csv(self) -> str:
        header = [
            "i", "degree", "height",
            "mahler_reciprocal_lo", "mahler_reciprocal_hi",
            "mahler_skew_lo", "mahler_skew_hi",
            "house_reciprocal_lo", "house_reciprocal_hi",
            "house_skew_lo", "house_skew_hi",
            "r_lo", "r_hi", "s_lo", "s_hi", "q_lo", "q_hi",
            "breusch_check",
        ]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [str(row.i), str(row.degree), str(row.height)]
            for enc in (row.mahler_reciprocal, row.mahler_skew,
                        row.house_reciprocal, row.house_skew,
                        row.r, row.s, row.q):
                if enc is None:
                    cells.extend(["", ""])
                else:
                    cells.extend([repr(enc.lo), repr(enc.hi)])
            cells.append("" if row.breusch_check is None
                         else str(row.breusch_check).lower())
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def sequence_table(
    max_i: int,
    heights: list[int],
    tol: float = 1e-10,
    jobs: int = 1,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> SequenceTable:
    """Minima tables over degrees 2**i, i = 1..max_i, one height per row.

    Each row runs four searches (Mahler and house, both classes).  The
    telescoping product q_m multiplies the certified ratio enclosures
    r_i/s_i row by row.  Every row's space is validated and its size
    checked against the budget before anything runs.
    """
    if max_i < 1:
        raise PolynomialError("max_i must be >= 1")
    if len(heights) != max_i:
        raise PolynomialError("need exactly one height per row")
    for i, height in enumerate(heights, start=1):
        size = SearchSpace(RECIPROCAL, 2**i, height).size
        if size > budget:
            raise BudgetExceeded(f"table row i={i}", size, budget)
    log_breusch = log_of_fraction(Fraction(BREUSCH_BOUND))
    rows = []
    q: Optional[Enclosure] = Enclosure(1.0, 1.0, 0)
    prev_r: Optional[Enclosure] = None
    for i in range(1, max_i + 1):
        height = heights[i - 1]
        degree = 2**i
        args = dict(tol=tol, jobs=jobs, max_bits=max_bits, budget=budget)
        rep_m_rec = min_mahler(SearchSpace(RECIPROCAL, degree, height), **args)
        rep_m_skew = min_mahler(SearchSpace(SKEW, degree, height), **args)
        rep_h_rec = min_house(SearchSpace(RECIPROCAL, degree, height), **args)
        rep_h_skew = min_house(SearchSpace(SKEW, degree, height), **args)
        r = s = None
        if rep_h_rec.minimum is not None:
            r = rep_h_rec.minimum.log().scaled(degree)
        if rep_h_skew.minimum is not None:
            s = rep_h_skew.minimum.log().scaled(degree)
        if q is not None and r is not None and s is not None:
            q = q * (r / s)
        else:
            q = None
        check = None
        if s is not None and prev_r is not None:
            # certified one-sided comparison s_i >= min(r_(i-1), log(1179/1000))
            threshold_hi = min(prev_r.hi, log_breusch.hi)
            check = s.lo >= threshold_hi
        rows.append(
            SequenceRow(
                i, degree, height,
                rep_m_rec.minimum, rep_m_skew.minimum,
                rep_h_rec.minimum, rep_h_skew.minimum,
                r, s, q, check,
            )
        )
        prev_r = r
    return SequenceTable(tuple(rows))


# -- decomposition survey ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DecompositionSurvey:
    """Exhaustive decomposition of a skew-reciprocal space, with measure audit.

    Every non-Kronecker member decomposes into exactly one of the two
    cases; for witness-case members the Mahler measure is checked
    against the nonreciprocal lower bound 1179/1000 (with a 1e-9 slack on
    the certified side), by its enclosure or, where that settles it, by a
    Graeffe lower bound.  A DecompositionFalsified raised during the scan
    propagates: falsification is a diagnosis, not a report row.
    """

    space: SearchSpace
    enumerated: int
    excluded_kronecker: int
    square_substitution_count: int
    witness_count: int
    min_witness_mahler: Optional[Enclosure]
    witnesses_below_bound: int

    @property
    def all_witnesses_above_bound(self) -> bool:
        return self.witnesses_below_bound == 0

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "enumerated": self.enumerated,
            "excluded_kronecker": self.excluded_kronecker,
            "square_substitution_count": self.square_substitution_count,
            "witness_count": self.witness_count,
            "min_witness_mahler": (
                self.min_witness_mahler.to_json()
                if self.min_witness_mahler else None
            ),
            "witnesses_below_bound": self.witnesses_below_bound,
            "all_witnesses_above_bound": self.all_witnesses_above_bound,
        }


def verify_decomposition_over_space(
    space: SearchSpace,
    tol: float = 1e-8,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> DecompositionSurvey:
    """Decompose every member of a skew-reciprocal space and audit witnesses.

    A witness-case member after the first skips its Mahler enclosure when
    its Graeffe lower bound b = mahler_lower_bound(f) exceeds both the
    running minimum's hi and 1179/1000 - 1e-9 + 2*tol (compared as exact
    rationals).  The skipped enclosure, at most tol wide, would contain
    M(f) >= b: its hi would be above the running minimum's hi, and its lo
    above the slack 1179/1000 - 1e-9 (the second tol absorbs the float
    rounding of Enclosure.width).  So neither witnesses_below_bound nor
    min_witness_mahler can change.

    The bound is taken with above = the larger of the two thresholds
    (the rational one rounded up to a float), so it may stop early (see
    mahler_lower_bound), and no skip decision changes: an early result
    exceeds above, so it exceeds both thresholds and the member is
    skipped, as it would be on the full bound, which then exceeds above
    too; any other result is the full bound, compared as before.

    The survey runs in one memo scope (see roots.memo_scope), so the
    Kronecker test here, the one decompose_skew_reciprocal repeats, and
    the Mahler lower bound walk one Graeffe chain per member.
    """
    if space.kind != SKEW:
        raise PolynomialError("decomposition survey needs a skew-reciprocal space")
    if space.size > budget:
        raise BudgetExceeded("decomposition survey", space.size, budget)
    slack = BREUSCH_BOUND - Fraction(1, 10**9)
    skip_above = slack + 2 * Fraction(tol)
    skip_above_float = float_above(skip_above)
    kron = squares = witnesses = below = 0
    min_mahler_enc: Optional[Enclosure] = None
    with memo_scope():
        for f in enumerate_space(space):
            if is_kronecker(f):
                kron += 1
                continue
            outcome = decompose_skew_reciprocal(f)
            if isinstance(outcome, NonreciprocalWitness):
                witnesses += 1
                if min_mahler_enc is not None:
                    above = max(skip_above_float, min_mahler_enc.hi)
                    bound = Fraction(mahler_lower_bound(f, above=above))
                    if bound > skip_above and bound > Fraction(min_mahler_enc.hi):
                        continue
                enc = mahler(f, tol, max_bits)
                if Fraction(enc.lo) <= slack:
                    below += 1
                if min_mahler_enc is None or enc.hi < min_mahler_enc.hi:
                    min_mahler_enc = enc
            else:
                squares += 1
    return DecompositionSurvey(
        space, space.size, kron, squares, witnesses, min_mahler_enc, below
    )
