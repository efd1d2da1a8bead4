"""Height-bounded searches over reciprocal and skew-reciprocal families.

A search space fixes the symmetry class, an even degree 2d, and a height
bound H; members are monic, the free coefficients are c_d..c_(2d-1), each
ranging over [-H, H] in lexicographic order, and the bottom half is
derived from the class identity (c_k = c_(2d-k), respectively
c_k = (-1)**(d+k) * c_(2d-k)).  Enumeration size is exactly (2H+1)**d.

A minimum search takes one or more quantities (a table row takes both,
min_mahler and min_house one) and returns a report per quantity.  It
runs in two phases so that results are bit-identical for any worker
count:

  * phase 1 scans the space once for all the quantities.  It walks, per
    chunk, a tree over the top coefficients c_(2d-1), ..., c_d whose
    nodes are cut by Newton power sums against a cap per quantity, only
    where every cap rules them out (see _PowerSumTree): one chunk per
    value c_(2d-1) = 0, -1, ..., -H, each leaf followed by its t -> -t
    partner.  Every chunk of a search reads and lowers one shared cap
    per quantity, each starting at inf (see _scan_chunk).  Phase 1
    excludes Kronecker members exactly, with one test per member walked
    (the tree never cuts one), and computes a base enclosure per
    remaining member and quantity; a chunk returns only its member, cut
    and Kronecker counts and, per quantity and sorted by free vector,
    the members whose lower bound is at most its own best upper bound,
    since the search-wide best is never above any chunk's best and
    phase 2 would drop every other member; the parent sorts all of them
    before phase 2.  However the shared caps fall, phase 2 gets the
    same candidates (see _scan_chunk), so neither the worker count nor
    the other quantities can influence a report, only a pool search's
    walked and cut counts;
  * phase 2 runs for each quantity in turn (see _phase_two).  It
    keeps every candidate whose certified lower bound does not exceed
    the smallest certified upper bound, then refines this set at
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
    differ.
    Each round refines every candidate's enclosure once and reads the
    new enclosures in candidate order (a candidate past the precision
    cap keeps its previous enclosure and marks the report exhausted).
    The first round, at tol, is computed in phase 1: each chunk encloses
    its survivors at tol and computes their tie keys before it returns
    (see _scan_chunk), so the parent computes no key for it.  Both are
    pure functions of the member, the values a round of the parent's
    own would compute.  Phase 1's chunks go to a _Runner, which calls
    each in this process with one worker and sends it to the process's
    one pool with more; the pool is handed back before phase 2, whose
    escalation rounds run in this process for every worker count.  The
    search runs in one memo scope, and each chunk the runner sends to a
    pool worker runs in a scope of its own (see _run_task and
    roots.memo_scope); outside a scope no memo keeps anything, so no
    search or task reads another's Graeffe chains, squarefree parts or
    ladders.  So a certification resumes a part's root-certification
    ladder where an earlier one in the same scope left it, instead of
    rerunning the Aberth iteration and the exact certificate from the
    start, and a member is factored once per scope.  The first round
    resumes the ladders its chunk's tol0 enclosures left; an escalation
    round resumes those the rounds before it left in this process (with
    one worker, phase 1's too), and candidates with a squarefree part in
    common share its ladder.  A resumed ladder returns the bits a fresh
    one would.

Both quantities have cheap certified lower and upper bounds read from
exact Graeffe iterates (mahler_lower_bound, house_lower_bound,
mahler_upper_bound, house_upper_bound).  Phase 1 cuts from the tree,
or skips the expensive enclosure of, every member that its cap alone
rules out, and the lower bound takes part in phase 2's candidate
elimination too; the reports are those of a scan that enclosed every
non-Kronecker member (see _scan_chunk).  The Kronecker test and every
quantity's bounds walk one memoized Graeffe chain per leaf and partner,
and a lower bound stops at an earlier step once it provably exceeds
the chunk's cap for its quantity (the member is pruned for it either
way, and the bound of every member kept is the full one).  enumerated
is the space size, the members reached plus those cut.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import operator
import os
import threading
from fractions import Fraction
from typing import Iterator, Optional

from ._record import Record
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
from .poly import (
    BREUSCH_BOUND,
    MAX_DEGREE,
    IntPoly,
    _canonical,
    negate_variable,
    reverse,
)
from .roots import DEFAULT_MAX_BITS, _check_tol, _memos, memo_scope
from .structure import NonreciprocalWitness, _is_power_of_two, decompose_skew_reciprocal

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

# The quantities a search can minimise; a table row's search takes both.
_QUANTITIES = ("mahler", "house")

RECIPROCAL = "reciprocal"
SKEW = "skew_reciprocal"


class SearchSpace(Record):
    """The family of monic degree-2d polynomials of one symmetry class."""

    __slots__ = ("kind", "degree", "height")

    def __init__(self, kind: str, degree: int, height: int):
        if kind not in (RECIPROCAL, SKEW):
            raise PolynomialError(f"unknown kind {kind!r}")
        if degree < 2 or degree % 2 != 0:
            raise PolynomialError("degree must be even and >= 2")
        if degree > MAX_DEGREE:
            raise PolynomialError(f"degree must be <= {MAX_DEGREE}")
        if height < 0:
            raise PolynomialError("height must be >= 0")
        super().__init__(kind, degree, height)

    @property
    def half_degree(self) -> int:
        return self.degree // 2

    @property
    def size(self) -> int:
        return (2 * self.height + 1) ** self.half_degree

    def member(self, free: tuple[int, ...]) -> IntPoly:
        """The member with integer free coefficients (c_d, ..., c_(2d-1)).

        The low coefficients c_0..c_(d-1) mirror c_(2d)..c_(d+1), with the
        skew class's signs (-1)**(d+k).  A member is monic, so with
        integer free coefficients it is built without IntPoly's checks.
        """
        d = len(free)
        if d != self.degree // 2:
            raise PolynomialError("free coefficient vector has wrong length")
        low = [1, *free[:0:-1]]  # c_(2d), c_(2d-1), ..., c_(d+1)
        if self.kind == SKEW:
            odd = 1 - d % 2  # the first k with d + k odd
            low[odd::2] = [-c for c in low[odd::2]]
        return _canonical((*low, *free, 1))

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
        odd = 1 - self.half_degree % 2  # the first i with d + i odd
        partner = list(free)
        partner[odd::2] = [-c for c in free[odd::2]]
        return tuple(partner)


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
    every pair has r <= h, so |s_k| <= (n/2) * (h**k + h**-k).  The tree
    holds a cap per quantity of its search, and a node is live for the
    quantities whose bound its |s_k| and every |s_j| above it keep.  A
    node live for none is cut with its whole subtree, and so is a leaf
    that s_(d+1)..s_n leave live for none; a member cut, or not live for
    a quantity, has that quantity's value above its cap (see set_caps).
    A Kronecker member has |s_k| <= n, within every bound, so it is
    never cut and always live.

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

    def __init__(self, space: SearchSpace, quantities: tuple[str, ...], first: int):
        self.space = space
        self.quantities = quantities
        self.first = first
        self.limits: Optional[list[tuple]] = None  # per k, see set_caps
        self.cut = 0

    def set_caps(self, caps) -> None:
        """Cut from now on the members whose every value is above its cap.

        caps holds a cap per quantity; while one is inf nothing is cut.  Each
        quantity's bound of the class docstring is taken at
        B = cap * (1 + 2**-40), an exact rational, and floored to an
        integer limit per k: the integer |s_k| is at most the bound
        exactly when it is at most the limit, so every member with a
        value at most its B is walked, and live for that quantity (see
        members).  The margin absorbs the float rounding that
        _scan_chunk's proof allows for.  Lower caps only lower the
        limits, so the subtrees cut before stay cut soundly.
        """
        if math.inf in caps:
            self.limits = None
            return
        n = self.space.degree
        each = []
        for quantity, cap in zip(self.quantities, caps):
            num, den = cap.as_integer_ratio()
            top, bottom = num * ((1 << 40) + 1), den << 40  # B = top / bottom
            limits = [0]
            p = q = 1
            for _ in range(n):
                p, q = p * top, q * bottom  # B**k + B**-k = (p*p + q*q) / (p*q)
                if quantity == "mahler":
                    limits.append(n - 2 + (p * p + q * q) // (p * q))
                else:
                    limits.append(n * (p * p + q * q) // (2 * p * q))
            each.append(limits)
        # per k: the smallest limit, the largest, and each quantity's
        self.limits = [(min(ks), max(ks), ks) for ks in zip(*each)]

    def members(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(free, live) for the members walked, each leaf then its partner.

        live holds the indices of the quantities whose limits the member
        keeps, every quantity's while a cap is inf.  A member outside a
        quantity's limits has its value above that quantity's cap, so
        _scan_chunk prunes it for that quantity unread.
        """
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

        def narrowed(sk: int, limit, live: tuple[int, ...]) -> tuple[int, ...]:
            # the quantities of live whose limit keeps |s_k|, past the smallest
            _, top, each = limit
            if abs(sk) > top:
                return ()
            return tuple(j for j in live if abs(sk) <= each[j])

        def leaf_live(limits, live: tuple[int, ...]) -> tuple[int, ...]:
            for k in range(d + 1, n + 1):
                a[k] = sign[k] * a[n - k]
                sk = -(k * a[k] + sum(map(operator.mul, a[1:k], s[k - 1:0:-1])))
                if abs(sk) > limits[k][0]:
                    live = narrowed(sk, limits[k], live)
                    if not live:
                        break
                s[k] = sk
            return live

        def visit(k: int, paired: bool, live: tuple[int, ...]):
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
                node_live = live
                if limits is not None and abs(sk) > limits[k][0]:
                    node_live = narrowed(sk, limits[k], live)
                    if not node_live:
                        self.cut += width ** (d - k) << pair
                        continue
                a[k], s[k] = v, sk
                if k < d:
                    yield from visit(k + 1, pair, node_live)
                    continue
                if limits is not None:
                    node_live = leaf_live(limits, node_live)
                if node_live:
                    free = tuple(a[d:0:-1])
                    yield free, node_live
                    if pair:
                        yield space.partner(free), node_live
                else:
                    self.cut += 1 << pair

        yield from visit(1, False, tuple(range(len(self.quantities))))


def _chunk_firsts(space: SearchSpace) -> range:
    """The chunks' values of c_(2d-1): 0, -1, ..., -H."""
    return range(0, -space.height - 1, -1)


def _lower(candidate) -> float:
    """Certified lower bound of a candidate (free, Enclosure, Graeffe bound, ...)."""
    return max(candidate[1].lo, candidate[2])


class _LocalCap(list):
    """The shared cap of a search whose chunks run in this process.

    It holds a slot per quantity and has what _scan_chunk uses of a
    pool's multiprocessing.Array.
    """

    def __init__(self):
        super().__init__([math.inf] * len(_QUANTITIES))

    def get_lock(self):
        return contextlib.nullcontext()


def _scan_chunk(args, shared) -> tuple[int, int, int, list]:
    """Phase 1 over one chunk: (scanned, cut, kronecker, survivors per quantity).

    The chunk is the _PowerSumTree with c_(2d-1) = first: scanned
    counts the members it walks, cut those it cuts.  Each member walked
    takes one Kronecker test, whichever quantities the search has.  Each
    leaf is followed directly by its partner, whose Kronecker test and
    Graeffe bounds are then hits on the chain memo the two share (see
    is_kronecker).  survivors holds a list per quantity of the search.
    Each survivor is a (free, Enclosure, gb, new, key) tuple whose lower
    bound max(lo, gb) is at most the chunk's final best upper bound for
    the quantity and at most the quantity's shared cap as the chunk
    ends; each list is sorted by free.  Enclosure is the
    member's tol0 enclosure; new and key are phase 2's first round for
    it: its enclosure at the search's tol (None past max_bits, see
    _enclose) and its _tie_key.  They are computed here, in the chunk's
    memo scope, so they resume the ladders and read the squarefree
    parts of the tol0 enclosures, as a member's enclosures for the
    search's quantities read each other's.

    shared is the search's cap, a slot per quantity, which all its
    chunks read and lower (see _Runner).  The chunk starts from the
    shared caps and is scanned twice.  Pass A walks the tree,
    which cuts against the live caps: each member walked takes the
    Kronecker test; a non-Kronecker member is pruned for each quantity
    it is not live for (see _PowerSumTree), and for each other one
    takes the shared cap if another chunk has lowered it below the
    chunk's own, then the Graeffe lower bound gb (which may stop early
    above the cap, see mahler_lower_bound and house_lower_bound), and
    is pruned for the quantity if gb is above its cap.  Otherwise it
    lowers the quantity's cap to its Graeffe upper bound
    (mahler_upper_bound, house_upper_bound) plus 2*tol0, and the shared
    cap with it, and is kept for the quantity with its gb; the tree's
    limits are recomputed only when a cap falls.  Pass B encloses the
    kept members in scan order, once for each quantity that kept them,
    with each quantity's best upper bound starting at its final cap: a
    member whose gb is above the quantity's best upper bound is pruned
    unenclosed, and an enclosed one is kept while its lower bound is at
    most that bound.  For each quantity, this leaves phase 2 the
    candidates a full scan capped by enclosures alone would give it, in
    the same order:

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
        every cap held, the tree walks it and keeps it live for the
        quantity (see _PowerSumTree.set_caps), and it passes both
        prunes, is enclosed, and survives the final filter, with the
        full gb (the early stop changes gb only for members it prunes);
        every member cut, pruned or filtered out has a lower bound
        above m;
      * the shared cap as the chunk ends is inf or some chunk's cap,
        so it is at least m too, and a member above it has a lower
        bound above m: dropping it here, before its first round is
        computed, drops only members phase 2's first filter would drop;
      * phase 2's first filter keeps exactly the candidates whose
        lower bound is at most the smallest candidate hi, which is m
        (the member attaining it is a candidate), so it keeps the same
        candidates, with the same enclosures, in the same order.

    The same argument makes phase 2 independent of the chunk layout, of
    the walk order within a chunk, of when the other chunks lower the
    shared cap and of the other quantities the search has.  m, every
    member's tol0 enclosure and its full gb do not depend on them, and
    every member whose lower bound is at most m survives its chunk,
    whichever chunk holds it; the other survivors are dropped by the
    first filter.  So the parent, which sorts all candidates by free
    before that filter, gives phase 2 the members whose lower bound is
    at most m in lexicographic order, as a scan of the space in that
    order would.
    """
    (kind, degree, height, first, quantities, tol0, tol, max_bits) = args
    space = SearchSpace(kind, degree, height)
    functions = [
        (mahler_lower_bound, mahler_upper_bound, mahler) if quantity == "mahler"
        else (house_lower_bound, house_upper_bound, house)
        for quantity in quantities]
    caps = shared[:len(quantities)]
    tree = _PowerSumTree(space, quantities, first)
    tree.set_caps(caps)
    scanned = kron = 0
    kept = []  # pass A's (free, gbs), gbs[j] None when pruned for quantity j
    for free, live in tree.members():
        scanned += 1
        f = space.member(free)
        if is_kronecker(f):
            kron += 1
            continue
        gbs = [None] * len(quantities)
        fell = False
        for j in live:
            lower_bound, upper_bound, _ = functions[j]
            held = shared[j]
            if held < caps[j]:
                caps[j], fell = held, True
            gb = lower_bound(f, above=caps[j])
            if gb > caps[j]:
                continue
            ub = upper_bound(f) + 2 * tol0
            if ub < caps[j]:
                caps[j], fell = ub, True
                with shared.get_lock():
                    shared[j] = min(shared[j], ub)
            gbs[j] = gb
        if fell:
            tree.set_caps(caps)
        if gbs.count(None) < len(gbs):
            kept.append((free, gbs))

    best_his = list(caps)
    survivors = [[] for _ in quantities]
    for free, gbs in kept:
        f = space.member(free)
        for j, gb in enumerate(gbs):
            if gb is None or gb > best_his[j]:
                continue
            enc = functions[j][2](f, tol0, max_bits)
            best_his[j] = min(best_his[j], enc.hi)
            # best_hi only falls, so a member above it now stays above it
            candidate = (free, enc, gb)
            if _lower(candidate) <= best_his[j]:
                survivors[j].append(candidate)
    shipped = []
    for j, quantity in enumerate(quantities):
        best_hi = min(best_his[j], shared[j])
        chosen = sorted((c for c in survivors[j] if _lower(c) <= best_hi), key=_free)
        members = [space.member(free) for free, _, _ in chosen]
        news = _enclose(quantity, members, tol, max_bits)
        shipped.append([(free, enc, gb, new, _tie_key(quantity, f))
                        for (free, enc, gb), f, new in zip(chosen, members, news)])
    return scanned, tree.cut, kron, shipped


def _free(candidate) -> tuple[int, ...]:
    """The free vector of a candidate (free, Enclosure, gb, ...), its sort key."""
    return candidate[0]


def _fork_pool(workers: int) -> tuple:
    """(executor, cap): a new pool, whose workers take the cap from its initializer.

    multiprocessing is imported here: commands that never start a pool
    (every --jobs 1 run) should not pay for it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cap = multiprocessing.Array("d", [math.inf] * len(_QUANTITIES))
    executor = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                   initargs=(cap,))
    return executor, cap


# The pool kept between searches, (executor, cap, workers), or None while
# no pool is kept or a search holds it; guarded by _kept_lock.
_kept_lock = threading.Lock()
_kept = None


@atexit.register
def _drop_kept() -> None:
    """At exit, let the kept pool go while the modules it needs are intact.

    concurrent.futures has joined the pool's workers before atexit runs.
    A pool first collected in module teardown would run its collection
    callback on cleared module globals, which prints an ignored error.
    """
    global _kept
    _kept = None


class _Runner:
    """One search's tasks: map(fn, items) is [fn(x, cap) for x in items].

    The runner holds the search's cap, a slot per quantity, which all
    its chunks read and lower (see _scan_chunk) and whose every slot
    starts at inf for every search: a cap left by another search could
    cut members unsoundly.  With one worker, map calls fn here, in the
    search's memo scope, on a _LocalCap, so each chunk starts from the
    caps the one before ended at.  With more, each x is a task of its
    own on the process pool, which runs fn in a memo scope of its own
    (see _run_task) on the pool's multiprocessing.Array.  So no search
    or task reads another's work.

    One pool serves every search of the process: it is forked at the
    first search that needs workers and kept, and it is replaced only
    for another worker count or after a failure.  A search takes the
    kept pool out for its phase 1 and gives it back before phase 2; a
    search that finds none kept while another holds it (searches run
    side by side in threads) forks its own, and of two pools given back
    only one is kept.  Phase 2's candidates do not depend on which
    chunks ran before, so a map that finds a kept pool broken (a worker
    died between searches) is rerun once on a fresh pool.  A search that
    raises shuts its pool down, so the next one starts clean.
    concurrent.futures joins the kept pool's workers at interpreter exit,
    and _drop_kept lets the pool go after that.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None
        self._reused = False

    def __enter__(self) -> _Runner:
        global _kept
        self._cap = _LocalCap()
        if self.workers == 1:
            return self
        with _kept_lock:
            kept, _kept = _kept, None
        if kept is not None and kept[2] == self.workers:
            self._executor, self._cap, _ = kept
            self._reused = True
        else:
            if kept is not None:
                kept[0].shutdown()
            self._executor, self._cap = _fork_pool(self.workers)
        self._cap[:] = [math.inf] * len(_QUANTITIES)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _kept
        if self._executor is None:
            return False
        with _kept_lock:
            keep = exc_type is None and _kept is None
            if keep:
                _kept = self._executor, self._cap, self.workers
        if not keep:
            self._executor.shutdown(cancel_futures=exc_type is not None)
        return False

    def map(self, fn, items) -> list:
        """[fn(x, cap) for x in items], in this process or one task per x."""
        if self._executor is None:
            return [fn(x, self._cap) for x in items]
        from concurrent.futures.process import BrokenProcessPool

        items = list(items)
        fns = itertools.repeat(fn)
        try:
            return list(self._executor.map(_run_task, fns, items))
        except BrokenProcessPool:
            if not self._reused:
                raise
        self._reused = False
        self._executor.shutdown()
        self._executor, self._cap = _fork_pool(self.workers)
        return list(self._executor.map(_run_task, fns, items))


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
    """A pool worker's entry point: fn(args, cap) in a memo scope of its own.

    cap is the pool's shared cap.  A worker's memos are closed between
    tasks (see _start_worker), so its Graeffe chains and root ladders
    serve one task only and are dropped when it ends (see
    roots.memo_scope).
    """
    with memo_scope():
        return fn(args, _pool_cap)


def _enclose(quantity, members, tol, max_bits) -> list[Optional[Enclosure]]:
    """One phase-2 round: each member's enclosure, or None past max_bits.

    The first round is a call in each phase-1 chunk, over its survivors
    (see _scan_chunk); each escalation round is a call in the search's
    own memo scope (see _phase_two).  Either way the call runs in one
    memo scope, so candidates with a squarefree part in common share its
    ladder.  PrecisionExhausted never leaves it: a candidate past
    max_bits gets None, which the search records as exhausted.
    """
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


class SearchReport(Record):
    """Outcome of a minimum search, deterministic for a given configuration.

    Fields: the space searched, the quantity ("mahler" or "house"), the
    tol asked for, the enumerated and excluded_kronecker member counts,
    the minimum enclosure (None when every member is Kronecker), the
    witnesses attaining it with their witness_enclosures, and the
    precision_escalations made, with precision_exhausted set when one
    ran out of bits.
    """

    __slots__ = ("space", "quantity", "tol", "enumerated", "excluded_kronecker",
                 "minimum", "witnesses", "witness_enclosures",
                 "precision_escalations", "precision_exhausted")

    def to_json(self) -> dict:
        return {**super().to_json(), "tol": repr(self.tol)}


def _check_jobs(jobs: int) -> None:
    """Reject a worker count that is not an integer >= 1, before any pool is touched.

    The CLI applies the same rule to --jobs.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise PolynomialError(f"jobs must be an integer >= 1, got {jobs!r}")


def _min_search(
    space: SearchSpace,
    quantities: tuple[str, ...],
    tol: float,
    jobs: int,
    max_bits: int,
    budget: int,
) -> tuple[SearchReport, ...]:
    """A report per quantity, from one phase-1 scan of the space and a phase 2 each.

    Phase 1 runs on at most jobs workers, and on no more than there are
    chunks or CPUs: a pool starts all its workers at once.
    """
    _check_tol(tol)
    _check_jobs(jobs)
    if space.size > budget:
        raise BudgetExceeded(
            f"{' and '.join(quantities)} search over {space.kind} "
            f"degree {space.degree}",
            space.size,
            budget,
        )
    tol0 = max(tol, 1e-6)
    chunks = [(space.kind, space.degree, space.height, first, quantities, tol0, tol,
               max_bits) for first in _chunk_firsts(space)]
    with memo_scope():
        with _Runner(min(jobs, len(chunks), os.cpu_count() or 1)) as run:
            chunk_results = run.map(_scan_chunk, chunks)
        if sum(scanned + cut for scanned, cut, *_ in chunk_results) != space.size:
            raise AssertionError("the chunks did not cover the search space")
        kron = sum(k for _, _, k, _ in chunk_results)
        return tuple(
            _phase_two(space, quantity, tol, max_bits, kron, sorted(
                (c for *_, survivors in chunk_results for c in survivors[j]),
                key=_free))
            for j, quantity in enumerate(quantities))


def _phase_two(space: SearchSpace, quantity: str, tol: float, max_bits: int,
               kron: int, candidates: list) -> SearchReport:
    """Phase 2 for one quantity over its phase-1 candidates, sorted by free."""
    if not candidates:
        return SearchReport(space, quantity, tol, space.size, kron, None,
                            (), (), 0, False)

    min_hi = min(c[1].hi for c in candidates)
    active = [c for c in candidates if _lower(c) <= min_hi]
    # the first round's enclosures, at tol, and the keys came with them
    encs = [new for _, _, _, new, _ in active]
    keys = {free: key for free, _, _, _, key in active}

    escalations = 0
    exhausted = False
    cur_tol = tol
    while True:
        refined = []
        for (free, enc, gb, *_), new in zip(active, encs):
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
        if len({keys[free] for free, _, _ in active}) == 1:
            break
        escalations += 1
        cur_tol /= 16
        encs = _enclose(quantity, [space.member(free) for free, _, _ in active],
                        cur_tol, max_bits)
    minimum = Enclosure(
        min(enc.lo for _, enc, _ in active),
        min_hi,
        max(enc.bits for _, enc, _ in active),
    )
    witnesses = tuple(space.member(free) for free, _, _ in active)
    enclosures = tuple(enc for _, enc, _ in active)
    return SearchReport(
        space, quantity, tol, space.size, kron, minimum, witnesses,
        enclosures, escalations, exhausted,
    )


def min_mahler(
    space: SearchSpace,
    tol: float = 1e-10,
    jobs: int = 1,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Minimum Mahler measure over the non-Kronecker members of the space.

    Membership in the "measure > 1" side is decided exactly by the
    Kronecker test, never by a numeric threshold; the minimum and every
    reported witness carry certified enclosures.  Results are identical
    for any jobs count.
    """
    (report,) = _min_search(space, ("mahler",), tol, jobs, max_bits, budget)
    return report


def min_house(
    space: SearchSpace,
    tol: float = 1e-10,
    jobs: int = 1,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Minimum house over the non-Kronecker members of the space.

    Certified in the same way as min_mahler, with house_lower_bound as the
    pruning bound; results are identical for any jobs count.
    """
    (report,) = _min_search(space, ("house",), tol, jobs, max_bits, budget)
    return report


# -- sequence table ----------------------------------------------------------


class SequenceRow(Record):
    """Row i: minima over both classes in degree 2**i at one height bound.

    Fields: i, degree, height, the four minima mahler_reciprocal,
    mahler_skew, house_reciprocal and house_skew, then
    r = 2**i * log(min house, reciprocal), s = 2**i * log(min house,
    skew), q = the running product of r_j / s_j, and breusch_check,
    whether s_i >= min(r_(i-1), log(1179/1000)) is certified.  A minimum
    is None when its search found no non-Kronecker member, r and s with
    their house minima, and q from the first row without r or s on;
    breusch_check is None when s_i or r_(i-1) is, so in row 1.
    """

    __slots__ = ("i", "degree", "height", "mahler_reciprocal", "mahler_skew",
                 "house_reciprocal", "house_skew", "r", "s", "q", "breusch_check")


class SequenceTable(Record):
    """The sequence table; field: its rows, a tuple of SequenceRow."""

    __slots__ = ("rows",)

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

    Each row runs two searches, one per class, and each finds both the
    Mahler and the house minimum in one scan of its space.  The
    telescoping product q_m multiplies the certified ratio enclosures
    r_i/s_i row by row.  The tolerance and every row's space are
    validated, and each size checked against the budget, before
    anything runs.
    """
    _check_tol(tol)
    _check_jobs(jobs)
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
        args = (_QUANTITIES, tol, jobs, max_bits, budget)
        rep_m_rec, rep_h_rec = _min_search(
            SearchSpace(RECIPROCAL, degree, height), *args)
        rep_m_skew, rep_h_skew = _min_search(
            SearchSpace(SKEW, degree, height), *args)
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


class DecompositionSurvey(Record):
    """Exhaustive decomposition of a skew-reciprocal space, with measure audit.

    Every non-Kronecker member decomposes into exactly one of the two
    cases; for witness-case members the Mahler measure is checked
    against the nonreciprocal lower bound 1179/1000 (with a 1e-9 slack on
    the certified side), by its enclosure or, where that settles it, by a
    Graeffe lower bound.  A DecompositionFalsified raised during the scan
    propagates: falsification is a diagnosis, not a report row.

    Fields: the space surveyed, the enumerated and excluded_kronecker
    member counts, square_substitution_count and witness_count by case,
    the min_witness_mahler enclosure, of the witness with the least
    (hi, free vector) (None without witnesses), and
    witnesses_below_bound, the witnesses whose Mahler enclosure reaches
    down to 1179/1000 - 1e-9.
    """

    __slots__ = ("space", "enumerated", "excluded_kronecker",
                 "square_substitution_count", "witness_count",
                 "min_witness_mahler", "witnesses_below_bound")

    @property
    def all_witnesses_above_bound(self) -> bool:
        return self.witnesses_below_bound == 0

    def to_json(self) -> dict:
        return {**super().to_json(),
                "all_witnesses_above_bound": self.all_witnesses_above_bound}


def verify_decomposition_over_space(
    space: SearchSpace,
    tol: float = 1e-8,
    max_bits: int = DEFAULT_MAX_BITS,
    budget: int = DEFAULT_BUDGET,
) -> DecompositionSurvey:
    """Decompose every member of a skew-reciprocal space and audit witnesses.

    The degree must be 2**(i+1) with i >= 1, as decompose_skew_reciprocal
    requires; like the tolerance and the class, it is checked before any
    member is.

    The survey walks the search's own tree (see _PowerSumTree), chunk by
    chunk of _chunk_firsts, with no cap: it cuts nothing, so every member
    is walked once, each leaf followed by its t -> -t partner.  It runs
    in one memo scope (see roots.memo_scope), so the Kronecker test here,
    the one decompose_skew_reciprocal repeats, and the Mahler lower bound
    walk one Graeffe chain per leaf and partner, and the partner's are
    memo hits.

    A witness-case member skips its Mahler enclosure when its Graeffe
    lower bound b = mahler_lower_bound(f, above=a) exceeds
    a = max(skip_above, best_hi), where skip_above is
    1179/1000 - 1e-9 + 2*tol rounded up to a float and best_hi, inf
    before the first enclosure, is the least hi enclosed so far.  The
    skipped enclosure, at most tol wide, would contain M(f) >= b: its hi
    would be above best_hi, and its lo above the slack 1179/1000 - 1e-9
    (the second tol absorbs the float rounding of Enclosure.width).  So
    neither witnesses_below_bound nor min_witness_mahler can change.  A
    bound may stop early (see mahler_lower_bound), but only once the
    full bound exceeds a too, so no skip decision changes.  The float
    b > skip_above differs from the exact b > 1179/1000 - 1e-9 + 2*tol
    only for b = skip_above: such a member is enclosed, and its
    enclosure contains M(f) >= b, so its lo is above the slack, as
    above, and its hi is at least b; it is a new minimum only if
    b <= best_hi, when the exact test would enclose it too.

    min_witness_mahler is the enclosure of the witness with the least
    (hi, free vector), whatever order the walk takes.  A witness whose
    hi equals the final minimum m has b <= M(f) <= m <= best_hi at every
    step of the walk, so it is never skipped; with the least free vector
    among them, it is the one kept.
    """
    _check_tol(tol)
    if space.kind != SKEW:
        raise PolynomialError("decomposition survey needs a skew-reciprocal space")
    if not (_is_power_of_two(space.degree) and space.degree >= 4):
        raise PolynomialError("decomposition requires degree 2**(i+1) with i >= 1")
    if space.size > budget:
        raise BudgetExceeded("decomposition survey", space.size, budget)
    slack = BREUSCH_BOUND - Fraction(1, 10**9)
    skip_above = float_above(slack + 2 * Fraction(tol))
    walked = kron = squares = witnesses = below = 0
    best_hi, best_free, min_mahler_enc = math.inf, None, None
    with memo_scope():
        for first in _chunk_firsts(space):
            for free, _ in _PowerSumTree(space, ("mahler",), first).members():
                walked += 1
                f = space.member(free)
                if is_kronecker(f):
                    kron += 1
                    continue
                if not isinstance(decompose_skew_reciprocal(f), NonreciprocalWitness):
                    squares += 1
                    continue
                witnesses += 1
                above = max(skip_above, best_hi)
                if mahler_lower_bound(f, above=above) > above:
                    continue
                enc = mahler(f, tol, max_bits)
                if enc.lo <= slack:
                    below += 1
                if best_free is None or (enc.hi, free) < (best_hi, best_free):
                    best_hi, best_free, min_mahler_enc = enc.hi, free, enc
    if walked != space.size:
        raise AssertionError("the survey did not walk the whole space")
    return DecompositionSurvey(
        space, space.size, kron, squares, witnesses, min_mahler_enc, below
    )
