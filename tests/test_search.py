"""Height-bounded spaces, deterministic searches, tables, and the survey."""

import concurrent.futures
import functools
import importlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_house, brute_mahler, run_in_checkout
from skewrec.errors import BudgetExceeded, PolynomialError
from skewrec.measure import (
    _chains,
    _disk_data,
    _mahler_bounds,
    _mahler_root_tol,
    house,
    house_lower_bound,
    house_upper_bound,
    is_kronecker,
    kronecker_free_part,
    mahler,
    mahler_lower_bound,
    mahler_upper_bound,
    measure,
    squarefree_decomposition,
)
from skewrec.poly import (
    IntPoly,
    cyclotomic,
    is_reciprocal,
    is_skew_reciprocal,
    negate_variable,
)
from skewrec.roots import DEFAULT_MAX_BITS, _ladders
from skewrec.search import (
    SearchSpace,
    _chunk_firsts,
    _enclose,
    _LocalCap,
    _lower,
    _PowerSumTree,
    _run_task,
    _scan_chunk,
    _tie_key,
    enumerate_space,
    min_house,
    min_mahler,
    sequence_table,
    verify_decomposition_over_space,
)
from skewrec.structure import NonreciprocalWitness, decompose_skew_reciprocal

search_module = importlib.import_module("skewrec.search")

PHI = (1 + math.sqrt(5)) / 2
LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
GOLDEN = IntPoly([-1, -1, 1])  # t^2 - t - 1, roots phi and -1/phi


def one_key_per_candidate(monkeypatch):
    """Give every phase-2 candidate its own tie class, so no round stops early."""
    monkeypatch.setattr("skewrec.search._tie_key",
                        lambda quantity, f: f.coeffs)


def chunk_args(space, first, quantity, prune, tol0=1e-6):
    """_scan_chunk's arguments for the chunk c_(2d-1) = first."""
    return (space.kind, space.degree, space.height, first, quantity, tol0,
            prune, 4096)


def scan_space(space, quantity, prune, tol0=1e-6):
    """Phase 1 over every chunk of the space, as a --jobs 1 search runs it.

    The chunks run in turn and share one cap, which starts at inf.
    """
    shared = _LocalCap()
    return [_scan_chunk(chunk_args(space, first, quantity, prune, tol0), shared)
            for first in _chunk_firsts(space)]


class TestSearchSpace:
    def test_size_law(self):
        assert SearchSpace("reciprocal", 2, 3).size == 7
        assert SearchSpace("skew_reciprocal", 4, 2).size == 25
        assert SearchSpace("skew_reciprocal", 8, 1).size == 81
        assert SearchSpace("reciprocal", 6, 0).size == 1

    def test_enumeration_count_matches_size(self):
        for space in (
            SearchSpace("reciprocal", 4, 1),
            SearchSpace("skew_reciprocal", 4, 2),
            SearchSpace("skew_reciprocal", 2, 3),
        ):
            members = list(enumerate_space(space))
            assert len(members) == space.size
            assert len(set(m.coeffs for m in members)) == space.size

    def test_members_have_declared_symmetry(self):
        for f in enumerate_space(SearchSpace("reciprocal", 4, 2)):
            assert f.is_monic() and f.degree == 4 and is_reciprocal(f)
        for f in enumerate_space(SearchSpace("skew_reciprocal", 4, 2)):
            assert f.is_monic() and f.degree == 4 and is_skew_reciprocal(f)

    def test_lexicographic_order(self):
        frees = [
            SearchSpace("reciprocal", 4, 1).free_vector(f)
            for f in enumerate_space(SearchSpace("reciprocal", 4, 1))
        ]
        assert frees == sorted(frees)

    def test_orbit_chunks_partition_the_space(self, monkeypatch):
        chunks = []  # (chunk args, members walked, members cut)

        def recording_scan(args, shared):
            kind, degree, height, first, quantity, _, prune = args[:7]
            if prune:
                # as a pruning chunk would, lower the search's shared cap
                shared.value = min(shared.value, 1.3)
            tree = _PowerSumTree(SearchSpace(kind, degree, height), quantity,
                                 first)
            tree.set_cap(shared.value if prune else math.inf)
            chunk = list(tree.members())
            chunks.append((args, chunk, tree.cut))
            return len(chunk), tree.cut, 0, []

        monkeypatch.setattr("skewrec.search._scan_chunk", recording_scan)
        for kind in ("reciprocal", "skew_reciprocal"):
            for degree, height in itertools.product((2, 4, 6, 8, 10), range(4)):
                space = SearchSpace(kind, degree, height)
                for prune in (False, True):
                    chunks.clear()
                    assert min_mahler(space, prune=prune).minimum is None
                    # one chunk per c_(2d-1) = 0, -1, ..., -H
                    assert [args[3] for args, _, _ in chunks] == \
                        list(range(0, -height - 1, -1))
                    walked = [free for _, chunk, _ in chunks for free in chunk]
                    assert len(set(walked)) == len(walked)
                    assert len(walked) + sum(cut for *_, cut in chunks) == \
                        space.size
                    if not prune:
                        assert sorted(walked) == list(space.free_vectors())
                    for _, chunk, _ in chunks:
                        i = 0
                        while i < len(chunk):
                            free = chunk[i]
                            partner = space.partner(free)
                            assert space.member(partner) == \
                                negate_variable(space.member(free))
                            # the leaf: c_(2d-1) <= 0, and its first nonzero
                            # odd-indexed coefficient is negative
                            odd = [c for j, c in enumerate(free)
                                   if (space.half_degree - j) % 2]
                            assert next((c for c in reversed(odd) if c), 0) <= 0
                            if free != partner:
                                assert chunk[i + 1] == partner
                                i += 1
                            i += 1

    def test_height_zero_allowed(self):
        members = list(enumerate_space(SearchSpace("skew_reciprocal", 4, 0)))
        assert members == [IntPoly([1, 0, 0, 0, 1])]

    def test_contains(self):
        space = SearchSpace("skew_reciprocal", 4, 2)
        assert space.contains(IntPoly([1, -1, 0, 1, 1]))
        assert not space.contains(IntPoly([1, -3, 0, 3, 1]))  # height 3
        assert not space.contains(IntPoly([1, 1, 0, 1, 1]))  # wrong symmetry

    def test_validation(self):
        with pytest.raises(PolynomialError):
            SearchSpace("spooky", 4, 1)
        with pytest.raises(PolynomialError):
            SearchSpace("reciprocal", 3, 1)
        with pytest.raises(PolynomialError):
            SearchSpace("reciprocal", 4, -1)


class TestMinimumSearches:
    def test_reciprocal_degree_two_golden_square(self):
        rep = min_mahler(SearchSpace("reciprocal", 2, 3), tol=1e-10)
        assert rep.enumerated == 7 and rep.excluded_kronecker == 5
        assert rep.minimum.contains(PHI * PHI)
        assert rep.minimum.width <= 1e-10
        assert [w.coeffs for w in rep.witnesses] == [(1, -3, 1), (1, 3, 1)]

    def test_skew_degree_two_golden(self):
        rep = min_house(SearchSpace("skew_reciprocal", 2, 3), tol=1e-10)
        assert rep.minimum.contains(PHI)
        assert [w.coeffs for w in rep.witnesses] == [(-1, -1, 1), (-1, 1, 1)]

    def test_all_kronecker_space_has_no_minimum(self):
        rep = min_mahler(SearchSpace("reciprocal", 2, 2))
        assert rep.minimum is None and rep.witnesses == ()
        assert rep.excluded_kronecker == rep.enumerated == 5

    def test_minimum_agrees_with_brute_force(self):
        space = SearchSpace("skew_reciprocal", 4, 2)
        rep = min_mahler(space, tol=1e-9)
        brute = min(
            brute_mahler(f)
            for f in enumerate_space(space)
            if not is_kronecker(f)
        )
        assert abs(rep.minimum.midpoint - brute) < 1e-6
        # every witness truly attains the minimum enclosure
        for w, enc in zip(rep.witnesses, rep.witness_enclosures):
            assert abs(brute_mahler(w) - brute) < 1e-6
            assert enc.lo <= rep.minimum.hi

    def test_house_minimum_agrees_with_brute_force(self):
        from conftest import brute_house

        space = SearchSpace("skew_reciprocal", 4, 1)
        rep = min_house(space, tol=1e-9)
        brute = min(
            brute_house(f)
            for f in enumerate_space(space)
            if not is_kronecker(f)
        )
        assert abs(rep.minimum.midpoint - brute) < 1e-6

    def test_prune_does_not_change_report(self):
        for kind, degree in itertools.product(("reciprocal", "skew_reciprocal"),
                                              (4, 6)):
            space = SearchSpace(kind, degree, 2)
            for search in (min_mahler, min_house):
                with_prune = search(space, tol=1e-10, prune=True)
                without = search(space, tol=1e-10, prune=False)
                assert json.dumps(with_prune.to_json()) == \
                    json.dumps(without.to_json())

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_house_prune_skips_enclosures(self, monkeypatch, kind):
        calls = []

        def counting_house(f, tol=1e-10, max_bits=4096):
            calls.append(f)
            return house(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.house", counting_house)
        space = SearchSpace(kind, 8, 1)
        non_kronecker = sum(1 for f in enumerate_space(space)
                            if not is_kronecker(f))
        enclosed = {}
        for prune in (True, False):
            calls.clear()
            scan_space(space, "house", prune)
            enclosed[prune] = len(calls)
        assert enclosed[False] == non_kronecker
        # 16 (reciprocal) before chunks were capped by Graeffe upper
        # bounds; 6 and 10 before the power-sum tree, which encloses 4 and 8
        assert enclosed[True] <= (6 if kind == "reciprocal" else 10)

    def test_upper_bound_cap_skips_mahler_enclosures(self, monkeypatch):
        calls = []

        def counting_mahler(f, tol=1e-10, max_bits=4096):
            calls.append(f)
            return mahler(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.mahler", counting_mahler)
        scan_space(SearchSpace("skew_reciprocal", 8, 2), "mahler", True)
        # 68 before chunks were capped by Graeffe upper bounds, 26 before
        # the power-sum tree, which encloses 15
        assert len(calls) <= 26

    def test_jobs_do_not_change_report(self):
        for kind, degree in itertools.product(("reciprocal", "skew_reciprocal"),
                                              (4, 6)):
            space = SearchSpace(kind, degree, 2)
            for search in (min_mahler, min_house):
                for prune in (True, False):
                    reports = [
                        json.dumps(search(space, tol=1e-10, jobs=j,
                                          prune=prune).to_json())
                        for j in (1, 2, 5)
                    ]
                    assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("kind, degree, height, quantity", [
        ("skew_reciprocal", 8, 3, "mahler"),
        ("reciprocal", 10, 2, "house"),
    ])
    def test_one_worker_chains_the_pass_a_caps(self, monkeypatch, kind, degree,
                                               height, quantity):
        starts, ends, walked = [], [], []

        def recording_scan(args, shared):
            starts.append(shared.value)
            result = _scan_chunk(args, shared)
            ends.append(shared.value)
            walked.append(result[0])
            return result

        monkeypatch.setattr("skewrec.search._scan_chunk", recording_scan)
        search = min_mahler if quantity == "mahler" else min_house
        space = SearchSpace(kind, degree, height)
        report = search(space)
        # the shared cap starts at inf and each chunk starts where the one
        # before ended; caps only fall
        assert starts[0] == math.inf
        assert starts[1:] == ends[:-1]
        assert all(end <= start for start, end in zip(starts, ends))
        assert ends[0] < starts[0]
        # each chunk from a cap of its own walks more
        unchained = [_scan_chunk(chunk_args(space, first, quantity, True),
                                 _LocalCap())[0]
                     for first in _chunk_firsts(space)]
        assert sum(walked) < sum(unchained)
        monkeypatch.undo()  # a pool pickles _scan_chunk by name
        assert report.to_json() == search(space, jobs=2).to_json()

    def test_pool_is_capped_at_the_chunk_count(self, pool_sizes):
        space = SearchSpace("reciprocal", 4, 2)  # 3 chunks
        assert min_mahler(space, jobs=64).to_json() == \
            min_mahler(space).to_json()
        assert min_house(space, jobs=2).to_json() == min_house(space).to_json()
        assert pool_sizes == [3, 2]

    def test_phase_two_runs_on_the_phase_one_pool(self, monkeypatch):
        mapped = []
        batches = []  # the batch sizes of each phase-2 round

        class RecordingExecutor:
            def __init__(self, max_workers):
                # the chunks run here, on a fresh shared cap
                monkeypatch.setattr(search_module, "_pool_cap", _LocalCap())

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                mapped.append("closed")
                return False

            def map(self, fn, iterable):
                mapped.append(fn.__name__)
                items = list(iterable)
                if fn.__name__ == "_enclose":
                    batches.append([len(members) for _, members, _, _ in items])
                return map(fn, items)

        monkeypatch.setattr("skewrec.search._PoolLease", RecordingExecutor)
        space = SearchSpace("skew_reciprocal", 8, 2)
        report = min_mahler(space, jobs=2)
        rounds = report.precision_escalations + 1
        assert mapped == ["_scan_chunk"] + ["_enclose"] * rounds + ["closed"]
        # each round goes out as one contiguous batch per worker (2 here)
        assert batches and all(len(sizes) <= 2 and sizes[0] == -(-sum(sizes) // 2)
                               for sizes in batches)
        assert report.to_json() == min_mahler(space).to_json()

    def test_pooled_phase_two_matches_serial(self, monkeypatch):
        # 3 escalation rounds over 8 tied witnesses, on 1, 2 and 3 workers
        one_key_per_candidate(monkeypatch)
        space = SearchSpace("skew_reciprocal", 8, 2)
        docs = [json.dumps(min_mahler(space, jobs=j).to_json())
                for j in (1, 2, 3)]
        assert docs[0] == docs[1] == docs[2]
        doc = json.loads(docs[0])
        assert doc["precision_escalations"] == 3
        assert len(doc["witnesses"]) == 8

    @pytest.mark.parametrize("search", [min_mahler, min_house])
    def test_tie_class_stop_changes_only_enclosures(self, monkeypatch, search):
        space = SearchSpace("skew_reciprocal", 8, 2)
        stopped = search(space)
        one_key_per_candidate(monkeypatch)
        full = search(space)
        assert stopped.witnesses == full.witnesses
        assert len(stopped.witnesses) > 1
        assert stopped.precision_escalations == 0
        assert full.precision_escalations == 3
        pairs = zip(stopped.witness_enclosures + (stopped.minimum,),
                    full.witness_enclosures + (full.minimum,))
        for enc, ref in pairs:
            assert enc.lo <= ref.hi and ref.lo <= enc.hi
            assert enc.width <= stopped.tol

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("search", [min_mahler, min_house])
    def test_pooled_phase_two_records_exhaustion_as_serial(self, kind, search):
        space = SearchSpace(kind, 6, 1)
        docs = [search(space, tol=1e-30, jobs=j, max_bits=64).to_json()
                for j in (1, 2)]
        assert json.dumps(docs[0]) == json.dumps(docs[1])
        assert docs[0]["precision_exhausted"] is True

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded) as err:
            min_mahler(SearchSpace("skew_reciprocal", 8, 2), budget=100)
        assert err.value.required == 625 and err.value.budget == 100

    def test_report_json_shape(self):
        doc = min_mahler(SearchSpace("skew_reciprocal", 2, 1)).to_json()
        assert set(doc) == {
            "space",
            "quantity",
            "tol",
            "enumerated",
            "excluded_kronecker",
            "minimum",
            "witnesses",
            "witness_enclosures",
            "precision_escalations",
            "precision_exhausted",
        }


# every kind of operation that opens a memo scope, and measure(), which
# runs outside one
SCOPED_RUNS = {
    "mahler search": lambda: min_mahler(SearchSpace("skew_reciprocal", 6, 1)),
    "house search": lambda: min_house(SearchSpace("reciprocal", 6, 2)),
    "survey": lambda: verify_decomposition_over_space(
        SearchSpace("skew_reciprocal", 8, 1)),
    "table": lambda: sequence_table(2, [1, 1]),
    "measure": lambda: measure(LEHMER),
}


class TestMemoScope:
    """Operations reuse per-input work within themselves, never across."""

    @staticmethod
    def count_aberth(monkeypatch, record):
        module = importlib.import_module("skewrec.roots")
        original = module._aberth

        def counting(coeffs, prec, warm):
            record()
            return original(coeffs, prec, warm)

        monkeypatch.setattr(module, "_aberth", counting)

    def test_nothing_carries_across_searches(self, monkeypatch):
        calls = []
        self.count_aberth(monkeypatch, lambda: calls.append(1))
        space = SearchSpace("skew_reciprocal", 6, 1)
        counts = []
        for _ in range(2):
            before = len(calls)
            min_mahler(space, jobs=1)
            counts.append(len(calls) - before)
        assert counts[0] == counts[1] > 0
        assert _ladders.entries is None

    def test_memo_stays_within_its_cap(self, monkeypatch):
        sizes = []
        self.count_aberth(monkeypatch, lambda: sizes.append(
            len(_ladders.entries)))
        min_mahler(SearchSpace("skew_reciprocal", 8, 2), prune=False)
        # about 600 members are enclosed, so the cap is reached and held
        assert max(sizes) == _ladders.maxsize
        assert _ladders.entries is None

    @pytest.mark.parametrize("name", SCOPED_RUNS)
    def test_repeats_do_the_same_work(self, monkeypatch, name):
        counts = {"graeffe": 0, "aberth": 0}

        def bump(key):
            counts[key] += 1

        self.count_aberth(monkeypatch, lambda: bump("aberth"))
        module = importlib.import_module("skewrec.measure")
        original = module.graeffe
        monkeypatch.setattr(module, "graeffe",
                            lambda f: bump("graeffe") or original(f))
        work = []
        for _ in range(2):
            before = dict(counts)
            SCOPED_RUNS[name]()
            work.append({k: counts[k] - before[k] for k in counts})
            assert _ladders.entries is None and _chains.entries is None
        assert work[0] == work[1] and work[0]["aberth"] > 0
        assert (work[0]["graeffe"] > 0) == (name != "measure")

    def test_survey_walks_one_chain_per_member(self, monkeypatch):
        # decompose_skew_reciprocal repeats the survey's Kronecker test
        module = importlib.import_module("skewrec.measure")
        original_graeffe = module.graeffe
        calls = []
        monkeypatch.setattr(module, "graeffe",
                            lambda f: calls.append(f) or original_graeffe(f))
        structure = importlib.import_module("skewrec.structure")
        original = structure.is_kronecker
        repeated = []

        def recording(f):
            before = len(calls)
            result = original(f)
            repeated.append(len(calls) - before)
            return result

        monkeypatch.setattr(structure, "is_kronecker", recording)
        verify_decomposition_over_space(SearchSpace("skew_reciprocal", 8, 1))
        assert repeated and set(repeated) == {0} and calls

    def test_phase_two_rounds_hit_the_memo(self, monkeypatch):
        module = importlib.import_module("skewrec.search")
        original = module._enclose
        hits = []

        def recording(args):
            before = _ladders.hits
            enc = original(args)
            hits.append(_ladders.hits - before)
            return enc

        monkeypatch.setattr(module, "_enclose", recording)
        one_key_per_candidate(monkeypatch)
        report = min_mahler(SearchSpace("skew_reciprocal", 8, 2), jobs=1)
        assert report.precision_escalations == 3
        assert sum(hits) > 0

    def test_a_worker_task_runs_in_a_memo_scope_of_its_own(self, monkeypatch):
        # the worker entry point, run in this process as a worker runs it:
        # outside any scope, so only the task's own scope keeps anything
        monkeypatch.setattr(search_module, "_pool_cap", _LocalCap())
        space = SearchSpace("skew_reciprocal", 6, 1)
        chunk = (space.kind, space.degree, space.height, 0, "mahler", 1e-6,
                 True, DEFAULT_MAX_BITS)
        assert _chains.entries is None and _ladders.entries is None
        hits = _chains.hits
        _run_task(_scan_chunk, chunk)
        assert _chains.hits > hits  # each partner's chain is a memo hit
        assert _chains.entries is None and _ladders.entries is None

    def test_a_phase_two_batch_shares_one_memo_scope(self):
        # both candidates have the squarefree part t^2 - 3t + 1, whose
        # ladder the second one reads back within the batch's task
        part = IntPoly([1, -3, 1])
        batch = ("mahler", [part * IntPoly([-1, 1]), part * IntPoly([1, 1])],
                 1e-10, DEFAULT_MAX_BITS)
        hits = _ladders.hits
        first, second = _run_task(_enclose, batch)
        assert _ladders.hits > hits
        assert _chains.entries is None and _ladders.entries is None
        assert first == second == mahler(part, 1e-10)

    def test_pooled_searches_match_fresh_processes(self):
        runs = [("reciprocal", 8, 2, "mahler"), ("skew_reciprocal", 8, 2, "house")]
        pooled = []
        for kind, degree, height, quantity in runs:  # back to back, one pool
            search = min_mahler if quantity == "mahler" else min_house
            report = search(SearchSpace(kind, degree, height), jobs=2)
            pooled.append(json.dumps(report.to_json()))
        for doc, run in zip(pooled, runs):
            proc = run_in_checkout([sys.executable, "-c", FRESH_SEARCH,
                                    *map(str, run)])
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == doc


# one pooled search in a fresh interpreter: kind, degree, height, quantity
FRESH_SEARCH = (
    "import json, sys; "
    "from skewrec.search import SearchSpace, min_house, min_mahler; "
    "kind, degree, height, quantity = sys.argv[1:]; "
    "search = min_mahler if quantity == 'mahler' else min_house; "
    "space = SearchSpace(kind, int(degree), int(height)); "
    "print(json.dumps(search(space, jobs=2).to_json()))"
)

# a --jobs 2 search over a space of 1953125 members in a fresh interpreter,
# then its exit code and the peak RSS, in KiB, of the interpreter and of
# its pool workers.  The interpreter's is VmHWM, which exec resets; Linux
# keeps ru_maxrss across exec, so RUSAGE_SELF would report the test
# process that forked it.  The workers are joined first, so that
# RUSAGE_CHILDREN counts them.
RSS_PROBE = (
    "import re, resource; from pathlib import Path; "
    "from skewrec.cli import main; import skewrec.search as search; "
    "code = main(['search', '--kind', 'reciprocal', '--degree', '18', "
    "'--height', '2', '--jobs', '2']); "
    "search._idle_pool.shutdown(); "
    "status = Path('/proc/self/status').read_text(); "
    "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), "
    "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)

# a --jobs 2 search in a fresh interpreter, then its exit code and the
# pids of the pool workers still alive after it
EXIT_PROBE = (
    "import multiprocessing; from skewrec.cli import main; "
    "code = main(['search', '--kind', 'skew_reciprocal', '--degree', '8', "
    "'--height', '1', '--jobs', '2']); "
    "print(code, [p.pid for p in multiprocessing.active_children()])"
)


def memo_probe(folder: str) -> tuple[int, tuple]:
    """A pool task: (its worker's pid, the entries of its two memos).

    It waits, up to 30 s, until a second worker has run one too.
    """
    pid = os.getpid()
    Path(folder, str(pid)).touch()
    deadline = time.monotonic() + 30
    while len(os.listdir(folder)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return pid, (_chains.entries, _ladders.entries)


def worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def pool_events(monkeypatch):
    """Start with no pool kept; the list gets ("fork" | "shutdown", workers)."""
    search_module._idle_pool.shutdown()
    events = []

    class CountingExecutor(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            events.append(("fork", max_workers))
            self.workers = max_workers
            super().__init__(max_workers=max_workers, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            events.append(("shutdown", self.workers))
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingExecutor)
    yield events
    search_module._idle_pool.shutdown()


class TestSharedPool:
    """One worker pool serves every search of a process."""

    def test_one_pool_serves_a_table(self, monkeypatch, pool_events):
        leases = []
        original = search_module._PoolLease
        monkeypatch.setattr(search_module, "_PoolLease",
                            lambda workers: leases.append(workers)
                            or original(workers))
        table = sequence_table(2, [1, 1], jobs=2)
        assert leases == [2] * 8  # two rows of four searches
        assert pool_events == [("fork", 2)]
        assert table.to_json() == sequence_table(2, [1, 1]).to_json()

    def test_kept_workers_hold_no_memos(self, pool_events, tmp_path):
        min_mahler(SearchSpace("skew_reciprocal", 8, 2), jobs=2)
        executor = search_module._idle_pool._pool.executor
        # each probe waits for the other, so each worker runs one
        probes = executor.map(memo_probe, [str(tmp_path)] * 2)
        states = dict(probes)
        assert len(states) == 2
        assert list(states.values()) == [(None, None)] * 2

    def test_another_worker_count_replaces_the_pool(self, pool_events):
        space = SearchSpace("reciprocal", 4, 2)  # 3 chunks
        first = min_mahler(space, jobs=2).to_json()
        old = worker_pids()
        assert len(old) == 2
        assert min_mahler(space, jobs=3).to_json() == first
        # the old pool is shut down, its workers joined, before the fork
        assert pool_events == [("fork", 2), ("shutdown", 2), ("fork", 3)]
        assert not old & worker_pids()

    def test_killed_workers_are_replaced(self, pool_events):
        space = SearchSpace("skew_reciprocal", 8, 2)
        fresh = min_mahler(space, jobs=2).to_json()
        killed = multiprocessing.active_children()
        assert len(killed) == 2
        for process in killed:
            os.kill(process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while any(p.is_alive() for p in killed):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert min_mahler(space, jobs=2).to_json() == fresh
        assert pool_events == [("fork", 2), ("shutdown", 2), ("fork", 2)]
        assert not {p.pid for p in killed} & worker_pids()

    def test_each_search_starts_from_its_own_cap(self, pool_events):
        min_mahler(SearchSpace("reciprocal", 8, 2), jobs=2)
        # a cap below every non-Kronecker member's value, left in the kept
        # pool as if by another search, would cut every such member
        search_module._idle_pool._pool.shared.value = 1.0
        space = SearchSpace("skew_reciprocal", 8, 2)
        assert min_house(space, jobs=2).to_json() == min_house(space).to_json()
        assert pool_events == [("fork", 2)]

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("search, upper_bound", [
        (min_mahler, mahler_upper_bound), (min_house, house_upper_bound)])
    def test_the_shared_cap_keeps_the_least_cap(self, pool_events, kind,
                                                search, upper_bound):
        # four chunks on four workers, more than two cores: every witness
        # was kept by its chunk, which then held a cap of at most
        # ub + 2*tol0 (tol0 = 1e-6) and lowered the shared cap to it, so
        # a lost update could leave the shared cap above that; and by
        # _scan_chunk's proof no cap is below the minimum
        space = SearchSpace(kind, 10, 3)
        report = search(space, jobs=4)
        assert report.to_json() == search(space).to_json()
        shared = search_module._idle_pool._pool.shared.value
        assert report.minimum.lo <= shared
        assert shared <= min(upper_bound(w) + 2e-6 for w in report.witnesses)

    def test_searches_side_by_side_in_threads(self, monkeypatch, pool_events):
        # the house search ends at a cap below the skew Mahler minimum,
        # about 1.17 against 1.40, while the Mahler search is still running
        runs = [(min_mahler, SearchSpace("skew_reciprocal", 14, 2), 2),
                (min_house, SearchSpace("skew_reciprocal", 8, 2), 2),
                (min_mahler, SearchSpace("reciprocal", 10, 2), 1)]
        alone = [search(space, jobs=jobs).to_json()
                 for search, space, jobs in runs]
        # both pooled searches hold a pool before either maps anything
        both_held = threading.Barrier(2, timeout=60)
        take = search_module._idle_pool.take

        def take_and_wait(workers):
            pool = take(workers)
            both_held.wait()
            return pool

        monkeypatch.setattr(search_module._idle_pool, "take", take_and_wait)
        start = threading.Barrier(len(runs), timeout=60)

        def run(search, space, jobs):
            start.wait()
            return search(space, jobs=jobs).to_json()

        with concurrent.futures.ThreadPoolExecutor(len(runs)) as threads:
            side_by_side = list(threads.map(lambda r: run(*r), runs))
        assert side_by_side == alone
        # the second pooled search forks a pool of its own, and only one
        # pool is kept when both are given back
        assert pool_events == [("fork", 2), ("fork", 2), ("shutdown", 2)]

    def test_an_interpreter_exits_clean_and_joins_its_workers(self):
        proc = run_in_checkout([sys.executable, "-c", EXIT_PROBE])
        assert proc.returncode == 0
        assert proc.stderr == ""
        code, pids = proc.stdout.splitlines()[-1].split(" ", 1)
        pids = json.loads(pids)
        assert code == "0" and len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_peak_memory_follows_the_survivors():
    # aim 3: memory stays bounded up to the default budget; holding every
    # member of the space at once would take over 100 MiB
    proc = run_in_checkout([sys.executable, "-c", RSS_PROBE])
    assert proc.returncode == 0, proc.stderr
    code, parent_kib, workers_kib = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    # about 21 MiB each on CPython 3.11 with pure-Python mpmath
    assert int(parent_kib) < 48 * 1024
    assert int(workers_kib) < 48 * 1024


@st.composite
def tie_class_polys(draw):
    """Monic t**k * Phi_n**e * a * b**2 with a, b monic of constant +-1."""
    def factor():
        middle = draw(st.lists(st.integers(-2, 2), max_size=3))
        return IntPoly([draw(st.sampled_from((-1, 1)))] + middle + [1])

    a, b = factor(), factor()
    phi = cyclotomic(draw(st.integers(1, 12))) ** draw(st.integers(0, 2))
    return (a * b * b * phi).shift(draw(st.integers(0, 2)))


def sign_normalised(f: IntPoly) -> IntPoly:
    return f if f.leading > 0 else -f


def substitute_power(f: IntPoly, k: int) -> IntPoly:
    """f(t**k)."""
    coeffs = [0] * (k * f.degree + 1)
    coeffs[::k] = f.coeffs
    return IntPoly(coeffs)


def reversed_part(f: IntPoly) -> IntPoly:
    """The reversal of f with its factor t**k dropped."""
    k = next(i for i, c in enumerate(f.coeffs) if c)
    return IntPoly(tuple(reversed(f.coeffs[k:])))


def exact_mahler_bounds(f: IntPoly, width: float) -> tuple[Fraction, Fraction]:
    """Rational bounds on M(f) at most width apart, read from certified disks.

    Float enclosures cannot be narrower than an ulp, so this reads the
    exact bounds the enclosure is rounded from.
    """
    u, _, _ = kronecker_free_part(f)
    parts = squarefree_decomposition(u)
    root_tol = _mahler_root_tol(f, width)
    while True:
        disk_data, _ = _disk_data(parts, root_tol, DEFAULT_MAX_BITS)
        lo, hi = _mahler_bounds(disk_data)
        if hi - lo <= Fraction(width):
            return lo, hi
        root_tol /= 16


class TestTieKey:
    """Phase 2 stops once every candidate has one key: equal keys, equal values."""

    @given(tie_class_polys())
    def test_value_preserving_maps_keep_the_key(self, f):
        key = _tie_key("mahler", f)
        assert _tie_key("mahler", sign_normalised(negate_variable(f))) == key
        assert _tie_key("mahler", sign_normalised(reversed_part(f))) == key
        assert _tie_key("mahler", substitute_power(f, 2)) == key
        assert _tie_key("mahler", substitute_power(f, 3)) == key
        assert _tie_key("house", sign_normalised(negate_variable(f))) == \
            _tie_key("house", f)

    def test_skew_degree_ten_witnesses_are_one_class(self):
        report = min_mahler(SearchSpace("skew_reciprocal", 10, 2))
        assert len(report.witnesses) == 34
        assert len({_tie_key("mahler", w) for w in report.witnesses}) == 1
        bounds = [exact_mahler_bounds(w, 1e-20) for w in report.witnesses]
        # intervals intersect pairwise exactly when the largest lo is at
        # most the smallest hi
        assert max(lo for lo, _ in bounds) <= min(hi for _, hi in bounds)

    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_lehmer_and_golden_ratio_differ(self, quantity):
        assert _tie_key(quantity, LEHMER) != _tie_key(quantity, GOLDEN)

    def test_house_key_does_not_deflate(self):
        # the house form deflates, but keeps the exponent gcd with it
        squared = substitute_power(GOLDEN, 2)  # house sqrt(phi), not phi
        assert house(squared).hi < house(GOLDEN).lo
        assert _tie_key("house", squared) != _tie_key("house", GOLDEN)
        assert _tie_key("mahler", squared) == _tie_key("mahler", GOLDEN)

    def test_house_key_sees_t_to_i_t(self):
        # F(t**2) and F(-t**2), F = s^8 - s^5 + s^4 - s^3 + 1: their roots
        # differ by a factor i, so their houses are equal; both are
        # witnesses of the reciprocal degree-16 height-2 house search
        def poly(terms):
            coeffs = [0] * 17
            for k, c in terms.items():
                coeffs[k] = c
            return IntPoly(coeffs)

        first = poly({16: 1, 10: -1, 8: 1, 6: -1, 0: 1})
        second = poly({16: 1, 10: 1, 8: 1, 6: 1, 0: 1})
        assert second == substitute_power(negate_variable(
            IntPoly(first.coeffs[::2])), 2)
        assert _tie_key("house", first) == _tie_key("house", second)
        encs = [house(first, 1e-12), house(second, 1e-12)]
        assert max(e.lo for e in encs) <= min(e.hi for e in encs)

    def test_house_key_does_not_reverse(self):
        plastic = IntPoly([-1, -1, 0, 1])  # t^3 - t - 1, house about 1.325
        inverse = IntPoly([-1, 0, 1, 1])  # its sign-normalised reverse
        assert house(inverse).hi < house(plastic).lo
        assert _tie_key("house", inverse) != _tie_key("house", plastic)
        assert _tie_key("mahler", inverse) == _tie_key("mahler", plastic)

    def test_multiplicities_are_kept(self):
        square = GOLDEN * GOLDEN  # measure phi**2, not phi
        assert mahler(GOLDEN).hi < mahler(square).lo
        assert _tie_key("mahler", square) != _tie_key("mahler", GOLDEN)

    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_members_with_one_key_have_one_value(self, quantity):
        measure_fn = mahler if quantity == "mahler" else house
        classes = {}
        for f in enumerate_space(SearchSpace("skew_reciprocal", 6, 2)):
            if not is_kronecker(f):
                classes.setdefault(_tie_key(quantity, f), []).append(
                    measure_fn(f, 1e-12))
        assert len(classes) > 1
        for encs in classes.values():
            assert max(e.lo for e in encs) <= min(e.hi for e in encs)


class TestScanChunk:
    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_returns_counts_and_only_possible_minimisers(self, kind, quantity):
        tol0 = 1e-6
        measure_fn = mahler if quantity == "mahler" else house
        for height in (1, 2):
            space = SearchSpace(kind, 8, height)
            # every non-Kronecker member, enclosed as phase 1 encloses it
            full = {}
            for f in enumerate_space(space):
                if not is_kronecker(f):
                    gb = (mahler_lower_bound(f) if quantity == "mahler"
                          else house_lower_bound(f))
                    free = space.free_vector(f)
                    full[free] = (free, measure_fn(f, tol0), gb)
            m = min(enc.hi for _, enc, _ in full.values())
            for prune in (True, False):
                chained = scan_space(space, quantity, prune, tol0)
                for first, (scanned, cut, kron, survivors) in zip(
                        _chunk_firsts(space), chained):
                    # the chunk: the members with c_7 = +-first
                    members = [free for free in space.free_vectors()
                               if abs(free[-1]) == -first]
                    chunk = [full[free] for free in members if free in full]
                    best_hi = min(enc.hi for _, enc, _ in chunk)
                    assert scanned + cut == len(members)
                    assert prune or cut == 0
                    assert kron == len(members) - len(chunk)
                    assert all(_lower(c) <= best_hi for c in survivors)
                    assert len(survivors) < len(chunk)
                    # from a cap of its own, the survivors are exactly the
                    # chunk's own possible minimisers
                    args = chunk_args(space, first, quantity, prune, tol0)
                    scanned, cut, kron, survivors = _scan_chunk(args,
                                                                _LocalCap())
                    assert scanned + cut == len(members)
                    assert kron == len(members) - len(chunk)
                    assert [c[0] for c in survivors] == \
                        [c[0] for c in chunk if _lower(c) <= best_hi]
                assert (sum(cut for _, cut, *_ in chained) > 0) == prune
                # chained, the candidates phase 2 keeps are the space's
                candidates = sorted((c for _, _, _, survivors in chained
                                     for c in survivors), key=lambda c: c[0])
                assert [c[0] for c in candidates if _lower(c) <= m] == \
                    [free for free in sorted(full) if _lower(full[free]) <= m]

    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_only_a_pruning_scan_defers_enclosures(self, monkeypatch, quantity):
        events = []
        measure_fn = mahler if quantity == "mahler" else house

        def recording_kronecker(f):
            events.append(("scan", f))
            return is_kronecker(f)

        def recording_measure(f, tol=1e-10, max_bits=4096):
            events.append(("enclose", f))
            return measure_fn(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.is_kronecker", recording_kronecker)
        monkeypatch.setattr(f"skewrec.search.{quantity}", recording_measure)
        space = SearchSpace("skew_reciprocal", 8, 2)
        scanned, cut, *_ = _scan_chunk(chunk_args(space, 0, quantity, False),
                                       _LocalCap())
        assert (scanned, cut) == (125, 0)
        # without pruning, each member is enclosed as soon as it is scanned
        for i, (kind, f) in enumerate(events):
            if kind == "enclose":
                assert events[i - 1] == ("scan", f)
        events.clear()
        scanned, cut, *_ = _scan_chunk(chunk_args(space, 0, quantity, True),
                                       _LocalCap())
        kinds = [kind for kind, _ in events]
        first_enclosure = kinds.index("enclose")
        assert kinds[first_enclosure:] == ["enclose"] * (len(kinds) - first_enclosure)
        # every member walked is scanned before the first enclosure; the
        # chunk c_7 = 0 holds 125 members
        assert first_enclosure == scanned
        assert scanned + cut == 125 and cut > 0


@functools.lru_cache(maxsize=None)
def oracle_values(kind, degree, height, quantity):
    """free -> (the conftest oracle's value, is Kronecker), over the space."""
    space = SearchSpace(kind, degree, height)
    oracle = brute_mahler if quantity == "mahler" else brute_house
    return {space.free_vector(f): (oracle(f), is_kronecker(f))
            for f in enumerate_space(space)}


class TestPowerSumTree:
    @settings(max_examples=200)
    @given(kind=st.sampled_from(["reciprocal", "skew_reciprocal"]),
           degree=st.sampled_from([2, 4, 6, 8]),
           height=st.integers(0, 2),
           quantity=st.sampled_from(["mahler", "house"]),
           cap=st.floats(1.0, 3.0))
    # t^2 - 3t + 1, of Mahler measure and house 2.618..., meets both
    # bounds at k = 1: s_1 = 3 = B + 1/B
    @example(kind="reciprocal", degree=2, height=3, quantity="mahler",
             cap=2.62)
    @example(kind="reciprocal", degree=2, height=3, quantity="house",
             cap=2.62)
    def test_cuts_only_members_above_the_cap(self, kind, degree, height,
                                             quantity, cap):
        space = SearchSpace(kind, degree, height)
        values = oracle_values(kind, degree, height, quantity)
        walked = []
        cut = 0
        for first in _chunk_firsts(space):
            tree = _PowerSumTree(space, quantity, first)
            tree.set_cap(cap)
            walked += tree.members()
            cut += tree.cut
        assert len(set(walked)) == len(walked)
        assert len(walked) + cut == space.size
        assert {free for free, (value, _) in values.items()
                if value <= cap} <= set(walked)
        # the Kronecker count of the walk is that of a full enumeration
        assert sum(values[free][1] for free in walked) == \
            sum(kron for _, kron in values.values())


class TestSequenceTable:
    def test_degree_two_row_closed_forms(self):
        table = sequence_table(1, [3], tol=1e-12)
        (row,) = table.rows
        assert row.degree == 2 and row.height == 3
        assert row.mahler_reciprocal.contains(PHI * PHI)
        assert row.house_skew.contains(PHI)
        # r_1 = 2 log(phi^2) = 4 log(phi)
        assert row.r.contains(4 * math.log(PHI))
        assert row.s.contains(2 * math.log(PHI))
        assert row.q.contains(2.0)
        assert row.breusch_check is None  # no previous row

    def test_two_rows_and_breusch_flag(self):
        table = sequence_table(2, [3, 1], tol=1e-10)
        row2 = table.rows[1]
        assert row2.degree == 4
        # s_2 must clear min(r_1, log(1179/1000)) = log(1179/1000)
        assert row2.breusch_check is True

    def test_csv_shape(self):
        table = sequence_table(1, [3])
        lines = table.to_csv().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("i,degree,height,")
        assert lines[1].startswith("1,2,3,")

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            sequence_table(3, [1, 1, 30], budget=1000)

    def test_validation(self):
        with pytest.raises(PolynomialError):
            sequence_table(0, [])
        with pytest.raises(PolynomialError):
            sequence_table(2, [1])

    @pytest.mark.parametrize("heights, budget", [
        ([1, -1000], 1000),  # the old size formula read 3996001 > budget
        ([3, 2, -1], 5_000_000),  # rows 1 and 2 used to run first
    ])
    def test_bad_height_rejected_before_any_search(self, monkeypatch,
                                                   heights, budget):
        def no_work(*args, **kwargs):
            raise AssertionError("a search ran before the rows were checked")

        monkeypatch.setattr("skewrec.search.min_mahler", no_work)
        monkeypatch.setattr("skewrec.search.min_house", no_work)
        with pytest.raises(PolynomialError, match="height"):
            sequence_table(len(heights), heights, budget=budget)


class TestDecompositionSurvey:
    def test_quartic_height_two(self):
        survey = verify_decomposition_over_space(
            SearchSpace("skew_reciprocal", 4, 2), tol=1e-8
        )
        assert survey.enumerated == 25
        assert survey.excluded_kronecker + survey.square_substitution_count + \
            survey.witness_count == 25
        assert survey.all_witnesses_above_bound
        assert survey.witnesses_below_bound == 0

    def test_witness_measures_beat_breusch(self):
        survey = verify_decomposition_over_space(
            SearchSpace("skew_reciprocal", 4, 2), tol=1e-8
        )
        if survey.min_witness_mahler is not None:
            assert survey.min_witness_mahler.lo > 1.179 - 1e-9

    def test_rejects_reciprocal_space(self):
        with pytest.raises(PolynomialError):
            verify_decomposition_over_space(SearchSpace("reciprocal", 4, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            verify_decomposition_over_space(
                SearchSpace("skew_reciprocal", 8, 3), budget=10
            )

    @pytest.mark.parametrize("height", [1, 2])
    def test_skipped_enclosures_change_nothing(self, monkeypatch, height):
        space = SearchSpace("skew_reciprocal", 8, height)
        tol = 1e-8
        # reference: the audit with a Mahler enclosure of every witness
        slack = Fraction(1179, 1000) - Fraction(1, 10**9)
        kron = squares = witnesses = below = 0
        least = None
        for f in enumerate_space(space):
            if is_kronecker(f):
                kron += 1
            elif isinstance(decompose_skew_reciprocal(f),
                            NonreciprocalWitness):
                witnesses += 1
                enc = mahler(f, tol)
                below += Fraction(enc.lo) <= slack
                if least is None or enc.hi < least.hi:
                    least = enc
            else:
                squares += 1

        calls = []

        def counting_mahler(f, tol=1e-10, max_bits=4096):
            calls.append(f)
            return mahler(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.mahler", counting_mahler)
        survey = verify_decomposition_over_space(space, tol=tol)
        assert (survey.enumerated, survey.excluded_kronecker,
                survey.square_substitution_count, survey.witness_count,
                survey.witnesses_below_bound) == \
            (space.size, kron, squares, witnesses, below)
        assert survey.min_witness_mahler == least
        assert 0 < len(calls) < witnesses // 2

    def test_json_shape(self):
        doc = verify_decomposition_over_space(
            SearchSpace("skew_reciprocal", 4, 1), tol=1e-6
        ).to_json()
        assert doc["enumerated"] == 9
        assert doc["all_witnesses_above_bound"] is True
