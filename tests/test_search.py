"""Height-bounded spaces, deterministic searches, tables, and the survey."""

import concurrent.futures
import functools
import importlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
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
from skewrec.enclosure import Enclosure
from skewrec.errors import (
    BudgetExceeded,
    DecompositionFalsified,
    PolynomialError,
    PrecisionExhausted,
)
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
from skewrec.roots import DEFAULT_MAX_BITS, _ladders, memo_scope
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


def chunk_args(space, first, quantity, tol0=1e-6, tol=1e-10, max_bits=4096):
    """_scan_chunk's arguments for the chunk c_(2d-1) = first, one quantity."""
    return (space.kind, space.degree, space.height, first, (quantity,), tol0,
            tol, max_bits)


def scan_space(space, quantity, tol0=1e-6, tol=1e-10):
    """Phase 1 of a one-quantity search over every chunk, as --jobs 1 runs it.

    The chunks run in turn and share one cap, which starts at inf; each
    chunk's survivors are checked against the cap it ended at.  Each
    result is (scanned, cut, kronecker, the quantity's survivors).
    """
    shared = _LocalCap()
    results = []
    for first in _chunk_firsts(space):
        scanned, cut, kron, (survivors,) = _scan_chunk(
            chunk_args(space, first, quantity, tol0, tol), shared)
        assert all(_lower(c) <= shared[0] for c in survivors)
        results.append((scanned, cut, kron, survivors))
    return results


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

    def test_member_matches_the_mirrored_construction(self):
        # member builds its IntPoly unchecked: compare with the class
        # identities applied one coefficient at a time
        for kind in ("reciprocal", "skew_reciprocal"):
            for degree, height in itertools.product((2, 4, 6, 8, 10), (0, 1, 2)):
                space = SearchSpace(kind, degree, height)
                d = degree // 2
                for free in space.free_vectors():
                    coeffs = [0] * d + list(free) + [1]
                    for k in range(d):
                        sign = 1 if kind == "reciprocal" else (-1) ** (d + k)
                        coeffs[k] = sign * coeffs[degree - k]
                    f = space.member(free)
                    assert f == IntPoly(coeffs) and type(f.coeffs) is tuple
                    assert space.free_vector(f) == free

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
            kind, degree, height, first, quantities = args[:5]
            # as a chunk that encloses a member would, lower the shared cap
            shared[0] = min(shared[0], 1.3)
            tree = _PowerSumTree(SearchSpace(kind, degree, height), quantities,
                                 first)
            tree.set_caps(shared[:1])
            chunk = [free for free, _ in tree.members()]
            chunks.append((args, chunk, tree.cut))
            return len(chunk), tree.cut, 0, [[]]

        def check_walk(space, chunks):
            """One chunk per c_(2d-1), walked and cut members partition the space."""
            # one chunk per c_(2d-1) = 0, -1, ..., -H
            assert [args[3] for args, _, _ in chunks] == \
                list(range(0, -space.height - 1, -1))
            walked = [free for _, chunk, _ in chunks for free in chunk]
            assert len(set(walked)) == len(walked)
            assert len(walked) + sum(cut for *_, cut in chunks) == space.size
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
            return walked

        monkeypatch.setattr("skewrec.search._scan_chunk", recording_scan)
        for kind in ("reciprocal", "skew_reciprocal"):
            for degree, height in itertools.product((2, 4, 6, 8, 10), range(4)):
                space = SearchSpace(kind, degree, height)
                chunks.clear()
                assert min_mahler(space).minimum is None
                check_walk(space, chunks)
                # at an inf cap the trees cut nothing and walk every member
                chunks.clear()
                for first in _chunk_firsts(space):
                    tree = _PowerSumTree(space, ("mahler",), first)
                    tree.set_caps([math.inf])
                    chunks.append(((None, None, None, first),
                                   [free for free, _ in tree.members()],
                                   tree.cut))
                walked = check_walk(space, chunks)
                assert sorted(walked) == list(space.free_vectors())

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
        # the reference: phase 2 over every non-Kronecker member, each with
        # fresh enclosures at tol0 and tol and its full Graeffe lower bound
        for kind, degree in itertools.product(("reciprocal", "skew_reciprocal"),
                                              (4, 6)):
            space = SearchSpace(kind, degree, 2)
            for search, quantity, measure_fn, lower_bound in (
                    (min_mahler, "mahler", mahler, mahler_lower_bound),
                    (min_house, "house", house, house_lower_bound)):
                members = list(enumerate_space(space))
                unpruned = [(space.free_vector(f), measure_fn(f, 1e-6),
                             lower_bound(f), measure_fn(f, 1e-10),
                             _tie_key(quantity, f))
                            for f in members if not is_kronecker(f)]
                kron = len(members) - len(unpruned)
                reference = search_module._phase_two(
                    space, quantity, 1e-10, DEFAULT_MAX_BITS, kron, unpruned)
                assert json.dumps(search(space, tol=1e-10).to_json()) == \
                    json.dumps(reference.to_json())

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_house_prune_skips_enclosures(self, monkeypatch, kind):
        calls = []  # the tol0 enclosures; the survivors' first round follows

        def counting_house(f, tol=1e-10, max_bits=4096):
            if tol == 1e-6:
                calls.append(f)
            return house(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.house", counting_house)
        scan_space(SearchSpace(kind, 8, 1), "house")
        # 16 (reciprocal) before chunks were capped by Graeffe upper
        # bounds; 6 and 10 before the power-sum tree, which encloses 4 and 8
        assert len(calls) <= (6 if kind == "reciprocal" else 10)

    def test_upper_bound_cap_skips_mahler_enclosures(self, monkeypatch):
        calls = []  # the tol0 enclosures; the survivors' first round follows

        def counting_mahler(f, tol=1e-10, max_bits=4096):
            if tol == 1e-6:
                calls.append(f)
            return mahler(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.mahler", counting_mahler)
        scan_space(SearchSpace("skew_reciprocal", 8, 2), "mahler")
        # 68 before chunks were capped by Graeffe upper bounds, 26 before
        # the power-sum tree, which encloses 15
        assert len(calls) <= 26

    def test_jobs_do_not_change_report(self):
        for kind, degree in itertools.product(("reciprocal", "skew_reciprocal"),
                                              (4, 6)):
            space = SearchSpace(kind, degree, 2)
            for search in (min_mahler, min_house):
                reports = [json.dumps(search(space, tol=1e-10, jobs=j).to_json())
                           for j in (1, 2, 5)]
                assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("kind, degree, height, quantity", [
        ("skew_reciprocal", 8, 3, "mahler"),
        ("reciprocal", 10, 2, "house"),
    ])
    def test_one_worker_chains_the_pass_a_caps(self, monkeypatch, kind, degree,
                                               height, quantity):
        starts, ends, walked = [], [], []

        def recording_scan(args, shared):
            starts.append(shared[0])
            result = _scan_chunk(args, shared)
            ends.append(shared[0])
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
        unchained = [_scan_chunk(chunk_args(space, first, quantity),
                                 _LocalCap())[0]
                     for first in _chunk_firsts(space)]
        assert sum(walked) < sum(unchained)
        monkeypatch.undo()  # a pool pickles _scan_chunk by name
        assert report.to_json() == search(space, jobs=2).to_json()

    def test_pool_is_capped_at_the_chunk_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        space = SearchSpace("reciprocal", 4, 2)  # 3 chunks
        assert min_mahler(space, jobs=64).to_json() == \
            min_mahler(space).to_json()
        assert min_house(space, jobs=2).to_json() == min_house(space).to_json()
        assert pool_sizes == [3, 2]

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, pool_sizes):
        # a pool starts all its workers at once: never more than the CPUs,
        # read at each search; no worker process starts here
        space = SearchSpace("reciprocal", 4, 9)  # 10 chunks
        serial = min_mahler(space).to_json()
        for cpus, pools in ((4, [4]), (2, [4, 2]), (1, [4, 2]), (None, [4, 2])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert min_mahler(space, jobs=1000).to_json() == serial
            assert pool_sizes == pools

    @staticmethod
    def pooled_phase_two(monkeypatch, pool_sizes, escalations):
        """A --jobs 2 search with `escalations` escalation rounds, recorded.

        Checks that the pool maps the phase-1 chunks only and is handed
        back before phase 2, whose rounds then run in this process, and
        that the report is the serial one.
        """
        serial = min_mahler(SearchSpace("skew_reciprocal", 8, 2))
        mapped = []
        runner = search_module._Runner
        run_map, run_exit = runner.map, runner.__exit__

        def recording_map(run, fn, items):
            mapped.append(fn.__name__)
            return run_map(run, fn, items)

        def recording_exit(run, *exc):
            mapped.append("closed")
            return run_exit(run, *exc)

        monkeypatch.setattr(runner, "map", recording_map)
        monkeypatch.setattr(runner, "__exit__", recording_exit)
        space = SearchSpace("skew_reciprocal", 8, 2)
        report = min_mahler(space, jobs=2)
        assert report.precision_escalations == escalations
        assert mapped == ["_scan_chunk", "closed"]
        assert pool_sizes == [2]  # one pooled search, on one pool
        assert report.to_json() == serial.to_json()

    def test_phase_two_runs_after_the_pool_is_handed_back(self, monkeypatch,
                                                          pool_sizes):
        # the candidates are one tie class: the first round is the last
        self.pooled_phase_two(monkeypatch, pool_sizes, 0)

    def test_escalation_rounds_run_after_the_pool_is_handed_back(
            self, monkeypatch, pool_sizes):
        one_key_per_candidate(monkeypatch)
        self.pooled_phase_two(monkeypatch, pool_sizes, 3)

    def test_pooled_phase_two_matches_serial(self, monkeypatch, pool_events):
        # 3 escalation rounds over 8 tied witnesses, on 1, 2 and 3 workers;
        # the chunks compute the keys, so the pools fork after the patch
        # (pool_events drops any pool kept before it and after the test)
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

        def counting(coeffs, prec, warm, *sweeps):
            record()
            return original(coeffs, prec, warm, *sweeps)

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
        members = [f for f in enumerate_space(SearchSpace("skew_reciprocal", 8, 2))
                   if not is_kronecker(f)]
        assert len(members) > _ladders.maxsize
        with memo_scope():
            for f in members:
                mahler(f, 1e-6)
        # more members than the cap are enclosed, so it is reached and held
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_phase_two_rounds_hit_the_memo(self, monkeypatch, pool_events,
                                           jobs):
        # the escalation rounds run in this process, in the search's memo
        # scope, for any worker count; with two, the first round's calls
        # run in the pool's workers, which fork after the patches
        module = importlib.import_module("skewrec.search")
        original = module._enclose
        hits = []

        def recording(*args):
            before = _ladders.hits
            encs = original(*args)
            hits.append(_ladders.hits - before)
            return encs

        monkeypatch.setattr(module, "_enclose", recording)
        one_key_per_candidate(monkeypatch)
        report = min_mahler(SearchSpace("skew_reciprocal", 8, 2), jobs=jobs)
        assert report.precision_escalations == 3
        assert sum(hits) > 0

    def test_a_worker_task_runs_in_a_memo_scope_of_its_own(self, monkeypatch):
        # the worker entry point, run in this process as a worker runs it:
        # outside any scope, so only the task's own scope keeps anything
        monkeypatch.setattr(search_module, "_pool_cap", _LocalCap())
        space = SearchSpace("skew_reciprocal", 6, 1)
        chunk = chunk_args(space, 0, "mahler", max_bits=DEFAULT_MAX_BITS)
        assert _chains.entries is None and _ladders.entries is None
        hits = _chains.hits
        _run_task(_scan_chunk, chunk)
        assert _chains.hits > hits  # each partner's chain is a memo hit
        assert _chains.entries is None and _ladders.entries is None

    @pytest.mark.parametrize("search", [min_mahler, min_house])
    @pytest.mark.parametrize("escalate", [False, True])
    def test_a_search_factors_each_member_once(self, monkeypatch, search,
                                               escalate):
        # the tol0 enclosure, the first round, every escalation round and
        # the tie key of a member read one factorisation
        module = importlib.import_module("skewrec.measure")
        original = module.kronecker_free_part
        calls = []
        monkeypatch.setattr(module, "kronecker_free_part",
                            lambda f: calls.append(f.coeffs) or original(f))
        if escalate:
            one_key_per_candidate(monkeypatch)
        report = search(SearchSpace("skew_reciprocal", 8, 2), jobs=1)
        assert report.precision_escalations == (3 if escalate else 0)
        assert len(report.witnesses) > 1
        assert {w.coeffs for w in report.witnesses} <= set(calls)
        assert len(calls) == len(set(calls))

    def test_a_phase_two_batch_shares_one_memo_scope(self):
        # both candidates have the squarefree part t^2 - 3t + 1, whose
        # ladder the second one reads back within the round's memo scope
        part = IntPoly([1, -3, 1])
        members = [part * IntPoly([-1, 1]), part * IntPoly([1, 1])]
        hits = _ladders.hits
        with memo_scope():
            first, second = _enclose("mahler", members, 1e-10, DEFAULT_MAX_BITS)
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
    "search._kept[0].shutdown(); "
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


def drop_kept_pool() -> None:
    """Shut the search pool kept between searches down, if there is one."""
    kept, search_module._kept = search_module._kept, None
    if kept is not None:
        executor, _, _ = kept
        executor.shutdown()


@pytest.fixture
def pool_events(monkeypatch):
    """Start with no pool kept; the list gets ("fork" | "shutdown", workers)."""
    drop_kept_pool()
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
    drop_kept_pool()


class TestSharedPool:
    """One worker pool serves every search of a process."""

    def test_one_pool_serves_a_table(self, monkeypatch, pool_events):
        runs = []
        original = search_module._Runner
        monkeypatch.setattr(search_module, "_Runner",
                            lambda workers: runs.append(workers)
                            or original(workers))
        table = sequence_table(2, [1, 1], jobs=2)
        assert runs == [2] * 4  # two rows of one scan per class
        assert pool_events == [("fork", 2)]
        assert table.to_json() == sequence_table(2, [1, 1]).to_json()

    def test_kept_workers_hold_no_memos(self, pool_events, tmp_path):
        min_mahler(SearchSpace("skew_reciprocal", 8, 2), jobs=2)
        executor, _, _ = search_module._kept
        # each probe waits for the other, so each worker runs one
        probes = executor.map(memo_probe, [str(tmp_path)] * 2)
        states = dict(probes)
        assert len(states) == 2
        assert list(states.values()) == [(None, None)] * 2

    def test_another_worker_count_replaces_the_pool(self, monkeypatch,
                                                   pool_events):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
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

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", None])
    def test_bad_jobs_leave_the_kept_pool(self, monkeypatch, pool_events, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        space = SearchSpace("reciprocal", 4, 2)  # 3 chunks
        min_mahler(space, jobs=2)
        kept = search_module._kept
        assert kept is not None
        for entry in (lambda: min_mahler(space, jobs=jobs),
                      lambda: min_house(space, jobs=jobs),
                      lambda: sequence_table(2, [1, 1], jobs=jobs)):
            with pytest.raises(PolynomialError, match="jobs"):
                entry()
        assert search_module._kept is kept
        assert pool_events == [("fork", 2)]

    def test_each_search_starts_from_its_own_cap(self, pool_events):
        min_mahler(SearchSpace("reciprocal", 8, 2), jobs=2)
        # a cap below every non-Kronecker member's value, left in the kept
        # pool as if by another search, would cut every such member
        _, cap, _ = search_module._kept
        cap[:] = [1.0] * len(cap)
        space = SearchSpace("skew_reciprocal", 8, 2)
        assert min_house(space, jobs=2).to_json() == min_house(space).to_json()
        assert pool_events == [("fork", 2)]

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("search, upper_bound", [
        (min_mahler, mahler_upper_bound), (min_house, house_upper_bound)])
    def test_the_shared_cap_keeps_the_least_cap(self, monkeypatch, pool_events,
                                                kind, search, upper_bound):
        # four chunks on four workers, more than two cores (the CPU count
        # is pinned so that all four start): every witness
        # was kept by its chunk, which then held a cap of at most
        # ub + 2*tol0 (tol0 = 1e-6) and lowered the shared cap to it, so
        # a lost update could leave the shared cap above that; and by
        # _scan_chunk's proof no cap is below the minimum
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        space = SearchSpace(kind, 10, 3)
        report = search(space, jobs=4)
        assert report.to_json() == search(space).to_json()
        _, cap, _ = search_module._kept
        shared = cap[0]
        assert report.minimum.lo <= shared
        assert shared <= min(upper_bound(w) + 2e-6 for w in report.witnesses)

    def test_each_slot_keeps_its_quantity_s_least_cap(self, monkeypatch,
                                                      pool_events):
        # a scan for both quantities on four workers, more than two cores
        # (the CPU count is pinned so that all four start): each slot of
        # the shared cap holds at most the least cap of its quantity that a
        # chunk kept, which a lost update would leave above
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        space = SearchSpace("skew_reciprocal", 10, 3)
        reports = search_module._min_search(
            space, ("mahler", "house"), 1e-10, 4, DEFAULT_MAX_BITS,
            search_module.DEFAULT_BUDGET)
        assert [r.to_json() for r in reports] == \
            [min_mahler(space).to_json(), min_house(space).to_json()]
        _, cap, _ = search_module._kept
        for slot, report, upper_bound in zip(
                cap, reports, (mahler_upper_bound, house_upper_bound)):
            assert report.minimum.lo <= slot
            assert slot <= min(upper_bound(w) + 2e-6 for w in report.witnesses)

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
        enter = search_module._Runner.__enter__

        def enter_and_wait(runner):
            run = enter(runner)
            if runner.workers > 1:
                both_held.wait()
            return run

        monkeypatch.setattr(search_module._Runner, "__enter__", enter_and_wait)
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

    def test_a_worker_error_reaches_the_caller_as_itself(self, pool_events):
        space = SearchSpace("skew_reciprocal", 8, 2)
        with pytest.raises(PrecisionExhausted) as raised:
            min_mahler(space, jobs=2, max_bits=32)
        assert raised.value.max_bits == 32
        with pytest.raises(PrecisionExhausted) as serial:
            min_mahler(space, max_bits=32)
        assert str(raised.value) == str(serial.value)
        # the failed search shut its pool down; the next one forks afresh
        assert pool_events == [("fork", 2), ("shutdown", 2)]
        assert search_module._kept is None
        assert min_mahler(space, jobs=2).to_json() == min_mahler(space).to_json()
        assert pool_events == [("fork", 2), ("shutdown", 2), ("fork", 2)]

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


@pytest.mark.parametrize("error, attrs", [
    (PrecisionExhausted("root certification", 32), {"max_bits": 32}),
    (BudgetExceeded("search", 625, 10), {"required": 625, "budget": 10}),
    (DecompositionFalsified("witness is reciprocal", (1, 0, 1)),
     {"coefficients": (1, 0, 1)}),
], ids=["PrecisionExhausted", "BudgetExceeded", "DecompositionFalsified"])
def test_errors_survive_a_pickle_round_trip(error, attrs):
    # a pool sends a worker's error back to the caller pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error) == attrs


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
            chained = scan_space(space, quantity, tol0)
            for first, (scanned, cut, kron, survivors) in zip(
                    _chunk_firsts(space), chained):
                # the chunk: the members with c_7 = +-first
                members = [free for free in space.free_vectors()
                           if abs(free[-1]) == -first]
                chunk = [full[free] for free in members if free in full]
                best_hi = min(enc.hi for _, enc, _ in chunk)
                assert scanned + cut == len(members)
                assert kron == len(members) - len(chunk)
                assert all(_lower(c) <= best_hi for c in survivors)
                assert len(survivors) < len(chunk)
                # from a cap of its own, the survivors are exactly the
                # chunk's own possible minimisers
                args = chunk_args(space, first, quantity, tol0)
                scanned, cut, kron, (survivors,) = _scan_chunk(
                    args, _LocalCap())
                assert scanned + cut == len(members)
                assert kron == len(members) - len(chunk)
                assert [c[0] for c in survivors] == \
                    [c[0] for c in chunk if _lower(c) <= best_hi]
            assert sum(cut for _, cut, *_ in chained) > 0
            # chained, the candidates phase 2 keeps are the space's
            candidates = sorted((c for _, _, _, survivors in chained
                                 for c in survivors), key=lambda c: c[0])
            assert [c[0] for c in candidates if _lower(c) <= m] == \
                [free for free in sorted(full) if _lower(full[free]) <= m]

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-15])
    def test_shipped_first_round_matches_fresh_values(self, kind, quantity,
                                                      tol):
        measure_fn = mahler if quantity == "mahler" else house
        space = SearchSpace(kind, 8, 2)
        survivors = [c for *_, chunk in scan_space(space, quantity, tol=tol)
                     for c in chunk]
        assert survivors
        # each value is recomputed outside any memo scope
        for free, enc, gb, new, key in survivors:
            f = space.member(free)
            assert enc == measure_fn(f, 1e-6)
            assert new == measure_fn(f, tol)
            assert key == _tie_key(quantity, f)

    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_a_first_round_past_the_cap_is_recorded(self, monkeypatch,
                                                    quantity):
        # as a pool worker runs a chunk: PrecisionExhausted at tol stays
        # in the task, and each survivor keeps its tol0 enclosure
        monkeypatch.setattr(search_module, "_pool_cap", _LocalCap())
        args = chunk_args(SearchSpace("skew_reciprocal", 6, 1), 0, quantity,
                          tol=1e-30, max_bits=64)
        *_, (survivors,) = _run_task(_scan_chunk, args)
        assert survivors
        assert all(new is None and enc.width <= 1e-6
                   for _, enc, _, new, _ in survivors)

    @pytest.mark.parametrize("quantity", ["mahler", "house"])
    def test_a_scan_defers_enclosures(self, monkeypatch, quantity):
        events = []
        measure_fn = mahler if quantity == "mahler" else house

        def recording_kronecker(f):
            events.append(("scan", f))
            return is_kronecker(f)

        def recording_measure(f, tol=1e-10, max_bits=4096):
            if tol == 1e-6:  # the survivors' first round, at tol, comes last
                events.append(("enclose", f))
            return measure_fn(f, tol, max_bits)

        monkeypatch.setattr("skewrec.search.is_kronecker", recording_kronecker)
        monkeypatch.setattr(f"skewrec.search.{quantity}", recording_measure)
        space = SearchSpace("skew_reciprocal", 8, 2)
        scanned, cut, *_ = _scan_chunk(chunk_args(space, 0, quantity),
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
           quantities=st.sampled_from([("mahler",), ("house",),
                                       ("mahler", "house")]),
           caps=st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2))
    # t^2 - 3t + 1, of Mahler measure and house 2.618..., meets both
    # bounds at k = 1: s_1 = 3 = B + 1/B
    @example(kind="reciprocal", degree=2, height=3, quantities=("mahler",),
             caps=[2.62, 1.0])
    @example(kind="reciprocal", degree=2, height=3, quantities=("house",),
             caps=[2.62, 1.0])
    @example(kind="reciprocal", degree=2, height=3,
             quantities=("mahler", "house"), caps=[1.0, 2.62])
    # a low house cap with a high Mahler cap: the Mahler limits keep the
    # members the house limits alone would cut
    @example(kind="skew_reciprocal", degree=8, height=2,
             quantities=("mahler", "house"), caps=[2.5, 1.1])
    def test_cuts_only_members_above_the_cap(self, kind, degree, height,
                                             quantities, caps):
        space = SearchSpace(kind, degree, height)
        caps = caps[:len(quantities)]
        values = [oracle_values(kind, degree, height, quantity)
                  for quantity in quantities]
        walked = []  # (free, the indices of the quantities it is live for)
        cut = 0
        for first in _chunk_firsts(space):
            tree = _PowerSumTree(space, quantities, first)
            tree.set_caps(caps)
            walked += tree.members()
            cut += tree.cut
        live = dict(walked)
        assert len(live) == len(walked)
        assert len(walked) + cut == space.size
        assert all(live.values())
        # every member with a value at most its quantity's cap is walked,
        # and live for that quantity
        for j, (v, cap) in enumerate(zip(values, caps)):
            assert {free for free, (value, _) in v.items() if value <= cap} <= \
                {free for free, js in live.items() if j in js}
        # the Kronecker count of the walk is that of a full enumeration
        assert sum(values[0][free][1] for free in live) == \
            sum(kron for _, kron in values[0].values())


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
        monkeypatch.setattr("skewrec.search._min_search", no_work)
        with pytest.raises(PolynomialError, match="height"):
            sequence_table(len(heights), heights, budget=budget)


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_match_the_single_searches(self, jobs):
        table = sequence_table(3, [2, 2, 1], jobs=jobs)
        for row in table.rows:
            for field, search, kind in [
                    ("mahler_reciprocal", min_mahler, "reciprocal"),
                    ("mahler_skew", min_mahler, "skew_reciprocal"),
                    ("house_reciprocal", min_house, "reciprocal"),
                    ("house_skew", min_house, "skew_reciprocal")]:
                space = SearchSpace(kind, row.degree, row.height)
                minimum = search(space, jobs=jobs).minimum
                assert getattr(row, field) == minimum
                if minimum is not None:
                    assert getattr(row, field).to_json() == minimum.to_json()

    def test_one_kronecker_test_per_member_walked(self, monkeypatch):
        # each row scans each space once for both quantities, and each
        # member the scan walks takes one Kronecker test
        tested = []
        chunks = {}  # (kind, degree) -> [(args, scanned, cut, tests)]
        scan = _scan_chunk

        def recording_kronecker(f):
            tested.append(f.coeffs)
            return is_kronecker(f)

        def recording_scan(args, shared):
            before = len(tested)
            scanned, cut, *rest = scan(args, shared)
            chunks.setdefault(args[:2], []).append(
                (args, scanned, cut, tested[before:]))
            return (scanned, cut, *rest)

        monkeypatch.setattr(search_module, "is_kronecker", recording_kronecker)
        monkeypatch.setattr(search_module, "_scan_chunk", recording_scan)
        heights = {2: 2, 4: 2, 8: 1}
        sequence_table(3, list(heights.values()))
        assert len(chunks) == 6  # two spaces per row
        for (kind, degree), scans in chunks.items():
            space = SearchSpace(kind, degree, heights[degree])
            assert [args[3] for args, *_ in scans] == list(_chunk_firsts(space))
            assert all(args[4] == ("mahler", "house") for args, *_ in scans)
            assert all(scanned == len(tests) for _, scanned, _, tests in scans)
            members = [f for *_, tests in scans for f in tests]
            assert len(set(members)) == len(members)
            assert len(members) == \
                space.size - sum(cut for _, _, cut, _ in scans)


SMALL_SKEW = SearchSpace("skew_reciprocal", 6, 1)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda tol: min_mahler(SMALL_SKEW, tol=tol),
    lambda tol: min_house(SMALL_SKEW, tol=tol),
    lambda tol: sequence_table(2, [1, 1], tol=tol),
    lambda tol: verify_decomposition_over_space(SMALL_SKEW, tol=tol),
], ids=["min_mahler", "min_house", "sequence_table", "survey"])
def test_a_bad_tol_is_rejected_before_any_scan(monkeypatch, entry, tol):
    calls = []
    for name in ("_scan_chunk", "is_kronecker"):
        original = getattr(search_module, name)
        monkeypatch.setattr(search_module, name,
                            lambda *args, fn=original: calls.append(fn) or fn(*args))
    with pytest.raises(PolynomialError, match="tolerance"):
        entry(tol)
    assert calls == []


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

    # ids "1" and "2" are the degree-8 spaces' heights
    @pytest.mark.parametrize("degree, height", [(8, 1), (8, 2), (4, 3)],
                             ids=["1", "2", "degree4-3"])
    def test_skipped_enclosures_change_nothing(self, monkeypatch, degree,
                                               height):
        space = SearchSpace("skew_reciprocal", degree, height)
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

    @pytest.mark.parametrize("degree, height", [(4, 3), (8, 1)])
    def test_ties_keep_the_least_free_vector(self, monkeypatch, degree,
                                             height):
        # every witness encloses to one hi, above every Graeffe bound, so
        # none is skipped and all tie: the least free vector is kept,
        # whatever order the walk takes
        space = SearchSpace("skew_reciprocal", degree, height)
        made = []

        def tied_mahler(f, tol=1e-10, max_bits=4096):
            made.append((Enclosure(2.0, 100.0, 53), f))
            return made[-1][0]

        monkeypatch.setattr("skewrec.search.mahler", tied_mahler)
        survey = verify_decomposition_over_space(space)
        witnesses = [f for f in enumerate_space(space) if not is_kronecker(f)
                     and isinstance(decompose_skew_reciprocal(f),
                                    NonreciprocalWitness)]
        assert len(made) == survey.witness_count == len(witnesses) > 1
        (kept,) = [f for enc, f in made if enc is survey.min_witness_mahler]
        assert kept == witnesses[0]  # enumerate_space is lexicographic
        assert [f for _, f in made] != witnesses  # the walk is not

    def test_partners_hit_the_chain_memo(self, monkeypatch):
        # the survey walks each leaf then its t -> -t partner, whose
        # Kronecker test reads the chain the leaf's filed
        space = SearchSpace("skew_reciprocal", 8, 2)
        calls = []

        def recording(f):
            hits = _chains.hits
            result = is_kronecker(f)
            calls.append((f, _chains.hits > hits))
            return result

        monkeypatch.setattr(search_module, "is_kronecker", recording)
        verify_decomposition_over_space(space)
        assert len(calls) == space.size
        pairs = i = 0
        while i < len(calls):
            f, _ = calls[i]
            if negate_variable(f) == f:
                i += 1
                continue
            partner, hit = calls[i + 1]
            assert partner == negate_variable(f) and hit
            pairs += 1
            i += 2
        assert pairs > 0

    def test_json_shape(self):
        doc = verify_decomposition_over_space(
            SearchSpace("skew_reciprocal", 4, 1), tol=1e-6
        ).to_json()
        assert doc["enumerated"] == 9
        assert doc["all_witnesses_above_bound"] is True
