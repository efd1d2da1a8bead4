"""Outside-in layer tracer for skewrec.

Nothing under src/ knows about it.  While installed, it rebinds the
callables each skewrec module imported from the next layer (and the
measure module's own helpers, which its functions look up as module
globals) to timing wrappers.  Each wrapper is a span charged to a
layer bucket; a bucket's self time is its spans' time minus the time of
the spans they caused, so the self times of all buckets add up to the
root span's time.  Spans are aggregated in memory and read out when a
pass ends.

Modules are resolved with importlib.import_module: the package
attribute `skewrec.measure` is the measure() function, which shadows the
submodule, so getattr on the package would wrap nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

# Phase 1 of a minimum search encloses at max(tol, PHASE1_TOL) and phase 2
# at tol and below; the workloads search at tol < PHASE1_TOL, where the two
# phases are told apart by the tolerance of the call.
PHASE1_TOL = 1e-6
SEARCHES = {"min_mahler", "min_house"}

# (module, attribute, bucket).  A bucket of None counts calls without a
# span, for calls too small and frequent to time (their time stays with
# the caller's bucket).
WRAPPED = (
    ("skewrec.cli", "measure", "measure.enclosure"),
    ("skewrec.cli", "min_mahler", "search"),
    ("skewrec.cli", "min_house", "search"),
    ("skewrec.cli", "verify_decomposition_over_space", "search"),
    ("skewrec.search", "is_kronecker", "measure.kronecker"),
    ("skewrec.search", "mahler_lower_bound", "measure.lower_bound"),
    ("skewrec.search", "mahler", "measure.enclosure"),
    ("skewrec.search", "house", "measure.enclosure"),
    ("skewrec.search", "decompose_skew_reciprocal", "structure"),
    ("skewrec.structure", "is_kronecker", "measure.kronecker"),
    ("skewrec.measure", "is_kronecker", "measure.kronecker"),
    ("skewrec.measure", "graeffe", None),
    ("skewrec.measure", "kronecker_free_part", "measure.strip"),
    ("skewrec.measure", "squarefree_decomposition", "poly.squarefree"),
    ("skewrec.measure", "gcd_primitive", "poly.gcd"),
    ("skewrec.poly", "gcd_primitive", "poly.gcd"),
    ("skewrec.measure", "_certified_disks", "roots"),
    ("skewrec.measure", "components", "roots.components"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)    # bucket -> spans
        self.self_s = defaultdict(float)  # bucket -> self seconds
        self.counts = defaultdict(int)   # named counters
        self.hits = defaultdict(int)     # (module, attribute) -> calls
        self._stack = []                 # open spans: [child seconds, attribute]
        self._saved = []

    def root(self, main):
        """Wrap the CLI entry point as the root span of one task."""
        return self._span("cli", main, ("skewrec.cli", "main"))

    @contextlib.contextmanager
    def installed(self):
        try:
            for module_name, attr, bucket in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                key = (module_name, attr)
                if bucket is None:
                    wrapper = self._counter(original, key)
                else:
                    wrapper = self._span(bucket, original, key)
                setattr(module, attr, wrapper)
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def snapshot(self) -> dict:
        """Every counter as one flat dict, for per-task differences."""
        out = {f"{b}.calls": n for b, n in self.calls.items()}
        out.update(self.counts)
        return defaultdict(int, out)

    def _counter(self, fn, key):
        def wrapper(*args, **kwargs):
            self.hits[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, bucket, fn, key):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self.hits[key] += 1
            self._note(key, signature, args, kwargs)
            frame = [0.0, key[1]]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[bucket] += 1
                self.self_s[bucket] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
        return wrapper

    def _note(self, key, signature, args, kwargs):
        module_name, attr = key
        if attr == "_certified_disks":
            self.counts["roots.degree_sum"] += args[0].degree
        elif module_name == "skewrec.search" and attr in ("mahler", "house"):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tol = bound.arguments["tol"]
            caller = next(f[1] for f in reversed(self._stack)
                          if f[1] in SEARCHES or f[1] == "verify_decomposition_over_space")
            if caller not in SEARCHES:
                self.counts["search.enclosures_audit"] += 1
            elif tol >= PHASE1_TOL:
                self.counts["search.enclosures_p1"] += 1
            else:
                self.counts["search.enclosures_p2"] += 1


def search_counts(delta: dict, data: dict) -> tuple[int, int]:
    """(pruned, phase-1 enclosures) of one search task from its counter delta.

    Every non-Kronecker member of a Mahler search gets a Graeffe lower
    bound and then either a phase-1 enclosure or nothing (pruned).
    """
    p1 = delta["search.enclosures_p1"]
    if data["quantity"] == "mahler":
        return delta["measure.lower_bound.calls"] - p1, p1
    return 0, p1


def search_invariants(delta: dict, data: dict) -> list[str]:
    """Accounting a search's counters must satisfy; empty when they do."""
    pruned, p1 = search_counts(delta, data)
    members, kron = data["enumerated"], data["excluded_kronecker"]
    errs = []
    if members != kron + pruned + p1:
        errs.append(f"members {members} != kronecker {kron} + pruned {pruned} "
                    f"+ phase-1 enclosures {p1}")
    if data["quantity"] == "house" and delta["measure.lower_bound.calls"]:
        errs.append("a house search computed Mahler lower bounds")
    if pruned < 0:
        errs.append(f"negative pruned count {pruned}")
    return errs
