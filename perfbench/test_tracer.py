"""Self-test of the layer tracer and of the workload checks, on small inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import skewrec  # noqa: E402
import skewrec.cli  # noqa: E402

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Between them these reach every wrapped name; the Mahler search prunes.
ARGVS = [
    ["measure", "--tol", "1e-8", "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"],
    ["search", "--kind", "reciprocal", "--degree", "6", "--height", "1",
     "--quantity", "mahler"],
    ["search", "--kind", "skew_reciprocal", "--degree", "4", "--height", "1",
     "--quantity", "house"],
    ["verify", "--degree", "4", "--height", "1"],
]


def data_of(main, argv) -> dict:
    code, out, err = bench.call(main, argv)
    assert code == 0, err
    return json.loads(out)["data"]


@pytest.fixture(scope="module")
def traced():
    t = tracing.Tracer()
    runs = []
    start = time.perf_counter()
    with t.installed():
        for argv in ARGVS:
            before = t.snapshot()
            data = data_of(t.root(skewrec.cli.main), argv)
            after = t.snapshot()
            runs.append((argv, data, defaultdict(int, {k: after[k] - before[k]
                                                       for k in after})))
    return t, runs, time.perf_counter() - start


def test_traced_data_equals_untraced(traced):
    _, runs, _ = traced
    for argv, data, _ in runs:
        assert data == data_of(skewrec.cli.main, argv), argv


def test_search_accounting(traced):
    _, runs, _ = traced
    searches = [(argv, data, delta) for argv, data, delta in runs if argv[0] == "search"]
    assert {data["quantity"] for _, data, _ in searches} == {"mahler", "house"}
    for argv, data, delta in searches:
        assert tracing.search_invariants(delta, data) == [], argv
        pruned, _ = tracing.search_counts(delta, data)
        if data["quantity"] == "house":
            assert pruned == 0
        else:
            assert pruned > 0


def test_every_wrapped_name_is_called(traced):
    t, _, _ = traced
    wrapped = {(module, attr) for module, attr, _ in tracing.WRAPPED}
    assert {key for key, n in t.hits.items() if n} >= wrapped


def test_self_times_add_up_to_the_root_spans(traced):
    t, _, elapsed = traced
    total = sum(t.self_s.values())
    assert t.calls["cli"] == len(ARGVS)
    assert 0.9 * elapsed < total <= elapsed


def test_uninstall_restores_every_name():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in tracing.WRAPPED}
    with tracing.Tracer().installed():
        assert any(getattr(importlib.import_module(m), a) is not f
                   for (m, a), f in originals.items())
    for (m, a), f in originals.items():
        assert getattr(importlib.import_module(m), a) is f


def test_package_attribute_shadows_the_measure_module():
    # why the tracer resolves modules with importlib.import_module
    assert not hasattr(skewrec.measure, "_certified_disks")
    assert hasattr(importlib.import_module("skewrec.measure"), "_certified_disks")


def test_checks_reject_wrong_answers():
    task = workloads.enclose_all(0)[0]
    data = data_of(skewrec.cli.main, task.command(1))
    assert task.check(data) == []
    assert task.check(dict(data, witnesses=data["witnesses"][:1]))
    assert task.check(dict(data, excluded_kronecker=data["excluded_kronecker"] + 1))
    shifted = {"lo": "1.2", "hi": "1.2000000000000002", "bits": 64}
    assert task.check(dict(data, minimum=shifted))

    lehmer = workloads.measure_batch(0)[0]
    data = data_of(skewrec.cli.main, lehmer.command(1))
    assert lehmer.check(data) == []
    assert lehmer.check(dict(data, mahler=shifted))
    assert lehmer.check(dict(data, house={"lo": "1.17", "hi": "1.18", "bits": 64}))
