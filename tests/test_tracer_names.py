"""The benchmark's layer tracer wraps only names that exist.

perfbench/tracer.py rebinds every (module, attribute) in its WRAPPED list
to a timing wrapper when a traced pass starts.  A renamed or removed
attribute makes `perfbench/run.py --trace 1` crash before any work, so
this checks the list against the package, and a traced search checks
that the counts the tracer derives from those names, with the members
the search's power-sum tree cuts, still add up.  The
tracer is loaded by path and left unmodified; perfbench is not on the
test path.
"""

import importlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    missing = [
        (module_name, attr)
        for module_name, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_search_counters_add_up(capsys, monkeypatch):
    # phase 1 walks a power-sum tree: each member it reaches takes one
    # is_kronecker call and, unless Kronecker, one mahler_lower_bound and
    # then a phase-1 enclosure or nothing (pruned); the members it cuts
    # take neither, and _scan_chunk returns their count
    import skewrec.cli
    import skewrec.search

    cuts = []
    scan = skewrec.search._scan_chunk

    def recording_scan(args, shared):
        result = scan(args, shared)
        cuts.append(result[1])
        return result

    monkeypatch.setattr(skewrec.search, "_scan_chunk", recording_scan)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    # skew, since in the reciprocal space the tree cuts every member
    # that a Graeffe bound would prune
    argv = ["search", "--quantity", "mahler", "--kind", "skew_reciprocal",
            "--degree", "6", "--height", "1"]
    with tracer.installed():
        before = tracer.snapshot()
        code = tracer.root(skewrec.cli.main)(argv)
        after = tracer.snapshot()
    assert code == 0
    data = json.loads(capsys.readouterr().out)["data"]
    delta = defaultdict(int, {k: after[k] - before[k] for k in after})
    pruned, p1 = tracing.search_counts(delta, data)
    walked = delta["measure.kronecker.calls"]
    assert data["enumerated"] == sum(cuts) + walked
    assert walked == data["excluded_kronecker"] + pruned + p1
    assert pruned > 0 and sum(cuts) > 0
