"""The benchmark's layer tracer wraps only names that exist.

perfbench/tracer.py rebinds every (module, attribute) in its WRAPPED list
to a timing wrapper when a traced pass starts.  A renamed or removed
attribute makes `perfbench/run.py --trace 1` crash before any work, so
this checks the list against the package, and a traced search checks
that the counts the tracer derives from those names still add up.  The
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


def test_search_counters_add_up(capsys):
    # members == Kronecker + pruned + phase-1 enclosures holds only while
    # search.py calls is_kronecker, mahler_lower_bound and mahler by name
    # once per member, which the shared Graeffe chain must keep true
    import skewrec.cli

    tracing = load_tracer()
    tracer = tracing.Tracer()
    argv = ["search", "--quantity", "mahler", "--kind", "reciprocal",
            "--degree", "6", "--height", "1"]
    with tracer.installed():
        before = tracer.snapshot()
        code = tracer.root(skewrec.cli.main)(argv)
        after = tracer.snapshot()
    assert code == 0
    data = json.loads(capsys.readouterr().out)["data"]
    delta = defaultdict(int, {k: after[k] - before[k] for k in after})
    assert tracing.search_invariants(delta, data) == []
    pruned, p1 = tracing.search_counts(delta, data)
    assert pruned > 0 and p1 > 0
    assert delta["measure.kronecker.calls"] == data["enumerated"]
