"""The benchmark's layer tracer wraps only names that exist.

perfbench/tracer.py rebinds every (module, attribute) in its WRAPPED list
to a timing wrapper when a traced pass starts.  A renamed or removed
attribute makes `perfbench/run.py --trace 1` crash before any work, so
this checks the list against the package.  The tracer is loaded by path
and left unmodified; perfbench is not on the test path.
"""

import importlib
import importlib.util
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
