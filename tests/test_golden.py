"""Frozen CLI outputs: `data` (bits included) and exit codes must not drift.

tests/golden_cli.json holds, per command, the exit code and either the
`data` section or the error document, exactly as an earlier release
printed them.  Speed work on the certificate (rounding, number formats,
precision ladders) must leave every one of them byte-identical; a
legitimate change of output regenerates the file and says why.
"""

import json
from pathlib import Path

import pytest

from skewrec.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_output_matches_the_frozen_run(case, capsys):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    if code == 0:
        got, want = json.loads(out)["data"], case["data"]
    else:
        got, want = json.loads(err)["error"], case["error"]
    # dumps keeps key order, so this compares the printed text
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
