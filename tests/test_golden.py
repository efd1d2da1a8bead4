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


# the searches whose phase 2 ran past --max-bits
EXHAUSTED = [c for c in GOLDEN if c.get("data", {}).get("precision_exhausted")]


def assert_frozen(case, argv, capsys):
    """main(argv) gives case's exit code and its `data` or error, as printed."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == case["exit"]
    if code == 0:
        got, want = json.loads(out)["data"], case["data"]
    else:
        got, want = json.loads(err)["error"], case["error"]
    # dumps keeps key order, so this compares the printed text
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_output_matches_the_frozen_run(case, capsys):
    assert_frozen(case, case["argv"], capsys)


def test_both_exhausted_searches_are_frozen():
    assert len(EXHAUSTED) == 2


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", EXHAUSTED, ids=[c["name"] for c in EXHAUSTED])
def test_exhausted_searches_match_the_frozen_run_at_any_jobs(case, jobs, capsys):
    # the first round runs past the cap inside the phase-1 chunks, which
    # record it; the report is the serial one for any worker count
    assert_frozen(case, case["argv"] + ["--jobs", str(jobs)], capsys)
