"""Frozen CLI outputs: `data` (bits included) and exit codes must not drift.

tests/golden_cli.json holds, per command, the exit code and either the
`data` section or the error document, exactly as an earlier release
printed them.  Speed work on the certificate (rounding, number formats,
precision ladders) must leave every one of them byte-identical; a
legitimate change of output regenerates the file and says why.  The
frozen `measure` enclosures are also checked against an independent
oracle, so a regenerated file cannot freeze a wrong value.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

from skewrec.cli import main
from skewrec.poly import parse_poly

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


# the measure commands that printed enclosures
MEASURED = [c for c in GOLDEN if c["argv"][0] == "measure" and c["exit"] == 0]
# the oracle roots are good to about 30 digits even at a double root
ORACLE_SLACK = mp.mpf(10) ** -25

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


def oracle_mahler_house(coeffs):
    """Mahler measure and house from mpmath polyroots at 60 digits."""
    zeros = next(k for k, c in enumerate(coeffs) if c)  # roots at 0 are exact
    coeffs = coeffs[zeros:]
    with mp.workdps(60):
        roots = (mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=600)
                 if len(coeffs) > 1 else [])
        moduli = [abs(r) for r in roots]
        mahler = abs(coeffs[-1]) * mp.fprod(max(1, m) for m in moduli)
        return mahler, max(moduli, default=mp.mpf(0))


def test_every_measure_entry_is_checked():
    assert len(MEASURED) == 6


@pytest.mark.parametrize("case", MEASURED, ids=[c["name"] for c in MEASURED])
def test_frozen_measure_enclosures_hold_the_oracle_within_tol(case):
    argv = case["argv"]
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-10
    mahler, house = oracle_mahler_house(list(parse_poly(argv[-1]).coeffs))
    with mp.workdps(60):
        for key, value in (("mahler", mahler), ("house", house)):
            lo, hi = (float(case["data"][key][end]) for end in ("lo", "hi"))
            assert hi - lo <= tol, (key, lo, hi)
            assert lo - ORACLE_SLACK <= value <= hi + ORACLE_SLACK, (key, value)
