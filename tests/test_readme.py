"""The README's examples run as printed.

Every `skewrec ...` line of the CLI block goes through cli.main: it must
exit 0 and print one JSON document, or a CSV table for --csv.  The
library quick-start runs line by line, and each value its comments
print (an Enclosure repr, possibly cut short by "...", or True/False)
must match what the line evaluates to.
"""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from skewrec.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the given section heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


CLI_COMMANDS = [shlex.split(line, comments=True)[1:]
                for line in fenced_block("## CLI", "sh").splitlines()
                if line.startswith("skewrec ")]
QUICK_START = fenced_block("## Quick start (library)", "python")


def test_the_cli_block_is_found():
    assert len(CLI_COMMANDS) == 7


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=" ".join)
def test_cli_example_runs(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if "--csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
    else:
        assert set(json.loads(out)) == {"meta", "data"}


def test_quick_start_prints_what_it_says():
    namespace: dict = {}
    checked = []
    for line in QUICK_START.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        try:
            compiled = compile(code, "<README>", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(compiled, namespace)
        if "Enclosure(" in comment:
            printed = comment[comment.index("Enclosure("):]
            if printed.endswith("...)"):
                assert repr(value).startswith(printed[:-4]), (code, value)
            else:
                assert repr(value) == printed, (code, value)
            checked.append(code)
        elif comment.split()[:1] in (["True"], ["False"]):
            assert value is comment.startswith("True"), code
            checked.append(code)
    assert checked[:2] == ["mahler(LEHMER_POLY)", "house(IntPoly([2, 2, 1]))"]
