"""CLI behavior: JSON shape, exit codes, determinism, environment knobs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import skewrec
from skewrec.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_lehmer(self, capsys):
        code, out, err = run_cli(
            ["measure", "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"], capsys
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["meta"]["command"] == "measure"
        assert doc["data"]["is_kronecker"] is False
        lo = float(doc["data"]["mahler"]["lo"])
        hi = float(doc["data"]["mahler"]["hi"])
        assert f"{lo:.5f}" == f"{hi:.5f}" == "1.17628"

    def test_list_input_form(self, capsys):
        code, out, _ = run_cli(["measure", "[1,-3,1]"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert float(doc["data"]["mahler"]["lo"]) == pytest.approx(
            2.618033988749895, abs=1e-9
        )

    def test_rerun_is_byte_identical(self, capsys):
        _, out1, _ = run_cli(["measure", "[1,-3,1]"], capsys)
        _, out2, _ = run_cli(["measure", "[1,-3,1]"], capsys)
        assert out1 == out2


class TestClassifyAndDecompose:
    def test_classify(self, capsys):
        code, out, _ = run_cli(["classify", "t^2+t-1"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["data"] == {
            "poly": "t^2 + t - 1",
            "degree": 2,
            "monic": True,
            "reciprocal": False,
            "skew_reciprocal": True,
            "kronecker": False,
        }

    def test_classify_non_monic(self, capsys):
        code, out, _ = run_cli(["classify", "[1, 3, 2]"], capsys)
        doc = json.loads(out)
        assert doc["data"]["monic"] is False
        assert doc["data"]["kronecker"] is None

    def test_decompose_witness(self, capsys):
        code, out, _ = run_cli(["decompose", "[1,1,-2,-1,1]"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["data"]["case"] == "nonreciprocal_witness"

    def test_decompose_square_case(self, capsys):
        code, out, _ = run_cli(["decompose", "[1,0,-3,0,1]"], capsys)
        doc = json.loads(out)
        assert doc["data"] == {"case": "square_substitution", "g": [1, -3, 1]}

    def test_decompose_precondition_exit_code(self, capsys):
        code, out, err = run_cli(["decompose", "t^2+t-1"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "PolynomialError"


class TestCompanionCommand:
    def test_reciprocal_gets_symplectic(self, capsys):
        code, out, _ = run_cli(["companion", "[1,-3,1]"], capsys)
        doc = json.loads(out)
        assert doc["data"]["kind"] == "symplectic"
        assert doc["data"]["form_check"] is True

    def test_skew_gets_anti_symplectic(self, capsys):
        code, out, _ = run_cli(["companion", "t^2+t-1"], capsys)
        doc = json.loads(out)
        assert doc["data"]["kind"] == "anti_symplectic"
        assert doc["data"]["form_check"] is True

    def test_asymmetric_rejected(self, capsys):
        code, _, err = run_cli(["companion", "[2, 0, 0, 1]"], capsys)
        assert code == 2


class TestSearchCommand:
    def test_search_and_jobs_invariance(self, capsys):
        args = ["search", "--kind", "skew_reciprocal", "--degree", "4",
                "--height", "2", "--quantity", "mahler", "--tol", "1e-10"]
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(args + ["--jobs", jobs], capsys)
            assert code == 0
            outs.append(json.loads(out))
        assert outs[0]["data"] == outs[1]["data"]
        assert outs[0]["meta"]["jobs"] == 1 and outs[1]["meta"]["jobs"] == 2

    def test_house_search_data_byte_identical_across_jobs(self, capsys):
        # every member is enclosed, in this process or in pool workers,
        # mostly from hardware-double root approximations
        args = ["search", "--kind", "skew_reciprocal", "--degree", "8",
                "--height", "1", "--quantity", "house"]
        datas = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(args + ["--jobs", jobs], capsys)
            assert code == 0
            datas.append(json.dumps(json.loads(out)["data"], sort_keys=True))
        assert datas[0] == datas[1]

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            ["search", "--kind", "skew_reciprocal", "--degree", "8",
             "--height", "2", "--budget", "10"], capsys
        )
        assert code == 4
        assert json.loads(err)["error"]["type"] == "BudgetExceeded"

    def test_precision_exit_code(self, capsys):
        code, _, err = run_cli(
            ["measure", "[1,-3,1]", "--tol", "1e-40", "--max-bits", "64"],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["error"]["type"] == "PrecisionExhausted"


class TestTableCommand:
    def test_json_table(self, capsys):
        code, out, _ = run_cli(
            ["table", "--max-i", "1", "--heights", "3", "--tol", "1e-8"],
            capsys,
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["data"]["rows"]) == 1
        assert doc["data"]["rows"][0]["degree"] == 2

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            ["table", "--max-i", "1", "--heights", "3", "--tol", "1e-8",
             "--csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("i,degree,height,")
        assert len(lines) == 2

    def test_heights_parse_error(self, capsys):
        code, _, err = run_cli(
            ["table", "--max-i", "1", "--heights", "x"], capsys
        )
        assert code == 2


class TestVerifyCommand:
    def test_quartic_survey(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--degree", "4", "--height", "1", "--tol", "1e-6"],
            capsys,
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["data"]["enumerated"] == 9
        assert doc["data"]["all_witnesses_above_bound"] is True


class TestEnvironment:
    def test_max_bits_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWREC_MAX_BITS", "64")
        code, _, err = run_cli(["measure", "[1,-3,1]", "--tol", "1e-40"],
                               capsys)
        assert code == 3

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWREC_MAX_BITS", "banana")
        code, _, err = run_cli(["measure", "[1,-3,1]"], capsys)
        assert code == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWREC_MAX_BITS", "64")
        code, out, _ = run_cli(
            ["measure", "[1,-3,1]", "--tol", "1e-12", "--max-bits", "4096"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["max_bits"] == 4096


    @pytest.mark.parametrize("value", ["0", "10", "63"])
    def test_flag_below_64_rejected(self, capsys, value):
        # the flag obeys the same rule as SKEWREC_MAX_BITS; 0 used to run
        # silently at the default cap
        code, out, err = run_cli(
            ["measure", "[1,-3,1]", "--max-bits", value], capsys
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and "--max-bits" in error["message"]

    def test_env_below_64_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWREC_MAX_BITS", "10")
        code, out, err = run_cli(["measure", "[1,-3,1]"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseError"

    def test_flag_at_64_accepted(self, capsys):
        code, out, _ = run_cli(
            ["measure", "[1,-3,1]", "--tol", "1e-6", "--max-bits", "64"], capsys
        )
        assert code == 0
        assert json.loads(out)["meta"]["max_bits"] == 64


class TestRunOptions:
    """--tol must be a positive finite number and --jobs at least 1."""

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    def test_measure_bad_tol_rejected_before_work(self, capsys, monkeypatch,
                                                  tol):
        def no_work(*args, **kwargs):
            raise AssertionError("measure ran with a rejected tolerance")

        monkeypatch.setattr("skewrec.cli.measure", no_work)
        code, out, err = run_cli(["measure", "[1,-3,1]", f"--tol={tol}"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and "--tol" in error["message"]

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_search_bad_tol_rejected(self, capsys, tol):
        code, out, err = run_cli(
            ["search", "--kind", "reciprocal", "--degree", "4", "--height",
             "1", "--tol", tol], capsys
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_search_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(
            ["search", "--kind", "reciprocal", "--degree", "4", "--height",
             "1", "--jobs", jobs], capsys
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and "--jobs" in error["message"]

    def test_table_jobs_below_one_rejected(self, capsys):
        code, out, err = run_cli(
            ["table", "--max-i", "1", "--heights", "1", "--jobs", "0"], capsys
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseError"


def console_script_command():
    """Command prefix that launches the ``skewrec`` console script.

    Uses the installed script when it is on PATH.  Otherwise builds from the
    ``[project.scripts]`` entry in pyproject.toml the same call a pip-generated
    wrapper makes: import the target and pass its return value to
    ``sys.exit``.
    """
    installed = shutil.which("skewrec")
    if installed:
        return [installed]
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["skewrec"]
    module, attr = target.split(":")
    return [
        sys.executable,
        "-c",
        f"import sys; from {module} import {attr}; sys.exit({attr}())",
    ]


def run_in_checkout(command):
    """Run command as a separate process that imports this checkout's skewrec.

    PYTHONPATH is led by the directory holding the imported package, so the
    child runs the code under test from any working directory.
    """
    package_root = str(Path(skewrec.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def run_console_script(args):
    """Run the console script as a separate process on this checkout."""
    return run_in_checkout(console_script_command() + args)


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = run_console_script(["classify", "[1,1,1]"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["data"]["kronecker"] is True

    def test_zero_polynomial_rejected(self):
        proc = run_console_script(["measure", "[0]"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert set(error) == {"type", "message"}
        assert error["type"] == "ParseError"


class TestImportHygiene:
    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy is a test dependency only; the CLI must start without it
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import sys, skewrec.cli; print('numpy' in sys.modules)",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
