"""CLI behavior: JSON shape, exit codes, determinism, environment knobs."""

import json
import shutil
import sys
from pathlib import Path

import pytest

import skewrec
from conftest import run_in_checkout
from skewrec.cli import _build_parser, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# the layers skewrec.cli loads only for the commands that run them
LAZY_LAYERS = {"skewrec.search", "skewrec.structure", "skewrec.symplectic"}


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

    @pytest.mark.parametrize("poly", ["1", "[1,0,0,0]", "-7"])
    def test_constant_rejected_by_measure(self, capsys, poly):
        code, out, err = run_cli(["measure", poly], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "PolynomialError",
                         "message": "measure requires degree >= 1"}


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

    @pytest.mark.parametrize("kind", ["reciprocal", "skew_reciprocal"])
    def test_house_search_no_prune_same_data(self, capsys, kind):
        args = ["search", "--kind", kind, "--degree", "8", "--height", "1",
                "--quantity", "house"]
        docs = []
        for extra in ([], ["--no-prune"]):
            code, out, _ = run_cli(args + extra, capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert json.dumps(docs[0]["data"]) == json.dumps(docs[1]["data"])
        assert [d["meta"]["prune"] for d in docs] == [True, False]

    def test_pool_capped_and_requested_jobs_reported(self, capsys,
                                                     pool_sizes):
        code, out, _ = run_cli(
            ["table", "--max-i", "1", "--heights", "1", "--jobs", "64"], capsys
        )
        assert code == 0 and json.loads(out)["meta"]["jobs"] == 64
        # four searches of H+1 = 2 chunks each (c_1 = 0 and -1)
        assert pool_sizes == [2, 2, 2, 2]

    def test_exhausted_phase_two_same_data_across_jobs(self, capsys):
        args = ["search", "--kind", "skew_reciprocal", "--degree", "6",
                "--height", "1", "--tol", "1e-30", "--max-bits", "64"]
        results = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(args + ["--jobs", jobs], capsys)
            results.append((code, json.dumps(json.loads(out)["data"])))
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert json.loads(results[0][1])["precision_exhausted"] is True

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

    def test_coefficient_beyond_the_double_range_exit_code(self, capsys):
        code, out, err = run_cli(["measure", f"[1,{10**400},1]"], capsys)
        assert code == 3 and out == ""
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

    @pytest.mark.parametrize("heights, extra", [
        ("1,-1000", ["--budget", "1000"]),
        ("3,2,-1", []),
    ])
    def test_negative_height_rejected_before_work(self, capsys, monkeypatch,
                                                  heights, extra):
        def no_work(*args, **kwargs):
            raise AssertionError("a search ran before the rows were checked")

        monkeypatch.setattr("skewrec.search.min_mahler", no_work)
        monkeypatch.setattr("skewrec.search.min_house", no_work)
        max_i = str(len(heights.split(",")))
        code, out, err = run_cli(
            ["table", "--max-i", max_i, "--heights", heights] + extra, capsys
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "PolynomialError" and "height" in error["message"]


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
    """--tol must be a positive finite number, --jobs and --budget at least 1."""

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

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["search", "--kind", "reciprocal", "--degree", "4", "--height", "1"],
        ["table", "--max-i", "1", "--heights", "1"],
        ["verify", "--degree", "4", "--height", "1"],
    ])
    def test_budget_below_one_rejected(self, capsys, argv, budget):
        # a budget below 1 admits no space: a usage error, not exit 4
        code, out, err = run_cli([*argv, f"--budget={budget}"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and "--budget" in error["message"]


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


def run_console_script(args):
    """Run the console script as a separate process on this checkout."""
    return run_in_checkout(console_script_command() + args)


class TestParserReuse:
    SEQUENCE = (
        ["measure", "[1,-3,1]"],
        ["search", "--kind", "skew_reciprocal", "--degree", "4",
         "--height", "1"],
        ["search", "--kind", "reciprocal", "--degree", "4"],  # no --height
    )

    @staticmethod
    def run(args, capsys):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_serves_every_call(self, capsys):
        fresh = []
        for args in self.SEQUENCE:
            _build_parser.cache_clear()
            fresh.append(self.run(args, capsys))
        _build_parser.cache_clear()
        reused = [self.run(args, capsys) for args in self.SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2]
        assert "the following arguments are required: --height" in reused[2][2]
        assert _build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import skewrec.cli as c; print(c._build_parser.cache_info().misses)",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


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

    def test_cli_import_leaves_mpmath_unloaded(self):
        # mpmath is imported by the root finder and the logs that use it
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import sys, skewrec.cli; print('mpmath' in sys.modules)",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_classify_leaves_mpmath_unloaded(self):
        # an exact command finds no roots, so it never loads mpmath
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import sys; from skewrec.cli import main; "
            "code = main(['classify', '[1,1,1]']); "
            "print(code, 'mpmath' in sys.modules)",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a search that starts more than one worker imports the pool
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import sys, skewrec.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_the_lazy_layers_unloaded(self):
        proc = run_in_checkout([
            sys.executable,
            "-c",
            f"import sys, skewrec.cli; print(sorted({LAZY_LAYERS!r} & set(sys.modules)))",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, layers", [
        (["classify", "[1,1,1]"], LAZY_LAYERS),
        (["measure", "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"], LAZY_LAYERS),
        (["companion", "[1,-3,1]"], {"skewrec.search"}),
    ], ids=["classify", "measure", "companion"])
    def test_one_shot_commands_leave_their_unused_layers_unloaded(self, argv, layers):
        # only search, table and verify load search; only decompose (and
        # search) loads structure; only companion loads symplectic
        proc = run_in_checkout([
            sys.executable,
            "-c",
            f"import sys; from skewrec.cli import main; code = main({argv!r}); "
            f"print(code, sorted({layers!r} & set(sys.modules)))",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


# Run in a fresh interpreter after importing the module named by argv[1]:
# the names dir() lists that are missing from it, the names of __all__ that
# are not the object their defining module holds, and whether
# `from skewrec import measure` gives the measure() function.
PUBLIC_API_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
import skewrec
listed = set(dir(skewrec))
from skewrec import measure
homes = {}
for name in ("enclosure", "poly", "roots", "measure", "search", "structure",
             "symplectic"):
    module = importlib.import_module("skewrec." + name)
    homes.update(dict.fromkeys(module.__all__, module))
wrong = []
for name in skewrec.__all__:
    obj = getattr(skewrec, name)
    home = homes.get(name) or sys.modules[obj.__module__]  # or an error class
    if getattr(home, name) is not obj:
        wrong.append(name)
print(sorted(set(skewrec.__all__) - listed), wrong,
      measure is sys.modules["skewrec.measure"].measure)
"""


class TestLazyPublicApi:
    @pytest.mark.parametrize("first", ["skewrec", "skewrec.search",
                                       "skewrec.structure"])
    def test_every_public_name_is_its_modules_object(self, first):
        proc = run_in_checkout([sys.executable, "-c", PUBLIC_API_PROBE, first])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] [] True"

    def test_the_lazy_layers_are_package_attributes(self):
        proc = run_in_checkout([
            sys.executable,
            "-c",
            "import skewrec; print(skewrec.symplectic.omega is skewrec.omega, "
            "skewrec.search.__name__)",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True skewrec.search"

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'spooky'"):
            skewrec.spooky


class TestTracedCommands:
    @pytest.mark.parametrize("argv", [
        ["search", "--kind", "skew_reciprocal", "--degree", "6",
         "--height", "1"],
        ["verify", "--degree", "4", "--height", "1"],
    ], ids=["search", "verify"])
    def test_search_layer_time_is_charged_to_its_span(self, capsys, argv):
        # the layer tracer wraps the CLI's search entry points, which load
        # the search layer on their first call
        from test_tracer_names import load_tracer

        tracer = load_tracer().Tracer()
        with tracer.installed():
            code = tracer.root(skewrec.cli.main)(argv)
        assert code == 0
        capsys.readouterr()
        assert tracer.calls["search"] >= 1 and tracer.self_s["search"] > 0
