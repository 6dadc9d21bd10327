"""End-to-end command-line behavior: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gframes as gf
from gframes.cli import FIXTURE_NAMES, main
from gframes.generate import partition_protocol, random_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def planes_path(tmp_path):
    path = tmp_path / "planes.json"
    gf.save_system(gf.fixtures()["overlapping_planes"], path)
    return str(path)


def test_fixture_listing(capsys):
    report = run_json(capsys, "fixtures")
    names = [entry["name"] for entry in report["outputs"]["available"]]
    assert names == sorted(gf.fixtures())
    assert report["command"] == "fixtures"


def test_fixture_names_match_the_catalog():
    assert FIXTURE_NAMES == tuple(sorted(gf.fixtures()))


def test_fixture_export_and_analyze_round_trip(capsys, tmp_path):
    out = tmp_path / "exported.json"
    report = run_json(capsys, "fixtures", "--name", "overlapping_planes",
                      "--out", str(out))
    assert report["outputs"]["written"] == str(out)
    assert gf.load_system(out).signature == gf.fixtures()["overlapping_planes"].signature

    analysis = run_json(capsys, "analyze", str(out))
    signature = analysis["outputs"]["signature"]
    assert signature == {"m": 2, "k": [2, 2], "d": 3}
    flags = analysis["outputs"]["classification"]
    assert flags["is_rs"] and flags["is_projective"] and flags["is_uniform"]
    assert not flags["is_protocol"] and not flags["is_riesz"]
    assert abs(analysis["outputs"]["wce_condition"] - np.sqrt(5.0) / 2.0) <= 1e-12
    assert analysis["tolerances"]["tolerance"] == 1e-9


def test_analyze_output_is_byte_deterministic(capsys, planes_path):
    _, first, _ = run(capsys, "analyze", planes_path)
    _, second, _ = run(capsys, "analyze", planes_path)
    assert first == second


def test_tolerance_flag_is_plumbed_through(capsys, planes_path):
    report = run_json(capsys, "--tolerance", "0.5", "analyze", planes_path)
    assert report["tolerances"]["tolerance"] == 0.5
    assert report["outputs"]["classification"]["tolerance"] == 0.5


def test_dual_canonical(capsys, planes_path):
    report = run_json(capsys, "dual", planes_path)
    assert report["inputs"]["kind"] == "canonical"
    assert report["outputs"]["dual_residual"] <= 1e-12
    dual = gf.system_from_dict(report["outputs"]["system"])
    assert np.allclose(dual.blocks[0], [[0, 1, 0], [0, 0, 0.5]], atol=1e-12)
    errors = report["outputs"]["error_report"]
    assert len(errors["per_index"]) == 2
    assert errors["worst_case"] <= errors["two_error"]


def test_dual_two_error(capsys, tmp_path):
    base = gf.fixtures()["overlapping_planes"]
    doubled = gf.ReconstructionSystem([base.blocks[0], 2.0 * np.asarray(base.blocks[1])])
    path = tmp_path / "doubled.json"
    gf.save_system(doubled, path)
    report = run_json(capsys, "dual", str(path), "--kind", "two_error")
    dual = gf.system_from_dict(report["outputs"]["system"])
    assert np.allclose(dual.blocks[0], [[0, 1, 0], [0, 0, 0.5]], atol=1e-12)
    assert np.allclose(dual.blocks[1], [[0.5, 0, 0], [0, 0, 0.25]], atol=1e-12)
    assert abs(report["outputs"]["error_report"]["two_error"] ** 2 - 2.5) <= 1e-10

    # a system that is not projective: the squared optimum is tr(D^{-1}), D = sum_i P_i
    general = random_system(6, (2, 3, 2, 2), 0)
    gf.save_system(general, path)
    outputs = run_json(capsys, "dual", str(path), "--kind", "two_error")["outputs"]
    assert outputs["dual_residual"] <= 1e-9
    projections = sum(np.linalg.pinv(v) @ v for v in map(np.asarray, general.blocks))
    trace = float(np.real(np.trace(np.linalg.inv(projections))))
    assert abs(outputs["error_report"]["two_error"] ** 2 - trace) <= 1e-12 * trace


def test_dual_worst_case(capsys, planes_path):
    report = run_json(capsys, "--iterations", "100", "dual", planes_path,
                      "--kind", "wce")
    assert abs(report["outputs"]["achieved_worst_case"] - np.sqrt(5.0) / 2.0) <= 1e-9
    assert abs(report["outputs"]["lower_bound"] - np.sqrt(5.0) / 2.0) <= 1e-9
    assert 1 <= report["outputs"]["steps"] <= 100
    assert report["outputs"]["dual_residual"] <= 1e-9
    assert report["inputs"]["iterations"] == 100


def test_erase_with_canonical_dual(capsys, planes_path):
    report = run_json(capsys, "erase", planes_path, "--mask", "1",
                      "--signal", "[1, 2, 3]")
    rebuilt = [complex(re, im) for re, im in report["outputs"]["reconstruction"]]
    assert np.allclose(rebuilt, [0.0, 2.0, 1.5], atol=1e-12)
    assert abs(report["outputs"]["error_norm"] - np.sqrt(3.25)) <= 1e-12
    assert report["inputs"]["mask"] == [1]


def test_erase_with_explicit_dual(capsys, tmp_path, planes_path):
    dual_path = tmp_path / "omega.json"
    gf.save_system(gf.fixtures()["overlapping_planes_dual"], dual_path)
    report = run_json(capsys, "erase", planes_path, "--dual", str(dual_path),
                      "--mask", "1", "--signal", "[1, 2, 3]")
    assert abs(report["outputs"]["error_norm"] - np.sqrt(10.0)) <= 1e-12

    unmasked = run_json(capsys, "erase", planes_path, "--dual", str(dual_path),
                        "--signal", "[1, 2, 3]")
    assert unmasked["outputs"]["error_norm"] <= 1e-12
    assert unmasked["inputs"]["mask"] == []


def test_erase_names_a_malformed_dual_file(capsys, tmp_path, planes_path):
    short = tmp_path / "short.json"  # d = 3, but its one row has one entry
    short.write_text('{"d": 3, "k": [1], "blocks": [[[[1, 0]]]]}')
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    signal = ("--signal", "[1,2,3]")
    assert run(capsys, "erase", planes_path, "--dual", str(short), *signal) == (
        2, "", f"error: --dual {short}: block 0, row 0: expected 3 entries\n")
    assert run(capsys, "erase", planes_path, "--dual", str(broken), *signal) == (
        2, "", f"error: --dual {broken}: invalid JSON at line 1 column 2: "
               "Expecting property name enclosed in double quotes\n")
    # errors in the main system file keep their bytes, whichever file is good
    assert run(capsys, "erase", str(short), "--dual", planes_path, *signal) == (
        2, "", "error: block 0, row 0: expected 3 entries\n")
    assert run(capsys, "erase", str(broken), "--dual", planes_path, *signal) == (
        2, "", "error: invalid JSON at line 1 column 2: "
               "Expecting property name enclosed in double quotes\n")


@pytest.mark.parametrize("options", [
    ("analyze",),
    ("dual", "--kind", "wce"),
    ("erase", "--mask", "99", "--signal", "["),
    ("erase", "--dual", "missing.json", "--mask", "0,0", "--signal", "[1,2,3]"),
    ("truncate", "--drop", "99"),
    ("approx",),
])
def test_the_system_file_is_read_after_the_global_checks_and_before_other_options(
        capsys, tmp_path, options):
    short = tmp_path / "short.json"  # d = 3, but its one row has one entry
    short.write_text('{"d": 3, "k": [1], "blocks": [[[[1, 0]]]]}')
    argv = (options[0], str(short), *(str(tmp_path / a) if a.endswith(".json") else a
                                      for a in options[1:]))
    assert run(capsys, *argv) == (2, "", "error: block 0, row 0: expected 3 entries\n")
    assert run(capsys, "--tolerance", "0", *argv) == (2, "", "error: tolerance must be positive\n")
    assert run(capsys, "--iterations", "0", *argv) == (
        2, "", "error: iterations must be at least 1\n")


def test_erase_accepts_complex_signals(capsys, planes_path):
    report = run_json(capsys, "erase", planes_path, "--mask", "",
                      "--signal", "[[0, 1], 2, 3]")
    assert report["outputs"]["error_norm"] <= 1e-12


def test_truncate_unstable_fixture(capsys, planes_path):
    report = run_json(capsys, "truncate", planes_path, "--drop", "1")
    outputs = report["outputs"]
    assert outputs["dropped"] == [1]
    assert outputs["kept"] == [0]
    assert outputs["is_rs_after"] is False
    assert outputs["bounds_after"] is None
    assert outputs["truncated_dual"] is None
    assert outputs["energy_condition"]["holds"] is False


def test_truncate_stable_protocol(capsys, tmp_path):
    path = tmp_path / "protocol.json"
    gf.save_system(partition_protocol(4, 2, 2, seed=801), path)
    report = run_json(capsys, "truncate", str(path), "--drop", "0")
    outputs = report["outputs"]
    assert outputs["is_rs_after"] is True
    assert outputs["energy_condition"]["holds"] is True
    assert abs(outputs["energy_condition"]["estimate"] - 0.5) <= 1e-10
    dual = gf.system_from_dict(outputs["truncated_dual"])
    assert dual.m == 3


def test_approx_reports_distance_and_weights(capsys, tmp_path):
    path = tmp_path / "stretch.json"
    gf.save_system(gf.ReconstructionSystem([np.diag([2.0, 4.0])]), path)
    report = run_json(capsys, "approx", str(path))
    assert abs(report["outputs"]["distance"] - np.sqrt(2.0)) <= 1e-12
    assert np.allclose(report["outputs"]["weights"], [3.0], atol=1e-12)


def test_analyze_degenerate_system_is_in_band(capsys, tmp_path):
    path = tmp_path / "flat.json"
    gf.save_system(gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0]]),
                                            np.array([[2.0, 0.0, 0.0]])]), path)
    report = run_json(capsys, "analyze", str(path))
    assert report["outputs"]["classification"]["is_rs"] is False
    assert report["outputs"]["wce_condition"] is None

    code, _, err = run(capsys, "dual", str(path))
    assert code == 3
    assert "error:" in err


def test_precondition_failures_exit_three(capsys, tmp_path):
    path = tmp_path / "wide.json"
    gf.save_system(random_system(2, (3, 2), seed=802), path)
    code, _, err = run(capsys, "approx", str(path))
    assert code == 3
    assert "error:" in err
    code, _, _ = run(capsys, "dual", str(path), "--kind", "two_error")
    assert code == 3


def test_usage_and_parse_failures_exit_two(capsys, tmp_path, planes_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(broken))
    assert code == 2
    assert "line 1" in err

    schema = tmp_path / "schema.json"
    schema.write_text('{"d": 2, "k": [1], "blocks": [[[1, 0]]]}')
    code, _, _ = run(capsys, "analyze", str(schema))
    assert code == 2
    schema.write_text("[]")
    assert run(capsys, "analyze", str(schema)) == (
        2, "", "error: system payload must be a JSON object\n")
    # a system entry reads as the signal's does: an integer beyond the float range is not finite
    for entry in ("1e400", "1" + "0" * 400):
        schema.write_text(f'{{"d": 1, "k": [1], "blocks": [[[[0, {entry}]]]]}}')
        assert run(capsys, "analyze", str(schema)) == (
            2, "", "error: block 0, row 0, column 0: entries must be finite\n")
    # a huge d is refused by its row lengths, before a k x d matrix is allocated
    for d in (10 ** 400, 10 ** 13):
        schema.write_text(f'{{"d": {d}, "k": [1], "blocks": [[[[1, 0]]]]}}')
        assert run(capsys, "analyze", str(schema)) == (
            2, "", f"error: block 0, row 0: expected {d} entries\n")
    # files that json cannot decode: deep nesting, bytes that are not UTF-8, a long integer
    for content, message in (
            (b"[" * 100_000, "system file nests too deeply"),
            (b'{"d": 1}\xff', "system file is not UTF-8: invalid start byte at byte 8"),
            (b'{"d": 1' + b"0" * 4999 + b"}",
             "system file holds an integer literal with too many digits")):
        schema.write_bytes(content)
        assert run(capsys, "analyze", str(schema)) == (2, "", f"error: {message}\n")

    assert run(capsys, "analyze", str(tmp_path / "missing.json"))[0] == 2
    assert run(capsys, "erase", planes_path, "--mask", "x", "--signal", "[1,2,3]")[0] == 2
    assert run(capsys, "erase", planes_path, "--signal", "[1,2]")[0] == 2
    assert run(capsys, "erase", planes_path, "--signal", "nope")[0] == 2
    # JSON parses these to non-finite floats, or to an integer beyond the float range
    for entry in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "[0, NaN]"):
        signal = f"[1, {entry}, 2]"
        assert run(capsys, "erase", planes_path, "--signal", signal) == (
            2, "", "error: --signal entry 1 must be finite\n")
    for signal, message in (("[" * 5000, "--signal nests too deeply"),
                            (f"[1, 1{'0' * 4999}, 2]",
                             "--signal holds an integer literal with too many digits")):
        assert run(capsys, "erase", planes_path, "--signal", signal) == (
            2, "", f"error: {message}\n")
    # sigma^2 of entries near 1e200 overflows: the report cannot be written
    huge = tmp_path / "huge.json"
    gf.save_system(gf.ReconstructionSystem([[[1e200, 0.0]], [[0.0, 1e200]]]), huge)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(capsys, "analyze", str(huge)) == (
            2, "", "error: cannot serialize non-finite float\n")
    assert run(capsys, "truncate", planes_path, "--drop", "0,0")[0] == 2
    assert run(capsys, "fixtures", "--name", "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_reports_have_the_common_envelope(capsys, planes_path):
    for argv in (["analyze", planes_path], ["dual", planes_path],
                 ["truncate", planes_path, "--drop", ""], ["approx", planes_path]):
        report = run_json(capsys, *argv)
        assert set(report) == {"command", "inputs", "outputs", "tolerances"}


# every subcommand with the arguments it needs; "FILE" stands for a system file
COMMANDS = {
    "analyze": ["analyze", "FILE"],
    "dual_canonical": ["dual", "FILE", "--kind", "canonical"],
    "dual_two_error": ["dual", "FILE", "--kind", "two_error"],
    "dual_wce": ["dual", "FILE", "--kind", "wce"],
    "truncate": ["truncate", "FILE", "--drop", "1"],
    "approx": ["approx", "FILE"],
    "erase": ["erase", "FILE", "--signal", "[1, 2, 3]"],
    # these read no tolerance, and only dual --kind wce reads --iterations
    "erase_dual": ["erase", "FILE", "--dual", "FILE", "--signal", "[1, 2, 3]"],
    "fixture_listing": ["fixtures"],
    "fixture": ["fixtures", "--name", "overlapping_planes"],
}


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_tolerance_that_is_not_positive_is_a_usage_error(capsys, planes_path, name,
                                                            tolerance):
    argv = [planes_path if arg == "FILE" else arg for arg in COMMANDS[name]]
    code, out, err = run(capsys, "--tolerance", tolerance, *argv)
    problem = "finite" if tolerance == "inf" else "positive"
    assert (code, out, err) == (2, "", f"error: tolerance must be {problem}\n")


@pytest.mark.parametrize("iterations", ["0", "-3"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_an_iteration_budget_below_one_is_a_usage_error(capsys, planes_path, name, iterations):
    argv = [planes_path if arg == "FILE" else arg for arg in COMMANDS[name]]
    code, out, err = run(capsys, "--iterations", iterations, *argv)
    assert (code, out, err) == (2, "", "error: iterations must be at least 1\n")


def test_truncate_judges_the_survivors_of_a_dominant_drop(capsys, tmp_path):
    system = random_system(4, (2, 2, 2, 2), 1)
    path = tmp_path / "dominant.json"
    gf.save_system(gf.ReconstructionSystem((1e4 * system.blocks[0],) + system.blocks[1:]), path)
    outputs = run_json(capsys, "truncate", str(path), "--drop", "0")["outputs"]
    assert outputs["is_rs_after"] is True
    assert outputs["bounds_after"] is not None
    dual = gf.system_from_dict(outputs["truncated_dual"])
    expected = gf.canonical_dual(gf.ReconstructionSystem(system.blocks[1:]))
    assert gf.blockwise_distance(dual, expected) <= 1e-12


# The gframes modules every CLI call loads: the parser, ``main`` and the serializer.
CLI_BASE = {"cli", "core", "serialize", "_linalg", "errors"}
# What each subcommand loads on top of CLI_BASE.
SUBCOMMAND_MODULES = {
    "analyze": {"erasure"},
    "dual": {"duals", "erasure"},
    "erase": {"duals", "erasure"},
    "truncate": {"stability"},
    "approx": {"approx"},
    "fixtures": {"constructions"},
}
# Prints the loaded gframes submodules, without the package prefix.
LOADED = "print(*sorted(m[8:] for m in sys.modules if m.startswith('gframes.')))"


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter on this gframes; the test process has
    imported every module already."""
    env = dict(os.environ, PYTHONPATH=str(Path(gf.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_gframes_loads_no_submodule():
    assert fresh_python("import sys, gframes\n" + LOADED).split() == []


def test_import_cli_loads_only_what_main_and_the_parser_need():
    assert set(fresh_python("import sys, gframes.cli\n" + LOADED).split()) == CLI_BASE


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_subcommand_loads_only_its_modules(planes_path, name):
    argv = [planes_path if arg == "FILE" else arg for arg in COMMANDS[name]]
    code = ("import contextlib, io, sys\n"
            "from gframes.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(status)\n" + LOADED)
    status, loaded = fresh_python(code, *argv).splitlines()
    assert status == "0"
    assert set(loaded.split()) == CLI_BASE | SUBCOMMAND_MODULES[argv[0]]


def test_star_import_binds_each_public_name_to_its_home_modules_object():
    code = ("from importlib import import_module\n"
            "from gframes import *\n"
            "import gframes\n"
            "for name in gframes.__all__:\n"
            "    home = import_module(f'gframes.{gframes._HOME[name]}')\n"
            "    value = globals()[name]\n"
            "    assert value is getattr(home, name), name\n"
            "    assert not callable(value) or value.__module__ == home.__name__, name\n")
    fresh_python(code)


def test_star_import_of_each_submodule_binds_the_names_homed_there():
    # serialize also exports its two matrix codecs, which are not top-level names
    extra = {"serialize": {"matrix_to_pairs", "pairs_to_matrix"}}
    for module in sorted(set(gf._HOME.values()) | set(extra)):
        namespace = {}
        exec(f"from gframes.{module} import *", namespace)
        homed = {name for name, home in gf._HOME.items() if home == module}
        assert set(namespace) - {"__builtins__"} == homed | extra.get(module, set()), module


def test_submodules_resolve_after_a_plain_import():
    code = ("import gframes\n"
            "print(gframes.stability.truncate is gframes.truncate,\n"
            "      gframes.core.classify is gframes.classify,\n"
            "      set(gframes.__all__) <= set(dir(gframes)))")
    assert fresh_python(code) == "True True True\n"


def test_an_unknown_name_is_an_attribute_error():
    code = ("import gframes\n"
            "try:\n"
            "    gframes.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    assert fresh_python(code) == "module 'gframes' has no attribute 'no_such_name'\n"
