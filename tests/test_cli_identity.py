"""``tools/cli_identity.py``: its numeric comparison walks the whole report, and its docstring
states the number of calls it makes."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("cli_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BEFORE = {"command": "dual", "outputs": {"steps": 7, "achieved": 2.0, "lower_bound": 1.5}}
AFTER = {"command": "dual", "outputs": {"steps": 9, "achieved": 2.0 + 1e-7, "lower_bound": 1.5}}


def test_an_integer_difference_does_not_hide_a_float_deviation(identity):
    deviation, where, mismatches = identity.normwise_deviation(BEFORE, AFTER)
    assert deviation == pytest.approx(1e-7 / (2.0 + 1e-7))
    assert where == "$.outputs.achieved"
    assert mismatches == ["$.outputs.steps: 7 vs 9"]


def test_compare_reports_both_the_mismatch_and_the_deviation(identity):
    before = (0, json.dumps(BEFORE), "")
    after = (0, json.dumps(AFTER), "")
    streams, deviation, where = identity.compare(before, after, numeric=True)
    assert streams == ["stdout ($.outputs.steps: 7 vs 9)",
                       f"stdout floats beyond {identity.NUMERIC_TOLERANCE:g}"]
    assert deviation > 0.0
    assert where == "$.outputs.achieved"


def test_the_walk_goes_on_past_missing_keys_and_lengths(identity):
    mismatches = []
    deviation, where, _ = identity.float_deviation(
        {"a": [1.0, 2.0, 3.0], "b": "x", "c": 0.5},
        {"a": [1.0, 2.5], "b": "y", "d": 0.5}, mismatches)
    assert (deviation, where) == (0.5, "$.a[1]")
    assert mismatches == ["$: keys ['a', 'b', 'c'] vs ['a', 'b', 'd']",
                          "$.a: lengths 3 vs 2", "$.b: 'x' vs 'y'"]


def test_equal_reports_have_no_deviation(identity):
    deviation, _, mismatches = identity.normwise_deviation(BEFORE, json.loads(json.dumps(BEFORE)))
    assert (deviation, mismatches) == (0.0, [])


def test_the_docstring_states_the_number_of_calls(identity, tmp_path):
    # matrix() reads only d and k of each system file, so stubs stand in for the systems
    paths = {}
    for name in identity.FIXTURES + identity.GENERATED:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text('{"d": 3, "k": [1, 2]}')
    boundary = [tmp_path / f"{name}.json" for name in identity.BOUNDARY]
    malformed = [tmp_path / f"{name}.json" for name in identity.MALFORMED]
    calls = (identity.matrix(paths, tmp_path / f"{identity.DOMINANT}.json", boundary)
             + identity.usage_errors(paths["overlapping_planes"], malformed))
    stated = re.search(r"fixed matrix of (\d+) CLI calls", identity.__doc__)
    assert stated is not None
    assert len(calls) == int(stated.group(1))
