"""``tools/bench_compare.py`` keeps every tier-1 run it writes into one record.

Each invocation measures the tier-1 suite once per side; the record's ``tier1``
entry appends those runs and reads each test's seconds as the median over
every run that lists it, so a gate on one test reads more than one sample.
The side whose suite runs first alternates from one invocation to the next, so
drift in machine speed favours neither side.  Standard library only, like the
tool.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def run(wall, **calls):
    slowest = [{"seconds": seconds, "when": "call", "id": name} for name, seconds in calls.items()]
    slowest.append({"seconds": 9.0, "when": "setup", "id": "slow_fixture"})
    return {"wall_s": wall, "exit": 0, "result": "1 passed", "slowest": slowest}


def test_each_invocation_appends_a_run_and_the_medians_cover_all_runs():
    entry = {}
    samples = [(20.0, 2.7, 2.3), (18.0, 1.9, 1.6), (19.0, 2.0, None)]
    for wall, first, second in samples:
        calls = {"crit02": first} if second is None else {"crit02": first, "crit05": second}
        change = run(wall - 2.0, crit02=first / 2)
        entry = bench_compare.merge_tier1(entry, {"parent": run(wall, **calls), "change": change})
        entry = json.loads(json.dumps(entry))  # as read back from the record
    parent, change = entry["parent"], entry["change"]
    assert [each["wall_s"] for each in parent["runs"]] == [20.0, 18.0, 19.0]
    assert parent["wall_s"] == 19.0 and change["wall_s"] == 17.0
    assert parent["tests"] == {"crit02": {"median_s": 2.0, "runs": 3},
                               "crit05": {"median_s": 1.95, "runs": 2}}
    assert change["tests"] == {"crit02": {"median_s": 1.0, "runs": 3}}  # calls only
    assert entry["command"].endswith(" ".join(bench_compare.TIER1))


def test_a_record_of_one_unlisted_run_keeps_that_run():
    old = {"command": "python -m pytest", "parent": run(20.0, crit02=2.7),
           "change": run(15.0, crit02=1.4)}
    entry = bench_compare.merge_tier1(old, {"parent": run(18.0, crit02=1.9),
                                            "change": run(16.0, crit02=1.3)})
    assert [each["wall_s"] for each in entry["parent"]["runs"]] == [20.0, 18.0]
    assert entry["parent"]["tests"]["crit02"] == {"median_s": 2.3, "runs": 2}
    assert entry["change"]["wall_s"] == 15.5


def test_the_side_that_runs_tier1_first_alternates_over_invocations(monkeypatch):
    order = []

    def timed(root):
        order.append(root)
        return run(20.0 if root == "p" else 18.0, crit02=1.0)

    monkeypatch.setattr(bench_compare, "run_tier1", timed)
    roots = {"parent": "p", "change": "c"}
    entry = {}
    for expected in (["p", "c"], ["c", "p"], ["p", "c"]):
        order.clear()
        runs = bench_compare.measure_tier1(roots, entry)
        assert order == expected
        assert runs["parent"]["first"] is (expected[0] == "p")
        assert runs["change"]["first"] is (expected[0] == "c")
        entry = json.loads(json.dumps(bench_compare.merge_tier1(entry, runs)))
    assert [each["first"] for each in entry["parent"]["runs"]] == [True, False, True]
    assert [each["first"] for each in entry["change"]["runs"]] == [False, True, False]
    order.clear()  # a record of one unlisted run per side holds an odd number of runs
    bench_compare.measure_tier1(roots, {"parent": run(20.0), "change": run(15.0)})
    assert order == ["c", "p"]


def test_tier1_runs_are_bracketed_by_the_calibration_kernel(monkeypatch):
    # the kernel child runs in the checkout just before and just after the suite, and each
    # test's scaled seconds are its seconds times the reference over the mean kernel time
    commands = []
    kernel_times = iter([0.020, 0.024, 0.011, 0.011])
    suite = "\n".join(["...", "3.00s call     crit02", "1.00s setup    crit02", "2 passed in 9.0s"])

    def runner(command, cwd, env, **kwargs):
        commands.append((command[1], cwd, env["OPENBLAS_NUM_THREADS"]))
        if command[1] == "-c":
            assert "Calibration('calls')" in command[2]
            stdout = json.dumps([next(kernel_times), 0.011])
        else:
            stdout = suite
        return bench_compare.subprocess.CompletedProcess(command, 0, stdout, "")

    monkeypatch.setattr(bench_compare.subprocess, "run", runner)
    slow, fast = (bench_compare.run_tier1(Path("checkout")) for _ in range(2))
    assert commands == [("-c", Path("checkout"), "1"), ("-m", Path("checkout"), "1"),
                        ("-c", Path("checkout"), "1")] * 2
    assert slow["calibration"] == {"before_s": 0.020, "after_s": 0.024, "reference_s": 0.011}
    assert bench_compare.reference_factor(slow) == 0.011 / 0.022
    entry = bench_compare.merge_tier1({}, {"parent": slow, "change": fast})
    entry = bench_compare.merge_tier1(json.loads(json.dumps(entry)),
                                      {"parent": run(20.0, crit02=2.0), "change": fast})
    # the parent's second run has no calibration, so only its first run is scaled
    assert entry["parent"]["tests"] == {
        "crit02": {"median_s": 2.5, "runs": 2, "median_scaled_s": 1.5}}
    assert entry["change"]["tests"] == {
        "crit02": {"median_s": 3.0, "runs": 2, "median_scaled_s": 3.0}}

    failed = iter([json.dumps([0.02, 0.011]), None])

    def failing(command, cwd, env, **kwargs):
        if command[1] == "-c":
            stdout = next(failed)
            return bench_compare.subprocess.CompletedProcess(command, 0 if stdout else 1,
                                                             stdout or "", "")
        return bench_compare.subprocess.CompletedProcess(command, 0, suite, "")

    monkeypatch.setattr(bench_compare.subprocess, "run", failing)
    lone = bench_compare.run_tier1(Path("checkout"))
    assert lone["calibration"] is None and bench_compare.reference_factor(lone) is None
    assert bench_compare.merge_tier1({}, {"parent": lone})["parent"]["tests"] == {
        "crit02": {"median_s": 3.0, "runs": 1}}
