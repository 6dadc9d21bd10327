"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gframes as gf  # noqa: E402
from gframes.generate import random_system  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.mark.parametrize("workload", ["oracle", "dense", "cli"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, stdout = run_bench("--workload", workload, "--seed", "3",
                               "--seconds", "0.01", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    assert "# environment" in stdout and "failed_frac" in stdout


def test_traced_run_reports_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, _ = run_bench("--workload", "cli", "--seed", "3", "--seconds", "0.01",
                          "--trace", "1")
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for metric in declared["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["cli.process.calls"]["value"] == 1.0
    assert result["metrics"]["cli.python_start_ms"]["value"] > 0


def test_run_without_the_library_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------- checkers

def small_system(seed: int = 5):
    return random_system(8, (2,) * 6, np.random.default_rng(seed))


def perturbed(system, index: int = 0, amount: float = 1e-3):
    blocks = [np.array(b) for b in system.blocks]
    blocks[index][0, 0] += amount
    return gf.ReconstructionSystem(tuple(blocks))


def test_pipeline_checker_accepts_the_library_as_is():
    dense = workloads.Dense(0)
    assert dense.pipeline(workloads.library(), small_system(), (1,), None) == []


def test_pipeline_checker_flags_one_perturbed_dual_block():
    lib = workloads.library()
    lib.canonical_dual = lambda system: perturbed(gf.canonical_dual(system))
    failures = workloads.Dense(0).pipeline(lib, small_system(), (1,), None)
    assert any("canonical dual residual" in f for f in failures)


def test_pipeline_checker_flags_a_wrong_truncated_dual_and_distance():
    lib = workloads.library()
    lib.truncated_canonical_dual = (
        lambda system, drop: perturbed(gf.truncated_canonical_dual(system, drop), 2))
    real = gf.nearest_projective
    lib.nearest_projective = lambda system: (real(system)[0], real(system)[1] * 1.001)
    failures = workloads.Dense(0).pipeline(lib, small_system(), (1,), None)
    assert any("truncated dual residual" in f for f in failures)
    assert any("projective distance" in f for f in failures)


def test_wce_checker_flags_a_dual_that_is_off_or_above_canonical():
    system = small_system()
    canonical = gf.error_report(system, gf.canonical_dual(system)).worst_case
    lib = workloads.library()
    lib.wce_minimize = lambda s, iterations: (perturbed(gf.canonical_dual(s)), canonical)
    failures = workloads.Dense(0).wce(lib, system, canonical)
    assert any("dual residual" in f for f in failures)
    lib.wce_minimize = lambda s, iterations: (gf.canonical_dual(s), 2 * canonical)
    failures = workloads.Dense(0).wce(lib, system, canonical)
    assert any("above the canonical" in f for f in failures)


def test_truncation_checker_flags_a_wrong_factor():
    system = small_system()
    lib = workloads.library()
    real = gf.truncate

    def wrong(s, drop):
        report = real(s, drop)
        factor = report.truncation_factor.copy()
        factor[0, 0] += 1e-6
        return gf.TruncationReport(report.dropped, report.kept, factor, report.is_rs_after,
                                   report.truncated_frame_operator,
                                   report.lower_bound_estimate, report.bounds_after)

    assert workloads.check_truncation(lib, system, (1, 2))[0] == []
    lib.truncate = wrong
    assert any("factor identity" in f
               for f in workloads.check_truncation(lib, system, (1, 2))[0])


def test_oracle_checker_flags_a_beaten_optimum_and_a_wrong_distance():
    oracle = workloads.Oracle(4)
    item = oracle.draw_round(0)
    assert oracle.certify(item, workloads.library(), samples=50) == []
    lib = workloads.library()
    lib.optimal_dual_two_error = (
        lambda s: gf.dual_manifold_sample(s, seed=1, count=1, scale=5.0)[0])
    real = gf.nearest_projective
    lib.nearest_projective = lambda s: (real(s)[0], 10 * real(s)[1])
    failures = oracle.certify(item, lib, samples=50)
    assert any(f.startswith("two-error") for f in failures)
    assert any(f.startswith("approx") for f in failures)


def test_cli_checker_flags_one_changed_stdout_byte_and_a_wrong_exit_code(tmp_path):
    cli = workloads.Cli(1, ROOT, tmp_path)
    cli.setup()
    code, reference = cli.references[0]
    good = reference.encode()
    assert cli.check(0, subprocess.CompletedProcess([], code, good, b"")) == []
    flipped = good[:10] + bytes([good[10] ^ 1]) + good[11:]
    assert cli.check(0, subprocess.CompletedProcess([], code, flipped, b""))
    assert cli.check(0, subprocess.CompletedProcess([], 3, good, b""))


# ---------------------------------------------------------------- spans

def test_self_time_of_a_hand_built_span_tree():
    tree = [
        spans.Span("op", 0, 100, None, 0),
        spans.Span("a", 10, 40, 0, 0),
        spans.Span("b", 30, 60, 0, 0),    # overlaps a: the union 10..60 is covered
        spans.Span("a", 15, 20, 1, 0),    # child of the first a
        spans.Span("a", 70, 80, 0, 0),
    ]
    assert spans.self_times(tree) == [40, 25, 30, 5, 10]
    assert spans.busy_by_name(tree) == {"op": (40, 1), "a": (40, 3), "b": (30, 1)}


def test_tracer_records_parents_and_ops():
    tracer = spans.Tracer()
    tracer.op = 7
    add = tracer.wrap("inner", lambda a, b: a + b)
    with tracer.span("outer"):
        assert add(2, 3) == 5
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.op) == (None, 0, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


# ---------------------------------------------------------------- inputs

def blocks_of(system):
    return [np.asarray(b) for b in system.blocks]


def same_systems(a, b) -> bool:
    return a.k == b.k and all(np.array_equal(x, y)
                              for x, y in zip(blocks_of(a), blocks_of(b)))


def test_same_seed_gives_identical_inputs(tmp_path):
    first, second, other = (workloads.Oracle(s).draw_round(3) for s in (9, 9, 10))
    for key in ("two_error", "protocol", "injective", "commuting", "riesz", "general"):
        assert same_systems(first[key], second[key])
    assert first["drop"] == second["drop"]
    assert first["sample_seeds"] == second["sample_seeds"]
    assert not same_systems(first["general"], other["general"])

    dense = [workloads.Dense(s) for s in (9, 9)]
    for d in dense:
        d.setup()
    for (a, drop_a, _), (b, drop_b, _) in zip(dense[0].big, dense[1].big):
        assert same_systems(a, b) and drop_a == drop_b

    clis = [workloads.Cli(9, ROOT, tmp_path / name) for name in ("x", "y")]
    for c in clis:
        c.setup()
    texts = [Path(c.files["generated"]).read_text() for c in clis]
    assert texts[0] == texts[1]
    calls = [[[arg.replace(str(c.workdir), "") for arg in argv] for _, argv in c.calls]
             for c in clis]
    assert calls[0] == calls[1]


def test_calibration_scales_by_the_mean_kernel_time_around_the_work():
    import run

    class Fixed(run.Calibration):
        times = iter([0.010, 0.020, 0.030])

        def kernel(self):
            return next(self.times)

    calibration = Fixed("calls")
    reference = run.Calibration.REFERENCE_S["calls"]
    assert calibration.scale(2.0) == pytest.approx(2.0 * reference / 0.015)
    assert calibration.scale(1.0) == pytest.approx(reference / 0.025)
    assert calibration.samples == [0.010, 0.020, 0.030]
