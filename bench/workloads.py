"""The benchmark's three closed-loop workloads and their output checks.

Each workload draws its inputs from the run seed in ``setup`` and then runs
one op at a time, with one client and no concurrency:

- ``oracle``: one op is one round of five brute-force certifications on tiny
  systems (d <= 12, m <= 8, k <= 4), where per-call Python and numpy
  overhead dominates.
- ``dense``: one op is the ``pipeline`` on a d=256, m=128, k=4 system
  followed by a 200-step ``wce`` solve on a d=64, m=32, k=4 system, where
  BLAS work dominates.
- ``cli``: one op is one fresh ``gframes.cli`` process; start-up dominates.

``op`` returns the list of failed checks (empty when every output is right).
Library calls go through the ``lib`` namespace so that a traced run can time
each call the benchmark makes into a public gframes function.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import gframes as gf
from gframes.cli import main as cli_main
from gframes.generate import random_system

import draws
import spans

# Public gframes functions the workloads call, by module.
CALLED = {
    "core": ("classify",),
    "generate": ("random_projective",),
    "duals": ("canonical_dual", "verify_dual", "dual_manifold_sample"),
    "erasure": ("error_report", "optimal_dual_two_error", "wce_condition",
                "wce_minimize"),
    "stability": ("truncate", "truncated_canonical_dual", "ck_sufficient_condition"),
    "approx": ("nearest_projective",),
    "constructions": ("commuting_projective_dual", "riesz_projective_dual_check"),
    "serialize": ("load_system", "dumps_canonical"),
}
TRACED_FUNCTIONS = tuple(f"{module}.{name}" for module, names in CALLED.items()
                         for name in names) + ("cli.process",)

# Thresholds of the acceptance tests (tests/test_acceptance.py), unchanged.
TWO_ERROR_TOL = 1e-9
SAMPLED_WORST_TOL = 1e-6
WCE_VS_CANONICAL_TOL = 1e-5
COMPETITOR_TOL = 1e-9
DUAL_RESIDUAL_TOL = 1e-9
TRUNCATION_TOL = 1e-10
# Relative agreement of one number computed two ways, in the benchmark's own checks.
AGREEMENT_TOL = 1e-9

SHAPE_STREAM = 11121654  # fixed seed of the oracle's shape stream


def library(tracer=None) -> SimpleNamespace:
    """The called functions, each wrapped in a span named ``module.function`` when tracing."""
    functions = {}
    for module, names in CALLED.items():
        loaded = importlib.import_module(f"gframes.{module}")
        for name in names:
            fn = getattr(loaded, name)
            functions[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
    functions["cli_process"] = (run_process if tracer is None
                                else tracer.wrap("cli.process", run_process))
    return SimpleNamespace(**functions)


def stacked(system) -> np.ndarray:
    """Analysis matrix (all blocks stacked), computed here, not by the library."""
    return np.concatenate([np.asarray(b) for b in system.blocks])


def gram(system) -> np.ndarray:
    t = stacked(system)
    return t.conj().T @ t


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------- oracle

class Oracle:
    """Rounds of five certifications, as acceptance criteria 02, 05, 06, 07, 09/10."""

    name = "oracle"
    calibration = "calls"
    # Every cycle runs the same eight rounds, so a run's median covers whole
    # copies of one shape mix however many cycles fit in the time.
    ops_per_cycle = deck_size = 8
    samples = 1000
    shape = (12, 8, 4)  # largest (d, m, k) drawn; the kernel-floor shape

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ratios: list[float] = []

    def setup(self) -> None:
        self.deck = [self.draw_round(r) for r in range(self.deck_size)]
        self.certify(self.deck[0], library(), samples=4)  # warm-up
        self.ratios = []

    def draw_round(self, r: int) -> dict:
        # Round r has the same shapes under every seed (see draws.py); the
        # seed draws the numbers.
        shapes = np.random.default_rng([SHAPE_STREAM, r])
        rng = np.random.default_rng([self.seed, r])
        general = draws.draw_general(shapes, rng)
        return {
            "round": r,
            "two_error": draws.draw_nonuniform_projective(shapes, rng),
            "protocol": draws.draw_protocol(shapes, rng),
            "injective": draws.draw_injective(shapes, rng),
            "commuting": draws.draw_commuting(
                shapes, rng, multiplicity=(r % 8) + 1 if r % 2 == 0 else None),
            "riesz": draws.draw_riesz(shapes, rng, singleton_blocks=(r % 5 == 0)),
            "general": general,
            "drop": draws.drop_set(shapes, general.m, general.m - 1),
            "sample_seeds": [int(s) for s in rng.integers(0, 2**31, size=3)],
        }

    def op(self, index: int, lib) -> list[str]:
        return self.certify(self.deck[index % self.deck_size], lib, self.samples)

    def certify(self, item: dict, lib, samples: int) -> list[str]:
        failures: list[str] = []
        seeds = item["sample_seeds"]

        # criterion 02: the two-error optimum against sampled duals
        system = item["two_error"]
        floor = lib.error_report(system, lib.optimal_dual_two_error(system)).two_error
        duals = lib.dual_manifold_sample(system, seed=seeds[0], count=samples)
        lowest = min(lib.error_report(system, s).two_error for s in duals)
        if lowest < floor - TWO_ERROR_TOL:
            failures.append(f"two-error: sampled dual at {lowest:.12f} beats the "
                            f"optimum {floor:.12f}")

        # criterion 05: the canonical dual is worst-case optimal on a protocol
        system = item["protocol"]
        if lib.wce_condition(system) is None:
            failures.append("protocol: constant-norm criterion missing")
        floor = lib.error_report(system, lib.canonical_dual(system)).worst_case
        duals = lib.dual_manifold_sample(system, seed=seeds[1], count=samples)
        lowest = min(lib.error_report(system, s).worst_case for s in duals)
        if lowest < floor - SAMPLED_WORST_TOL:
            failures.append(f"protocol: sampled worst case {lowest:.9f} under {floor:.9f}")
        _, achieved = lib.wce_minimize(system)
        if abs(achieved - floor) > WCE_VS_CANONICAL_TOL:
            failures.append(f"protocol: minimizer reached {achieved:.9f}, canonical "
                            f"worst case is {floor:.9f}")
        self.ratios.append(achieved / floor)

        # criterion 07: the nearest projective system against random competitors
        system = item["injective"]
        _, distance = lib.nearest_projective(system)
        target = stacked(system)
        rng = np.random.default_rng(seeds[2])
        for _ in range(samples):
            competitor = lib.random_projective(system.d, system.k, rng)
            gap = float(np.linalg.norm(target - stacked(competitor)))
            if gap < distance - COMPETITOR_TOL:
                failures.append(f"approx: competitor at {gap:.12f} beats {distance:.12f}")
                break

        # criteria 10 and 09: projective duals from commuting projections; Riesz check
        system = item["commuting"]
        dual = lib.commuting_projective_dual(system)
        residual = lib.verify_dual(dual, system).dual_residual
        if residual > DUAL_RESIDUAL_TOL:
            failures.append(f"commuting: dual residual {residual:.3e}")
        if not lib.classify(dual).is_projective:
            failures.append("commuting: constructed dual is not projective")
        check = lib.riesz_projective_dual_check(item["riesz"])
        if check.has_projective_dual != check.canonical_dual_projective:
            failures.append("riesz: restriction and direct criteria disagree")

        # criterion 06: truncation factor identity and the energy condition
        failures += check_truncation(lib, item["general"], item["drop"])[0]
        return failures


def check_truncation(lib, system, drop, lower: float | None = None):
    """``truncate`` and ``ck_sufficient_condition`` against numpy recomputations.

    Returns the failed checks and the truncation report.
    """
    failures = []
    report = lib.truncate(system, drop)
    full = gram(system)
    gap = float(np.linalg.norm(report.truncated_frame_operator
                               - report.truncation_factor @ full))
    if gap > TRUNCATION_TOL:
        failures.append(f"truncate: factor identity off by {gap:.3e}")
    holds, estimate = lib.ck_sufficient_condition(system, drop)
    if lower is None:
        lower = float(np.linalg.eigvalsh(full)[0])
    energy = sum(float(np.linalg.norm(np.asarray(system.blocks[i]), 2)) ** 2
                 for i in drop)
    if abs((lower - energy) - estimate) > TRUNCATION_TOL * max(1.0, lower):
        failures.append("truncate: energy estimate is inconsistent")
    if holds and not (report.is_rs_after
                      and estimate <= report.bounds_after[0] + TRUNCATION_TOL):
        failures.append("truncate: energy condition held but the bound does not")
    return failures, report


# ---------------------------------------------------------------- dense

class Dense:
    """The pipeline at d=256 and a 200-step worst-case solve at d=64, one after the other."""

    name = "dense"
    calibration = "lapack"
    ops_per_cycle = 1
    deck_size = 4
    pipeline_shape = (256, 128, 4)
    wce_shape = (64, 32, 4)
    wce_iterations = 200
    shape = pipeline_shape

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ratios: list[float] = []
        self.parts: dict[str, list[float]] = {"pipeline": [], "wce": []}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        d, m, k = self.pipeline_shape
        self.big = []
        for _ in range(self.deck_size):
            system = random_system(d, (k,) * m, rng)
            # at most a quarter of the blocks, so the survivors stay a system
            drop = draws.drop_set(rng, m, m // 4)
            lower = float(np.linalg.eigvalsh(gram(system))[0])
            self.big.append((system, drop, lower))
        d, m, k = self.wce_shape
        self.mid = []
        for _ in range(self.deck_size):
            system = random_system(d, (k,) * m, rng)
            canonical = gf.error_report(system, gf.canonical_dual(system)).worst_case
            self.mid.append((system, canonical))
        small = random_system(8, (2,) * 6, rng)
        warm = library()
        self.pipeline(warm, small, (0,), None)
        warm.wce_minimize(small, iterations=2)
        self.ratios = []

    def op(self, index: int, lib) -> list[str]:
        system, drop, lower = self.big[index % self.deck_size]
        begin = time.perf_counter()
        failures = self.pipeline(lib, system, drop, lower)
        middle = time.perf_counter()
        failures += self.wce(lib, *self.mid[index % self.deck_size])
        self.parts["pipeline"].append(middle - begin)
        self.parts["wce"].append(time.perf_counter() - middle)
        return failures

    def pipeline(self, lib, system, drop, lower) -> list[str]:
        failures = []
        shape = lib.classify(system)
        if not (shape.is_rs and shape.is_injective):
            failures.append("pipeline: classify lost the system's frame bound or injectivity")
        if lower is not None and relative_gap(shape.lower_bound, lower) > AGREEMENT_TOL:
            failures.append(f"pipeline: lower bound {shape.lower_bound!r}, expected {lower!r}")
        dual = lib.canonical_dual(system)
        residual = lib.verify_dual(dual, system).dual_residual
        if residual > DUAL_RESIDUAL_TOL:
            failures.append(f"pipeline: canonical dual residual {residual:.3e}")
        report = lib.error_report(system, dual)
        for j in (0, system.m - 1):
            direct = float(np.linalg.norm(np.asarray(dual.blocks[j]).conj().T
                                          @ np.asarray(system.blocks[j])))
            if relative_gap(report.per_index[j], direct) > AGREEMENT_TOL:
                failures.append(f"pipeline: error_report index {j} is {report.per_index[j]!r}, "
                                f"expected {direct!r}")
        if report.worst_case != max(report.per_index):
            failures.append("pipeline: worst case is not the largest per-index error")

        more, truncation = check_truncation(lib, system, drop, lower)
        failures += more
        if truncation.is_rs_after:
            kept = [np.asarray(system.blocks[i]) for i in truncation.kept]
            survivors = lib.truncated_canonical_dual(system, drop)
            identity = stacked(survivors).conj().T @ np.concatenate(kept)
            residual = float(np.linalg.norm(identity - np.eye(system.d)))
            if residual > DUAL_RESIDUAL_TOL:
                failures.append(f"pipeline: truncated dual residual {residual:.3e}")
        else:
            failures.append("pipeline: survivors of a quarter drop are not a system")

        approx, distance = lib.nearest_projective(system)
        sigma = np.linalg.svd(np.stack([np.asarray(b) for b in system.blocks]),
                              compute_uv=False)
        expected = float(np.sqrt(np.sum((sigma - sigma.mean(axis=1, keepdims=True)) ** 2)))
        if relative_gap(distance, expected) > AGREEMENT_TOL:
            failures.append(f"pipeline: projective distance {distance!r}, expected {expected!r}")
        spectra = np.linalg.svd(np.stack([np.asarray(b) for b in approx.blocks]),
                                compute_uv=False)
        if np.any(spectra[:, 0] - spectra[:, -1] > AGREEMENT_TOL * spectra[:, 0]):
            failures.append("pipeline: nearest projective block is not a weighted coisometry")
        return failures

    def wce(self, lib, system, canonical: float) -> list[str]:
        failures = []
        dual, achieved = lib.wce_minimize(system, iterations=self.wce_iterations)
        if achieved > canonical + WCE_VS_CANONICAL_TOL:
            failures.append(f"wce: reached {achieved!r}, above the canonical {canonical!r}")
        residual = lib.verify_dual(dual, system).dual_residual
        if residual > DUAL_RESIDUAL_TOL:
            failures.append(f"wce: dual residual {residual:.3e}")
        worst = lib.error_report(system, dual).worst_case
        if relative_gap(worst, achieved) > AGREEMENT_TOL:
            failures.append(f"wce: reported {achieved!r}, the dual's worst case is {worst!r}")
        self.ratios.append(achieved / canonical)
        return failures


# ---------------------------------------------------------------- cli

def run_process(command: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run one child to completion (killed and reaped on timeout)."""
    return subprocess.run(command, env=env, capture_output=True, timeout=120)


CLI_KINDS = ("analyze", "dual_canonical", "dual_two_error", "dual_wce", "erase",
             "truncate", "approx", "fixtures")
# Per-layer metrics that only the cli workload measures; the others report 0.
CLI_LAYER_METRICS = tuple(f"cli.main.{kind}_ms" for kind in CLI_KINDS) + (
    "cli.python_start_ms", "cli.numpy_import_ms", "cli.gframes_import_ms")


def system_path(argv: list[str]) -> str:
    """The system file a ``dual`` call reads."""
    return argv[argv.index("dual") + 1]


class Cli:
    """Fresh ``gframes.cli`` processes cycling through every subcommand."""

    name = "cli"
    calibration = "calls"
    generated_shape = (32, 16, 4)
    shape = generated_shape
    # a short solver budget keeps start-up, not the solver, the cost of every call
    wce_iterations = 200

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.python = sys.executable
        self.ratios: list[float] = []

    @property
    def ops_per_cycle(self) -> int:
        return len(self.calls)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 2])
        files = {}
        for name, system in gf.fixtures().items():
            files[name] = str(self.workdir / f"{name}.json")
            gf.save_system(system, files[name])
        d, m, k = self.generated_shape
        files["generated"] = str(self.workdir / "generated.json")
        gf.save_system(random_system(d, (k,) * m, rng), files["generated"])
        self.files = files
        self.calls = self.call_cycle(files, rng)
        self.references = [self.in_process(argv) for _, argv in self.calls]
        self.canonical_worst = {
            system_path(argv): json.loads(out)["outputs"]["error_report"]["worst_case"]
            for (label, argv), (_, out) in zip(self.calls, self.references)
            if label == "dual_canonical"}
        warm = self.check(0, run_process(self.command(self.calls[0][1]), self.env))
        if warm:
            raise RuntimeError(f"warm-up call failed: {warm}")
        self.ratios = []

    def call_cycle(self, files: dict, rng) -> list[tuple[str, list[str]]]:
        """(kind, argv) for one cycle; every kind in ``CLI_KINDS`` and every input file appears."""
        gen, planes = files["generated"], files["overlapping_planes"]
        redundant = files["redundant_without_projective_dual"]
        d, m, _ = self.generated_shape
        lost = draws.drop_set(rng, m, m // 4) or (0,)
        dropped = draws.drop_set(rng, m, m // 4) or (m - 1,)
        signal = [[float(re), float(im)] for re, im in rng.standard_normal((d, 2))]
        wce = ["--seed", str(self.seed), "--iterations", str(self.wce_iterations)]
        return [
            ("fixtures", ["fixtures"]),
            ("fixtures", ["fixtures", "--name", "overlapping_planes_dual"]),
            ("analyze", ["analyze", gen]),
            ("analyze", ["analyze", files["riesz_without_projective_dual"]]),
            ("dual_canonical", ["dual", gen, "--kind", "canonical"]),
            ("dual_canonical", ["dual", redundant, "--kind", "canonical"]),
            ("dual_two_error", ["dual", planes, "--kind", "two_error"]),
            ("dual_wce", wce + ["dual", redundant, "--kind", "wce"]),
            ("erase", ["erase", gen, "--mask", ",".join(map(str, lost)),
                       "--signal", json.dumps(signal)]),
            ("erase", ["erase", planes, "--dual", files["overlapping_planes_dual"],
                       "--mask", "1", "--signal", "[1, [0.5, -2], 3]"]),
            ("truncate", ["truncate", gen, "--drop", ",".join(map(str, dropped))]),
            ("truncate", ["truncate", redundant, "--drop", "2"]),
            ("approx", ["approx", gen]),
            ("approx", ["approx", files["riesz_with_projective_dual"]]),
        ]

    def command(self, argv: list[str]) -> list[str]:
        return [self.python, "-m", "gframes.cli", *argv]

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        """Exit code and stdout of ``gframes.cli.main`` run inside this process."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli_main(argv)
        return code, captured.getvalue()

    def op(self, index: int, lib) -> list[str]:
        argv = self.calls[index % len(self.calls)][1]
        return self.check(index, lib.cli_process(self.command(argv), self.env))

    def check(self, index: int, done: subprocess.CompletedProcess) -> list[str]:
        label, argv = self.calls[index % len(self.calls)]
        code, expected = self.references[index % len(self.calls)]
        failures = []
        if done.returncode != code:
            failures.append(f"{label}: exit code {done.returncode}, expected {code}; "
                            f"stderr {done.stderr.decode(errors='replace')[-300:]!r}")
        elif done.stdout != expected.encode("utf-8"):
            failures.append(f"{label}: stdout differs from the in-process reference")
        elif label == "dual_wce":
            achieved = json.loads(done.stdout)["outputs"]["achieved_worst_case"]
            self.ratios.append(achieved / self.canonical_worst[system_path(argv)])
        return failures

    def startup_probe(self, repeats: int = 5) -> dict[str, float]:
        """Median wall ms of bare start-up, of importing numpy and of importing gframes.cli."""
        walls = {}
        for key, code in (("start", "pass"), ("numpy", "import numpy"),
                          ("gframes", "import gframes.cli")):
            times = []
            for _ in range(repeats):
                begin = time.perf_counter()
                done = run_process([self.python, "-c", code], self.env)
                times.append(time.perf_counter() - begin)
                if done.returncode != 0:
                    raise RuntimeError(f"{code!r} failed: {done.stderr.decode()[-300:]}")
            walls[key] = 1000.0 * statistics.median(times)
        return {
            "cli.python_start_ms": walls["start"],
            "cli.numpy_import_ms": walls["numpy"] - walls["start"],
            "cli.gframes_import_ms": walls["gframes"] - walls["numpy"],
        }

    def layer_metrics(self, tracer, repeats: int = 3) -> dict[str, float]:
        """The ``CLI_LAYER_METRICS`` plus the serializer's, from probes outside the timed ops.

        Each probe op runs one call of the cycle through ``gframes.cli.main`` in
        process, then loads its input file and renders its reference report
        again. Probe spans get negative op ids.
        """
        lib = library(tracer)
        probes = 0
        for _ in range(repeats):
            for (kind, argv), (_, reference) in zip(self.calls, self.references):
                probes += 1
                tracer.op = -probes
                with tracer.span(f"cli.main.{kind}"):
                    self.in_process(argv)
                path = next((a for a in argv if a.endswith(".json")), None)
                if path is not None:
                    lib.load_system(path)
                lib.dumps_canonical(json.loads(reference))
        busy = spans.busy_by_name([s for s in tracer.spans if s.op < 0])
        out = self.startup_probe()
        for kind in CLI_KINDS:
            ns, calls = busy[f"cli.main.{kind}"]
            out[f"cli.main.{kind}_ms"] = ns / 1e6 / calls
        for name in ("serialize.load_system", "serialize.dumps_canonical"):
            ns, calls = busy[name]
            out[f"{name}.ms"] = ns / 1e6 / probes
            out[f"{name}.calls"] = calls / probes
        return out
