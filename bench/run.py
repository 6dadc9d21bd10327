"""gframes benchmark runner.

Usage, from the repository root:

    python3 bench/run.py --workload {oracle,dense,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
times every call the benchmark makes into gframes and reports per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every failure with its op and seed, and a summary.
Spans and results are also written under ``.bench_out/``.  See
``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed here, before numpy loads, for this process and every
# child, so results do not depend on the caller's shell.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402

SETUP_REPEATS = 5
WORKLOADS = ("oracle", "dense", "cli")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
                    "op_ms_p50": "ms", "wce_ratio": "ratio"}
# Workload-specific names of the generic end-to-end metrics, for the summary line.
SUMMARY_NAMES = {
    "oracle": {"ops_per_s": "oracle_rounds_per_s", "op_ms_p50": "oracle_round_ms_p50"},
    "dense": {"ops_per_s": "dense_ops_per_s", "op_ms_p50": "dense_op_ms_p50",
              "wce_ratio": "dense_wce_ratio"},
    "cli": {"ops_per_s": "cli_calls_per_s", "op_ms_p50": "cli_call_ms_p50"},
}


def load_library():
    """Import gframes from this checkout's ``src`` and refuse any other copy.

    The benchmark's modules that import gframes are imported only after this check.
    """
    import gframes
    location = Path(gframes.__file__).resolve()
    if not location.is_relative_to((ROOT / "src").resolve()):
        raise ImportError(f"gframes was imported from {location}, not from {ROOT / 'src'}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Calibration:
    """Scales timings to a reference machine speed.

    The machine this benchmark was built on runs the same code up to twice
    as slow from one second to the next, and the mix drifts over minutes. A
    fixed numpy kernel, independent of gframes, is timed after every timed
    piece of work. Each timing is then multiplied by the kernel's reference
    time over the mean kernel time just before and just after it. The
    benchmark runs pinned to one CPU, so the kernel and the work (CLI
    children too) share that CPU.

    A workload names the kernel that responds to the machine's speed the way
    its own work does: ``"calls"`` (small numpy calls driven from Python) or
    ``"lapack"`` (d=256 LAPACK).
    """

    # each kernel's time on the baseline machine at its fast speed
    REFERENCE_S = {"calls": 0.011, "lapack": 0.017}

    def __init__(self, kind: str) -> None:
        self.kind = kind
        square = np.random.default_rng(0).standard_normal((256, 512)).view(np.complex128)
        self.hermitian = square.conj().T @ square
        self.last = self.kernel()
        self.samples = [self.last]

    def kernel(self) -> float:
        """Seconds for one run of the kernel.

        The garbage collector is off meanwhile, so the ops' garbage is not
        collected on the kernel's clock.
        """
        gc.disable()
        try:
            begin = time.perf_counter()
            if self.kind == "lapack":
                np.linalg.inv(self.hermitian)
                np.linalg.eigvalsh(self.hermitian)
            else:
                rng = np.random.default_rng(0)
                for _ in range(200):
                    a = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
                    q, _ = np.linalg.qr(a.T)
                    blocks = tuple(q[:, i:i + 2].conj().T for i in range(0, 6, 2))
                    sum(float(np.linalg.norm(b @ b.conj().T)) for b in blocks)
            return time.perf_counter() - begin
        finally:
            gc.enable()

    def scale(self, seconds: float) -> float:
        after = self.kernel()
        factor = self.REFERENCE_S[self.kind] / (0.5 * (self.last + after))
        self.last = after
        self.samples.append(after)
        return seconds * factor


class Loop:
    """Closed loop, one client: run whole cycles of ops until the time is up."""

    def __init__(self, workload, seed: int, calibration: Calibration) -> None:
        self.workload = workload
        self.seed = seed
        self.calibration = calibration
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0

    def run_op(self, index: int, lib) -> float:
        begin = time.perf_counter()
        try:
            problems = self.workload.op(index, lib)
        except Exception as exc:  # a raise is a failed op: counted and listed, never retried
            problems = [f"raised {type(exc).__name__}: {exc}",
                        traceback.format_exc(limit=-3)]
        elapsed = time.perf_counter() - begin
        self.attempted += 1
        if problems:
            self.failures.append({"workload": self.workload.name, "op": index,
                                  "seed": self.seed, "problems": problems})
        return elapsed

    def untraced_cycle(self, index: int, lib) -> None:
        for offset in range(self.workload.ops_per_cycle):
            self.latencies.append(self.run_op(index + offset, lib))
            self.scaled.append(self.calibration.scale(self.latencies[-1]))

    def run(self, seconds: float, lib, traced=None):
        """Untraced cycles; with ``traced = (tracer, lib)`` each cycle is repeated traced."""
        pairs = []
        cycle = self.workload.ops_per_cycle
        start = time.perf_counter()
        index = 0
        while True:
            if traced is None:
                self.untraced_cycle(index, lib)
            else:
                # alternate which of the two runs of a cycle goes first, so
                # warm caches favour neither side of the overhead estimate
                traced_first = (index // cycle) % 2 == 1
                if traced_first:
                    took = self.traced_cycle(index, *traced)
                self.untraced_cycle(index, lib)
                if not traced_first:
                    took = self.traced_cycle(index, *traced)
                pairs += zip(self.latencies[-cycle:], took)
            index += cycle
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start, pairs

    def traced_cycle(self, index: int, tracer, lib) -> list[float]:
        took = []
        for offset in range(self.workload.ops_per_cycle):
            tracer.op = index + offset
            with tracer.span("op"):
                took.append(self.run_op(index + offset, lib))
            self.calibration.scale(took[-1])
        return took


def make_workload(name: str, seed: int, workdir: Path):
    import workloads
    if name == "oracle":
        return workloads.Oracle(seed)
    if name == "dense":
        return workloads.Dense(seed)
    return workloads.Cli(seed, ROOT, workdir)


def kernel_floor(shape: tuple[int, int, int]) -> dict[str, float]:
    """Bare numpy kernels at a workload's (d, m, k): per-call ms and flop counts."""
    d, m, k = shape
    rng = np.random.default_rng(0)
    t = rng.standard_normal((m * k, d)) + 1j * rng.standard_normal((m * k, d))
    gram = t.conj().T @ t
    kernels = {
        "gram": (lambda: t.conj().T @ t, 8 * m * k * d * d),
        "inv": (lambda: np.linalg.inv(gram), 8 * d ** 3),
        "eigvalsh": (lambda: np.linalg.eigvalsh(gram), 16 * d ** 3 // 3),
        "svd_stacked": (lambda: np.linalg.svd(t.reshape(m, k, d), full_matrices=False),
                        4 * m * (6 * d * k * k + 11 * k ** 3)),
    }
    out = {}
    for name, (kernel, flops) in kernels.items():
        calls = 1
        while True:
            begin = time.perf_counter()
            for _ in range(calls):
                kernel()
            if time.perf_counter() - begin > 0.01:
                break
            calls *= 4
        samples = []
        for _ in range(5):
            begin = time.perf_counter()
            for _ in range(calls):
                kernel()
            samples.append((time.perf_counter() - begin) / calls)
        out[f"numpy.{name}_ms"] = 1000.0 * statistics.median(samples)
        out[f"numpy.{name}_flops"] = flops
    return out


def end_to_end(workload, loop: Loop, setups: list[float]) -> dict:
    """The end-to-end metrics; every timing is scaled by the calibration."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ops_per_s": (loop.attempted - len(loop.failures)) / sum(loop.scaled),
        "op_ms_p50": 1000.0 * statistics.median(loop.scaled),
        # NaN only when no solve finished, which also fails the run
        "wce_ratio": statistics.fmean(workload.ratios) if workload.ratios else math.nan,
    }


def per_layer(workload, tracer, pairs: list[tuple[float, float]],
              calibration: Calibration) -> dict:
    """Per-layer metrics in unscaled ms, with the calibration kernel's median to scale them."""
    import workloads
    op_spans = [s for s in tracer.spans if s.op >= 0]
    ops = len(pairs)
    busy = spans.busy_by_name(op_spans)
    out = {}
    for name in workloads.TRACED_FUNCTIONS:
        ns, calls = busy.get(name, (0, 0))
        out[f"{name}.ms"] = ns / 1e6 / ops
        out[f"{name}.calls"] = calls / ops
    out["op.self_ms"] = busy["op"][0] / 1e6 / ops
    out["trace.spans_per_op"] = len(op_spans) / ops
    out["trace.overhead_ms"] = 1000.0 * statistics.median(t - u for u, t in pairs)
    out["calibration_ms"] = 1000.0 * statistics.median(calibration.samples)
    out.update(kernel_floor(workload.shape))
    out.update(dict.fromkeys(workloads.CLI_LAYER_METRICS, 0.0))
    if workload.name == "cli":
        out.update(workload.layer_metrics(tracer))
    return out


def measure(args, out_dir: Path, workdir: Path) -> dict:
    import workloads
    calibration = None
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        # one workload alive at a time, so earlier set-ups do not add to peak memory
        workload = make_workload(args.workload, args.seed, workdir)
        calibration = calibration or Calibration(workload.calibration)
        begin = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - begin)
        setups.append(calibration.scale(raw_setups[-1]))
    loop = Loop(workload, args.seed, calibration)
    tracer = spans.Tracer() if args.trace else None
    traced = (tracer, workloads.library(tracer)) if args.trace else None
    elapsed, pairs = loop.run(args.seconds, workloads.library(), traced)
    raw = {"setup_s_raw": statistics.median(raw_setups),
           "op_ms_p50_raw": 1000.0 * statistics.median(loop.latencies),
           "ops_per_s_raw": (loop.attempted - len(loop.failures)) / sum(loop.latencies),
           "calibration_ms_p50": 1000.0 * statistics.median(calibration.samples)}
    if args.trace:
        metrics = per_layer(workload, tracer, pairs, calibration)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(workload, loop, setups)
    return {"loop": loop, "metrics": metrics, "raw": raw, "elapsed": elapsed}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_flops"):
        return "flop"
    if metric.endswith(".calls") or metric == "trace.spans_per_op":
        return "count"
    return "ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gframes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot import gframes from this checkout: {exc}", file=sys.stderr)
        return 2

    env = environment()
    # One CPU for the benchmark, its calibration kernel and its CLI children.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("# environment " + json.dumps(env, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        result = measure(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = result["loop"]
    for failure in loop.failures:
        print("# FAILED " + json.dumps(failure))
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops": loop.attempted, "failed_frac": len(loop.failures) / loop.attempted,
               "measured_s": result["elapsed"]}
    if not args.trace:
        for name, value in result["metrics"].items():
            summary[SUMMARY_NAMES[args.workload].get(name, name)] = value
        summary.update(result["raw"])
        for part, times in getattr(loop.workload, "parts", {}).items():
            summary[f"dense_{part}_ms_p50"] = 1000.0 * statistics.median(times)
        if loop.attempted >= 100:
            summary["op_ms_p90"] = 1000.0 * percentile(loop.latencies, 0.9)
    print("# summary " + json.dumps(summary, sort_keys=True))
    line = {"correct": not loop.failures, "attempted": loop.attempted,
            "failed": len(loop.failures), "metrics": metrics}
    record = {"environment": env, "summary": summary, "failures": loop.failures,
              "latencies_ms": [1000.0 * t for t in loop.latencies], **line}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
