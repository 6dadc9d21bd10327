"""Run the benchmark of two checkouts in alternating pairs and record the comparison.

Usage::

    python tools/bench_compare.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N \\
        --seed-base S --out BENCH_<n>.json

``PARENT_ROOT`` and ``CHANGE_ROOT`` are repository roots; each runs its own
``bench/run.py --workload W --seed SEED --seconds T --trace 0`` with the
interpreter running this script, where ``T`` is the ``run_seconds`` of the
change's ``BENCHMARK.json``, so both sides run as long as the benchmark sets.  Pair
``i`` runs both sides at seed ``S + i``; the parent goes first in even pairs
and the change in odd ones, so drift in machine speed favours neither side.

For each end-to-end metric named in the change's ``BENCHMARK.json`` the record
holds, per side, the values of every run, their median and quartiles
(``statistics.quantiles``, inclusive method), and for the timing metrics the
same for the unscaled values from the ``# summary`` line.  It also holds the
number of pairs the change won (ties count for neither side); under
``paired``, each pair's relative difference ``(change - parent) / parent`` in
pair order, with their median and largest magnitude (``max_abs``), which
show whether a metric that spreads with the seed moved within pairs; and
two verdicts, which the paired differences do not enter:

- ``gain``: ``"too few pairs"`` below ten pairs; otherwise ``"yes"`` when the
  change won at least nine tenths of the pairs and its median beats the
  parent's by more than the parent's interquartile distance, else ``"no"``;
- ``within_bound``: ``"unresolved"`` when either side's interquartile
  distance is wider than the metric's bound (relative to the parent's median)
  and not every run of the change reads better than every run of the parent;
  otherwise ``"yes"`` when the change's median is no worse than the parent's
  by more than the bound, else ``"no"``.

The workload entry also records the calibration layer: per side, the spread
of the runs' ``calibration_ms_p50`` (the gframes-free numpy kernel every
timing is scaled by, from each ``# summary``), so a shift in machine speed
between the sides shows next to the scaled metrics.  For a workload whose
op has parts (``dense``: the pipeline, then the worst-case solve), the entry
records under ``parts`` the same per-side spread of each part's unscaled
median from each ``# summary`` (``dense_pipeline_ms_p50``,
``dense_wce_ms_p50``), so a change of ``op_ms_p50`` shows in the part that
moved.

Every run's ``# summary`` line is kept as printed, with the first run's
``# environment`` line.  Under ``bytecode`` the entry records
``PYTHONDONTWRITEBYTECODE`` from the environment (null when unset) and this
interpreter's ``sys.flags.dont_write_bytecode``.  The benchmark's processes
inherit the environment, so when the variable is set no ``__pycache__`` is
written and every ``cli`` process compiles the gframes modules it imports
from source.  The output file may hold several workloads: an existing file is
read, only the entry of workload ``W`` is replaced and the tier-1 runs are
appended.  A run that exits
non-zero or prints no result stops the script with exit status 2.

Before the pairs, the test-suite layer is measured once per side: the tier-1
suite (``python -m pytest -q --continue-on-collection-errors -p no:cacheprovider
--durations=10`` with ``PYTHONPATH=src``) runs in each checkout at
``OPENBLAS_NUM_THREADS=1``.  The side that runs first alternates over the
invocations that write one file: the parent when the record already holds an
even number of tier-1 runs per side, the change when odd.  Each run (wall time,
exit code, closing pytest line, ``first`` and the ten slowest test phases with
their seconds) is appended to the side's
``runs`` in the record's top-level ``tier1`` entry, so every invocation that
writes one file adds a sample, and the entry holds per side the median wall
time and, under ``tests``, each test's median call seconds over the runs that
list it, with their number.  A failing suite is recorded, not fatal.

Test seconds drift with the machine's speed as benchmark timings do, so each
suite run is bracketed by the benchmark's calibration: just before and just
after the suite, a child process in the same checkout times the gframes-free
``"calls"`` kernel of ``bench/run.py``'s ``Calibration`` (the median of
``KERNEL_REPEATS`` runs) and reports its reference time.  The run records both
times and the reference under ``calibration`` (null when the child fails), and
each test's entry adds ``median_scaled_s``: the median over the calibrated runs
of its seconds times the reference over the mean of the two kernel times, the
rule ``Calibration.scale`` applies to a benchmark timing (absent when no run
that lists the test is calibrated).

Standard library only; the checkouts themselves need numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Unscaled counterparts of the scaled timing metrics, as named in ``# summary``.
RAW_NAMES = {"setup_s": "setup_s_raw", "op_ms_p50": "op_ms_p50_raw",
             "ops_per_s": "ops_per_s_raw"}
# Unscaled per-part medians of an op, as named in ``# summary`` (dense only).
PART_NAMES = ("dense_pipeline_ms_p50", "dense_wce_ms_p50")
# Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10
# The tier-1 suite, timed once per side per invocation with the ten slowest test phases named.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10"]
# A line of pytest's "slowest durations" table, e.g. "11.68s call     tests/x.py::test_y".
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+)$")
# Runs of the calibration kernel per timing, and the child that times them in a checkout:
# it prints the median kernel seconds and the kernel's reference seconds as a JSON list.
KERNEL_REPEATS = 5
KERNEL = ("import json, statistics, sys; sys.path.insert(0, 'bench'); from run import Calibration; "
          "kernel = Calibration('calls'); "
          f"times = [kernel.kernel() for _ in range({KERNEL_REPEATS})]; "
          "print(json.dumps([statistics.median(times), Calibration.REFERENCE_S['calls']]))")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, summary and environment."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{root}: {' '.join(command)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    tagged = {}
    for line in lines[:-1]:
        for tag in ("environment", "summary"):
            if line.startswith(f"# {tag} "):
                tagged[tag] = json.loads(line[len(tag) + 3:])
    return {"result": json.loads(lines[-1]), **tagged}


def time_kernel(root: Path, env: dict) -> list[float] | None:
    """``[median kernel seconds, reference seconds]`` of the calibration kernel of ``root``'s
    ``bench/run.py``, timed in a child process; None if the child fails."""
    done = subprocess.run([sys.executable, "-c", KERNEL], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    return json.loads(done.stdout) if done.returncode == 0 else None


def run_tier1(root: Path) -> dict:
    """Wall time of the checkout's tier-1 suite at one BLAS thread, its slowest tests, and the
    calibration kernel timed just before and just after it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), path])))
    before = time_kernel(root, env)
    begin = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True,
                          text=True, check=False)
    wall = time.perf_counter() - begin
    after = time_kernel(root, env)
    lines = done.stdout.strip().splitlines()
    slowest = [{"seconds": float(hit[1]), "when": hit[2], "id": hit[3]}
               for hit in map(DURATION.match, lines) if hit]
    calibration = None
    if before and after:
        calibration = {"before_s": before[0], "after_s": after[0], "reference_s": before[1]}
    return {"wall_s": wall, "exit": done.returncode, "result": lines[-1] if lines else "",
            "slowest": slowest, "calibration": calibration}


def reference_factor(run: dict) -> float | None:
    """The reference kernel time over the mean of the kernel times around ``run``'s suite, or
    None for a run without a calibration."""
    calibration = run.get("calibration")
    if not calibration:
        return None
    return calibration["reference_s"] / (0.5 * (calibration["before_s"] + calibration["after_s"]))


def recorded_runs(entry: dict, side: str) -> list[dict]:
    """The tier-1 runs of ``side`` in the ``tier1`` entry ``entry`` (empty for a new record)."""
    previous = entry.get(side, {})  # one run, unlisted, in records of older versions
    return previous.get("runs", [previous] if "slowest" in previous else [])


def measure_tier1(roots: dict, entry: dict) -> dict:
    """One tier-1 run per side, the parent's first when ``entry`` holds an even number of
    runs per side and the change's first when odd; each run records whether it was first."""
    order = ("parent", "change")
    if len(recorded_runs(entry, "parent")) % 2:
        order = order[::-1]
    runs = {}
    for side in order:
        runs[side] = {**run_tier1(roots[side]), "first": side == order[0]}
        print(f"tier-1 {side}: {runs[side]['wall_s']:.1f} s, {runs[side]['result']}",
              file=sys.stderr)
    return runs


def merge_tier1(entry: dict, runs: dict) -> dict:
    """The ``tier1`` entry ``entry`` (empty for a new record) with each side's new run in
    ``runs`` appended, and the medians over every run recomputed."""
    merged = {}
    for side, run in runs.items():
        kept = [*recorded_runs(entry, side), run]
        calls, scaled = {}, {}
        for each in kept:
            factor = reference_factor(each)
            for hit in each["slowest"]:
                if hit["when"] == "call":
                    calls.setdefault(hit["id"], []).append(hit["seconds"])
                    if factor is not None:
                        scaled.setdefault(hit["id"], []).append(hit["seconds"] * factor)
        merged[side] = {
            "runs": kept,
            "wall_s": statistics.median(each["wall_s"] for each in kept),
            "tests": {name: {"median_s": statistics.median(seconds), "runs": len(seconds)}
                      for name, seconds in sorted(calls.items())},
        }
        for name, seconds in scaled.items():
            merged[side]["tests"][name]["median_scaled_s"] = statistics.median(seconds)
    return {"command": "python " + " ".join(TIER1),
            "env": {"OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": "src"}, **merged}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Per-side spreads, the change's wins, the paired differences and the gain and bound
    verdicts."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    improvement = sign * (before["median"] - after["median"])
    if len(parent) < MIN_PAIRS:
        gain = "too few pairs"
    else:
        won = wins >= 0.9 * len(parent) and improvement > before["q3"] - before["q1"]
        gain = "yes" if won else "no"
    allowed = bound * abs(before["median"])
    noisy = max(side["q3"] - side["q1"] for side in (before, after)) > allowed
    separated = min(sign * p for p in parent) > max(sign * c for c in change)
    if noisy and not separated:
        within = "unresolved"
    else:
        within = "yes" if -improvement <= allowed else "no"
    paired = [(c - p) / p for p, c in zip(parent, change)]
    return {
        "parent": before,
        "change": after,
        "paired": {"values": paired, "median": statistics.median(paired),
                   "max_abs": max(map(abs, paired))},
        "wins": wins,
        "ties": sum(p == c for p, c in zip(parent, change)),
        "gain": gain,
        "within_bound": within,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="repository root of the parent commit")
    parser.add_argument("change", type=Path, help="repository root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    tier1 = measure_tier1(roots, record.get("tier1", {}))

    runs = []
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                outcome = run_bench(roots[side], args.workload, seed, seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            runs.append({"pair": pair, "seed": seed, "side": side,
                         "first": side == order[0], **outcome})
            value = outcome["result"]["metrics"].get("op_ms_p50", {}).get("value")
            print(f"pair {pair} seed {seed} {side}: op_ms_p50 {value}", file=sys.stderr)

    def series(side: str, pick) -> list[float]:
        ordered = sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
        return [pick(r) for r in ordered]

    metrics = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        metrics[name] = compare(
            *(series(side, lambda r: r["result"]["metrics"][name]["value"])
              for side in ("parent", "change")),
            entry["better"], entry["bound"])
        metrics[name]["unit"] = entry["unit"]
        if name in RAW_NAMES:
            metrics[name]["raw"] = {
                side: spread(series(side, lambda r: r["summary"][RAW_NAMES[name]]))
                for side in ("parent", "change")}
    failed = {side: series(side, lambda r: r["result"]["failed"] / r["result"]["attempted"])
              for side in ("parent", "change")}
    parts = {name: {side: spread(series(side, lambda r: r["summary"][name]))
                    for side in ("parent", "change")}
             for name in PART_NAMES if all(name in r.get("summary", {}) for r in runs)}

    record["tier1"] = merge_tier1(record.get("tier1", {}), tier1)
    record.setdefault("workloads", {})[args.workload] = {
        "command": f"bench/run.py --workload {args.workload} --seconds {seconds:g} "
                   "--trace 0",
        "pairs": args.pairs,
        "seeds": [args.seed_base + pair for pair in range(args.pairs)],
        "metrics": metrics,
        "failed_frac": failed,
        "calibration_ms_p50": {
            side: spread(series(side, lambda r: r["summary"]["calibration_ms_p50"]))
            for side in ("parent", "change")},
        "parts": parts,
        "environment": runs[0].get("environment"),
        "bytecode": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                     "dont_write_bytecode": sys.flags.dont_write_bytecode},
        "runs": [{key: run[key] for key in ("pair", "seed", "side", "first", "summary")}
                 for run in runs],
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in metrics.items():
        print(f"{args.workload} {name}: {entry['parent']['median']:.6g} "
              f"[{entry['parent']['q1']:.6g}, {entry['parent']['q3']:.6g}] -> "
              f"{entry['change']['median']:.6g}, wins {entry['wins']}/{args.pairs}, "
              f"paired {entry['paired']['median']:+.2e} (max {entry['paired']['max_abs']:.2e}), "
              f"gain {entry['gain']}, within bound {entry['within_bound']}")
    calibration = record["workloads"][args.workload]["calibration_ms_p50"]
    for name, sides in {"calibration_ms_p50": calibration, **parts}.items():
        print(f"{args.workload} {name}: "
              + " -> ".join(f"{sides[side]['median']:.6g} [{sides[side]['q1']:.6g}, "
                            f"{sides[side]['q3']:.6g}]" for side in ("parent", "change")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
