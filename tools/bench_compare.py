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
read and only the entry of workload ``W`` is replaced.  A run that exits
non-zero or prints no result stops the script with exit status 2.

Before the pairs, the test-suite layer is measured once per side: the tier-1
suite (``python -m pytest -q --continue-on-collection-errors -p no:cacheprovider
--durations=3`` with ``PYTHONPATH=src``) runs in each checkout at ``OPENBLAS_NUM_THREADS=1``,
and the record's top-level ``tier1`` entry holds per side its wall time, exit
code, closing pytest line and three slowest test ids with their seconds.  A
failing suite is recorded, not fatal.

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
# The tier-1 suite, timed once per side with the three slowest tests named.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=3"]
# A line of pytest's "slowest durations" table, e.g. "11.68s call     tests/x.py::test_y".
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+)$")


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


def run_tier1(root: Path) -> dict:
    """Wall time of the checkout's tier-1 suite at one BLAS thread, and its slowest tests."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), path])))
    begin = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True,
                          text=True, check=False)
    wall = time.perf_counter() - begin
    lines = done.stdout.strip().splitlines()
    slowest = [{"seconds": float(hit[1]), "when": hit[2], "id": hit[3]}
               for hit in map(DURATION.match, lines) if hit]
    return {"wall_s": wall, "exit": done.returncode, "result": lines[-1] if lines else "",
            "slowest": slowest}


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

    tier1 = {}
    for side in ("parent", "change"):
        tier1[side] = run_tier1(roots[side])
        print(f"tier-1 {side}: {tier1[side]['wall_s']:.1f} s, {tier1[side]['result']}",
              file=sys.stderr)

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

    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    record["tier1"] = {"command": "python " + " ".join(TIER1),
                       "env": {"OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": "src"}, **tier1}
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
