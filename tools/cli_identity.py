"""Compare the gframes CLI of two source trees call by call.

Usage::

    python tools/cli_identity.py OLD_SRC NEW_SRC [--numeric] [--python EXE] [--verbose]

``OLD_SRC`` and ``NEW_SRC`` are directories that contain the ``gframes``
package (for example ``src`` of two checkouts).  The script writes the five
fixtures and four generated systems to a temporary directory with the old
tree: ``random_system(32, (4,)*16, 7)``, ``random_projective(12, (3,)*6, 11)``
and, with mixed block heights so that the zero-padded block stack is
exercised, ``random_system(12, (1, 3, 4, 2, 4), 7)`` and
``random_projective(8, (1, 3, 4, 2, 4), 11)``.  Beside them it writes
``random_system(4, (2, 2, 2, 2), 1)`` with block 0 scaled by 1e4: the whole
system passes the ``is_rs`` rule only narrowly, its other blocks easily.  Two
more sit near the rank and flatness boundaries at the default tolerance 1e-9:
the Riesz pair ``V = W^{-*}`` on C^4 whose dual block ``W_0`` is
``diag(1 + 7.5e-10, 1) U`` (``W_1 = 1.3 U'``, ``U`` and ``U'`` rows of Haar
unitaries), and the square block ``U diag(1, 0.5, 1e-5) U'``.  It then runs a
fixed matrix of 184 CLI calls on them, each in a fresh process
under each tree, and reports every call whose stdout, stderr or exit code
differs.  The matrix covers every subcommand and every ``dual --kind``
(``wce`` also at ``--iterations 200``), ``erase`` with and without a mask and
with and without ``--dual``, ``truncate`` dropping one and ``m - 1`` blocks,
``analyze``, ``truncate`` and ``dual --kind two_error`` at ``--tolerance``
1e-6 and 1e-12, and the fixture listing, on the fixtures and the four
systems; the scaled system gets one call, ``truncate`` dropping block 0, and
the two boundary systems get ``analyze`` and ``approx``.  Twenty calls end
in a usage error or print help, on the ``overlapping_planes`` fixture: a
missing file, ``analyze`` of six malformed files (``MALFORMED``: invalid
JSON, ``d`` of 10^400 and of 10^13, 100 000 nested ``[``, a byte that is not
UTF-8, a 5000-digit integer), ``--tolerance 0``, ``--iterations 0``, an
out-of-range ``--mask`` and ``--drop``, a malformed ``--signal``, a
``--signal`` with a ``NaN`` entry, one of 5000 nested ``[`` and one with a
5000-digit integer, ``erase --dual`` of the invalid JSON file and of
``SHORT_ROW`` (a ``d = 3`` file whose one row has one entry), ``--help``,
``dual --help`` and no subcommand.
Exit status: 0 when every call matched, 1 otherwise.

``--numeric`` compares stdout as JSON instead of as bytes: keys, strings,
integers, booleans and nulls must be equal, as must stderr and the exit
code, while floats may differ normwise by up to 1e-12: each deviation
``|a - b|`` is divided by the largest float magnitude in the call's
``outputs`` on either side (the whole report if it has no ``outputs``), not
by ``max(|a|, |b|)``, so that an exact zero against a rounding-level value
counts at the scale of the report.  A float printed with 17 significant
digits can look like an integer (``1.0`` prints as ``1``), so a number
parsed as an integer on one side and as a float on the other is compared as
a float.  The whole report is walked: every difference that is not a float
is listed, and the floats that both sides hold are still compared, so a call
that differs in an integer reports its float deviations too.  The largest
normwise deviation is printed per call, with where in the report it sits,
and for the whole run.  A stdout that is not JSON is compared as bytes.

Standard library only; the trees themselves need numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = (
    "overlapping_planes",
    "overlapping_planes_dual",
    "redundant_without_projective_dual",
    "riesz_with_projective_dual",
    "riesz_without_projective_dual",
)

GENERATE = """
import sys
import numpy as np
from gframes import ReconstructionSystem, save_system
from gframes._linalg import random_unitary
from gframes.generate import random_projective, random_system
save_system(random_system(32, (4,) * 16, 7), sys.argv[1])
save_system(random_projective(12, (3,) * 6, 11), sys.argv[2])
save_system(random_system(12, (1, 3, 4, 2, 4), 7), sys.argv[3])
save_system(random_projective(8, (1, 3, 4, 2, 4), 11), sys.argv[4])
base = random_system(4, (2, 2, 2, 2), 1)
save_system(ReconstructionSystem((1e4 * base.blocks[0],) + base.blocks[1:]), sys.argv[5])
rng = np.random.default_rng(0)
dual = np.vstack(([[1 + 7.5e-10], [1.0]] * random_unitary(rng, 4)[:2],
                  1.3 * random_unitary(rng, 4)[:2]))
riesz = np.linalg.inv(dual).conj().T
save_system(ReconstructionSystem((riesz[:2], riesz[2:])), sys.argv[6])
rng = np.random.default_rng(0)
square = (random_unitary(rng, 3) * [1.0, 0.5, 1e-5]) @ random_unitary(rng, 3)
save_system(ReconstructionSystem((square,)), sys.argv[7])
"""

GENERATED = ("generated", "generated_projective", "generated_mixed",
             "generated_mixed_projective")
DOMINANT = "generated_dominant"  # only truncated, dropping the dominant block
BOUNDARY = ("boundary_riesz", "boundary_square")  # only analyzed and approximated


def run(python: str, src: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    done = subprocess.run([python, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def signal(d: int) -> str:
    """A fixed signal of length ``d`` mixing real entries and ``[re, im]`` pairs."""
    entries = [[0.5 * i - 1.0, 0.25 * (i % 3)] if i % 2 else 1.0 + i for i in range(d)]
    return json.dumps(entries)


MALFORMED = {  # file name stem -> bytes of a file that is not a system
    "broken": b"{not json",
    "dimension_overflow": b'{"d": 1' + b"0" * 400 + b', "k": [1], "blocks": [[[[1, 0]]]]}',
    "dimension_huge": b'{"d": 10000000000000, "k": [1], "blocks": [[[[1, 0]]]]}',
    "nested": b"[" * 100_000,
    "not_utf8": b'{"d": 1, "k": [1], "blocks": [[[[1, 0]]]]}\xff',
    "long_integer": b'{"d": 1' + b"0" * 4999 + b"}",
}
SHORT_ROW = b'{"d": 3, "k": [1], "blocks": [[[[1, 0]]]]}'  # read only as an erase --dual


def usage_errors(planes: Path, malformed: list[Path]) -> list[list[str]]:
    """Calls that end in a usage or parse error (exit 2), or print help; ``broken.json`` and
    ``short_row.json`` (``SHORT_ROW``) must sit beside ``planes``."""
    file = str(planes)  # two blocks on C^3, so index 2 is out of range
    return [
        ["analyze", str(planes.with_name("missing.json"))],
        *(["analyze", str(path)] for path in malformed),
        ["--tolerance", "0", "analyze", file],
        ["--iterations", "0", "dual", file, "--kind", "wce"],
        ["erase", file, "--mask", "2", "--signal", "[1, 2, 3]"],
        ["truncate", file, "--drop", "2"],
        ["erase", file, "--signal", "[1, 2"],
        ["erase", file, "--signal", "[NaN, 2, 3]"],
        ["erase", file, "--signal", "[" * 5000],
        ["erase", file, "--signal", "[1, 1" + "0" * 4999 + ", 2]"],
        *(["erase", file, "--dual", str(planes.with_name(name)), "--signal", "[1, 2, 3]"]
          for name in ("broken.json", "short_row.json")),
        ["--help"],
        ["dual", "--help"],
        [],
    ]


def matrix(paths: dict[str, Path], dominant: Path, boundary: list[Path]) -> list[list[str]]:
    """CLI argument lists, one per call, before the usage errors."""
    calls = [["fixtures"]] + [["fixtures", "--name", name] for name in FIXTURES]
    for name, path in paths.items():
        payload = json.loads(path.read_text(encoding="utf-8"))
        d, m = payload["d"], len(payload["k"])
        file = str(path)
        calls.append(["analyze", file])
        for kind in ("canonical", "two_error", "wce"):
            calls.append(["dual", file, "--kind", kind])
        calls.append(["--iterations", "200", "dual", file, "--kind", "wce"])
        calls.append(["erase", file, "--signal", signal(d)])
        calls.append(["erase", file, "--mask", "0", "--signal", signal(d)])
        calls.append(["erase", file, "--dual", file, "--mask", str(m - 1),
                      "--signal", signal(d)])
        calls.append(["truncate", file, "--drop", "0"])
        calls.append(["truncate", file, "--drop", ",".join(str(i) for i in range(1, m))])
        calls.append(["approx", file])
        for tolerance in ("1e-6", "1e-12"):
            calls.append(["--tolerance", tolerance, "analyze", file])
            calls.append(["--tolerance", tolerance, "truncate", file, "--drop", "0"])
            calls.append(["--tolerance", tolerance, "dual", file, "--kind", "two_error"])
    calls.append(["truncate", str(dominant), "--drop", "0"])
    calls.extend([command, str(path)] for path in boundary for command in ("analyze", "approx"))
    return calls


NUMERIC_TOLERANCE = 1e-12


def float_deviation(a, b, mismatches: list[str], where: str = "$"
                    ) -> tuple[float, str, float]:
    """Largest absolute float difference between two parsed JSON values, where it is, and
    the largest float magnitude on either side.

    Every difference in keys, lengths, types, strings, integers, booleans or
    nulls is appended to ``mismatches``, and the walk goes on over the keys and
    positions that both sides hold.
    """
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool)
            and not isinstance(b, bool) and float in (type(a), type(b))):
        a, b = float(a), float(b)
        if math.isfinite(a) and math.isfinite(b):
            return abs(a - b), where, max(abs(a), abs(b))
        if a != b:
            mismatches.append(f"{where}: {a!r} vs {b!r}")
        return 0.0, where, 0.0
    parts = []
    if type(a) is not type(b):
        mismatches.append(f"{where}: {type(a).__name__} vs {type(b).__name__}")
    elif isinstance(a, dict):
        if list(a) != list(b):
            mismatches.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
        parts = [float_deviation(a[key], b[key], mismatches, f"{where}.{key}")
                 for key in a if key in b]
    elif isinstance(a, list):
        if len(a) != len(b):
            mismatches.append(f"{where}: lengths {len(a)} vs {len(b)}")
        parts = [float_deviation(x, y, mismatches, f"{where}[{i}]")
                 for i, (x, y) in enumerate(zip(a, b))]
    elif a != b:
        mismatches.append(f"{where}: {a!r} vs {b!r}")
    deviation, place, _ = max(parts, default=(0.0, where, 0.0), key=lambda part: part[0])
    return deviation, place, max((part[2] for part in parts), default=0.0)


def normwise_deviation(a, b) -> tuple[float, str, list[str]]:
    """Largest float difference between two parsed reports over the largest float magnitude
    in their ``outputs`` (or in the whole reports), where it is, and every other difference."""
    mismatches: list[str] = []
    deviation, where, _ = float_deviation(a, b, mismatches)
    if deviation == 0.0:
        return 0.0, where, mismatches
    scale = float_deviation(*(r["outputs"] if isinstance(r, dict) and "outputs" in r else r
                               for r in (a, b)), [])[2]
    return (deviation / scale if scale else math.inf), where, mismatches


def compare(before: tuple[int, str, str], after: tuple[int, str, str],
            numeric: bool) -> tuple[list[str], float, str]:
    """The differing streams of one call, with the largest float deviation and where it is."""
    differing = [label for label, a, b in zip(("exit code", "stdout", "stderr"), before, after)
                 if a != b]
    if not numeric or "stdout" not in differing:
        return differing, 0.0, ""
    try:
        reports = json.loads(before[1]), json.loads(after[1])
    except json.JSONDecodeError:
        return differing, 0.0, ""
    differing.remove("stdout")
    deviation, where, mismatches = normwise_deviation(*reports)
    if mismatches:
        differing.append(f"stdout ({'; '.join(mismatches)})")
    if deviation > NUMERIC_TOLERANCE:
        differing.append(f"stdout floats beyond {NUMERIC_TOLERANCE:g}")
    return differing, deviation, where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree holding the reference gframes")
    parser.add_argument("new", type=Path, help="source tree holding the gframes under test")
    parser.add_argument("--python", default=sys.executable, help="interpreter to run")
    parser.add_argument("--verbose", action="store_true", help="print every call")
    parser.add_argument("--numeric", action="store_true",
                        help="compare stdout as JSON, floats to 1e-12 normwise")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    for tree in (old, new):
        if not (tree / "gframes" / "cli.py").is_file():
            parser.error(f"{tree} does not contain gframes/cli.py")

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        work = Path(tmp)
        paths = {name: work / f"{name}.json" for name in FIXTURES}
        for name, path in paths.items():
            code, _, err = run(args.python, old, ["-m", "gframes.cli", "fixtures",
                                                  "--name", name, "--out", str(path)], work)
            if code:
                print(f"could not write fixture {name}: {err.strip()}", file=sys.stderr)
                return 2
        paths.update((name, work / f"{name}.json") for name in GENERATED)
        dominant = work / f"{DOMINANT}.json"
        boundary = [work / f"{name}.json" for name in BOUNDARY]
        code, _, err = run(args.python, old,
                           ["-c", GENERATE, *(str(paths[name]) for name in GENERATED),
                            str(dominant), *map(str, boundary)], work)
        if code:
            print(f"could not generate systems: {err.strip()}", file=sys.stderr)
            return 2

        malformed = [work / f"{name}.json" for name in MALFORMED]
        for path, content in zip(malformed, MALFORMED.values()):
            path.write_bytes(content)
        (work / "short_row.json").write_bytes(SHORT_ROW)
        calls = matrix(paths, dominant, boundary) + usage_errors(
            paths["overlapping_planes"], malformed)
        differing = inexact = 0
        largest = 0.0
        codes: dict[int, int] = {}
        for call in calls:
            before = run(args.python, old, ["-m", "gframes.cli", *call], work)
            after = run(args.python, new, ["-m", "gframes.cli", *call], work)
            codes[before[0]] = codes.get(before[0], 0) + 1
            streams, deviation, where = compare(before, after, args.numeric)
            largest = max(largest, deviation)
            inexact += deviation > 0.0
            short = [arg.replace(str(work) + os.sep, "") for arg in call]
            shown = " ".join(arg if len(arg) < 40 else arg[:36] + " ..." for arg in short)
            if streams:
                differing += 1
                print(f"DIFFERS ({', '.join(streams)}): {shown}")
                if before[0] != after[0]:
                    print(f"    exit code {before[0]} -> {after[0]}")
            elif deviation > 0.0 or args.verbose:
                print(f"same (exit {before[0]}): {shown}")
            if deviation > 0.0:
                print(f"    largest normwise float deviation {deviation:.2e} at {where}")

    summary = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(calls)} calls, {differing} differing; reference exit codes: {summary}")
    if args.numeric:
        print(f"{inexact} calls with float deviations; largest {largest:.2e} "
              f"(allowed {NUMERIC_TOLERANCE:g})")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
