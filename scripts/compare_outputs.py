#!/usr/bin/env python3
"""Check that the working tree prints exactly what a git revision prints.

Usage::

    python scripts/compare_outputs.py REV

Exports ``REV`` with ``git archive`` into a temporary directory, then
runs a fixed list of commands under that tree and under the working
tree: ``python -m riemscale.cli`` for every command in the list, once
with ``--format json`` and once with ``--format csv``, and the four
demos.  Each run starts in a fresh empty directory with ``PYTHONPATH``
pointing at the tree's ``src``.  Stdout, stderr and the exit status are
compared byte for byte.  Prints one line per command and exits 1 if any
of them differs.  Where stdout differs but both outputs have the same
text around their numbers, the line also gives the largest absolute
difference between corresponding numbers, which tells a last-digit
change from a real one.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI_COMMANDS = [
    ["--command", "verify", "--seed", "42"],
    ["--command", "verify", "--seed", "7"],
    ["--command", "verify", "--seed", "1234"],
    ["--command", "scale-table"],
    ["--command", "scale-table", "--manifold", "spd:8", "--lambda", "4"],
    ["--command", "frechet"],
    ["--command", "frechet", "--manifold", "sphere:2", "--lambda", "4", "--seed", "3",
     "--points", "8", "--check-equivalence"],
    ["--command", "frechet", "--manifold", "spd:2", "--lambda", "2.5", "--seed", "9",
     "--check-equivalence"],
    ["--command", "frechet", "--manifold", "spd:8", "--lambda", "0.5", "--points", "20"],
    ["--command", "frechet", "--points", "1"],
    ["--command", "frechet", "--manifold", "spd:2", "--eta", "50"],
    ["--command", "frechet", "--manifold", "spd:2", "--eta", "50", "--check-equivalence"],
    ["--command", "frechet", "--manifold", "euclidean:3", "--eta", "5"],
    # a descent whose value overflows: it stops as diverged
    ["--command", "frechet", "--manifold", "euclidean:3", "--eta", "5", "--iters", "400"],
    ["--command", "frechet", "--manifold", "spd:8", "--points", "12", "--check-equivalence"],
    ["--command", "frechet", "--manifold", "euclidean:3", "--points", "100",
     "--check-equivalence"],
    ["--command", "frechet", "--manifold", "spd:8", "--points", "32", "--lambda", "4",
     "--check-equivalence"],
    ["--command", "calibrate"],
    ["--command", "calibrate", "--manifold", "spd:2", "--scale-target", "3", "--seed", "5"],
    ["--command", "calibrate", "--points", "1"],
    ["--command", "calibrate", "--manifold", "spd:8", "--points", "25"],
    ["--command", "calibrate", "--manifold", "sphere:2", "--points", "60"],
    # pairwise distances over several blocks of pairs on each family
    ["--command", "calibrate", "--manifold", "spd:2", "--points", "90"],
    ["--command", "calibrate", "--manifold", "sphere:2", "--points", "130"],
    ["--command", "geodesic"],
    ["--command", "geodesic", "--chart", "polar", "--lambda", "4", "--iters", "1000"],
    ["--command", "geodesic", "--chart", "euclidean:3", "--lambda", "0.25", "--iters", "7"],
    ["--command", "geodesic", "--chart", "sphere-chart", "--lambda", "10", "--iters", "1"],
    ["--command", "geodesic", "--chart", "sphere-chart", "--lambda", "0.25", "--iters", "1000"],
    # a run that is not a whole number of blocks of lockstep steps
    ["--command", "geodesic", "--chart", "polar", "--lambda", "3", "--iters", "2001"],
    # a scale whose inverse metric, or whose gradient factor, leaves the double range
    ["--command", "geodesic", "--lambda", "1e-310", "--iters", "50"],
    ["--command", "frechet", "--lambda", "1e-310"],
    # the reported run stops before its first iterate and the twins' step overflows:
    # the reported run's error comes first
    ["--command", "frechet", "--lambda", "1e-310", "--check-equivalence"],
    # the reported run converges (at iterations 33 and 11) before its twins end
    ["--command", "frechet", "--manifold", "euclidean:3", "--eta", "0.5",
     "--check-equivalence"],
    ["--command", "calibrate", "--manifold", "euclidean:3", "--eta", "2",
     "--scale-target", "1.5"],
    # a twin that diverges
    ["--command", "frechet", "--manifold", "euclidean:3", "--eta", "5", "--iters", "400",
     "--check-equivalence"],
    # argument errors: usage message on stderr, exit status 2
    ["--command", "scale-table", "--lambda", "nan"],
    ["--command", "frechet", "--iters", "0"],
    ["--command", "frechet", "--points", "0"],
    ["--command", "frechet", "--manifold", "sphere:0"],
    ["--command", "geodesic", "--chart", "euclidean:0"],
]
DEMOS = [
    "01_scaling_laws.py",
    "02_chart_invariance.py",
    "03_step_size_equivalence.py",
    "04_scale_calibration.py",
]
TIMEOUT_S = 600
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def runs(tree: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for every command, run against ``tree``."""
    out = []
    for args in CLI_COMMANDS:
        for fmt in ("json", "csv"):
            argv = [*args, "--format", fmt]
            out.append((" ".join(argv), [sys.executable, "-m", "riemscale.cli", *argv]))
    for demo in DEMOS:
        out.append((f"demo {demo}", [sys.executable, str(tree / "demos" / demo)]))
    return out


def run(tree: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ)
    env.pop("RIEMSCALE_OUTPUT_DIR", None)
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def max_numeric_diff(a: bytes, b: bytes) -> float | None:
    """Largest absolute difference between corresponding numbers of two
    outputs, or ``None`` when their non-numeric text differs."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return None
    gaps = [
        0.0 if x == y else abs(float(x) - float(y))
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))
    ]
    # a NaN gap (NaN against a number) counts as infinitely large
    return max((math.inf if math.isnan(g) else g for g in gaps), default=0.0)


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        export(argv[0], other)
        differ = 0
        for (label, here_argv), (_, there_argv) in zip(runs(ROOT), runs(other)):
            here, there = run(ROOT, here_argv), run(other, there_argv)
            parts = [
                name for name, a, b in zip(("status", "stdout", "stderr"), here, there) if a != b
            ]
            differ += bool(parts)
            note = ""
            if "stdout" in parts:
                gap = max_numeric_diff(here[1], there[1])
                note = " (text differs)" if gap is None else f" (max numeric diff {gap:.3g})"
            print(f"{'DIFF ' + ','.join(parts) + note if parts else 'same'}\t{label}", flush=True)
    print(f"{differ} of {len(runs(ROOT))} commands differ from {argv[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
