#!/usr/bin/env python3
"""Time one benchmark workload under a git revision and under the working
tree, in one interpreter, in alternating rounds.

Usage::

    python scripts/ab_inprocess.py REV [--workload suite|descent|pairs] [--rounds N]

Exports ``REV`` with ``git archive`` into a temporary directory, as
``compare_outputs.py`` does.  Each tree is loaded in turn: the
``riemscale`` modules and ``workloads`` are purged from ``sys.modules``,
the tree's ``src`` goes first on ``sys.path``, and the job list is built
by the working tree's ``perfbench/workloads.py`` and warmed up.  Each
tree keeps its own modules, which are put back in ``sys.modules`` before
its rounds run.  Round ``i`` runs both trees' job lists, the revision
first when ``i`` is even; every job's output passes the benchmark's own
check.  Prints each tree's min and median round time.

The ``cli`` workload is out of scope: its jobs start subprocesses on the
working tree's ``src``.  Like the benchmark, the process is pinned to one
CPU and its BLAS to one thread.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _ours(name: str) -> bool:
    return name == "workloads" or name == "riemscale" or name.startswith("riemscale.")


def load(tree: Path, workload: str, path: list[str]):
    """The tree's warmed-up job list and its modules; ``path`` is the
    ``sys.path`` to put the tree's ``src`` and the benchmark in front of."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.path[:] = [str(tree / "src"), str(ROOT / "perfbench"), *path]
    import workloads

    jobs = workloads.make_jobs(workload, SEED, {})
    workloads.warm_up()
    return jobs, {n: m for n, m in sys.modules.items() if _ours(n)}


def run_round(jobs, modules) -> float:
    sys.modules.update(modules)  # function-level imports resolve to this tree
    gc.collect()
    start = time.perf_counter()
    outputs = [job.run(None, None) for job in jobs]
    elapsed = time.perf_counter() - start
    for job, output in zip(jobs, outputs):
        failure = job.check(output)
        if failure is not None:
            raise SystemExit(f"{job.label}: {failure}")
    return elapsed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", choices=("suite", "descent", "pairs"), default="suite")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp))
        path = list(sys.path)
        trees = {
            args.rev: load(Path(tmp), args.workload, path),
            "working tree": load(ROOT, args.workload, path),
        }
        times = {label: [] for label in trees}
        labels = list(trees)
        for i in range(args.rounds):
            for label in labels if i % 2 == 0 else labels[::-1]:
                times[label].append(run_round(*trees[label]))
    print(f"{args.workload}, seed {SEED}, {args.rounds} rounds")
    for label, ts in times.items():
        print(f"{label}: min {min(ts) * 1e3:.1f} ms, median {statistics.median(ts) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
