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
check.  Prints each tree's min and median round time and its median
job time (the benchmark's ``job_s.p50``, unnormalized), then each job's
min under both trees, so that a change which moves the median job by
reordering the jobs around it shows which jobs crossed.

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


def run_round(jobs, modules) -> tuple[float, list[float]]:
    """The round's time and each job's time in it."""
    sys.modules.update(modules)  # function-level imports resolve to this tree
    gc.collect()
    outputs, job_times = [], []
    start = time.perf_counter()
    for job in jobs:
        began = time.perf_counter()
        outputs.append(job.run(None, None))
        job_times.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    for job, output in zip(jobs, outputs):
        failure = job.check(output)
        if failure is not None:
            raise SystemExit(f"{job.label}: {failure}")
    return elapsed, job_times


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
        job_times = {label: [] for label in trees}  # one list per round
        labels = list(trees)
        for i in range(args.rounds):
            for label in labels if i % 2 == 0 else labels[::-1]:
                elapsed, per_job = run_round(*trees[label])
                times[label].append(elapsed)
                job_times[label].append(per_job)
        job_labels = [job.label for job in trees[labels[0]][0]]
    print(f"{args.workload}, seed {SEED}, {args.rounds} rounds")
    for label, ts in times.items():
        every_job = [t for per_job in job_times[label] for t in per_job]
        print(f"{label}: min {min(ts) * 1e3:.1f} ms, median {statistics.median(ts) * 1e3:.1f} ms, "
              f"median job {statistics.median(every_job) * 1e3:.2f} ms")
    width = max(map(len, job_labels))
    print(f"{'job min (ms)':<{width}}  " + "  ".join(f"{label:>12}" for label in labels))
    for j, job_label in enumerate(job_labels):
        mins = (min(per_job[j] for per_job in job_times[label]) * 1e3 for label in labels)
        print(f"{job_label:<{width}}  " + "  ".join(f"{m:>12.2f}" for m in mins))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
