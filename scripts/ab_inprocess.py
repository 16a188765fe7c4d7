#!/usr/bin/env python3
"""Time one benchmark workload under a git revision and under the working
tree, in one interpreter, in alternating rounds.

Usage::

    python scripts/ab_inprocess.py REV [--workload suite|descent|pairs] [--rounds N] [--seed N]
                                       [--checks] [--tree-first]

Exports ``REV`` with ``git archive`` into a temporary directory, as
``compare_outputs.py`` does.  Each tree is loaded in turn: the
``riemscale`` modules and ``workloads`` are purged from ``sys.modules``,
the tree's ``src`` goes first on ``sys.path``, and the job list is built
by the working tree's ``perfbench/workloads.py`` from ``--seed`` (default
1) and warmed up.  A claim measured on one seed can be checked on a seed
not used while the change was written.  The revision is loaded first,
or the working tree with ``--tree-first``: the tree loaded second has
read slower on SPD ``descent`` jobs whatever its code, so a per-job
difference should hold in both orders.  The header names the order.
Each tree keeps its own modules, which are put back in ``sys.modules`` before
its rounds run.  Round ``i`` runs both trees' job lists, the revision
first when ``i`` is even; every job's output passes the benchmark's own
check.  Prints each tree's min and median round time and its median
job time (the benchmark's ``job_s.p50``, unnormalized), then each job's
min under both trees, so that a change which moves the median job by
reordering the jobs around it shows which jobs crossed.  For the round
time and each round's median job, it also prints the inputs of the
benchmark's rule for a claimed gain: how many of the round pairs (the
two trees' runs of one round) each tree won, a tie counting for
neither, the change of the working tree's median from the revision's,
and the revision's interquartile distance.  With
``--checks`` (``suite`` only), each tree's property checks are timed
too, and each check's min under both trees is printed: this shows where
in the suite a change lands, with the untraced engine (the benchmark's
traced run wraps the Fréchet objective and times a different one).

The ``cli`` workload is out of scope: its jobs start subprocesses on the
working tree's ``src``.  Like the benchmark, the process is pinned to one
CPU and its BLAS to one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def time_checks(verify, timings: dict[str, list[float]]) -> None:
    """Make each property check of ``verify`` (a tree's module) append the
    time of each of its runs to ``timings[check_id]``."""

    def timed(check):
        times = timings.setdefault(check.check_id, [])

        def run(rng):
            began = time.perf_counter()
            try:
                return check.run(rng)
            finally:
                times.append(time.perf_counter() - began)

        return dataclasses.replace(check, run=run)

    verify.PROPERTY_CHECKS = tuple(map(timed, verify.PROPERTY_CHECKS))


def load(tree: Path, workload: str, seed: int, path: list[str], timings: dict | None = None):
    """The tree's warmed-up job list and its modules; ``path`` is the
    ``sys.path`` to put the tree's ``src`` and the benchmark in front of.
    With ``timings``, the tree's property checks record their times there
    from the first timed round on."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.path[:] = [str(tree / "src"), str(ROOT / "perfbench"), *path]
    import workloads

    if timings is not None:
        time_checks(workloads.verify, timings)
    jobs = workloads.make_jobs(workload, seed, {})
    workloads.warm_up()
    if timings is not None:
        for times in timings.values():
            times.clear()
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


def pair_rule(metric: str, labels: list[str], rev: list[float], tree: list[float]) -> str:
    """One line of the claimed-gain rule's inputs for ``metric``: the round
    pairs each tree won (lower is better; a tie counts for neither), the
    change of the median from the revision's, and the revision's
    interquartile distance, which a gain's median change must exceed."""
    rev_wins = sum(a < b for a, b in zip(rev, tree))
    tree_wins = sum(b < a for a, b in zip(rev, tree))
    change = statistics.median(tree) - statistics.median(rev)
    q1, _, q3 = statistics.quantiles(rev, n=4) if len(rev) > 1 else (rev[0],) * 3
    return (f"{metric}: {labels[0]} won {rev_wins} of {len(rev)} pairs, {labels[1]} won "
            f"{tree_wins}; median change {change * 1e3:+.2f} ms, "
            f"{labels[0]} interquartile distance {(q3 - q1) * 1e3:.2f} ms")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", choices=("suite", "descent", "pairs"), default="suite")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1, help="seed of the job list (default 1)")
    parser.add_argument("--checks", action="store_true",
                        help="with --workload suite, also print each property check's "
                        "min time per tree")
    parser.add_argument("--tree-first", action="store_true",
                        help="load the working tree before the revision")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.checks and args.workload != "suite":
        parser.error("--checks needs --workload suite")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp))
        path = list(sys.path)
        labels = [args.rev, "working tree"]
        check_times = {label: {} if args.checks else None for label in labels}
        sources = list(zip(labels, (Path(tmp), ROOT)))
        trees = {
            label: load(tree, args.workload, args.seed, path, check_times[label])
            for label, tree in (sources[::-1] if args.tree_first else sources)
        }
        times = {label: [] for label in labels}
        job_times = {label: [] for label in labels}  # one list per round
        for i in range(args.rounds):
            for label in labels if i % 2 == 0 else labels[::-1]:
                elapsed, per_job = run_round(*trees[label])
                times[label].append(elapsed)
                job_times[label].append(per_job)
        job_labels = [job.label for job in trees[labels[0]][0]]
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds, "
          f"loaded {' then '.join(trees)}")
    for label, ts in times.items():
        every_job = [t for per_job in job_times[label] for t in per_job]
        print(f"{label}: min {min(ts) * 1e3:.1f} ms, median {statistics.median(ts) * 1e3:.1f} ms, "
              f"median job {statistics.median(every_job) * 1e3:.2f} ms")
    medians = {label: [statistics.median(per_job) for per_job in job_times[label]]
               for label in labels}
    for metric, series in (("round", times), ("median job", medians)):
        print(pair_rule(metric, labels, series[labels[0]], series[labels[1]]))
    width = max(map(len, job_labels))
    print(f"{'job min (ms)':<{width}}  " + "  ".join(f"{label:>12}" for label in labels))
    for j, job_label in enumerate(job_labels):
        mins = (min(per_job[j] for per_job in job_times[label]) * 1e3 for label in labels)
        print(f"{job_label:<{width}}  " + "  ".join(f"{m:>12.2f}" for m in mins))
    if args.checks:
        check_ids = list(check_times[labels[0]])
        width = max(map(len, check_ids))
        print(f"{'check min (ms)':<{width}}  " + "  ".join(f"{label:>12}" for label in labels))
        for check_id in check_ids:
            mins = (min(check_times[label][check_id]) * 1e3 for label in labels)
            print(f"{check_id:<{width}}  " + "  ".join(f"{m:>12.2f}" for m in mins))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
