"""The four workloads: seeded job lists and the check on each job's output.

A workload is a fixed list of jobs made from the seed.  The benchmark
runs that list repeatedly ("rounds"); each round repeats the same inputs,
which is what the byte-repeat checks compare against.  Only the values
drawn from the seed change between seeds, never the amount of work, so
runs with different seeds measure the same cost.

Step sizes and scales are drawn from the ranges the README and the
verification suite use: metric scales 0.25..10 and step sizes
0.01..0.25, so the effective step ``eta / lambda`` stays at most 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from riemscale import manifolds, optimize, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The tolerance of the optimizer.trajectory-equivalence check.
TWIN_TOL = 1e-8
CALIBRATION_TOL = 1e-12

# Jobs as (manifold, points per problem, problems per job).  The problem
# counts make every job about the same work (0.3-0.45 s on a 2-core Xeon),
# so the median job time is a median over every job of the run instead of
# a few samples of whichever job kind happens to sit in the middle.
DESCENT_JOBS = (
    ("euclidean:3", 8, 50), ("euclidean:3", 100, 7), ("sphere:2", 8, 11), ("sphere:2", 100, 1),
    ("spd:2", 4, 6), ("spd:2", 32, 1), ("spd:8", 4, 5), ("spd:8", 32, 1),
)
DESCENT_ITERS = 40
PAIRS_JOBS = (
    ("sphere:2", 20, 40), ("sphere:2", 60, 5), ("sphere:2", 130, 1), ("spd:2", 20, 19),
    ("spd:2", 60, 2), ("spd:2", 90, 1), ("spd:8", 20, 16), ("spd:8", 80, 1),
)
TINY_JOBS = (("euclidean:3", 4, 2), ("sphere:2", 6, 1), ("spd:2", 6, 1), ("spd:8", 4, 1))


def _first_failure(reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


@dataclass
class Job:
    label: str
    run: Callable  # run(tracer or None, Speedometer) -> output
    check: Callable  # check(output) -> failure reason, or None when correct
    in_process: bool = True  # False when the work runs in a subprocess


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _repeats(memo: dict, key: str, data) -> str | None:
    """Failure reason when ``data`` differs from the first output for ``key``."""
    first = memo.setdefault(key, data)
    return None if first == data else f"{key}: output differs from the first run"


# ---------------------------------------------------------------------------
# suite: the whole property suite, in process
# ---------------------------------------------------------------------------


def suite_jobs(seed: int, memo: dict, tiny: bool = False) -> list[Job]:
    def run(tracer, speed):
        report = verify.run_suite(seed)
        return report, verify.render_json(report)

    def check(output):
        report, text = output
        failed = [r["id"] for r in report["records"] if not r["passed"]]
        if failed:
            return f"suite {seed}: failed records {failed}"
        return _repeats(memo, f"suite:{seed}", text)

    return [Job(f"suite:{seed}", run, check)]


# ---------------------------------------------------------------------------
# descent: barycenter descent under a scaled metric plus its rescaled twin
# ---------------------------------------------------------------------------


def check_twin(label: str, deviation: float) -> str | None:
    if not math.isfinite(deviation) or deviation > TWIN_TOL:
        return f"{label}: twin deviation {deviation!r} exceeds {TWIN_TOL}"
    return None


def descent_jobs(seed: int, memo: dict, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    iters = 3 if tiny else DESCENT_ITERS
    jobs = []
    for spec, n, count in TINY_JOBS if tiny else DESCENT_JOBS:
        m = manifolds.manifold_from_string(spec)
        problems = []
        for _ in range(count):
            _, objective, x0 = optimize.random_frechet_problem(m, n, rng)
            problems.append((objective, x0, _log_uniform(rng, 0.01, 0.25),
                             _log_uniform(rng, 0.25, 10.0)))
        label = f"descent:{spec}:n={n}x{count}"

        def run(tracer, speed, m=m, problems=problems):
            # a DomainError here is an arm stopping with reason "error"
            return [optimize.equivalence_check(m, objective, x0, eta, lam, iters)
                    for objective, x0, eta, lam in problems]

        def check(deviations, label=label):
            return _first_failure(check_twin(label, d) for d in deviations)

        jobs.append(Job(label, run, check))
    return jobs


# ---------------------------------------------------------------------------
# pairs: independent distances and the closed-form scale fit
# ---------------------------------------------------------------------------


def check_calibration(label: str, lam_star: float, scale_target: float) -> str | None:
    rel = abs(lam_star - scale_target**2) / scale_target**2
    if not rel <= CALIBRATION_TOL:
        return f"{label}: lambda* {lam_star!r} is {rel:.3e} from {scale_target**2!r}"
    return None


def pairs_jobs(seed: int, memo: dict, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for spec, n, count in TINY_JOBS if tiny else PAIRS_JOBS:
        m = manifolds.manifold_from_string(spec)
        problems = [
            (optimize.random_frechet_problem(m, n, rng)[0], _log_uniform(rng, 0.5, 4.0))
            for _ in range(count)
        ]
        label = f"pairs:{spec}:n={n}x{count}"

        def run(tracer, speed, problems=problems):
            fitted = []
            for points, target in problems:
                targets = target * optimize.pairwise_distances(points)
                scale, _ = optimize.calibrate_scale(points, targets)
                fitted.append(scale.value)
            return fitted

        def check(fitted, label=label, problems=problems):
            return _first_failure(
                check_calibration(label, v, t) for v, (_, t) in zip(fitted, problems)
            )

        jobs.append(Job(label, run, check))
    return jobs


# ---------------------------------------------------------------------------
# cli: the non-verify commands as subprocesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], tracer, speed) -> CliResult:
    """Run one CLI command in a fresh interpreter, under `cli_child`.
    Traced, its spans are merged into ``tracer``; untraced, its
    reference samples are added to ``speed``."""
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "child.json"
        mode = "samples" if tracer is None else "spans"
        cmd = [sys.executable, str(HERE / "cli_child.py"), mode, str(out), *argv]
        done = subprocess.run(cmd, capture_output=True, env=cli_env(), cwd=ROOT)
        if out.exists():
            child = json.loads(out.read_text())
            if tracer is None:
                speed.add(child)
            else:
                tracer.absorb(child, tracer.job_id)
    if tracer is not None:
        tracer.count("cli.out_bytes", len(done.stdout))
    return CliResult(done.returncode, done.stdout, done.stderr)


def check_cli(label: str, fmt: str, result: CliResult, memo: dict) -> str | None:
    if result.returncode != 0:
        tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"{label}: exit status {result.returncode} {tail}"
    try:
        text = result.stdout.decode()
        if fmt == "json":
            json.loads(text)
        else:
            rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
            if len(rows) < 2 or len({len(r) for r in rows}) != 1:
                return f"{label}: csv output is not a rectangular table"
    except (ValueError, csv.Error) as exc:
        return f"{label}: output does not parse: {exc}"
    return _repeats(memo, label, result.stdout)


def cli_commands(seed: int, tiny: bool = False) -> list[tuple[list[str], str]]:
    """The fixed command mix; the seed draws the values, never the sizes."""
    rng = np.random.default_rng([seed, 3])

    def lam():
        return f"{_log_uniform(rng, 0.25, 10.0):.6g}"

    def eta():
        return f"{_log_uniform(rng, 0.01, 0.25):.6g}"

    def target():
        return f"{_log_uniform(rng, 0.5, 4.0):.6g}"

    def run_seed():
        return str(int(rng.integers(0, 2**31)))

    if tiny:
        return [
            (["--command", "scale-table", "--lambda", lam(), "--manifold", "spd:2"], "json"),
            (["--command", "geodesic", "--chart", "polar", "--lambda", lam(),
              "--iters", "20"], "csv"),
        ]
    return [
        (["--command", "scale-table", "--lambda", lam(), "--manifold", "spd:8"], "json"),
        (["--command", "scale-table", "--lambda", lam(), "--manifold", "sphere:2"], "csv"),
        (["--command", "frechet", "--manifold", "sphere:2", "--lambda", lam(), "--eta", eta(),
          "--points", "8", "--seed", run_seed(), "--check-equivalence"], "json"),
        (["--command", "frechet", "--manifold", "spd:2", "--lambda", lam(), "--eta", eta(),
          "--points", "8", "--seed", run_seed()], "csv"),
        (["--command", "calibrate", "--manifold", "spd:2", "--scale-target", target(),
          "--eta", eta(), "--points", "6", "--seed", run_seed()], "json"),
        (["--command", "calibrate", "--manifold", "sphere:2", "--scale-target", target(),
          "--eta", eta(), "--points", "6", "--seed", run_seed()], "csv"),
        (["--command", "geodesic", "--chart", "polar", "--lambda", lam(),
          "--iters", "2000"], "json"),
        (["--command", "geodesic", "--chart", "sphere-chart", "--lambda", lam(),
          "--iters", "200"], "csv"),
    ]


def cli_jobs(seed: int, memo: dict, tiny: bool = False) -> list[Job]:
    jobs = []
    for argv, fmt in cli_commands(seed, tiny):
        argv = [*argv, "--format", fmt]
        label = "cli:" + " ".join(argv)

        def run(tracer, speed, argv=argv):
            return run_cli(argv, tracer, speed)

        jobs.append(Job(
            label, run, lambda r, label=label, fmt=fmt: check_cli(label, fmt, r, memo),
            in_process=False,
        ))
    return jobs


MAKERS = {"suite": suite_jobs, "descent": descent_jobs, "pairs": pairs_jobs, "cli": cli_jobs}


def make_jobs(workload: str, seed: int, memo: dict, tiny: bool = False) -> list[Job]:
    return MAKERS[workload](seed, memo, tiny)


def warm_up() -> None:
    """Touch every numeric path once so lazy library set-up is done
    before timing: LAPACK dispatch for eigh and generalized eigh, chart
    finite differences, and a descent step."""
    from riemscale import charts

    rng = np.random.default_rng(0)
    for spec in ("euclidean:3", "sphere:2", "spd:2"):
        m = manifolds.manifold_from_string(spec)
        _, objective, x0 = optimize.random_frechet_problem(m, 3, rng)
        optimize.equivalence_check(m, objective, x0, 0.1, 2.0, 2)
    charts.geodesic_integrate(charts.polar_chart(), (3.0, 0.0), (0.5, 0.2), steps=2)
