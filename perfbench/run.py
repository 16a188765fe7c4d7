"""riemscale benchmark: run one workload for a fixed time and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suite,descent,pairs,cli} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory; nothing
needs installing.  The BLAS/LAPACK thread variables are set to 1 for the
run and its subprocesses, so every workload runs on one thread.

Set-up is timed from the first line of this script, before numpy or the
library is imported, through the workload's input generation and
warm-up, i.e. up to the first timed job.  Untraced, the run then repeats
that cold set-up in fresh interpreters (``--setup-only``) and reports
the median.  It runs the workload's fixed job list repeatedly for
``--seconds`` and checks every job's output.

Every reported time is scaled to a fixed host speed: a reference chunk
(``reference.py``) is timed before every job, after the last, and every
0.2 s of CPU time inside untraced jobs, in this process or, for ``cli``,
in the command's own interpreter.  Each job's time, without the samples
taken inside it, is multiplied by the reference factor of all samples
of its round, and each set-up by the factor of a sample taken right
after it.  The run and its subprocesses are pinned to one CPU.  The
times as measured are printed on the lines before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends part
of the time untraced and the rest with span wrappers installed, and
prints the per-layer metrics plus the tracing overhead; its spans are
written to ``.bench_build/perfbench/spans-<workload>.npz`` at the end.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Cold set-ups per untraced run: this process plus fresh interpreters.
SETUP_REPEATS = 7
IMPORT_PROBES = 3
UNTRACED_MIN_ROUNDS = 2
UNTRACED_SHARE_WHEN_TRACED = 0.4
# Reference sampling before a job, as a share of that job's latest time,
# and right after each set-up.
REF_SHARE = 0.1
SETUP_SAMPLE_S = 0.1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# As found at start; a run then pins each of them to one thread.
FOUND_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import riemscale.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    sys.path.insert(0, str(HERE))
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    return args


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass

    def linalg(config):
        deps = config.get("Build Dependencies", {})
        return {
            k: f"{deps[k].get('name')} {deps[k].get('version')}"
            for k in ("blas", "lapack") if k in deps
        }

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_linalg": linalg(numpy.show_config(mode="dicts")),
        "scipy_linalg": linalg(scipy.show_config(mode="dicts")),
        "thread_env_found": FOUND_THREAD_ENV,
        "thread_env_used": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def probe_import() -> float:
    """Import ``riemscale.cli`` in a fresh interpreter; returns the import
    time measured inside it."""
    from workloads import cli_env

    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT, check=True,
    )
    return float(done.stdout.strip())


def set_up(workload: str, seed: int, memo: dict, tiny: bool = False):
    """Make the workload's jobs and warm up its numeric paths.  The first
    call in a process also imports the library's modules."""
    from workloads import make_jobs, warm_up

    jobs = make_jobs(workload, seed, memo, tiny)
    if workload != "cli":
        warm_up()
    return jobs


def setup_factor() -> float:
    """The reference factor (see `reference`) right after a set-up."""
    from reference import Speedometer

    speed = Speedometer()
    speed.sample(SETUP_SAMPLE_S)
    return speed.run_factor()


def fresh_set_up(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of ``run.py --setup-only`` in a fresh interpreter, and
    the reference factor measured there right after it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    elapsed, factor = done.stdout.split()[-2:]
    return float(elapsed), float(factor)


class Runner:
    """Runs rounds of a job list and keeps per-job times and failures.

    A reference sample (see `reference`) is taken before every job and
    once after the last, and inside untraced jobs: in this process, or
    in the `cli` command's own interpreter.  Each job's time is also kept
    at the reference speed of the samples of its round (``job_norm``)."""

    def __init__(self, tracer=None):
        from reference import Speedometer

        self.tracer = tracer
        self.speed = Speedometer()
        self.last: dict[str, float] = {}  # latest time of each job label
        self.first_sample: list[int] = []  # per job, the sample taken before it
        self.job_times: list[float] = []
        self.job_norm: list[float] = []
        self.round_times: list[float] = []
        self.round_norm: list[float] = []
        self.round_jobs: list[list[int]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def _sample_before(self, seconds: float, inside: bool) -> None:
        # a job sampled inside needs only one chunk on either side
        self.first_sample.append(len(self.speed.chunks))
        self.speed.sample(0.0 if inside else REF_SHARE * seconds)

    def run_round(self, jobs) -> None:
        ids, wall = [], 0.0
        for job in jobs:
            # spans would count samples taken inside a job as library time
            inside = job.in_process and self.tracer is None
            self._sample_before(self.last.get(job.label, 0.0), inside)
            job_id = self.attempted
            self.attempted += 1
            ids.append(job_id)
            if self.tracer is not None:
                self.tracer.begin_job(job_id)
            t0 = time.perf_counter()
            try:
                with self.speed.during_job(inside):
                    output = job.run(self.tracer, self.speed)
            except Exception as exc:  # a job that raises is a failed job
                output, reason = None, f"{job.label}: {type(exc).__name__}: {exc}"
            else:
                reason = None
            elapsed = time.perf_counter() - t0 - self.speed.inside
            if self.tracer is not None:
                self.tracer.end_job()
            if reason is None:
                try:
                    reason = job.check(output)
                except Exception as exc:  # an output the check cannot read is wrong
                    reason = f"{job.label}: output check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append(reason)
            self.job_times.append(elapsed)
            self.last[job.label] = elapsed
            wall += elapsed
        self.round_times.append(wall)
        self.round_jobs.append(ids)

    def run_for(self, jobs, seconds: float, min_rounds: int) -> None:
        """Run rounds until another would end after ``seconds``, then
        take the closing reference sample and normalise the job times."""
        t0 = time.perf_counter()
        while True:
            self.run_round(jobs)
            elapsed = time.perf_counter() - t0
            rounds = len(self.round_times)
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
        self._sample_before(self.job_times[-1], jobs[-1].in_process and self.tracer is None)
        # one factor per round, from the samples before, inside and after
        # its jobs: a short `cli` command takes one or two samples, too
        # few for a factor of its own
        bounds = self.first_sample
        for ids in self.round_jobs:
            f = self.speed.factor(bounds[ids[0]], bounds[ids[-1] + 1])
            self.job_norm += [self.job_times[k] * f for k in ids]
        self.round_norm = [sum(self.job_norm[k] for k in ids) for ids in self.round_jobs]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, workload: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics other than ``setup_s``, and the lines
    reporting ``failed_ratio`` and ``job_s.p90``."""
    from metrics import P90_MIN_JOBS

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": statistics.median(runner.round_norm),
        "job_s.p50": statistics.median(runner.job_norm),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    n = len(runner.job_times)
    notes = [f"failed_ratio {len(runner.failures) / runner.attempted!r} "
             f"({len(runner.failures)} of {runner.attempted} jobs)",
             f"as measured, before scaling to the reference speed: wall_s "
             f"{statistics.median(runner.round_times)!r} s, job_s.p50 "
             f"{statistics.median(runner.job_times)!r} s; reference factor of the run "
             f"{runner.speed.run_factor()!r} over {sum(runner.speed.chunks)} chunks"]
    if n >= P90_MIN_JOBS:
        notes.append(f"job_s.p90 {p90(runner.job_norm)!r} s ({n} jobs)")
    else:
        notes.append(f"job_s.p90 not reported ({n} jobs, needs {P90_MIN_JOBS})")
    return metrics, notes


def traced_layers(tracer, traced: Runner, untraced: Runner, import_s: float):
    from metrics import combine_rounds, round_layer_metrics
    from tracer import aggregate

    per_round = [
        round_layer_metrics(spans, counts)
        for spans, counts in aggregate(tracer, traced.round_jobs)
    ]
    layers, unsteady = combine_rounds(per_round)
    layers["cli.import_s"] = import_s
    layers["trace.overhead_ratio"] = (
        statistics.median(traced.round_norm) / statistics.median(untraced.round_norm) - 1.0
    )
    return layers, unsteady


def benchmark(workload: str, seed: int, seconds: float, trace: bool, started: float,
              tiny: bool = False) -> dict:
    """One run, whose set-up is timed from ``started``; returns the
    result object and the lines to print before it.  A tiny run makes
    small inputs and sets up once."""
    from instrument import install
    from metrics import END_TO_END, PER_LAYER, UNITS
    from tracer import Tracer
    from workloads import make_jobs

    memo: dict = {}
    jobs = set_up(workload, seed, memo, tiny)
    setups = [(time.perf_counter() - started, setup_factor())]
    untraced = Runner()
    lines = [f"machine {json.dumps(machine_record(), sort_keys=True)}"]
    if not trace:
        untraced.run_for(jobs, seconds, UNTRACED_MIN_ROUNDS)
        # peak RSS is read before the fresh set-ups add child processes
        metrics, notes = end_to_end(untraced, workload)
        if not tiny:
            setups += [fresh_set_up(workload, seed) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = statistics.median(t * f for t, f in setups)
        notes.append("setup_s of each cold set-up, as measured, and its reference factor: "
                     + " ".join(f"{t!r} x{f!r}" for t, f in setups))
        runners, names, unsteady = [untraced], END_TO_END, []
    else:
        untraced.run_for(jobs, UNTRACED_SHARE_WHEN_TRACED * seconds, 1)
        tracer = Tracer()
        installed = install(tracer)
        try:
            # inputs are made again so their callbacks are traced too
            jobs = make_jobs(workload, seed, memo, tiny)
            traced = Runner(tracer)
            traced.run_for(jobs, (1.0 - UNTRACED_SHARE_WHEN_TRACED) * seconds, 1)
        finally:
            installed.remove()
        import_s = statistics.median(probe_import() for _ in range(1 if tiny else IMPORT_PROBES))
        metrics, unsteady = traced_layers(tracer, traced, untraced, import_s)
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}.npz")
        runners, names = [untraced, traced], PER_LAYER
        notes = [f"spans {len(tracer)} written to {out_dir / f'spans-{workload}.npz'}"]
        notes += [f"count {n} differs between rounds of identical inputs" for n in unsteady]
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    rounds = sum(len(r.round_times) for r in runners)
    lines.append(f"workload {workload} seed {seed} trace {int(trace)}: "
                 f"{rounds} rounds of {len(jobs)} jobs, {attempted} jobs attempted")
    lines += [f"failed: {f}" for f in failures]
    lines += [f"metric {n} {metrics[n]!r} {UNITS[n]}" for n in names]
    lines += notes
    result = {
        "correct": not failures and not unsteady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riemscale" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    # one process, no extra threads: BLAS/LAPACK pools would otherwise
    # occupy the second core; set before numpy is first imported
    os.environ.update({k: "1" for k in THREAD_VARS})
    # one CPU for this process and the subprocesses it starts: the host
    # runs each vCPU at its own speed, so reference samples taken here
    # must come from the CPU that runs a `cli` command
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import riemscale

    if Path(riemscale.__file__).resolve().parent != (SRC / "riemscale").resolve():
        print(f"perfbench: imported riemscale from {riemscale.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed, {})
        elapsed = time.perf_counter() - STARTED
        print(repr(elapsed), repr(setup_factor()))
        return 0
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
