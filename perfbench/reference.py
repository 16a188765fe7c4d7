"""A fixed reference computation that measures how fast the host runs now.

The machines this benchmark runs on are shared: the same work can take
1.5-2x longer, in swings from seconds to minutes, and that swamps any
bound a regression check could use.  So the runner times a short, fixed
reference chunk between jobs and, for jobs that run in this process,
every `PERIOD_S` of process CPU time inside them (a ``SIGPROF`` timer;
the handler runs between bytecodes of the main thread, and its time is
taken out of the job's time).  A `cli` job's subprocess samples itself
the same way while its command runs (see `cli_child`).  Each job's time
is then reported at the speed the reference had in the job's round:

    reported = measured * REF_CHUNK_S / (measured time of one chunk)

`REF_CHUNK_S` is about the chunk's time on the baseline machine, so
reported times read in seconds of that machine.  The chunk uses none of the
library; it mixes what the workloads spend their time on: interpreted
Python, small numpy array arithmetic and small LAPACK calls (``eigh``,
``cholesky``, ``solve``).  A change to the library cannot change it.  It
imports numpy only, which every command of the library imports too, so
sampling inside a `cli` subprocess loads no module the command would
not load itself (scipy, say).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# About one chunk's time on the baseline machine (2-vCPU Xeon, see
# BASELINE.json) in its fast phase; a fixed scale for every reported time.
REF_CHUNK_S = 0.01
# Process CPU time between two samples inside a job.
PERIOD_S = 0.2
_REPS = 150


def _matrices():
    rng = np.random.default_rng(0)
    out = []
    for k in (2, 3, 8):
        a = rng.standard_normal((k, k))
        out.append(a @ a.T + np.eye(k))
    return out


_MATRICES = _matrices()
_PENCIL = _MATRICES[0] + np.eye(2)


def chunk() -> float:
    """The reference work itself; returns a checksum so nothing is skipped."""
    total = 0.0
    for _ in range(_REPS):
        for a in _MATRICES:
            w, v = np.linalg.eigh(a)
            total += float(w[0]) + float(np.sum(v * v))
        lower = np.linalg.cholesky(_PENCIL)
        total += float(np.linalg.solve(lower, _MATRICES[0])[0, 0])
        acc = 0
        for j in range(200):
            acc += j * j
        total += acc
    return total


class Speedometer:
    """Reference samples of one run, in the order they were taken.

    `sample(seconds)` runs whole chunks until at least ``seconds`` have
    passed (one chunk at least) and keeps their count and time.  Inside
    `during_job`, one chunk more is taken every `PERIOD_S` of CPU time,
    and ``inside`` adds up the time those took.
    """

    def __init__(self):
        self.chunks: list[int] = []
        self.seconds: list[float] = []
        self.inside = 0.0
        chunk()  # first-call costs stay out of the samples

    def sample(self, seconds: float) -> None:
        n, t0 = 0, time.perf_counter()
        while True:
            chunk()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.chunks.append(n)
        self.seconds.append(elapsed)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        elapsed = time.perf_counter() - t0
        self.chunks.append(1)
        self.seconds.append(elapsed)
        self.inside += elapsed
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)  # one-shot, so samples never nest

    @contextmanager
    def during_job(self, enabled: bool):
        """Sample inside the enclosed job when ``enabled``; resets
        ``inside`` first."""
        self.inside = 0.0
        if not enabled:
            yield
            return
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def add(self, child: dict) -> None:
        """Append the samples a `cli_child` took inside a job, and count
        the time it spent on the reference as taken inside."""
        self.chunks += child["chunks"]
        self.seconds += child["seconds"]
        self.inside += child["overhead"]

    def factor(self, first: int, last: int) -> float:
        """``REF_CHUNK_S`` over the chunk time of samples ``first`` to
        ``last``, both included."""
        n = sum(self.chunks[first:last + 1])
        return REF_CHUNK_S * n / sum(self.seconds[first:last + 1])

    def run_factor(self) -> float:
        """The same over every sample of the run."""
        return self.factor(0, len(self.chunks) - 1)
