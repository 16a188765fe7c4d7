"""In-memory span recorder and the self-time arithmetic.

A span is one call across a layer boundary: its name, start and end
times, the span that was open when it began (its parent) and the job it
belongs to.  Spans live in flat typed arrays so that a traced suite
(a few hundred thousand calls) stays small in memory; they are written
out once, when the benchmark ends.  Counters record work done at the
same boundaries (eigendecompositions, metric evaluations, RK4 steps,
optimizer iterations), one counter set per job.

This module imports nothing from the library: `instrument` decides
which functions are wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

SETUP_JOB = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.job_id = SETUP_JOB
        self.job_counts: dict[int, Counter] = defaultdict(Counter)
        self.counts = self.job_counts[SETUP_JOB]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.counts = self.job_counts[job_id]

    def end_job(self) -> None:
        self.begin_job(SETUP_JOB)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- exchange with child processes and the final dump -------------------

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "counts": self._counts(),
        }

    def _counts(self) -> dict:
        return {str(k): dict(v) for k, v in self.job_counts.items() if v}

    def absorb(self, data: dict, job_id: int) -> None:
        """Append another tracer's spans and counts under ``job_id``.

        Top-level spans of the other tracer become children of the span
        open here, exactly as if the work had run in this process.
        """
        offset = len(self.start)
        ids = [self.name_id(n) for n in data["names"]]
        here = self._stack[-1]
        self.name.extend(ids[k] for k in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(here if p < 0 else p + offset for p in data["parent"])
        self.job.extend(job_id for _ in data["name"])
        for counts in data["counts"].values():
            self.job_counts[job_id].update(counts)

    def dump(self, path) -> None:
        """Write every span once, as columns, with the name table."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            counts=np.array(json.dumps(self._counts())),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    current, lo, hi, covered = -1, 0.0, 0.0, 0.0
    for c in kids.tolist():
        p = int(parent[c])
        if p != current:
            if current >= 0:
                out[current] -= covered + (hi - lo)
            current, covered = p, 0.0
            lo = hi = start[p]
        s = max(start[c], start[p])
        e = min(end[c], end[p])
        if e <= s:
            continue
        if s > hi:
            covered += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    out[current] -= covered + (hi - lo)
    return out


def aggregate(tracer: Tracer, groups) -> list[tuple[dict, Counter]]:
    """For each group of job ids: per span name ``[calls, self seconds,
    total seconds]`` over the group's jobs, and their summed counters."""
    jobs = np.frombuffer(tracer.job, dtype=np.int32)
    names = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    own = self_times(start, end, np.frombuffer(tracer.parent, dtype=np.int32))
    k = len(tracer.names)
    out = []
    for job_ids in groups:
        mask = np.isin(jobs, list(job_ids))
        calls = np.bincount(names[mask], minlength=k)
        selfs = np.bincount(names[mask], weights=own[mask], minlength=k)
        totals = np.bincount(names[mask], weights=(end - start)[mask], minlength=k)
        spans = {
            n: [int(calls[i]), float(selfs[i]), float(totals[i])]
            for i, n in enumerate(tracer.names)
            if calls[i]
        }
        counts: Counter = Counter()
        for j in job_ids:
            counts.update(tracer.job_counts.get(j, {}))
        out.append((spans, counts))
    return out
