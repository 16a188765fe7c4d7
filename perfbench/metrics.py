"""Names, units and derivation of every metric the benchmark reports.

The workloads and metrics (names, units, bounds) are those declared in
``BENCHMARK.json`` at the repository root; this module only derives
their values.  End-to-end metrics come from untraced rounds; per-layer
metrics from traced rounds.  Per-layer times and counts are per round,
i.e. per run of the workload's fixed job list, except ``cli.import_s``,
which is the time of one import of ``riemscale.cli`` in a fresh
interpreter.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

_DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = tuple(m["name"] for m in _DECLARED["end_to_end"])
PER_LAYER = tuple(m["name"] for m in _DECLARED["per_layer"])
BOUNDS = {m["name"]: m["bound"] for m in _DECLARED["end_to_end"]}
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
# Per-layer values that are counts and must repeat exactly for a seed.
COUNT_METRICS = tuple(n for n in PER_LAYER if UNITS[n] in ("count", "bytes"))
# Per-layer values of a whole run rather than of a traced round.
RUN_LEVEL = ("cli.import_s", "trace.overhead_ratio")

# Printed by every run, but not bounded: failed_ratio is 0 on a healthy
# run, and job_s.p90 needs at least 100 jobs in the run.
P90_MIN_JOBS = 100


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layer_metrics(spans: dict, counts) -> dict:
    """Per-layer values of one traced round, from its span aggregate
    (name -> [calls, self s, total s]) and counters.

    A metric ``<span>.calls`` or ``<span>.self_s`` is that span's call
    count or self time, ``verify.<check_id>.s`` the check's total time;
    the others are counters and ratios, listed here.
    """

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    iterations = counts.get("optimize.iterations", 0)
    rk4_steps = counts.get("charts.rk4_steps", 0)
    derived = {
        "manifolds.eigh.calls": counts.get("manifolds.eigh", 0),
        "manifolds.eigvalsh.calls": counts.get("manifolds.eigvalsh", 0),
        "manifolds.eigh_per_iteration": _ratio(counts.get("manifolds.eigh", 0), iterations),
        "scaling.self_s": span("scaling.forward")[1] + span("scaling.measure")[1],
        "charts.metric_fn.calls": counts.get("charts.metric_fn", 0),
        "charts.rk4_steps": rk4_steps,
        "charts.s_per_rk4_step": _ratio(span("charts.geodesic_integrate")[2], rk4_steps),
        "optimize.iterations": iterations,
        "optimize.s_per_iteration": _ratio(span("optimize.riemannian_gd")[2], iterations),
        "optimize.stop_error_ratio": _ratio(
            counts.get("optimize.stop_error", 0), span("optimize.riemannian_gd")[0]
        ),
        "verify.render_s": span("verify.render_json")[2],
        "cli.parse_s": span("cli.parse")[2],
        "cli.handler_s": span("cli.handler")[2],
        "cli.render_s": span("cli.render")[2],
        "cli.emit_s": span("cli.emit")[2],
        "cli.out_bytes": counts.get("cli.out_bytes", 0),
    }
    m = {}
    for name in PER_LAYER:
        if name in RUN_LEVEL:
            continue
        if name in derived:
            m[name] = derived[name]
        elif name.endswith(".calls"):
            m[name] = span(name.removesuffix(".calls"))[0]
        elif name.endswith(".self_s"):
            m[name] = span(name.removesuffix(".self_s"))[1]
        elif name.startswith("verify.") and name.endswith(".s"):
            m[name] = span(name.removesuffix(".s"))[2]
        else:
            raise KeyError(f"no derivation for the declared metric {name}")
    return m


def combine_rounds(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced round, times as the median over
    traced rounds.  Also returns the count metrics that differed between
    rounds of identical inputs."""
    first = rounds[0]
    out = {}
    for name in first:
        if name in COUNT_METRICS:
            out[name] = first[name]
        else:
            out[name] = statistics.median(r[name] for r in rounds)
    unsteady = [n for n in COUNT_METRICS if n in first and any(r[n] != first[n] for r in rounds)]
    return out, unsteady
