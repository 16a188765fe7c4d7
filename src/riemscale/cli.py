"""Command-line entry point.

Five commands cover the library's surface: ``verify`` runs the whole
property suite and exits nonzero when any check fails, ``scale-table``
prints how each quantity responds to a metric scale, ``frechet`` runs a
seeded barycenter descent (optionally with the step-rescaled twin run),
``calibrate`` fits a scale to synthesized target distances, and
``geodesic`` integrates a chart geodesic next to its rescaled version.

Output is JSON or CSV on stdout, or a file given with ``--out``.  All
randomness flows from ``--seed``, so identical invocations produce
byte-identical output.  Relative ``--out`` paths resolve against the
``RIEMSCALE_OUTPUT_DIR`` environment variable when it is set.

Each command loads only the modules it runs.  This module imports
:mod:`riemscale.manifolds`, :mod:`riemscale.errors` and the renderer,
which the argument checks and every command need; ``verify`` then loads
:mod:`riemscale.verify`, ``frechet`` and ``calibrate`` load
:mod:`riemscale.optimize`, ``geodesic`` loads :mod:`riemscale.charts`
(as does parsing ``--chart`` for it), and ``scale-table`` loads only
:mod:`riemscale.scaling`.  ``frechet`` and ``calibrate`` descend their
reported run and its step-rescaled twins as one lockstep run, whose
arms are each bit-identical to their own single runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._render import render_csv, render_json
from .errors import DegenerateInputError, DomainError, GeometryError
from .manifolds import _require_count, _require_real, manifold_from_string

OUTPUT_DIR_ENV = "RIEMSCALE_OUTPUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemscale",
        description="Metric-scaling ledger: verification suite, optimizer "
        "demos, and geodesic comparisons.",
    )
    parser.add_argument("--command", required=True, choices=HANDLERS)
    parser.add_argument("--manifold", default="sphere:2",
                        help="family:size, e.g. euclidean:3, sphere:2, spd:2")
    parser.add_argument("--chart", default="sphere-chart",
                        help="euclidean:<n>, polar, or sphere-chart (geodesic only)")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="constant metric scale factor (> 0)")
    parser.add_argument("--eta", type=float, default=0.1, help="step size")
    parser.add_argument("--iters", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", dest="n_points", type=int, default=4)
    parser.add_argument("--scale-target", dest="scale_target", type=float, default=1.0,
                        help="target distances are this multiple of the base ones")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="also run the step-rescaled base arm and report "
                        "the worst iterate deviation")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def parse_config(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    # reject bad values and unknown manifold/chart specs before any computation
    try:
        for flag, value in (
            ("--lambda", args.lam), ("--eta", args.eta), ("--scale-target", args.scale_target)
        ):
            _require_real(flag, value)
        _require_count("--iters", args.iters)
        _require_count("--points", args.n_points)
        manifold_from_string(args.manifold)
        if args.command == "geodesic":  # the one command that reads --chart
            from .charts import chart_from_string

            chart_from_string(args.chart)
    except GeometryError as exc:
        parser.error(str(exc))
    return args


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base_dir = os.environ.get(OUTPUT_DIR_ENV)
    if base_dir and not path.is_absolute():
        path = Path(base_dir) / path
    return path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _output(config: argparse.Namespace, payload, columns, rows, preamble=None) -> None:
    """Write a command's result: ``payload`` as JSON, or the table as CSV."""
    if config.fmt == "json":
        text = render_json(payload)
    else:
        text = render_csv(columns, rows, preamble)
    _emit(text, config.out)


def cmd_verify(config: argparse.Namespace) -> int:
    from .verify import REPORT_COLUMNS, report_rows, run_suite

    report = run_suite(config.seed)
    _output(config, report, REPORT_COLUMNS, report_rows(report))
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_scale_table(config: argparse.Namespace) -> int:
    from .scaling import volume_scale_factor

    lam = config.lam
    n = manifold_from_string(config.manifold).intrinsic_dim
    volume, gradient = volume_scale_factor(lam, n), 1.0 / lam
    if gradient == math.inf:  # lam below about 5.6e-309
        raise DomainError(f"gradient factor 1/{lam!r} is not a finite double")
    table = [
        ("norm", "sqrt(lambda)", math.sqrt(lam)),
        ("curve_length", "sqrt(lambda)", math.sqrt(lam)),
        ("distance", "sqrt(lambda)", math.sqrt(lam)),
        ("volume_density", "lambda^(n/2)", volume),
        ("gradient", "1/lambda", gradient),
        ("connection", "1", 1.0),
        ("geodesic", "1", 1.0),
        ("exp_map", "1", 1.0),
        ("log_map", "1", 1.0),
        ("parallel_transport", "1", 1.0),
    ]
    columns = ("quantity", "factor", "value")
    rows = [dict(zip(columns, row)) for row in table]
    _output(config, {"lambda": lam, "n": n, "rows": rows}, columns, table)
    return 0


def _descend(manifold, lam: float, objective, x0, config: argparse.Namespace, twins: bool):
    """Descend ``objective`` from ``x0`` on ``manifold`` scaled by ``lam``
    with the command's step and iteration count, and with ``twins`` also
    run its two step-rescaled twins, as one lockstep run.

    Returns the reported trace and a function that gives the twins'
    largest iterate deviation, or raises what building or running the
    twins met.  When the twins' settings fail (a step ``eta / lam`` past
    the double range), the reported arm runs alone, so that its own
    failure is still reported first.
    """
    from .optimize import OptimizerConfig, _twin_arms, _twin_deviations, riemannian_gd_many
    from .scaling import ScaledManifold

    manifolds = [ScaledManifold(manifold, lam)]
    configs = [OptimizerConfig(step_size=config.eta, max_iters=config.iters)]
    failed = None
    if twins:
        try:
            twin_manifolds, twin_configs = _twin_arms(manifold, config.eta, (lam,), config.iters)
        except GeometryError as exc:
            failed = exc
        else:
            manifolds += twin_manifolds
            configs += twin_configs
    traces = riemannian_gd_many(manifolds, objective, (x0,) * len(manifolds), configs)

    def deviation() -> float:
        if failed is not None:
            raise failed
        return next(_twin_deviations(manifold, traces[1:]))

    return traces[0], deviation


def cmd_frechet(config: argparse.Namespace) -> int:
    from .optimize import STOP_DIVERGED, STOP_ERROR, random_frechet_problem

    manifold = manifold_from_string(config.manifold)
    rng = np.random.default_rng(config.seed)
    _, objective, x0 = random_frechet_problem(manifold, config.n_points, rng)
    trace, deviation = _descend(
        manifold, config.lam, objective, x0, config, config.check_equivalence
    )
    if not len(trace):
        raise DomainError(
            f"descent on {config.manifold} at lambda {config.lam!r} stopped "
            f"({trace.stop_reason}) before its first iterate"
        )
    summary = {
        "manifold": config.manifold,
        "lambda": config.lam,
        "eta": config.eta,
        "seed": config.seed,
        "n_points": config.n_points,
        "iterations": len(trace) - 1,
        "stop_reason": trace.stop_reason,
        "final_value": trace.values[-1],
        "final_grad_norm": trace.grad_norms[-1],
    }
    if config.check_equivalence:
        summary["max_deviation"] = deviation()
    _output(config, summary, *trace.table())
    if config.fmt == "csv" and config.out is not None:
        sys.stdout.write(render_json(summary))
    return 2 if trace.stop_reason in (STOP_ERROR, STOP_DIVERGED) else 0


def cmd_calibrate(config: argparse.Namespace) -> int:
    from .optimize import calibrate_scale, pairwise_distances, random_frechet_problem

    manifold = manifold_from_string(config.manifold)
    rng = np.random.default_rng(config.seed)
    points, objective, x0 = random_frechet_problem(manifold, config.n_points, rng)
    targets = config.scale_target * pairwise_distances(points)
    scale, residual = calibrate_scale(points, targets)
    trace, deviation = _descend(manifold, scale.value, objective, x0, config, True)
    payload = {
        "manifold": config.manifold,
        "seed": config.seed,
        "n_points": config.n_points,
        "scale_target": config.scale_target,
        "lambda_star": scale.value,
        "residual": residual,
        "equivalence_deviation": deviation(),
        "iterations": len(trace) - 1,
        "stop_reason": trace.stop_reason,
    }
    keys = sorted(payload)
    _output(config, payload, keys, [[payload[k] for k in keys]])
    return 0


# Canonical launch states: a radial line in polar coordinates and the
# equator on the sphere chart, where the expected trajectories are obvious.
_CANONICAL_STARTS = {
    "polar": ((1.0, 0.0), (1.0, 0.0)),
    "sphere-chart": ((math.pi / 2, 0.0), (0.0, 1.0)),
}


def _default_start(chart_name: str, dimension: int):
    if chart_name in _CANONICAL_STARTS:
        return _CANONICAL_STARTS[chart_name]
    x0 = tuple(0.0 for _ in range(dimension))
    v0 = tuple(0.5 * (-0.6) ** i for i in range(dimension))
    return x0, v0


def cmd_geodesic(config: argparse.Namespace) -> int:
    from .charts import chart_from_string, geodesic_integrate, scale_chart_constant

    chart = chart_from_string(config.chart)
    x0, v0 = _default_start(chart.name, chart.dimension)
    base = geodesic_integrate(chart, x0, v0, steps=config.iters)
    columns, table = base.table()
    deviation = 0.0
    if config.lam != 1.0:
        scaled_chart = scale_chart_constant(chart, config.lam)
        scaled = geodesic_integrate(scaled_chart, x0, v0, steps=config.iters)
        deviation = float(np.max(np.abs(scaled.positions - base.positions)))
        columns += [f"scaled_{c}" for c in columns[1:]]
        table = np.hstack((table, scaled.positions, scaled.velocities))
    rows = table.tolist()
    payload = {
        "chart": config.chart,
        "lambda": config.lam,
        "steps": config.iters,
        "max_deviation": deviation,
        "rows": rows,
    }
    _output(config, payload, columns, rows, {"max_deviation": deviation})
    return 0


# The ``--command`` choices, in the order the usage text lists them.
HANDLERS = {
    "verify": cmd_verify,
    "frechet": cmd_frechet,
    "scale-table": cmd_scale_table,
    "calibrate": cmd_calibrate,
    "geodesic": cmd_geodesic,
}


def main(argv=None) -> int:
    config = parse_config(argv)
    try:
        return HANDLERS[config.command](config)
    except DegenerateInputError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return 2
    except GeometryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
