"""Command-line surface: arguments, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riemscale.cli as cli
import riemscale.verify as verify
from riemscale import (
    OptimizerConfig,
    PartialEquivalenceError,
    ScaledManifold,
    equivalence_check,
    joint_descent,
    manifold_from_string,
    pairwise_distances,
    random_frechet_problem,
    riemannian_gd,
)
from riemscale._render import render_csv, render_json
from riemscale.verify import PropertyCheck


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_capture(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("--command", "frechet", "--lambda", "0"),
        ("--command", "frechet", "--lambda", "-2"),
        ("--command", "frechet", "--manifold", "torus:2"),
        ("--command", "geodesic", "--chart", "mercator"),
        ("--command", "frechet", "--eta", "-0.1"),
        ("--command", "frechet", "--iters", "0"),
        ("--command", "frechet", "--points", "0"),
        ("--command", "frechet", "--seed", "-1"),
        ("--command", "bogus"),
        ("--command", "calibrate", "--scale-target", "nan"),
        ("--command", "calibrate", "--scale-target", "inf"),
    ],
)
def test_bad_arguments_are_rejected_before_any_computation(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.parse_config(list(argv))
    assert excinfo.value.code == 2


def test_defaults():
    config = cli.parse_config(["--command", "verify"])
    assert config.lam == 1.0
    assert config.eta == 0.1
    assert config.seed == 0
    assert config.fmt == "json"
    assert config.out is None


# ---------------------------------------------------------------------------
# scale-table
# ---------------------------------------------------------------------------


def _table_values(out):
    rows = json.loads(out)["rows"]
    return {row["quantity"]: row["value"] for row in rows}


def test_scale_table_lambda_four_n_three(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "scale-table", "--lambda", "4", "--manifold", "euclidean:3"
    )
    assert code == 0
    values = _table_values(out)
    assert values["norm"] == 2.0
    assert values["distance"] == 2.0
    assert values["volume_density"] == 8.0
    assert values["gradient"] == 0.25
    for invariant in ("connection", "geodesic", "exp_map", "log_map", "parallel_transport"):
        assert values[invariant] == 1.0


def test_scale_table_identity(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "scale-table", "--lambda", "1", "--manifold", "sphere:2"
    )
    assert code == 0
    assert set(_table_values(out).values()) == {1.0}


def test_scale_table_small_lambda_csv(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "scale-table", "--lambda", "0.25",
        "--manifold", "sphere:2", "--format", "csv",
    )
    assert code == 0
    cells = {line.split(",")[0]: float(line.split(",")[2])
             for line in out.strip().split("\n")[1:]}
    assert cells["norm"] == 0.5
    assert cells["volume_density"] == 0.25
    assert cells["gradient"] == 4.0


def test_scale_table_volume_overflow_is_a_clean_error(capsys):
    code = run_cli("--command", "scale-table", "--lambda", "1e10", "--manifold", "spd:20")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: volume factor")


# ---------------------------------------------------------------------------
# frechet
# ---------------------------------------------------------------------------


def test_frechet_single_point_converges_to_it(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "frechet", "--manifold", "sphere:2", "--points", "1",
        "--seed", "11",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["stop_reason"] == "converged"
    assert summary["final_value"] == 0.0


def test_frechet_equivalence_flag_reports_deviation(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "frechet", "--manifold", "sphere:2", "--lambda", "4",
        "--seed", "3", "--check-equivalence",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["max_deviation"] <= 1e-8


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_frechet_diverging_descent_exits_2_with_its_finite_prefix(capsys, fmt):
    # eta 5 multiplies the distance to the barycenter by -4 per step: the
    # value overflows at iterate 256
    code, out = run_cli_capture(
        capsys, "--command", "frechet", "--manifold", "euclidean:3", "--eta", "5",
        "--iters", "400", "--format", fmt,
    )
    assert code == 2
    if fmt == "json":
        summary = json.loads(out)
        assert summary["stop_reason"] == "diverged"
        assert summary["iterations"] == 255
        assert summary["final_value"] == pytest.approx(1.76e306, rel=1e-2)
    else:
        rows = out.splitlines()
        assert len(rows) == 1 + 256 and "inf" not in out


def test_frechet_csv_trace_to_file(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, out = run_cli_capture(
        capsys, "--command", "frechet", "--manifold", "spd:2", "--iters", "20",
        "--format", "csv", "--out", str(out_file), "--seed", "5",
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("iter,f_value,grad_norm,coord_0")
    assert len(lines) == 22  # header + initial point + 20 steps
    summary = json.loads(out)  # summary still lands on stdout
    assert summary["iterations"] == 20


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target, lam_star", [("1", 1.0), ("3", 9.0), ("0.5", 0.25)])
def test_calibrate_recovers_squared_target(capsys, target, lam_star):
    code, out = run_cli_capture(
        capsys, "--command", "calibrate", "--manifold", "sphere:2",
        "--scale-target", target, "--seed", "5", "--iters", "50",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_star"] == pytest.approx(lam_star, rel=1e-10)
    assert payload["residual"] <= 1e-10
    assert payload["equivalence_deviation"] <= 1e-8


def test_calibrate_needs_two_points(capsys):
    code = run_cli("--command", "calibrate", "--points", "1")
    assert code == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--command", "calibrate", "--scale-target", "1e200"), "error: fitted scale"),
        (("--command", "calibrate", "--scale-target", "1e-200"), "error: fitted scale"),
        (("--command", "scale-table", "--lambda", "1e-310"), "error: gradient factor"),
        # the scaled metric's inverse overflows: a domain limit, not a broken chart
        (("--command", "geodesic", "--lambda", "1e-310", "--iters", "50"),
         "error: geodesic on sphere-chart|scale=1e-310 stopped near t=0: "
         "inverse metric of sphere-chart|scale=1e-310 at [1.57079633 0.        ] "
         "has non-finite entries"),
    ],
)
def test_a_factor_past_the_double_range_is_one_error_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_a_descent_that_stops_before_its_first_iterate_is_one_error_line(capsys):
    # The first rescaled gradient overflows, so the run stops diverged with
    # an empty trace, and without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("--command", "frechet", "--lambda", "1e-310")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: descent on sphere:2 at lambda 1e-310 stopped (diverged) "
        "before its first iterate\n"
    )


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


def test_geodesic_euclidean_straight_line(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "geodesic", "--chart", "euclidean:2", "--lambda", "4",
        "--iters", "100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] == 0.0
    first, last = payload["rows"][0], payload["rows"][-1]
    assert first[1:3] == [0.0, 0.0]
    assert last[1] == pytest.approx(0.5, rel=1e-12)  # x0 + 1.0 * v0


def test_geodesic_polar_radial_line_any_scale(capsys):
    for lam in ("0.25", "7.3", "10"):
        code, out = run_cli_capture(
            capsys, "--command", "geodesic", "--chart", "polar", "--lambda", lam,
            "--iters", "200",
        )
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-12


def test_geodesic_sphere_chart_csv(capsys):
    code, out = run_cli_capture(
        capsys, "--command", "geodesic", "--chart", "sphere-chart", "--lambda", "10",
        "--format", "csv", "--iters", "1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# max_deviation=")
    assert float(lines[0].split("=")[1]) <= 1e-8
    assert lines[1] == "t,x0,x1,xdot0,xdot1,scaled_x0,scaled_x1,scaled_xdot0,scaled_xdot1"
    assert len(lines) == 2 + 1001


# ---------------------------------------------------------------------------
# verify command and output plumbing
# ---------------------------------------------------------------------------


def test_verify_exit_status_tracks_suite_outcome(tmp_path, monkeypatch):
    # a stub registry keeps this fast and exercises both exit paths
    passing = PropertyCheck("stub.pass", "variant", "euclidean:2", "1", 1.0, "<=",
                            lambda rng: 0.0)
    failing = PropertyCheck("stub.fail", "variant", "euclidean:2", "1", 1e-9, "<=",
                            lambda rng: 1.0)
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", (passing,))
    monkeypatch.setattr(verify, "EXPECTED_PROPERTY_COUNT", 1)
    ok_file = tmp_path / "ok.json"
    assert run_cli("--command", "verify", "--out", str(ok_file)) == 0
    report = json.loads(ok_file.read_text())
    assert report["summary"]["failed"] == 0

    monkeypatch.setattr(verify, "PROPERTY_CHECKS", (passing, failing))
    monkeypatch.setattr(verify, "EXPECTED_PROPERTY_COUNT", 2)
    bad_file = tmp_path / "bad.json"
    assert run_cli("--command", "verify", "--out", str(bad_file)) == 1
    report = json.loads(bad_file.read_text())
    assert report["summary"]["failed"] == 1
    failed = next(r for r in report["records"] if not r["passed"])
    assert failed["id"] == "stub.fail"


def test_verify_csv_format(tmp_path, monkeypatch):
    passing = PropertyCheck("stub.pass", "variant", "euclidean:2", "1", 1.0, "<=",
                            lambda rng: 0.0)
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", (passing,))
    monkeypatch.setattr(verify, "EXPECTED_PROPERTY_COUNT", 1)
    out_file = tmp_path / "report.csv"
    assert run_cli("--command", "verify", "--format", "csv", "--out", str(out_file)) == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("id,category")
    assert len(lines) == 3  # header, stub record, coverage record


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(
            "--command", "calibrate", "--manifold", "spd:2", "--scale-target", "2",
            "--seed", "9", "--iters", "30", "--out", str(path),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_dir_env_var_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert run_cli(
        "--command", "scale-table", "--lambda", "4", "--out", "table.json"
    ) == 0
    assert (tmp_path / "table.json").exists()


def test_absolute_out_ignores_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    assert run_cli("--command", "scale-table", "--out", str(target)) == 0
    assert target.exists()


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # stronger than the name: no scipy module at all, after every library module;
    # scipy serves only as a test oracle
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    modules = "manifolds, scaling, charts, optimize, verify, cli"
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from riemscale import {modules}; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr


# ---------------------------------------------------------------------------
# frechet and calibrate print what the library computes
# ---------------------------------------------------------------------------


def _library_frechet(spec, lam, eta, iters, seed, points, check):
    """What ``frechet`` prints, from one-arm library runs: the summary and
    the trace's CSV."""
    manifold = manifold_from_string(spec)
    _, objective, x0 = random_frechet_problem(manifold, points, np.random.default_rng(seed))
    trace = riemannian_gd(
        ScaledManifold(manifold, lam), objective, x0, OptimizerConfig(eta, iters)
    )
    summary = {
        "manifold": spec, "lambda": lam, "eta": eta, "seed": seed, "n_points": points,
        "iterations": len(trace) - 1, "stop_reason": trace.stop_reason,
        "final_value": trace.values[-1], "final_grad_norm": trace.grad_norms[-1],
    }
    if check:
        summary["max_deviation"] = equivalence_check(manifold, objective, x0, eta, lam, iters)
    return summary, trace.to_csv()


def _library_calibrate(spec, target, eta, iters, seed, points):
    """What ``calibrate`` prints, from ``joint_descent`` and
    ``equivalence_check``: the payload and its one-row CSV."""
    manifold = manifold_from_string(spec)
    data, objective, x0 = random_frechet_problem(manifold, points, np.random.default_rng(seed))
    trace, scale, residual = joint_descent(
        data, target * pairwise_distances(data), objective, x0, OptimizerConfig(eta, iters)
    )
    payload = {
        "manifold": spec, "seed": seed, "n_points": points, "scale_target": target,
        "lambda_star": scale.value, "residual": residual,
        "equivalence_deviation": equivalence_check(
            manifold, objective, x0, eta, scale.value, iters
        ),
        "iterations": len(trace) - 1, "stop_reason": trace.stop_reason,
    }
    keys = sorted(payload)
    return payload, render_csv(keys, [[payload[k] for k in keys]])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize(
    "spec, lam, eta, iters, seed, points, iterations",
    [
        ("euclidean:3", 2.5, 0.1, 60, 3, 5, None),
        ("sphere:2", 4.0, 0.1, 60, 3, 5, None),
        ("spd:2", 0.5, 0.2, 60, 9, 4, None),
        # the reported arm converges at iteration 33; the twins run on to 200
        ("euclidean:3", 1.0, 0.5, 200, 0, 4, 33),
    ],
)
def test_frechet_prints_what_the_library_computes(
    capsys, fmt, check, spec, lam, eta, iters, seed, points, iterations
):
    summary, csv_text = _library_frechet(spec, lam, eta, iters, seed, points, check)
    if iterations is not None:
        assert (summary["iterations"], summary["stop_reason"]) == (iterations, "converged")
    argv = [
        "--command", "frechet", "--manifold", spec, "--lambda", repr(lam), "--eta", repr(eta),
        "--iters", str(iters), "--seed", str(seed), "--points", str(points), "--format", fmt,
    ]
    code, out = run_cli_capture(capsys, *argv, *(["--check-equivalence"] if check else []))
    assert code == 0
    assert out == (render_json(summary) if fmt == "json" else csv_text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "spec, target, eta, iters, seed, points, iterations",
    [
        ("euclidean:3", 2.0, 0.1, 60, 5, 5, None),
        ("sphere:2", 3.0, 0.1, 60, 5, 5, None),
        ("spd:2", 0.5, 0.1, 60, 9, 4, None),
        # the reported arm converges at iteration 11; the twins run on to 200
        ("euclidean:3", 1.5, 2.0, 200, 0, 4, 11),
    ],
)
def test_calibrate_prints_what_the_library_computes(
    capsys, fmt, spec, target, eta, iters, seed, points, iterations
):
    payload, csv_text = _library_calibrate(spec, target, eta, iters, seed, points)
    if iterations is not None:
        assert (payload["iterations"], payload["stop_reason"]) == (iterations, "converged")
    code, out = run_cli_capture(
        capsys, "--command", "calibrate", "--manifold", spec, "--scale-target", repr(target),
        "--eta", repr(eta), "--iters", str(iters), "--seed", str(seed),
        "--points", str(points), "--format", fmt,
    )
    assert code == 0
    assert out == (render_json(payload) if fmt == "json" else csv_text)


def test_a_diverging_twin_is_the_library_error_line(capsys):
    with pytest.raises(PartialEquivalenceError) as excinfo:
        _library_frechet("euclidean:3", 1.0, 5.0, 400, 0, 4, True)
    code = run_cli(
        "--command", "frechet", "--manifold", "euclidean:3", "--eta", "5", "--iters", "400",
        "--check-equivalence",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {excinfo.value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the reported run stops before its first iterate, and the twins' step
        # eta / lam overflows: the reported run's error comes first
        (("--lambda", "1e-310"),
         "descent on sphere:2 at lambda 1e-310 stopped (diverged) before its first iterate"),
        # the reported run has iterates, and the twins' step underflows
        (("--lambda", "1e300", "--eta", "1e-300"),
         "step_size must be a finite positive real, got 0.0"),
    ],
)
def test_the_reported_run_fails_before_its_twins(capsys, argv, message):
    code = run_cli("--command", "frechet", *argv, "--check-equivalence")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# each command loads only the modules it runs
# ---------------------------------------------------------------------------


def _modules_loaded_by(code: str) -> set[str]:
    """The ``riemscale`` submodules a fresh interpreter holds after ``code``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('riemscale.')))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["--command", "scale-table", "--manifold", "spd:3", "--lambda", "4"],
         {"charts", "optimize", "verify"}),
        (["--command", "frechet", "--iters", "5", "--check-equivalence"], {"charts", "verify"}),
        (["--command", "calibrate", "--iters", "5"], {"charts", "verify"}),
        (["--command", "geodesic", "--chart", "polar", "--lambda", "4", "--iters", "5"],
         {"optimize", "verify"}),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unloaded):
    out = str(tmp_path / "out.json")
    loaded = _modules_loaded_by(
        f"import riemscale.cli\nassert riemscale.cli.main({[*argv, '--out', out]!r}) == 0"
    )
    assert "riemscale.cli" in loaded
    assert not loaded & {f"riemscale.{name}" for name in unloaded}
    assert Path(out).stat().st_size > 0
