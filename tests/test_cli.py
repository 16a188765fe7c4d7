"""Command-line surface: arguments, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riemscale.cli as cli
import riemscale.verify as verify
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
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, riemscale.cli; print('scipy.linalg' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr
