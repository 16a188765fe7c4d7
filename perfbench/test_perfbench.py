"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from riemscale import charts, manifolds, optimize, scaling, verify  # noqa: E402

import instrument  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402

CHEAP_CHECKS = ("variant.norm", "chart.connection-invariance", "optimizer.update-rule-identity")


@pytest.fixture
def cheap_suite(monkeypatch):
    """The suite cut down to three quick checks, so a smoke run is short."""
    checks = tuple(c for c in verify.PROPERTY_CHECKS if c.check_id in CHEAP_CHECKS)
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", checks)
    monkeypatch.setattr(verify, "EXPECTED_PROPERTY_COUNT", len(checks))


def tiny_run(workload, trace, seed=5):
    return run.benchmark(workload, seed, seconds=0.0, trace=trace,
                         started=time.perf_counter(), tiny=True)


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_children_once():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (running past its end); [1, 3] has a child [1.5, 2.5].
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    # root is covered on [1, 5] and [8, 10]
    np.testing.assert_allclose(got, [4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_leaves_and_disjoint_children():
    got = self_times([0.0, 1.0, 4.0], [6.0, 2.0, 5.0], [-1, 0, 0])
    np.testing.assert_allclose(got, [4.0, 1.0, 1.0])
    np.testing.assert_allclose(self_times([3.0], [4.5], [-1]), [1.5])


def test_wrapped_calls_record_parent_job_and_self_time():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)
    tracer.begin_job(7)
    assert traced_outer(1) == 4
    tracer.count("work", 3)
    tracer.end_job()
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.job) == [7, 7, 7]
    [(spans, counts)] = aggregate(tracer, [[7]])
    assert spans["inner"][0] == 2 and spans["outer"][0] == 1
    outer_total = tracer.end[0] - tracer.start[0]
    assert spans["outer"][1] == pytest.approx(outer_total - spans["inner"][2])
    assert counts == {"work": 3}


def test_absorbed_spans_hang_under_the_open_span():
    child = Tracer()
    child.begin_job(0)
    child.wrap("leaf", lambda: None)()
    child.count("eigh", 2)
    parent = Tracer()

    def job():
        parent.absorb(child.to_dict(), parent.job_id)

    parent.begin_job(3)
    parent.wrap("run", job)()
    assert [parent.names[i] for i in parent.name] == ["run", "leaf"]
    assert list(parent.parent) == [-1, 0]
    assert list(parent.job) == [3, 3]
    assert parent.job_counts[3] == {"eigh": 2}


# -- reference speed -----------------------------------------------------------


def test_job_times_are_scaled_by_the_samples_around_them():
    speed = reference.Speedometer()
    # sample 0: 1 chunk in 2 ref-chunk times (host at half speed);
    # sample 1: 3 chunks at full speed; sample 2: 1 chunk at full speed
    speed.chunks = [1, 3, 1]
    speed.seconds = [2 * reference.REF_CHUNK_S, 3 * reference.REF_CHUNK_S,
                     reference.REF_CHUNK_S]
    assert speed.factor(0, 1) == pytest.approx(4 / 5)
    assert speed.factor(1, 2) == pytest.approx(1.0)
    assert speed.run_factor() == pytest.approx(5 / 6)


def test_a_sample_runs_whole_chunks_for_its_time():
    speed = reference.Speedometer()
    speed.sample(0.0)
    speed.sample(2.5 * reference.REF_CHUNK_S)
    assert speed.chunks[0] == 1 and speed.chunks[1] >= 1
    assert speed.seconds[1] >= 2.5 * reference.REF_CHUNK_S


def test_samples_inside_a_job_are_taken_out_of_its_time():
    speed = reference.Speedometer()
    t0 = time.process_time()
    with speed.during_job(True):
        while time.process_time() - t0 < 5 * reference.PERIOD_S:
            pass
    taken = len(speed.chunks)
    assert taken >= 3
    assert speed.inside == pytest.approx(sum(speed.seconds))
    with speed.during_job(False):
        t0 = time.process_time()
        while time.process_time() - t0 < 2 * reference.PERIOD_S:
            pass
    assert len(speed.chunks) == taken and speed.inside == 0.0


def test_a_cli_command_samples_itself_and_reports_its_overhead():
    speed = reference.Speedometer()
    with speed.during_job(False):
        result = workloads.run_cli(
            ["--command", "geodesic", "--chart", "polar", "--lambda", "2", "--iters", "20",
             "--format", "csv"], None, speed)
    assert result.returncode == 0
    # the child imports the reference and warms it up even when the
    # command ends before its first sample
    assert speed.inside > 0 and len(speed.chunks) == len(speed.seconds)


# -- instrumentation -----------------------------------------------------------


def test_install_and_remove_restore_the_library():
    before = (
        manifolds.SymmetricPositiveDefinite.log, manifolds.np, scaling.ScaledManifold.exp,
        charts.christoffel_at, verify.christoffel_at, verify.PROPERTY_CHECKS,
        optimize.riemannian_gd, optimize.frechet_objective, charts.Chart.__post_init__,
    )
    installed = instrument.install(Tracer())
    assert verify.christoffel_at is not before[4]
    assert verify.christoffel_at is charts.christoffel_at
    installed.remove()
    after = (
        manifolds.SymmetricPositiveDefinite.log, manifolds.np, scaling.ScaledManifold.exp,
        charts.christoffel_at, verify.christoffel_at, verify.PROPERTY_CHECKS,
        optimize.riemannian_gd, optimize.frechet_objective, charts.Chart.__post_init__,
    )
    assert all(a is b for a, b in zip(before, after))


def test_traced_results_are_unchanged():
    rng = np.random.default_rng(3)
    m = manifolds.SymmetricPositiveDefinite(3)
    _, objective, x0 = optimize.random_frechet_problem(m, 6, rng)
    plain = optimize.riemannian_gd(
        scaling.ScaledManifold(m, 4.0), objective, x0, optimize.OptimizerConfig(0.1, 5)
    )
    tracer = Tracer()
    installed = instrument.install(tracer)
    try:
        _, objective, x0 = optimize.random_frechet_problem(m, 6, np.random.default_rng(3))
        traced = optimize.riemannian_gd(
            scaling.ScaledManifold(m, 4.0), objective, x0, optimize.OptimizerConfig(0.1, 5)
        )
    finally:
        installed.remove()
    assert [p.coordinates.tobytes() for p in traced.iterates] == [
        p.coordinates.tobytes() for p in plain.iterates
    ]
    assert tracer.counts["optimize.iterations"] == 5
    assert tracer.counts["manifolds.eigh"] > 0


# -- the declared metrics ------------------------------------------------------


def test_every_verify_check_has_a_metric():
    declared = {n for n in metrics.PER_LAYER if n.startswith("verify.") and n != "verify.render_s"}
    assert declared == {f"verify.{c.check_id}.s" for c in verify.PROPERTY_CHECKS}


# -- smoke runs ----------------------------------------------------------------


def assert_all_metrics(result, declared):
    assert list(result["metrics"]) == list(declared)
    for name in declared:
        entry = result["metrics"][name]
        assert entry["unit"] == metrics.UNITS[name]
        assert isinstance(entry["value"], (int, float))
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, cheap_suite):
    for trace, declared in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        out = tiny_run(workload, trace)
        result = out["result"]
        assert result["correct"], out["lines"]
        assert result["failed"] == 0
        assert_all_metrics(result, declared)
        json.loads(json.dumps(result))
    layers = {n: v["value"] for n, v in result["metrics"].items()}
    if workload == "descent":
        chart_calls = [n for n in layers if n.startswith("charts.") and n.endswith("calls")]
        assert chart_calls and all(layers[n] == 0 for n in chart_calls)
        assert layers["optimize.iterations"] > 0 and layers["manifolds.eigh.calls"] > 0
    if workload == "pairs":
        assert all(layers[f"manifolds.{f}.{op}.calls"] == 0
                   for f in instrument.FAMILIES.values() for op in ("log", "exp"))
        assert layers["optimize.pairwise_distances.calls"] > 0
    if workload == "cli":
        assert layers["cli.out_bytes"] > 0 and layers["charts.rk4_steps"] > 0


def test_counts_repeat_for_a_seed():
    first = tiny_run("descent", True)["result"]["metrics"]
    second = tiny_run("descent", True)["result"]["metrics"]
    for name in metrics.COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


# -- failures are counted ------------------------------------------------------


def test_a_wrong_output_counts_as_failed(monkeypatch):
    real = optimize.calibrate_scale

    def off_by_a_little(points, targets):
        scale, residual = real(points, targets)
        return scaling.ScaleFactor(scale.value * (1 + 1e-9)), residual

    monkeypatch.setattr(optimize, "calibrate_scale", off_by_a_little)
    result = tiny_run("pairs", False)["result"]
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]


def test_a_raising_job_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise manifolds.DomainError("an arm stopped with reason error")

    monkeypatch.setattr(workloads, "warm_up", lambda: None)
    monkeypatch.setattr(optimize, "equivalence_check", broken)
    result = tiny_run("descent", False)["result"]
    assert result["failed"] == result["attempted"] > 0


def test_a_raising_check_counts_as_failed(monkeypatch):
    def unreadable(*args, **kwargs):
        raise KeyError("records")

    monkeypatch.setattr(workloads, "check_twin", unreadable)
    result = tiny_run("descent", False)["result"]
    assert result["failed"] == result["attempted"] > 0


def test_output_checks_reject_bad_outputs():
    assert workloads.check_twin("j", 2e-8) is not None
    assert workloads.check_twin("j", float("nan")) is not None
    assert workloads.check_twin("j", 0.0) is None
    assert workloads.check_calibration("j", 9.0 * (1 + 1e-11), 3.0) is not None
    assert workloads.check_calibration("j", 9.0, 3.0) is None
    ok = workloads.CliResult(0, b'{"a": 1}\n', b"")
    memo: dict = {}
    assert workloads.check_cli("j", "json", ok, memo) is None
    assert workloads.check_cli("j", "json", workloads.CliResult(0, b'{"a": 2}\n', b""), memo)
    assert workloads.check_cli("k", "json", workloads.CliResult(0, b"{", b""), {})
    assert workloads.check_cli("k", "csv", workloads.CliResult(0, b"a,b\n1\n", b""), {})
    assert workloads.check_cli("k", "json", workloads.CliResult(2, b"", b"error: x\n"), {})
    assert workloads.check_cli("k", "json", workloads.CliResult(0, b"\xff\xfe", b""), {})


# -- set-up ----------------------------------------------------------------------


def test_setup_only_times_a_cold_set_up():
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pairs", "--seed", "1",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    # a fresh interpreter imports numpy, scipy and the library
    elapsed, factor = map(float, done.stdout.split()[-2:])
    assert 0.05 < elapsed < 60 and factor > 0


# -- running without the library sources --------------------------------------


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
