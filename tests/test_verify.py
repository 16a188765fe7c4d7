"""The property suite: coverage, determinism, and rendering."""

import json
import math
from dataclasses import replace

import pytest

from riemscale import render_csv, render_json, run_suite, verify
from riemscale.verify import (
    EXPECTED_PROPERTY_COUNT,
    PROPERTY_CHECKS,
    _worst,
    derive_seed,
)

GEODESIC_CHECKS = ("chart.geodesic-invariance", "chart.matches-closed-form-geodesic")


@pytest.fixture(scope="module")
def report():
    return run_suite(0)


def test_every_check_passes(report):
    failed = [r["id"] for r in report["records"] if not r["passed"]]
    assert failed == []
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == report["summary"]["total"]


def test_one_record_per_check_plus_coverage(report):
    ids = [r["id"] for r in report["records"]]
    assert len(ids) == len(set(ids))
    assert len(ids) == EXPECTED_PROPERTY_COUNT + 1
    assert set(ids) == {c.check_id for c in PROPERTY_CHECKS} | {"report.coverage"}
    assert ids == sorted(ids)


def test_registry_size_is_pinned():
    assert len(PROPERTY_CHECKS) == EXPECTED_PROPERTY_COUNT


def test_negative_check_is_inverted(report):
    record = next(
        r for r in report["records"]
        if r["id"] == "chart.nonconstant-scaling-breaks-connection"
    )
    assert record["criterion"] == ">="
    assert record["deviation"] >= 0.5
    assert record["passed"] is True


def test_deviations_are_finite_and_nonnegative_where_bounded(report):
    import math

    for record in report["records"]:
        assert math.isfinite(record["deviation"])
        if record["criterion"] == "<=":
            assert record["deviation"] <= record["tolerance"]


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(0, "variant.norm") == derive_seed(0, "variant.norm")
    assert derive_seed(0, "variant.norm") != derive_seed(1, "variant.norm")
    seeds = {derive_seed(0, c.check_id) for c in PROPERTY_CHECKS}
    assert len(seeds) == len(PROPERTY_CHECKS)


def test_json_rendering_is_deterministic_and_round_trips(report):
    text = render_json(report)
    assert text == render_json(report)
    parsed = json.loads(text)
    assert parsed["summary"] == report["summary"]
    for got, expected in zip(parsed["records"], report["records"]):
        assert got["deviation"] == expected["deviation"]  # 17 digits round-trip
        assert got["tolerance"] == expected["tolerance"]


def test_json_contains_no_unordered_keys(report):
    text = render_json(report)
    env = json.loads(text)["environment"]
    assert set(env) == {"seed", "version"}


def test_csv_rendering(report):
    lines = render_csv(report).strip().split("\n")
    assert lines[0].startswith("id,category,target,lambda,deviation")
    assert len(lines) == 1 + len(report["records"])
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_alternate_seed_also_passes():
    other = run_suite(20250808)
    assert other["summary"]["failed"] == 0
    assert other["environment"]["seed"] == 20250808


def test_suite_geodesics_are_one_lockstep_call_per_run(report, monkeypatch):
    calls = []
    integrate = verify.geodesic_integrate_many

    def counted(charts, *args, **kwargs):
        calls.append(len(charts))
        return integrate(charts, *args, **kwargs)

    monkeypatch.setattr(verify, "geodesic_integrate_many", counted)
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", tuple(
        c for c in PROPERTY_CHECKS if c.check_id in GEODESIC_CHECKS
    ))
    expected = {r["id"]: r["deviation"] for r in report["records"] if r["id"] in GEODESIC_CHECKS}
    for run in (1, 2):
        got = {r["id"]: r["deviation"] for r in run_suite(0)["records"] if r["id"] in expected}
        assert got == expected
        # 12 invariance arms and the closed-form equator arm, integrated afresh each run
        assert calls == [13] * run


def test_worst_deviation_is_nan_if_any_deviation_is_nan():
    for deviations in ([1e-20, math.nan], [math.nan, 1e-20], [0.0, math.nan, 2.0]):
        assert math.isnan(_worst(lambda rng: iter(deviations))(None))
    assert _worst(lambda rng: iter([-2.0, -1.0]))(None) == -1.0
    assert _worst(lambda rng: iter([]))(None) == 0.0


def test_a_nan_deviation_fails_either_criterion(monkeypatch):
    nan_run = _worst(lambda rng: iter([1e-20, math.nan]))
    checks = tuple(
        replace(PROPERTY_CHECKS[0], check_id=f"nan{criterion}", criterion=criterion, run=nan_run)
        for criterion in ("<=", ">=")
    )
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", checks)
    records = {r["id"]: r for r in run_suite(0)["records"]}
    for check in checks:
        assert math.isnan(records[check.check_id]["deviation"])
        assert records[check.check_id]["passed"] is False
