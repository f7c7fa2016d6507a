"""Tests for the regression checker (repro.obs.regress) and the gate
CLI that drives it (repro.gate)."""

import copy
import dataclasses
import json

import pytest

from repro import gate
from repro.obs import regress


@pytest.fixture(scope="module")
def snapshot():
    """One run of the deterministic suite, shared by all tests here."""
    return regress.collect_benchmark_metrics()


@pytest.fixture(scope="module")
def metrics(snapshot):
    """The suite's flat ``name -> value`` metrics."""
    return regress.flatten_snapshot(snapshot)


class TestSuite:
    def test_snapshot_covers_every_subsystem(self, snapshot):
        names = {m["name"] for m in snapshot["metrics"]}
        assert "repro_phase_seconds" in names          # epoch driver
        assert "repro_idmap_cas_ops_total" in names    # sampling
        assert "repro_transfer_feature_bytes_total" in names  # transfer
        assert "repro_storage_page_hits_total" in names       # storage
        assert "repro_pipeline_stall_seconds_total" in names  # sim

    def test_suite_is_deterministic(self, snapshot):
        again = regress.collect_benchmark_metrics()
        assert (regress.flatten_snapshot(again)
                == regress.flatten_snapshot(snapshot))


class TestCheck:
    def test_fresh_baseline_has_no_violations(self, metrics):
        baseline = regress.build_baseline(metrics)
        assert baseline["metrics"]
        assert regress.check(metrics, baseline) == []

    def test_perturbation_beyond_tolerance_fails(self, metrics):
        baseline = regress.build_baseline(metrics, default_tolerance=0.05)
        name, entry = next(
            (n, e) for n, e in baseline["metrics"].items()
            if e["value"] > 0)
        tampered = copy.deepcopy(baseline)
        tampered["metrics"][name]["value"] = entry["value"] * 1.5
        violations = regress.check(metrics, tampered)
        assert len(violations) == 1
        assert violations[0]["metric"] == name
        assert violations[0]["reason"] == "drift"
        assert "DRIFT" in regress.format_violation(violations[0])

    def test_perturbation_within_tolerance_passes(self, metrics):
        baseline = regress.build_baseline(metrics, default_tolerance=0.05)
        name, entry = next(
            (n, e) for n, e in baseline["metrics"].items()
            if e["value"] > 0)
        baseline["metrics"][name]["value"] = entry["value"] * 1.01
        assert regress.check(metrics, baseline) == []

    def test_per_metric_tolerance_overrides_default(self, metrics):
        baseline = regress.build_baseline(metrics, default_tolerance=0.05)
        name, entry = next(
            (n, e) for n, e in baseline["metrics"].items()
            if e["value"] > 0)
        entry["value"] *= 1.2
        entry["tolerance"] = 0.5
        assert regress.check(metrics, baseline) == []

    def test_missing_metric_is_a_violation(self, metrics):
        baseline = regress.build_baseline(metrics)
        baseline["metrics"]["made_up_metric_total"] = {"value": 42.0}
        violations = regress.check(metrics, baseline)
        assert len(violations) == 1
        assert violations[0]["reason"] == "missing"
        assert "MISSING" in regress.format_violation(violations[0])

    def test_new_metrics_in_snapshot_are_not_violations(self, metrics):
        baseline = regress.build_baseline(metrics)
        del baseline["metrics"][next(iter(baseline["metrics"]))]
        assert regress.check(metrics, baseline) == []

    def test_missing_floor_only_metric_formats_without_value(self):
        baseline = {"metrics": {"k:speedup": {"min": 1.5}}}
        violations = regress.check({}, baseline)
        assert [v["reason"] for v in violations] == ["missing"]
        assert regress.format_violation(violations[0]) == "MISSING k:speedup"

    def test_below_min_floor_fails(self):
        baseline = {"metrics": {"k:speedup": {"min": 1.5}}}
        assert regress.check({"k:speedup": 1.5}, baseline) == []
        violations = regress.check({"k:speedup": 1.2}, baseline)
        assert [v["reason"] for v in violations] == ["below-min"]
        assert "BELOW" in regress.format_violation(violations[0])

    def test_above_max_ceiling_fails(self):
        baseline = {"metrics": {"k:bytes": {"max": 100.0}}}
        assert regress.check({"k:bytes": 100.0}, baseline) == []
        violations = regress.check({"k:bytes": 101.0}, baseline)
        assert [v["reason"] for v in violations] == ["above-max"]
        assert "ABOVE" in regress.format_violation(violations[0])

    def test_zero_default_tolerance_pins_value_exactly(self):
        baseline = {"default_tolerance": 0.0,
                    "metrics": {"k:work.edges": {"value": 77563.0}}}
        assert regress.check({"k:work.edges": 77563.0}, baseline) == []
        violations = regress.check({"k:work.edges": 77564.0}, baseline)
        assert [v["reason"] for v in violations] == ["drift"]
        assert violations[0]["tolerance"] == 0.0


class TestCli:
    @pytest.fixture(autouse=True)
    def baseline_path(self, snapshot, tmp_path, monkeypatch):
        # The CLI re-runs the suite; reuse the module fixture's result and
        # point the obs scenario at a scratch baseline.
        monkeypatch.setattr(regress, "collect_benchmark_metrics",
                            lambda: copy.deepcopy(snapshot))
        monkeypatch.setitem(gate.SCENARIOS, "obs", dataclasses.replace(
            gate.SCENARIOS["obs"], baseline=tmp_path / "baseline.json"))
        return tmp_path / "baseline.json"

    def test_write_then_check(self, baseline_path, capsys):
        assert gate.main(["obs", "--write"]) == 0
        assert baseline_path.exists()
        assert gate.main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "within tolerance" in out

    def test_check_fails_on_drift(self, baseline_path, capsys):
        gate.main(["obs", "--write"])
        baseline = json.loads(baseline_path.read_text())
        name, entry = next(
            (n, e) for n, e in baseline["metrics"].items()
            if e["value"] > 0)
        entry["value"] *= 2
        baseline_path.write_text(json.dumps(baseline))
        assert gate.main(["obs"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_missing_baseline_file(self, capsys):
        assert gate.main(["obs"]) == 2
        assert "--write" in capsys.readouterr().err

    def test_write_refuses_failing_run(self, baseline_path, metrics,
                                       monkeypatch, capsys):
        assert gate.main(["obs", "--write"]) == 0
        before = baseline_path.read_bytes()
        monkeypatch.setitem(gate.SCENARIOS, "obs", dataclasses.replace(
            gate.SCENARIOS["obs"],
            run=lambda: ({**metrics, "new_metric": 1.0}, ["claim failed"])))
        assert gate.main(["obs", "--write"]) == 1
        assert baseline_path.read_bytes() == before
        assert "claim failed" in capsys.readouterr().err
