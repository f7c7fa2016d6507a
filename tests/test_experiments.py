"""Tests for the experiment runner and (cheap) experiment drivers.

The full experiment set runs in the benchmark suite; here the shared
machinery and the light-weight drivers are exercised directly.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.experiments import runner as exp_runner
from repro.experiments.runner import (
    ExperimentResult,
    clear_report_cache,
    epoch_report,
    short_name,
    speedup,
)
from repro.experiments import tab03_gpu_spec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_report_cache()
    yield
    clear_report_cache()


class TestExperimentResult:
    def test_render_contains_table_and_notes(self):
        result = ExperimentResult(
            exp_id="x1", title="demo",
            headers=["a", "b"], rows=[[1, 2.5]],
            series=[("s", [0, 1], [1.0, 2.0])],
            notes=["hello"],
        )
        text = result.render()
        assert "x1: demo" in text
        assert "2.5" in text
        assert "s: 0=1" in text
        assert "note: hello" in text

    def test_row_dict(self):
        result = ExperimentResult(exp_id="x", title="t",
                                  headers=["k", "v"],
                                  rows=[["a", 1], ["b", 2]])
        assert result.row_dict()["b"] == ["b", 2]


class TestRunnerHelpers:
    def test_short_names(self):
        assert short_name("reddit") == "RD"
        assert short_name("papers100m") == "PA"
        assert short_name("custom") == "custom"

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        assert speedup(1.0, 0.0) == float("inf")

    def test_epoch_report_memoized(self, tiny_dataset, monkeypatch):
        calls = []
        from repro.frameworks import DGLFramework

        original = DGLFramework.run_epoch

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DGLFramework, "run_epoch", counted)
        cfg = RunConfig(batch_size=64, fanouts=(3,), num_gpus=2,
                        hidden_dim=8)
        # Memoization requires the registry path; feed the tiny dataset
        # through a patched get_dataset.
        monkeypatch.setattr(exp_runner, "get_dataset",
                            lambda name, seed=0: tiny_dataset)
        a = epoch_report("dgl", "tiny", cfg)
        b = epoch_report("dgl", "tiny", cfg)
        assert a is b
        assert len(calls) == 1

    def test_epoch_report_not_memoized_under_a_fault_plan(
            self, tiny_dataset, monkeypatch):
        """A report priced under an active fault plan is neither stored
        nor served: a later fault-free call gets the fault-free epoch, and
        a call under a plan never gets the memoized fault-free one."""
        from repro.faults import FaultPlan, fault_scope

        monkeypatch.setattr(exp_runner, "get_dataset",
                            lambda name, seed=0: tiny_dataset)
        cfg = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=1,
                        hidden_dim=8)
        with fault_scope(FaultPlan.chaos(seed=7, probability=0.5)):
            faulty = epoch_report("fastgl", "tiny", cfg)
        assert faulty.transfer.num_retries > 0
        clean = epoch_report("fastgl", "tiny", cfg)
        assert clean is not faulty
        assert clean.transfer.num_retries == 0
        assert clean.epoch_time < faulty.epoch_time
        with fault_scope(FaultPlan.chaos(seed=7, probability=0.5)):
            again = epoch_report("fastgl", "tiny", cfg)
        assert again is not clean
        assert again.epoch_time == faulty.epoch_time
        assert exp_runner.cache_info()["currsize"] == 1

    def test_epoch_report_custom_dataset_not_cached(self, tiny_dataset):
        cfg = RunConfig(batch_size=64, fanouts=(3,), num_gpus=2,
                        hidden_dim=8)
        a = epoch_report("dgl", "tiny", cfg, dataset=tiny_dataset)
        b = epoch_report("dgl", "tiny", cfg, dataset=tiny_dataset)
        assert a is not b


class TestCheapExperiments:
    def test_tab03_rows(self):
        result = tab03_gpu_spec.run()
        assert result.exp_id == "tab03"
        assert len(result.rows) == 4

    def test_tab02_trace_shape(self, tiny_graph, tiny_dataset):
        from repro.experiments.tab02_cache_hits import aggregation_trace
        from repro.sampling import NeighborSampler

        sampler = NeighborSampler(tiny_graph, (3, 4), rng=0)
        sg = sampler.sample(tiny_dataset.train_ids[:32])
        block = sg.layers[-1]
        trace = aggregation_trace(block, feature_dim=128, max_edges=500)
        lines_per_row = 128 * 4 // 128
        expected = min(500, block.num_edges) * (2 * lines_per_row + 1)
        assert len(trace) == expected
        assert np.all(trace >= 0)
