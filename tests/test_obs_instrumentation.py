"""End-to-end tests: instrumented epochs populate the metrics registry."""

import pytest

from repro.config import RunConfig
from repro.frameworks import FRAMEWORKS
from repro.pipeline import PipelineSpec, pipelined_epoch_layout
from repro.obs import (
    MetricsRegistry,
    instrumented,
    set_registry,
    to_prometheus,
    to_snapshot,
    flatten_snapshot,
)


def _config(**overrides):
    defaults = dict(batch_size=64, fanouts=(3, 4), num_gpus=2,
                    hidden_dim=8, reorder_window=4)
    defaults.update(overrides)
    return RunConfig(**defaults)


def _family_names(registry):
    return {family.name for family in registry.collect()}


@pytest.fixture(scope="module")
def fastgl_registry(tiny_dataset):
    """One instrumented FastGL epoch, shared read-only by the tests."""
    with instrumented() as registry:
        FRAMEWORKS["fastgl"]().run_epoch(tiny_dataset, _config())
    return registry


@pytest.fixture(scope="module")
def ooc_registry(tiny_dataset):
    """One instrumented out-of-core FastGL epoch."""
    with instrumented() as registry:
        FRAMEWORKS["fastgl-ooc"]().run_epoch(tiny_dataset, _config())
    return registry


class TestEpochInstrumentation:
    def test_phase_histograms_per_phase(self, fastgl_registry):
        flat = flatten_snapshot(to_snapshot(fastgl_registry))
        batches = flat['repro_batches_total{framework="fastgl"}']
        assert batches > 0
        for phase in ("sample", "idmap", "memory_io", "compute"):
            key = ('repro_phase_seconds_count'
                   f'{{framework="fastgl",phase="{phase}"}}')
            assert flat[key] == batches
            assert flat[key.replace("_count", "_sum")] > 0
        # Gradient sync is observed once per epoch, not per batch.
        key = 'repro_phase_seconds_count{framework="fastgl",phase="allreduce"}'
        assert flat[key] == 1

    def test_idmap_counters(self, fastgl_registry):
        flat = flatten_snapshot(to_snapshot(fastgl_registry))
        assert flat['repro_idmap_ids_total{idmap="fused"}'] > 0
        assert flat['repro_idmap_cas_ops_total{idmap="fused"}'] > 0
        assert flat['repro_idmap_sync_events_total{idmap="fused"}'] == 0
        assert flat['repro_idmap_probe_length_count{idmap="fused"}'] > 0

    def test_transfer_counters(self, fastgl_registry):
        flat = flatten_snapshot(to_snapshot(fastgl_registry))
        labels = '{loader="MatchLoader"}'
        assert flat[f"repro_transfer_structure_bytes_total{labels}"] > 0
        assert flat[f"repro_transfer_rows_wanted_total{labels}"] > 0
        assert (flat[f"repro_transfer_rows_loaded_total{labels}"]
                <= flat[f"repro_transfer_rows_wanted_total{labels}"])
        # On the tiny dataset the cache holds the whole table, so Match +
        # cache serve every row without PCIe traffic — exactly what the
        # counters should make visible.
        served = (flat[f"repro_transfer_rows_reused_total{labels}"]
                  + flat[f"repro_transfer_cache_hits_total{labels}"])
        assert served > 0

    def test_reorder_gain_is_observed(self, fastgl_registry):
        families = {f.name: f for f in fastgl_registry.collect()}
        family = families["repro_reorder_match_degree"]
        totals = {labels["order"]: child.sum
                  for labels, child in family.samples()}
        assert set(totals) == {"arrival", "reordered"}
        # Greedy Reorder exists to raise consecutive match degree.
        assert totals["reordered"] >= totals["arrival"]

    def test_baseline_idmap_labelled_separately(self, tiny_dataset):
        with instrumented() as registry:
            FRAMEWORKS["dgl"]().run_epoch(tiny_dataset, _config())
        flat = flatten_snapshot(to_snapshot(registry))
        assert flat['repro_idmap_sync_events_total{idmap="baseline"}'] > 0

    def test_prometheus_dump_has_required_families(self, fastgl_registry):
        text = to_prometheus(fastgl_registry)
        assert "# TYPE repro_phase_seconds histogram" in text
        for phase in ("sample", "idmap", "memory_io", "compute"):
            assert f'phase="{phase}"' in text
        assert 'le="+Inf"' in text
        assert "# TYPE repro_batches_total counter" in text


class TestStorageInstrumentation:
    def test_page_and_ssd_counters(self, ooc_registry):
        flat = flatten_snapshot(to_snapshot(ooc_registry))
        labels = '{policy="PartitionAwarePageCache"}'
        hits = flat[f"repro_storage_page_hits_total{labels}"]
        misses = flat[f"repro_storage_page_misses_total{labels}"]
        assert hits + misses > 0
        assert flat[f"repro_storage_ssd_requests_total{labels}"] > 0
        assert flat[f"repro_storage_ssd_bytes_total{labels}"] > 0
        # Coalescing: pages per SSD command is at least one on average.
        num = flat["repro_storage_coalesce_pages_per_command_count"
                   + labels]
        total = flat["repro_storage_coalesce_pages_per_command_sum"
                     + labels]
        assert num > 0 and total / num >= 1.0

    def test_page_cache_gauges(self, ooc_registry):
        flat = flatten_snapshot(to_snapshot(ooc_registry))
        labels = '{policy="PartitionAwarePageCache"}'
        assert 0.0 <= flat[f"repro_page_cache_hit_rate{labels}"] <= 1.0
        assert flat[f"repro_page_cache_resident_pages{labels}"] >= 0

    def test_pipeline_stalls_and_queue(self, ooc_registry):
        names = _family_names(ooc_registry)
        assert "repro_storage_queue_occupancy" in names
        assert "repro_pipeline_stall_seconds_total" in names
        flat = flatten_snapshot(to_snapshot(ooc_registry))
        occupancy = flat[
            'repro_storage_queue_occupancy_count{pipeline="storage"}']
        assert occupancy > 0


class TestPipelineStallAccounting:
    def test_stalls_reported(self):
        """The pipelined layout publishes the stall seconds it sums, per
        stage, and one occupancy observation per admitted round."""
        with instrumented() as registry:
            # Slow sampler: the zero-time IO stage and the trainer starve.
            _, _, info = pipelined_epoch_layout(
                [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                [0.5, 0.5, 0.5], sync=0.0, net_sync=0.0,
                pipeline=PipelineSpec(mode="pipelined"), label="probe",
            )
        flat = flatten_snapshot(to_snapshot(registry))
        # Fill (2.0 s) plus two 1.5 s gaps between rounds.
        starved = flat['repro_pipeline_stall_seconds_total'
                       '{pipeline="probe",stage="train"}']
        assert starved == info["stall_seconds"]["train"] == 5.0
        assert ('repro_pipeline_stall_seconds_total'
                '{pipeline="probe",stage="sample"}') not in flat
        assert flat['repro_pipeline_queue_occupancy_count'
                    '{pipeline="probe"}'] == 3

    def test_gnnlab_emits_no_pipeline_metrics(self, tiny_dataset):
        with instrumented() as registry:
            FRAMEWORKS["gnnlab"]().run_epoch(tiny_dataset, _config())
        names = _family_names(registry)
        assert "repro_pipeline_stall_seconds_total" not in names
        assert "repro_pipeline_queue_occupancy" not in names
        assert "repro_storage_queue_occupancy" not in names


class TestDisabledOverhead:
    def test_disabled_registry_stays_empty_through_epoch(self, tiny_dataset):
        registry = MetricsRegistry(enabled=False)
        previous = set_registry(registry)
        try:
            FRAMEWORKS["fastgl"]().run_epoch(tiny_dataset, _config())
        finally:
            set_registry(previous)
        assert registry.collect() == []
        assert to_prometheus(registry) == ""


class TestReportCache:
    def test_cache_info_and_counters(self, tiny_dataset, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "get_dataset",
                            lambda name, seed=0: tiny_dataset)
        runner.clear_report_cache()
        assert runner.cache_info() == {"hits": 0, "misses": 0, "currsize": 0}
        config = _config()
        try:
            with instrumented() as registry:
                # dataset= bypasses the memo entirely: a recorded miss.
                runner.epoch_report("dgl", "tiny", config,
                                    dataset=tiny_dataset)
                first = runner.epoch_report("dgl", "tiny", config)
                again = runner.epoch_report("dgl", "tiny", config)
            assert again is first
            info = runner.cache_info()
            assert info == {"hits": 1, "misses": 2, "currsize": 1}
            flat = flatten_snapshot(to_snapshot(registry))
            assert flat[
                'repro_experiment_report_cache_total{outcome="hit"}'] == 1
            assert flat[
                'repro_experiment_report_cache_total{outcome="miss"}'] == 2
        finally:
            runner.clear_report_cache()
