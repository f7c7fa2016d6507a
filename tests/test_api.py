"""The public facade (repro.api), the framework registry, and the typed
EpochReport surface."""

import numpy as np
import pytest

from repro import api
from repro.config import RunConfig
from repro.errors import ConfigError
from repro.frameworks import (
    DGLFramework,
    FastGLFramework,
    available_frameworks,
    create,
    register,
    resolve,
    unregister,
)
from repro.frameworks.base import CacheStats
from repro.graph.datasets import Dataset
from repro.obs.trace import Span
from repro.serve import ServeReport

from helpers import make_spec


@pytest.fixture(scope="module")
def dataset():
    return Dataset(make_spec(name="api-test", num_nodes=800,
                             avg_degree=6.0), seed=0)


@pytest.fixture(scope="module")
def config():
    # two GPUs so factored-sampler frameworks (GNNLab) run too
    return RunConfig(num_gpus=2, fanouts=(3, 5), batch_size=64, seed=0)


class TestRegistry:
    def test_round_trip_every_registered_framework(self, dataset, config):
        """ACCEPTANCE: create(name) for every available_frameworks() entry
        produces a framework whose run_epoch works."""
        names = available_frameworks()
        assert len(names) >= 8
        for name in names:
            framework = create(name)
            assert framework.name  # strategy bundles self-describe
            report = framework.run_epoch(dataset, config)
            assert report.epoch_time > 0
            assert report.num_batches > 0

    def test_create_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="fastgl"):
            create("definitely-not-a-framework")

    def test_register_decorator_and_unregister(self):
        @register("test-double")
        class Double(DGLFramework):
            name = "test-double"

        try:
            assert "test-double" in available_frameworks()
            assert isinstance(create("test-double"), Double)
        finally:
            unregister("test-double")
        assert "test-double" not in available_frameworks()

    def test_resolve_accepts_name_class_instance(self):
        by_name = resolve("fastgl")
        by_class = resolve(FastGLFramework)
        instance = FastGLFramework()
        assert isinstance(by_name, FastGLFramework)
        assert isinstance(by_class, FastGLFramework)
        assert resolve(instance) is instance

    def test_get_framework_shim_removed(self):
        import repro
        import repro.frameworks as frameworks_module

        assert not hasattr(frameworks_module, "get_framework")
        assert not hasattr(repro, "get_framework")


class TestRunFacade:
    def test_run_matches_direct_run_epoch(self, dataset, config):
        via_api = api.run("fastgl", dataset, config=config)
        direct = create("fastgl").run_epoch(dataset, config)
        assert via_api.epoch_time == direct.epoch_time
        assert via_api.num_batches == direct.num_batches

    def test_run_accepts_class_and_instance(self, dataset, config):
        by_class = api.run(DGLFramework, dataset, config=config)
        by_instance = api.run(DGLFramework(), dataset, config=config)
        assert by_class.epoch_time == by_instance.epoch_time

    def test_run_config_is_keyword_only(self, dataset, config):
        with pytest.raises(TypeError):
            api.run("fastgl", dataset, config)  # noqa: intentional misuse

    def test_run_rejects_non_spec_exec(self, dataset, config):
        with pytest.raises(ConfigError, match="ExecutionSpec"):
            api.run("dgl", dataset, config=config, exec="pipelined")

    def test_run_default_config(self, dataset):
        report = api.run("dgl", dataset)
        assert report.epoch_time > 0


class TestServeFacade:
    def test_serve_returns_serve_report(self, dataset, config):
        report = api.serve(
            "fastgl", dataset,
            run_config=RunConfig(num_gpus=1, fanouts=(3, 5), seed=0),
            serve_config=api.ServeConfig(rate=2000.0, num_requests=40),
        )
        assert isinstance(report, ServeReport)
        assert report.num_completed > 0
        assert report.reconciles(1e-6)

    def test_serve_defaults(self, dataset):
        report = api.serve("dgl", dataset,
                           serve_config=api.ServeConfig(num_requests=20))
        assert report.framework == "dgl"
        assert len(report.requests) == 20


class TestEpochReportSurface:
    @pytest.fixture(scope="class")
    def report(self, dataset, config):
        return api.run("fastgl", dataset, config=config)

    def test_timeline_returns_spans(self, report):
        spans = report.timeline()
        assert spans
        assert all(isinstance(span, Span) for span in spans)
        extent = max(span.end for span in spans)
        assert extent == pytest.approx(report.epoch_time, abs=1e-9)

    def test_timeline_spans_carry_batch_args(self, report):
        gpu_spans = [s for s in report.timeline()
                     if s.lane.startswith("gpu")]
        assert gpu_spans
        assert all("batch" in span.args for span in gpu_spans)

    def test_cache_stats_partitions_wanted(self, report):
        stats = report.cache_stats()
        assert isinstance(stats, CacheStats)
        assert stats.wanted == stats.loaded + stats.reused + stats.hits
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.hit_rate <= stats.resident_rate <= 1.0

    def test_num_trainers(self, report, config):
        assert report.num_trainers == config.num_gpus


class TestPhaseFractions:
    def test_same_keys_zero_and_nonzero(self, dataset, config):
        from repro.frameworks.base import PhaseTimes

        nonzero = api.run("dgl", dataset, config=config).phases
        zero = PhaseTimes()
        for detail in (False, True):
            keys_nonzero = set(nonzero.fractions(detail=detail))
            keys_zero = set(zero.fractions(detail=detail))
            assert keys_nonzero == keys_zero
            assert all(v == 0.0 for v in
                       zero.fractions(detail=detail).values())
            assert sum(nonzero.fractions(detail=detail).values()) \
                == pytest.approx(1.0)

    def test_detail_refines_coarse(self, dataset, config):
        phases = api.run("fastgl", dataset, config=config).phases
        coarse = phases.fractions()
        detail = phases.fractions(detail=True)
        assert coarse["sample"] == pytest.approx(
            detail["sample"] + detail["idmap"])
