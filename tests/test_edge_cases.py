"""Edge-case and worked-example tests across the stack."""

import numpy as np
import pytest

from repro import api
from repro.config import RunConfig
from repro.core.match import MatchState
from repro.errors import ConfigError
from repro.nn import Tensor, a3_aggregate, cross_entropy
from repro.pipeline.spec import ExecutionSpec, PipelineSpec
from repro.sampling import NeighborSampler
from repro.serve import FleetSpec, ServeConfig, build_router


class TestPaperFig6Example:
    """The paper's Fig. 6 Match walk-through: after training SubG_1 with
    nodes {0, 3, 4, 5, 7}, loading SubG_2 = {0, 3, 4, 10, 12} moves only
    nodes 10 and 12 over PCIe, reusing 0, 3 and 4."""

    def test_match_walkthrough(self):
        state = MatchState()
        state.step(np.array([0, 3, 4, 5, 7]))
        result = state.step(np.array([0, 3, 4, 10, 12]))
        np.testing.assert_array_equal(np.sort(result.overlap_ids),
                                      [0, 3, 4])
        np.testing.assert_array_equal(np.sort(result.load_ids), [10, 12])


class TestZeroEdgeAggregation:
    def test_a3_with_no_edges(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        w = Tensor(np.zeros(0, dtype=np.float32))
        out = a3_aggregate(x, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), w, num_dst=2)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 4)))

    def test_model_on_isolated_seeds(self):
        """Seeds with zero degree still produce logits (self edges)."""
        from repro.graph.csr import CSRGraph
        from repro.nn import build_model

        graph = CSRGraph(indptr=np.zeros(6, dtype=np.int64),
                         indices=np.array([], dtype=np.int64))
        sampler = NeighborSampler(graph, (3,), rng=0)
        sg = sampler.sample(np.array([0, 2, 4]))
        model = build_model("gcn", 4, 2, hidden_dim=4, num_layers=1)
        logits = model(sg, Tensor(np.ones((sg.num_nodes, 4),
                                          dtype=np.float32)))
        assert logits.shape == (3, 2)
        assert np.isfinite(logits.data).all()


class TestSingleClassLoss:
    def test_one_class_dataset(self):
        logits = Tensor(np.zeros((4, 1), dtype=np.float32),
                        requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)


class TestEightGpuRuns:
    def test_gnnlab_two_samplers_end_to_end(self, tiny_dataset):
        from repro.frameworks import GNNLabFramework

        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=8,
                           hidden_dim=8)
        report = GNNLabFramework().run_epoch(tiny_dataset, config)
        assert report.epoch_time > 0
        # 8 GPUs -> 2 samplers, 6 trainers.
        assert report.num_trainers == 6

    def test_dgl_eight_gpus_faster_than_two(self, tiny_dataset):
        from repro.frameworks import DGLFramework

        two = DGLFramework().run_epoch(
            tiny_dataset, RunConfig(batch_size=64, fanouts=(3, 4),
                                    num_gpus=2, hidden_dim=8))
        eight = DGLFramework().run_epoch(
            tiny_dataset, RunConfig(batch_size=64, fanouts=(3, 4),
                                    num_gpus=8, hidden_dim=8))
        assert eight.epoch_time < two.epoch_time


class TestBatchLargerThanTrainSet:
    def test_single_giant_batch(self, tiny_dataset):
        from repro.frameworks import FastGLFramework

        config = RunConfig(batch_size=10_000, fanouts=(3,), hidden_dim=8,
                           num_gpus=1)
        report = FastGLFramework().run_epoch(tiny_dataset, config)
        assert report.num_batches == 1


class TestHugeGlobalIds:
    """The paper's §4.3 discussion: 64-bit atomics support up to 2^64
    nodes. The ID map must handle IDs far beyond int32."""

    def test_fused_map_with_2_pow_40_ids(self):
        from repro.sampling import FusedIdMap

        base = np.int64(1) << 40
        ids = np.array([base + 5, base + 9, base + 5, base + 123456789],
                       dtype=np.int64)
        result = FusedIdMap().map(ids)
        assert len(result.unique_globals) == 3
        np.testing.assert_array_equal(
            result.unique_globals[result.locals_of_input], ids
        )

    def test_exact_table_with_huge_ids(self):
        from repro.sampling.idmap.hash_table import ExactOpenAddressTable

        table = ExactOpenAddressTable(8)
        huge = (1 << 40) + 3
        table.fused_map_insert(huge)
        table.fused_map_insert(huge)
        assert table.mapping() == {huge: 0}


class TestRunConfigValidation:
    """Inputs that used to be clamped or silently accepted are rejected
    when the config is built."""

    # ``batch_size=0`` used to fail only mid-run (``ConfigError`` under
    # dgl, ``SamplingError`` under fastgl), ``page_bytes=0`` with a bare
    # ``ValueError`` from the page store of an out-of-core run.
    @pytest.mark.parametrize("name", ["num_gpus", "hidden_dim",
                                      "num_epochs", "reorder_window",
                                      "batch_size", "page_bytes"])
    def test_count_below_one(self, name):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: 0})

    @pytest.mark.parametrize("name", ["num_gpus", "batch_size"])
    def test_count_must_be_an_integer(self, name):
        """``num_gpus=2.5`` used to fail mid-run with ``TypeError``."""
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: 2.5})

    @pytest.mark.parametrize("name", ["num_gpus", "batch_size",
                                      "num_epochs"])
    def test_count_must_not_be_a_bool(self, name):
        """``num_gpus=True`` used to run as one GPU."""
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: True})

    @pytest.mark.parametrize("fanouts", [(), [], (0, 4), (3, -1), (2.5, 4),
                                         (True, 4), (3, "4"), 5, "34", None])
    def test_fanouts_rejected(self, fanouts):
        """``(2.5, 4)`` used to run silently as ``(2, 4)``, and ``()`` and
        ``(0, 4)`` failed mid-run with ``SamplingError``."""
        with pytest.raises(ConfigError, match="fanouts"):
            RunConfig(fanouts=fanouts)

    def test_fanouts_list_is_stored_as_a_tuple(self):
        """A list used to build a config that ``epoch_report``, which
        memoizes on the config, could not hash."""
        config = RunConfig(fanouts=[3, 4])
        assert config.fanouts == (3, 4)
        assert isinstance(config.fanouts, tuple)
        assert config == RunConfig(fanouts=(3, 4))
        assert hash(config) == hash(RunConfig(fanouts=(3, 4)))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_rejected(self, seed):
        """``seed=-1`` used to fail mid-run with numpy's ``ValueError``,
        and ``seed=1.5`` ran as seed 1."""
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=seed)

    def test_negative_host_memory(self):
        """A negative page-cache budget used to be clamped to 0 and ran
        exactly as 0 does."""
        with pytest.raises(ConfigError, match="host_memory_bytes"):
            RunConfig(host_memory_bytes=-1)
        assert RunConfig(host_memory_bytes=0).host_memory_bytes == 0

    @pytest.mark.parametrize("ratio", [-0.5, 2.0, float("nan")])
    def test_cache_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ConfigError, match="cache_ratio_override"):
            RunConfig(cache_ratio_override=ratio)

    def test_boundaries_accepted(self):
        for ratio in (0.0, 1.0):
            assert RunConfig(cache_ratio_override=ratio)
        assert RunConfig(num_gpus=1, hidden_dim=1, num_epochs=1,
                         reorder_window=1)
        for access in ("direct", "bounce"):
            for policy in ("lru", "partition"):
                assert RunConfig(storage_access=access,
                                 page_cache_policy=policy)

    @pytest.mark.parametrize("value", ["mmap", "Direct", ""])
    def test_unknown_storage_access(self, value):
        """Every in-core framework ran an unknown path silently, and an
        out-of-core one failed only when it built its loader."""
        with pytest.raises(ConfigError, match="storage_access"):
            RunConfig(storage_access=value)

    @pytest.mark.parametrize("value", ["fifo", "freq", "LRU"])
    def test_unknown_page_cache_policy(self, value):
        """``"freq"`` is the cluster tier's remote-row cache; the storage
        tier implements ``"lru"`` and ``"partition"`` only."""
        with pytest.raises(ConfigError, match="page_cache_policy"):
            RunConfig(page_cache_policy=value)


class TestPipelineSpecValidation:
    """The pipeline spec raises the API's typed error, not ``ValueError``
    (its three checks are tested in ``tests/test_pipeline_graph.py``)."""

    def test_mode_string_promotion_validates(self):
        with pytest.raises(ConfigError, match="mode"):
            ExecutionSpec(pipeline="warp")

    @pytest.mark.parametrize("name,value", [
        ("queue_depth", 2.5), ("queue_depth", True), ("queue_depth", "2"),
        ("staleness", 1.5), ("staleness", True),
    ])
    def test_non_integer_rejected(self, name, value):
        """``queue_depth=2.5`` used to fail mid-run with ``TypeError``, and
        ``staleness=1.5`` ran without complaint."""
        with pytest.raises(ConfigError, match=name):
            PipelineSpec(**{name: value})


class TestExecutionSpecValidation:
    """A ``cluster`` of the wrong type used to construct fine and fail
    mid-run with ``AttributeError``, and a bad ``pipeline`` or
    ``api.run(exec=...)`` raised ``TypeError``; all three raise the
    API's typed error up front."""

    @pytest.mark.parametrize("value", [5, "two", {"num_nodes": 2}])
    def test_cluster_must_be_a_cluster_spec(self, value):
        with pytest.raises(ConfigError, match="cluster"):
            ExecutionSpec(cluster=value)

    @pytest.mark.parametrize("value", [2, None, ("pipelined",)])
    def test_pipeline_must_be_a_spec_or_mode(self, value):
        with pytest.raises(ConfigError, match="pipeline"):
            ExecutionSpec(pipeline=value)

    @pytest.mark.parametrize("value", ["pipelined", {"cluster": None}, 1])
    def test_api_run_exec_must_be_an_execution_spec(self, value):
        with pytest.raises(ConfigError, match="ExecutionSpec"):
            api.run("dgl", "products", exec=value)


#: Wrong-type stand-ins a caller might pass for a config object.
_NOT_A_CONFIG = ["round-robin", {"num_gpus": 1}, 3]


class TestApiArgumentTypes:
    """A config object of the wrong type used to fail partway through
    the run with ``AttributeError`` (a serving one only after the
    profile build): ``serve(..., fleet="round-robin")`` raised
    ``'str' object has no attribute 'router'``. Each raises the API's
    typed error up front; ``None`` still selects the default."""

    @pytest.mark.parametrize("value", _NOT_A_CONFIG)
    def test_run_config_must_be_a_run_config(self, value):
        with pytest.raises(ConfigError, match="config must be a RunConfig"):
            api.run("dgl", "products", config=value)

    @pytest.mark.parametrize("value", _NOT_A_CONFIG)
    def test_serve_run_config_must_be_a_run_config(self, value):
        with pytest.raises(ConfigError, match="run_config"):
            api.serve("dgl", "products", run_config=value)

    @pytest.mark.parametrize("value", _NOT_A_CONFIG)
    def test_serve_config_must_be_a_serve_config(self, value):
        with pytest.raises(ConfigError, match="serve_config"):
            api.serve("dgl", "products", serve_config=value)

    @pytest.mark.parametrize("value", _NOT_A_CONFIG)
    def test_serve_fleet_must_be_a_fleet_spec(self, value):
        with pytest.raises(ConfigError, match="fleet"):
            api.serve("dgl", "products", fleet=value)

    @pytest.mark.parametrize("value", _NOT_A_CONFIG + [None])
    def test_fleet_autoscaler_must_be_an_autoscaler_config(self, value):
        with pytest.raises(ConfigError, match="autoscaler"):
            FleetSpec(autoscaler=value)

    @pytest.mark.parametrize("value", _NOT_A_CONFIG + [None])
    def test_fleet_cache_must_be_a_cache_tier_config(self, value):
        with pytest.raises(ConfigError, match="cache"):
            FleetSpec(cache=value)


class TestServeConfigValidation:
    """Serving inputs that used to run silently as another config, or
    fail mid-run, are rejected when the config is built."""

    def test_negative_num_users(self):
        with pytest.raises(ConfigError, match="num_users"):
            ServeConfig(num_users=-1)

    def test_seeds_per_request_below_one(self):
        with pytest.raises(ConfigError, match="seeds_per_request"):
            ServeConfig(seeds_per_request=0)

    def test_negative_num_requests(self):
        with pytest.raises(ConfigError, match="num_requests"):
            ServeConfig(num_requests=-1)

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan")])
    def test_rate_not_positive(self, rate):
        with pytest.raises(ConfigError, match="rate"):
            ServeConfig(rate=rate)

    def test_unknown_arrival(self):
        # "replay" and "diurnal" were arrival processes once.
        for arrival in ("fractal", "replay", "diurnal"):
            with pytest.raises(ConfigError, match="unknown arrival"):
                ServeConfig(arrival=arrival)

    def test_max_batch_below_one(self):
        with pytest.raises(ConfigError, match="max_batch"):
            ServeConfig(max_batch=0)

    def test_negative_batch_window(self):
        with pytest.raises(ConfigError, match="batch_window_s"):
            ServeConfig(batch_window_s=-0.001)

    def test_queue_capacity_below_one(self):
        with pytest.raises(ConfigError, match="queue_capacity"):
            ServeConfig(queue_capacity=0)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_degrade_capacity_factor_outside_unit_interval(self, factor):
        with pytest.raises(ConfigError, match="degrade_capacity_factor"):
            ServeConfig(degrade_capacity_factor=factor)

    def test_boundaries_accepted(self):
        assert ServeConfig(num_requests=0, seeds_per_request=1, num_users=0)
        assert ServeConfig(max_batch=1, batch_window_s=0.0,
                           queue_capacity=1, degrade_capacity_factor=1.0)
        for arrival in ("poisson", "bursty", "flash"):
            assert ServeConfig(arrival=arrival)


class TestRouterValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown routing policy"):
            build_router("consistent-hash")
