"""Tests for the Memory-Aware computation model (Eqs. 3-4) and A3 API."""

import numpy as np
import pytest

from repro.config import COST_MODEL
from repro.core.memory_aware import (
    A3,
    ComputeCostModel,
    model_profile,
)
from repro.errors import ConfigError
from repro.nn import Tensor
from repro.sampling import NeighborSampler


@pytest.fixture()
def subgraph(tiny_graph, tiny_dataset):
    sampler = NeighborSampler(tiny_graph, (3, 5), rng=0)
    return sampler.sample(tiny_dataset.train_ids[:64])


class TestAggregationCost:
    def test_eq3_byte_count(self):
        """Naive traffic per Eq. 3 summed over targets: 4d(3E - D)."""
        model = ComputeCostModel(mode="naive")
        cost = model.aggregation_cost(num_dst=10, num_edges=100,
                                      feature_dim=64)
        assert cost.bytes_global == pytest.approx(4 * 64 * (300 - 10))
        assert cost.bytes_shared == 0.0

    def test_eq4_byte_split(self):
        """MA traffic per Eq. 4: hot streams shared, features global."""
        model = ComputeCostModel(mode="memory_aware")
        e, d, dim = 100, 10, 64
        cost = model.aggregation_cost(d, e, dim)
        assert cost.bytes_shared == pytest.approx(
            4 * dim * (e - d) + 4 * (dim - 1) * e
        )
        assert cost.bytes_global == pytest.approx(4 * dim * e + 4 * e)

    def test_memory_aware_faster_than_naive(self):
        """The paper's headline: t_m << t_n given B_s >> B_g."""
        naive = ComputeCostModel(mode="naive")
        ma = ComputeCostModel(mode="memory_aware")
        t_n = naive.aggregation_cost(1000, 10_000, 256).time
        t_m = ma.aggregation_cost(1000, 10_000, 256).time
        assert t_m < t_n
        assert 1.5 < t_n / t_m < 12.0

    def test_advisor_between_naive_and_ma(self):
        naive = ComputeCostModel(mode="naive")
        advisor = ComputeCostModel(mode="advisor")
        ma = ComputeCostModel(mode="memory_aware")
        args = (1000, 10_000, 128)
        t_n = naive.aggregation_cost(*args).time
        t_a = advisor.aggregation_cost(*args).time
        t_m = ma.aggregation_cost(*args).time
        assert t_m < t_a < t_n

    def test_flops_per_edge_dim(self):
        model = ComputeCostModel(mode="naive")
        cost = model.aggregation_cost(10, 100, 32)
        assert cost.flops == pytest.approx(2 * 100 * 32)

    def test_dram_bytes_below_requested(self):
        model = ComputeCostModel(mode="naive")
        cost = model.aggregation_cost(10, 100, 32)
        assert cost.dram_bytes < cost.bytes_global

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            ComputeCostModel(mode="turbo")


class TestModelProfile:
    def test_gcn(self):
        p = model_profile("gcn", 100, 10, hidden_dim=64, num_layers=3)
        assert p.layer_dims == ((100, 64), (64, 64), (64, 10))
        assert p.gemms_per_layer == 1
        assert p.attention_heads == 0

    def test_gin_double_gemm(self):
        p = model_profile("gin", 100, 10)
        assert p.gemms_per_layer == 2

    def test_gat_heads_and_src_gemm(self):
        p = model_profile("gat", 100, 10)
        assert p.attention_heads == 8
        assert p.gemm_on_src

    def test_unknown(self):
        with pytest.raises(ConfigError):
            model_profile("transformer", 8, 2)


class TestSubgraphReport:
    def test_accumulates_layers(self, subgraph):
        model = ComputeCostModel(mode="naive")
        profile = model_profile("gcn", 16, 5, hidden_dim=8, num_layers=2)
        report = model.subgraph_report(subgraph, profile)
        assert report.agg_time > 0
        assert report.gemm_time > 0
        assert report.total_time >= report.agg_time + report.gemm_time

    def test_layer_count_mismatch(self, subgraph):
        model = ComputeCostModel(mode="naive")
        profile = model_profile("gcn", 16, 5, num_layers=3)
        with pytest.raises(ConfigError, match="layers"):
            model.subgraph_report(subgraph, profile)

    def test_backward_roughly_doubles(self, subgraph):
        model = ComputeCostModel(mode="memory_aware")
        profile = model_profile("gcn", 16, 5, hidden_dim=8, num_layers=2)
        fwd = model.subgraph_report(subgraph, profile,
                                    include_backward=False)
        both = model.subgraph_report(subgraph, profile,
                                     include_backward=True)
        assert both.agg_time == pytest.approx(2 * fwd.agg_time)
        assert both.gemm_time == pytest.approx(3 * fwd.gemm_time)

    def test_advisor_adds_preprocess(self, subgraph):
        advisor = ComputeCostModel(mode="advisor")
        profile = model_profile("gcn", 16, 5, hidden_dim=8, num_layers=2)
        report = advisor.subgraph_report(subgraph, profile)
        expected = ((subgraph.num_nodes + subgraph.num_edges)
                    * COST_MODEL.advisor_preprocess_s_per_elem)
        assert report.preprocess_time == pytest.approx(expected)

    def test_gat_attention_overhead(self, subgraph):
        model = ComputeCostModel(mode="memory_aware")
        gcn = model.subgraph_report(
            subgraph, model_profile("gcn", 16, 5, hidden_dim=64,
                                    num_layers=2))
        gat = model.subgraph_report(
            subgraph, model_profile("gat", 16, 5, hidden_dim=64,
                                    num_layers=2))
        assert gat.total_time > 0 and gcn.total_time > 0


class TestA3:
    def test_forward_matches_manual(self):
        a3 = A3()
        x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        edge_src = np.array([0, 1, 2, 3])
        edge_dst = np.array([0, 0, 1, 1])
        w = Tensor(np.array([1.0, 2.0, 0.5, 1.0], dtype=np.float32))
        out = a3.forward(x, edge_src, edge_dst, w, num_dst=2)
        expected = np.stack([
            x.data[0] * 1.0 + x.data[1] * 2.0,
            x.data[2] * 0.5 + x.data[3] * 1.0,
        ])
        np.testing.assert_allclose(out.data, expected)
        assert a3.last_cost is not None
        assert a3.last_cost.flops == pytest.approx(2 * 4 * 3)

    def test_backward_runs_eq5(self):
        a3 = A3()
        x = Tensor(np.random.default_rng(0).random((5, 4),
                                                   dtype=np.float32),
                   requires_grad=True)
        w = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        edge_src = np.array([0, 1, 2, 3, 4, 0])
        edge_dst = np.array([0, 0, 1, 1, 2, 2])
        out = a3.forward(x, edge_src, edge_dst, w, num_dst=3)
        A3.backward(out.sum())
        # Eq. 5: dL/dx_v = sum_u w_uv * dL/dh_u; with unit grads and
        # weights, each source's grad counts its outgoing edges.
        counts = np.bincount(edge_src, minlength=5).astype(np.float32)
        np.testing.assert_allclose(x.grad, counts[:, None] * np.ones((5, 4)))
