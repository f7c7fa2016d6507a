"""Tests for the SampledSubgraph structure and run configuration."""

import dataclasses

import numpy as np
import pytest

from repro.config import COST_MODEL, CostModelConfig, RunConfig
from repro.sampling.idmap.base import IdMapReport
from repro.sampling.subgraph import LayerBlock, SampledSubgraph


def block(dst, src, edge_src, edge_dst) -> LayerBlock:
    return LayerBlock(
        dst_global=np.asarray(dst, dtype=np.int64),
        src_global=np.asarray(src, dtype=np.int64),
        edge_src=np.asarray(edge_src, dtype=np.int64),
        edge_dst=np.asarray(edge_dst, dtype=np.int64),
    )


class TestLayerBlock:
    def test_counts(self):
        b = block([1, 2], [1, 2, 5], [2, 2], [0, 1])
        assert b.num_dst == 2
        assert b.num_src == 3
        assert b.num_edges == 2

    def test_in_degrees(self):
        b = block([1, 2], [1, 2, 5, 9], [2, 3, 2], [0, 0, 1])
        np.testing.assert_array_equal(b.in_degrees(), [2, 1])

    def test_validate_catches_bad_edges(self):
        b = block([1], [1, 2], [5], [0])  # edge_src out of range
        with pytest.raises(AssertionError):
            b.validate()

    def test_validate_targets_lead_sources(self):
        b = block([1, 2], [2, 1, 5], [2], [0])  # sources don't start w/ dst
        with pytest.raises(AssertionError):
            b.validate()

    def test_structure_bytes(self):
        b = block([1], [1, 2], [1], [0])
        assert b.structure_bytes() == 8 * (2 * 1 + 2 + 1)


class TestSampledSubgraph:
    def make(self):
        b1 = block([7], [7, 3], [1], [0])
        b2 = block([7, 3], [7, 3, 9], [2, 2], [0, 1])
        return SampledSubgraph(
            seeds=np.array([7]),
            layers=[b1, b2],
            idmap_report=IdMapReport(num_input_ids=5, num_unique=3),
        )

    def test_input_nodes_deepest_sources(self):
        sg = self.make()
        np.testing.assert_array_equal(sg.input_nodes, [7, 3, 9])
        assert sg.num_nodes == 3

    def test_edge_and_byte_totals(self):
        sg = self.make()
        assert sg.num_edges == 3
        assert sg.structure_bytes() == (
            sg.layers[0].structure_bytes() + sg.layers[1].structure_bytes()
        )

    def test_validate_checks_chain(self):
        sg = self.make()
        sg.validate()
        sg.layers[1] = block([7, 9], [7, 9], [], [])  # breaks the chain
        with pytest.raises(AssertionError):
            sg.validate()

    def test_no_layers_input_is_seeds(self):
        sg = SampledSubgraph(seeds=np.array([1, 2]), layers=[],
                             idmap_report=IdMapReport())
        np.testing.assert_array_equal(sg.input_nodes, [1, 2])


class TestRunConfig:
    def test_defaults_match_paper_setup(self):
        config = RunConfig()
        assert config.fanouts == (5, 10, 15)
        assert config.num_layers == 3
        assert config.hidden_dim == 64

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(Exception):
            config.batch_size = 1

    def test_hashable_for_memoization(self):
        a = RunConfig()
        b = RunConfig()
        assert hash(a) == hash(b)
        assert a == b
        assert hash(RunConfig(batch_size=1)) != hash(a) or (
            RunConfig(batch_size=1) != a
        )


class TestCostModelConfig:
    def test_one_calibration(self):
        """Neither the table nor a run takes another calibration."""
        with pytest.raises(TypeError):
            CostModelConfig(atomic_ops_per_s=1e6)
        with pytest.raises(TypeError):
            dataclasses.replace(COST_MODEL, atomic_ops_per_s=1e6)
        with pytest.raises(TypeError):
            RunConfig(cost=COST_MODEL)

    def test_frozen(self):
        with pytest.raises(Exception):
            COST_MODEL.atomic_ops_per_s = 1.0

    def test_gather_faster_than_pcie(self):
        """The Section 7.3 premise: transfer, not gather, dominates today."""
        from repro.gpu.spec import RTX3090

        assert (COST_MODEL.host_gather_bytes_per_s
                > RTX3090.pcie_bw)

    def test_cost_model_is_default_instance(self):
        assert CostModelConfig() == COST_MODEL
