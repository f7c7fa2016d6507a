"""Tests for neighbor and random-walk samplers."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    BaselineIdMap,
    NeighborSampler,
    RandomWalkSampler,
)


@pytest.fixture()
def sampler(tiny_graph):
    return NeighborSampler(tiny_graph, (3, 5), rng=0)


class TestNeighborSampler:
    def test_block_chain(self, sampler, tiny_dataset):
        sg = sampler.sample(tiny_dataset.train_ids[:32])
        sg.validate()
        assert sg.num_layers == 2
        # Block k+1's targets are block k's sources.
        np.testing.assert_array_equal(sg.layers[1].dst_global,
                                      sg.layers[0].src_global)

    def test_edges_are_real_neighbors(self, sampler, tiny_graph,
                                      tiny_dataset):
        sg = sampler.sample(tiny_dataset.train_ids[:32])
        for block in sg.layers:
            src_g = block.src_global[block.edge_src]
            dst_g = block.dst_global[block.edge_dst]
            for s, d in zip(src_g[:200], dst_g[:200]):
                assert s in tiny_graph.neighbors(d), (s, d)

    def test_fanout_respected(self, tiny_graph, tiny_dataset):
        fanout = 4
        sampler = NeighborSampler(tiny_graph, (fanout,), rng=1)
        seeds = tiny_dataset.train_ids[:64]
        sg = sampler.sample(seeds)
        block = sg.layers[0]
        deg = block.in_degrees()
        expected = np.minimum(tiny_graph.degrees[seeds], fanout)
        np.testing.assert_array_equal(deg, expected)

    def test_sampling_without_replacement(self, tiny_graph, tiny_dataset):
        """A node's sampled neighbors within one hop are distinct."""
        sampler = NeighborSampler(tiny_graph, (5,), rng=2)
        sg = sampler.sample(tiny_dataset.train_ids[:64])
        block = sg.layers[0]
        for pos in range(block.num_dst):
            srcs = block.edge_src[block.edge_dst == pos]
            assert len(np.unique(srcs)) == len(srcs)

    def test_targets_lead_sources(self, sampler, tiny_dataset):
        sg = sampler.sample(tiny_dataset.train_ids[:16])
        for block in sg.layers:
            np.testing.assert_array_equal(
                block.src_global[: block.num_dst], block.dst_global
            )

    def test_input_nodes_unique(self, sampler, tiny_dataset):
        sg = sampler.sample(tiny_dataset.train_ids[:32])
        inp = sg.input_nodes
        assert len(np.unique(inp)) == len(inp)

    def test_draw_count(self, tiny_graph, tiny_dataset):
        sampler = NeighborSampler(tiny_graph, (3,), rng=3)
        seeds = tiny_dataset.train_ids[:64]
        sg = sampler.sample(seeds)
        expected = int(np.minimum(tiny_graph.degrees[seeds], 3).sum())
        assert sg.num_sampled_edges == expected

    def test_seeds_must_be_unique(self, sampler):
        with pytest.raises(SamplingError):
            sampler.sample(np.array([1, 1, 2]))

    def test_seeds_must_be_non_empty(self, sampler):
        with pytest.raises(SamplingError):
            sampler.sample(np.array([], dtype=np.int64))

    def test_invalid_fanouts(self, tiny_graph):
        with pytest.raises(SamplingError):
            NeighborSampler(tiny_graph, ())
        with pytest.raises(SamplingError):
            NeighborSampler(tiny_graph, (0,))

    def test_invalid_device(self, tiny_graph):
        with pytest.raises(SamplingError):
            NeighborSampler(tiny_graph, (3,), device="tpu")

    def test_deterministic_given_rng(self, tiny_graph, tiny_dataset):
        seeds = tiny_dataset.train_ids[:16]
        a = NeighborSampler(tiny_graph, (3, 3), rng=9).sample(seeds)
        b = NeighborSampler(tiny_graph, (3, 3), rng=9).sample(seeds)
        np.testing.assert_array_equal(a.input_nodes, b.input_nodes)

    def test_idmap_injection(self, tiny_graph, tiny_dataset):
        sampler = NeighborSampler(tiny_graph, (3,), idmap=BaselineIdMap(),
                                  rng=0)
        sg = sampler.sample(tiny_dataset.train_ids[:8])
        assert sg.idmap_report.sync_events > 0  # baseline map was used

    def test_modeled_time_cpu_slower(self, tiny_graph, tiny_dataset):
        seeds = tiny_dataset.train_ids[:32]
        gpu = NeighborSampler(tiny_graph, (3, 5), device="gpu", rng=0)
        cpu = NeighborSampler(tiny_graph, (3, 5), device="cpu", rng=0)
        sg = gpu.sample(seeds)
        assert cpu.modeled_sample_time(sg) > gpu.modeled_sample_time(sg)
        # Per-draw cost gap matches the throughput calibration exactly
        # (fixed hop overheads cancel).
        from repro.config import COST_MODEL as c

        gap = cpu.modeled_sample_time(sg) - gpu.modeled_sample_time(sg)
        expected = sg.num_sampled_edges * (
            1 / c.cpu_sample_edges_per_s - 1 / c.gpu_sample_edges_per_s
        )
        assert gap == pytest.approx(expected)

    def test_structure_bytes_positive(self, sampler, tiny_dataset):
        sg = sampler.sample(tiny_dataset.train_ids[:8])
        assert sg.structure_bytes() > 0
        assert sg.num_edges > 0


class TestRandomWalkSampler:
    def test_single_star_block(self, tiny_graph, tiny_dataset):
        sampler = RandomWalkSampler(tiny_graph, walk_length=3, num_walks=4,
                                    rng=0)
        seeds = tiny_dataset.train_ids[:32]
        sg = sampler.sample(seeds)
        sg.validate()
        assert sg.num_layers == 1
        assert sg.num_sampled_edges == len(seeds) * 4 * 3

    def test_visited_nodes_reachable(self, tiny_graph, tiny_dataset):
        """Every edge's source was reached by a walk from its seed, so it
        must lie within walk_length hops — check hop-1 containment of the
        first step via direct neighborship of *some* node."""
        sampler = RandomWalkSampler(tiny_graph, walk_length=1, num_walks=2,
                                    rng=1)
        seeds = tiny_dataset.train_ids[:16]
        sg = sampler.sample(seeds)
        block = sg.layers[0]
        src_g = block.src_global[block.edge_src]
        dst_g = block.dst_global[block.edge_dst]
        for s, d in zip(src_g, dst_g):
            assert s in tiny_graph.neighbors(d) or s == d

    def test_zero_degree_walker_stays(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(indptr=np.array([0, 0]), indices=np.array([], dtype=int))
        sampler = RandomWalkSampler(g, walk_length=2, num_walks=1, rng=0)
        sg = sampler.sample(np.array([0]))
        block = sg.layers[0]
        np.testing.assert_array_equal(block.src_global[block.edge_src],
                                      [0, 0])

    def test_invalid_args(self, tiny_graph):
        with pytest.raises(SamplingError):
            RandomWalkSampler(tiny_graph, walk_length=0)
        with pytest.raises(SamplingError):
            RandomWalkSampler(tiny_graph, num_walks=0)
        with pytest.raises(SamplingError):
            RandomWalkSampler(tiny_graph, device="quantum")
        sampler = RandomWalkSampler(tiny_graph, rng=0)
        with pytest.raises(SamplingError):
            sampler.sample(np.array([3, 3]))
