"""Cluster conformance: one simulated node must be a perfect no-op.

Every registered framework runs the same seeded epoch twice — once with
no cluster, once with ``ClusterSpec(num_nodes=1)``. The contract is
bit-identity: per-batch losses, final model parameters, the modeled
epoch time, and the timeline extent must all be exactly equal, because
a one-node cluster has no partitions, no halo, and no inter-node sync.

At two nodes the run changes (owner-compute batch placement, halo
exchange, hierarchical allreduce) but the accounting contract holds:
the network phase is populated, the detailed fractions still sum to 1,
and the timeline still reconciles with the modeled epoch time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.config import RunConfig
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks
from repro.pipeline import ExecutionSpec

RECONCILE_TOL = 1e-6


def _run_config() -> RunConfig:
    return RunConfig(
        batch_size=64,
        fanouts=(3, 3),
        num_gpus=2,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


@pytest.mark.parametrize("name", available_frameworks())
class TestOneNodeIsIdentity:
    def test_bit_identical_to_no_cluster(self, name, conformance_dataset):
        config = _run_config()
        plain = create(name).run_epoch(conformance_dataset, config,
                                       model_name="gcn")
        one_node = create(name).run_epoch(
            conformance_dataset, config, model_name="gcn",
            execution=ExecutionSpec(cluster=ClusterSpec(num_nodes=1)),
        )
        assert one_node.epoch_time == plain.epoch_time
        assert one_node.losses == plain.losses
        assert one_node.iterations == plain.iterations
        for ours, theirs in zip(one_node.final_params,
                                plain.final_params):
            np.testing.assert_array_equal(ours, theirs)
        assert one_node.phases.network == 0.0
        ours = one_node.timeline()
        theirs = plain.timeline()
        assert len(ours) == len(theirs)
        assert max(s.end for s in ours) == max(s.end for s in theirs)

    def test_one_node_summary_has_no_partition(self, name,
                                               conformance_dataset):
        report = create(name).run_epoch(
            conformance_dataset, _run_config(), model_name="gcn",
            execution=ExecutionSpec(cluster=ClusterSpec(num_nodes=1)),
        )
        cluster = report.cluster
        assert cluster["num_nodes"] == 1
        assert "partition" not in cluster
        assert "halo" not in cluster


_TWO_NODE_REPORTS: dict = {}


@pytest.mark.parametrize("name", available_frameworks())
class TestTwoNodeAccounting:
    @pytest.fixture()
    def report(self, name, conformance_dataset):
        if name not in _TWO_NODE_REPORTS:
            _TWO_NODE_REPORTS[name] = create(name).run_epoch(
                conformance_dataset, _run_config(), model_name="gcn",
                execution=ExecutionSpec(cluster=ClusterSpec(num_nodes=2)),
            )
        return _TWO_NODE_REPORTS[name]

    def test_network_lane_populated(self, report):
        assert report.phases.network > 0.0
        detail = report.phases.fractions(detail=True)
        assert detail["network"] > 0.0
        assert sum(detail.values()) == pytest.approx(1.0)

    def test_timeline_reconciles(self, report):
        extent = max(span.end for span in report.timeline())
        assert abs(extent - report.epoch_time) <= RECONCILE_TOL

    def test_halo_accounting_conserved(self, report):
        halo = report.cluster["halo"]
        assert halo["fetched_rows"] == (halo["requested_rows"]
                                        - halo["cache_hits"])
        assert halo["bytes_moved"] > 0
