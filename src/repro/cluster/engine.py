"""Per-epoch cluster state for the framework drivers.

:class:`ClusterState` is what :meth:`Framework.run_epoch` builds when
handed a :class:`~repro.cluster.spec.ClusterSpec`: the partition
assignment, the fabric, the halo-exchange engine, and the inter-node
fabric allreduce that follows the driver's intra-node NCCL allreduce
over a node's local trainers (the standard hierarchical scheme).

``num_nodes=1`` short-circuits everywhere: the assignment is all-zeros,
every batch's network time is exactly ``0.0``, and the inter-node sync
is ``0.0`` — so a one-node cluster run is bit-identical to a run with no
cluster at all (the conformance tests pin this).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fabric import NetworkFabric
from repro.cluster.halo import HaloExchange
from repro.cluster.partitioner import partition_graph
from repro.cluster.spec import ClusterSpec
from repro.graph.partition import PartitionStats, partition_stats
from repro.obs import get_registry


class ClusterState:
    """Everything one epoch needs to run on a simulated cluster.

    Lanes (global trainer indices) map onto nodes contiguously:
    lane ``t`` lives on node ``t // per_node_trainers``. Construction
    partitions the graph, prices nothing — all costs are per-call.
    """

    def __init__(self, dataset, config, spec: ClusterSpec,
                 per_node_trainers: int) -> None:
        self.spec = spec
        self.per_node_trainers = max(1, int(per_node_trainers))
        self.num_nodes = spec.num_nodes
        self.fabric = NetworkFabric.from_spec(spec)
        graph = dataset.graph
        if self.num_nodes == 1:
            self.assignment = np.zeros(graph.num_nodes, dtype=np.int64)
            self.stats: PartitionStats | None = None
            self.halo: HaloExchange | None = None
        else:
            self.assignment = partition_graph(
                graph, self.num_nodes,
                method=spec.partitioner,
                seed=config.seed,
            )
            self.stats = partition_stats(graph, self.assignment,
                                         num_parts=self.num_nodes)
            self.halo = HaloExchange(
                self.assignment, self.fabric, spec,
                bytes_per_row=dataset.features.bytes_per_node,
                degrees=graph.degrees,
                train_ids=dataset.train_ids,
            )
            self._observe_partition()

    def _observe_partition(self) -> None:
        registry = get_registry()
        if not registry.enabled or self.stats is None:
            return
        labels = {"partitioner": self.spec.partitioner,
                  "num_nodes": str(self.num_nodes)}
        registry.gauge(
            "repro_cluster_edge_cut",
            "Directed edges crossing partition boundaries",
        ).labels(**labels).set(self.stats.edge_cut)
        registry.gauge(
            "repro_cluster_cut_fraction",
            "Fraction of directed edges cut by the partition",
        ).labels(**labels).set(self.stats.cut_fraction)
        registry.gauge(
            "repro_cluster_balance",
            "Largest partition over the ideal size",
        ).labels(**labels).set(self.stats.balance)
        for part, halo_nodes in enumerate(self.stats.halo_nodes):
            registry.gauge(
                "repro_cluster_halo_nodes",
                "Distinct remote neighbors each partition must import",
            ).labels(part=str(part), **labels).set(halo_nodes)

    # -- lane layout ---------------------------------------------------------
    def node_of_lane(self, lane: int) -> int:
        """The cluster node hosting global trainer lane ``lane``."""
        return lane // self.per_node_trainers

    def place_batches(self, batches: list, batch_size: int) -> list:
        """Distribute an epoch's mini-batches onto trainer lanes.

        Multi-node data-parallel training is **owner-compute**: each
        machine trains on the seed nodes its partition owns (that is
        what makes partition quality matter — a node's sampling frontier
        then stays mostly local). The epoch's seeds are pooled per
        owning node (original shuffle order preserved), re-split into
        ``batch_size`` mini-batches, and each node's batches are chunked
        across its local trainer lanes.

        On one node this is exactly the flat ``_chunk`` of the
        single-node driver, so the bit-identity guarantee holds.
        """
        from repro.frameworks.base import _chunk

        if self.halo is None:
            return _chunk(batches, self.per_node_trainers)
        seeds = np.concatenate(batches) if batches else np.empty(
            0, dtype=np.int64)
        owners = self.assignment[seeds]
        chunks: list = []
        for node in range(self.num_nodes):
            pool = seeds[owners == node]
            node_batches = [pool[i:i + batch_size]
                            for i in range(0, len(pool), batch_size)]
            chunks.extend(_chunk(node_batches, self.per_node_trainers))
        return chunks

    # -- per-batch / per-round costs ----------------------------------------
    def batch_network_time(self, lane: int, subgraph) -> float:
        """Modeled seconds lane ``lane`` spends pulling the halo features
        of one sampled mini-batch (0.0 on a one-node cluster)."""
        if self.halo is None:
            return 0.0
        report = self.halo.exchange(
            self.node_of_lane(lane), subgraph.unique_input_nodes()
        )
        return report.exchange_s

    def net_sync_time(self, param_bytes: int) -> float:
        """One inter-node allreduce over the fabric (0.0 at one node)."""
        return self.fabric.allreduce_time(param_bytes)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        """What ``run_epoch`` publishes as the report's ``cluster``."""
        out = {
            "num_nodes": self.num_nodes,
            "per_node_trainers": self.per_node_trainers,
            "topology": self.spec.topology,
            "partitioner": self.spec.partitioner,
            "remote_cache": self.spec.remote_cache,
        }
        if self.stats is not None:
            out["partition"] = {
                "sizes": list(self.stats.sizes),
                "edge_cut": self.stats.edge_cut,
                "cut_fraction": self.stats.cut_fraction,
                "balance": self.stats.balance,
                "halo_nodes": list(self.stats.halo_nodes),
            }
        if self.halo is not None:
            out["halo"] = self.halo.summary()
        return out
