"""Node-to-node network fabric model.

The cluster analogue of :class:`repro.gpu.pcie.PCIeLink`: per-link
bandwidth and latency with two contention effects —

* **NIC aggregate** — all flows entering (or leaving) one node share
  that node's NIC, so a node gathering halo features from ``k`` peers
  at once sees at most ``nic_bandwidth / k`` per flow and never more
  than ``nic_bandwidth`` in total;
* **topology** — ``alltoall`` gives every pair the full link bandwidth
  (a non-blocking switch); ``fat-tree`` divides bandwidth between nodes
  in *different pods* of :data:`POD_SIZE` nodes by
  :data:`OVERSUBSCRIPTION` (the classic 2:1 leaf/spine ratio), so
  partition placement starts to matter.

Gradient allreduce is NCCL's bandwidth-optimal **ring**: ``2*(N-1)/N``
of the payload over the slowest link on the ring (capped by the NIC),
plus ``2*(N-1)`` latency hops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.spec import ClusterSpec

#: One-way latency per fabric message.
LINK_LATENCY_S = 5e-6
#: Inter-pod bandwidth divisor of the fat-tree topology.
OVERSUBSCRIPTION = 2.0
#: Nodes per pod (leaf switch) of the fat-tree topology.
POD_SIZE = 4


@dataclass(frozen=True)
class NetworkFabric:
    """The wiring of one simulated cluster (see module docstring)."""

    num_nodes: int
    topology: str = "alltoall"
    link_bandwidth: float = 12.5e9
    nic_bandwidth: float = 12.5e9

    @classmethod
    def from_spec(cls, spec: ClusterSpec) -> "NetworkFabric":
        return cls(
            num_nodes=spec.num_nodes,
            topology=spec.topology,
            link_bandwidth=spec.link_bandwidth,
            nic_bandwidth=spec.nic_bandwidth,
        )

    # -- link structure ------------------------------------------------------
    def pod_of(self, node: int) -> int:
        """The pod (leaf switch) a node hangs off."""
        return node // POD_SIZE

    def pair_bandwidth(self, a: int, b: int) -> float:
        """Uncontended bandwidth of the ``a``<->``b`` path."""
        bandwidth = self.link_bandwidth
        if self.topology == "fat-tree" and self.pod_of(a) != self.pod_of(b):
            bandwidth = bandwidth / OVERSUBSCRIPTION
        return bandwidth

    def effective_bandwidth(self, a: int, b: int,
                            concurrent_flows: int = 1) -> float:
        """Per-flow bandwidth of the path when the receiving node has
        ``concurrent_flows`` flows sharing its NIC."""
        if concurrent_flows < 1:
            raise ValueError("concurrent_flows must be >= 1")
        return min(self.pair_bandwidth(a, b),
                   self.nic_bandwidth / concurrent_flows)

    def transfer_time(self, num_bytes: float, src: int, dst: int,
                      concurrent_flows: int = 1) -> float:
        """Seconds to move ``num_bytes`` from ``src`` to ``dst``."""
        if num_bytes <= 0:
            return 0.0
        bandwidth = self.effective_bandwidth(src, dst, concurrent_flows)
        return LINK_LATENCY_S + num_bytes / bandwidth

    # -- collective costs ----------------------------------------------------
    def gather_time(self, bytes_by_peer: dict, node: int) -> float:
        """Seconds for ``node`` to pull the given bytes from each peer,
        all flows in flight concurrently.

        Fluid max–min model: the NIC reallocates bandwidth as flows
        drain, so the makespan is the slower of (a) the largest single
        flow at its path bandwidth — a flow can never beat its own link
        — and (b) the NIC serialization bound, one latency plus
        ``total_bytes / nic_bandwidth``. (A fixed ``nic / num_flows``
        share would penalize skewed traffic — exactly the distribution a
        good partitioner produces — for bandwidth the small flows never
        use.)
        """
        flows = {peer: b for peer, b in bytes_by_peer.items()
                 if b > 0 and peer != node}
        if not flows:
            return 0.0
        slowest = max(
            LINK_LATENCY_S + num_bytes / self.pair_bandwidth(peer, node)
            for peer, num_bytes in flows.items()
        )
        nic_floor = (LINK_LATENCY_S
                     + sum(flows.values()) / self.nic_bandwidth)
        return max(slowest, nic_floor)

    def _slowest_ring_bandwidth(self) -> float:
        """Bandwidth of the slowest hop on the 0..N-1 ring."""
        worst = float("inf")
        for i in range(self.num_nodes):
            j = (i + 1) % self.num_nodes
            worst = min(worst, self.pair_bandwidth(i, j))
        return worst

    def allreduce_time(self, num_bytes: float) -> float:
        """Seconds for one cross-node ring allreduce of ``num_bytes`` per
        node."""
        n = self.num_nodes
        if n <= 1 or num_bytes <= 0:
            return 0.0
        bandwidth = min(self._slowest_ring_bandwidth(), self.nic_bandwidth)
        moved = 2.0 * (n - 1) / n * num_bytes
        return 2.0 * (n - 1) * LINK_LATENCY_S + moved / bandwidth
