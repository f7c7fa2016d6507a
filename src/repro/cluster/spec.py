"""Declarative description of a simulated training cluster.

A :class:`ClusterSpec` is to :meth:`Framework.run_epoch` what
:class:`~repro.config.RunConfig` is to a single node: a frozen, hashable
value object describing *how many* machines participate and *how* they
are wired — topology, per-link bandwidth/latency, NIC aggregate,
partitioner and remote-feature cache policy.
``num_nodes=1`` is the degenerate cluster: the epoch driver produces
bit-identical results to a run without a cluster (the conformance tests
pin this), so the spec can be threaded through call sites
unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Supported node-to-node topologies.
TOPOLOGIES = ("alltoall", "fat-tree")
#: Supported graph partitioners (see :mod:`repro.cluster.partitioner`).
PARTITIONERS = ("greedy", "random", "hash")
#: Remote-feature cache policies (see :mod:`repro.cluster.halo`).
REMOTE_CACHES = ("freq", "partition", "lru", "none")


@dataclass(frozen=True)
class ClusterSpec:
    """One simulated multi-node training cluster.

    Bandwidths are bytes/second. The defaults model a 100 Gb/s RoCE
    fabric: each node owns one NIC whose aggregate caps all concurrent
    flows in or out of the node, and ``fat-tree`` divides inter-pod
    bandwidth by ``oversubscription`` (the classic 2:1 spine).
    """

    num_nodes: int = 4
    topology: str = "alltoall"
    #: Point-to-point bandwidth of one fabric link.
    link_bandwidth: float = 12.5e9
    #: One-way latency per fabric message.
    link_latency_s: float = 5e-6
    #: Per-node NIC aggregate shared by all of that node's flows.
    nic_bandwidth: float = 12.5e9
    #: Inter-pod bandwidth divisor of the fat-tree topology.
    oversubscription: float = 2.0
    #: Nodes per pod (leaf switch) of the fat-tree topology.
    pod_size: int = 4
    #: Graph partitioner: "greedy" (LDG-style edge-cut minimization,
    #: balanced to :data:`~repro.cluster.partitioner.BALANCE_SLACK`),
    #: "random" (balanced random) or "hash" (modulo).
    partitioner: str = "greedy"
    #: Remote-feature cache per node: "freq" (FastSample-style observed
    #: frequency), "partition" (BGL-style pinned hotness), "lru", "none".
    remote_cache: str = "freq"
    #: Per-node remote cache capacity as a fraction of all graph nodes.
    remote_cache_ratio: float = 0.05

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {TOPOLOGIES}"
            )
        if self.link_bandwidth <= 0 or self.nic_bandwidth <= 0:
            raise ConfigError("fabric bandwidths must be positive")
        if self.link_latency_s < 0:
            raise ConfigError("link_latency_s must be >= 0")
        if self.oversubscription < 1.0:
            raise ConfigError("oversubscription must be >= 1")
        if self.pod_size < 1:
            raise ConfigError("pod_size must be >= 1")
        if self.partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {self.partitioner!r}; "
                f"expected one of {PARTITIONERS}"
            )
        if self.remote_cache not in REMOTE_CACHES:
            raise ConfigError(
                f"unknown remote_cache {self.remote_cache!r}; "
                f"expected one of {REMOTE_CACHES}"
            )
        if not 0.0 <= self.remote_cache_ratio <= 1.0:
            raise ConfigError("remote_cache_ratio must be in [0, 1]")
