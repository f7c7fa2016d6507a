"""Declarative description of a simulated training cluster.

A :class:`ClusterSpec` is to :meth:`Framework.run_epoch` what
:class:`~repro.config.RunConfig` is to a single node: a frozen, hashable
value object describing *how many* machines participate and *how* they
are wired — topology, per-link bandwidth, NIC aggregate, partitioner and
remote-feature cache policy (the fabric's latency and fat-tree shape are
the constants of :mod:`repro.cluster.fabric`).
``num_nodes=1`` is the degenerate cluster: the epoch driver produces
bit-identical results to a run without a cluster (the conformance tests
pin this), so the spec can be threaded through call sites
unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

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
    bandwidth by :data:`~repro.cluster.fabric.OVERSUBSCRIPTION` (the
    classic 2:1 spine). ``num_nodes`` must be an integer of at least 1
    and both bandwidths positive numbers; construction raises
    :class:`~repro.errors.ConfigError` otherwise.
    """

    num_nodes: int = 4
    topology: str = "alltoall"
    #: Point-to-point bandwidth of one fabric link.
    link_bandwidth: float = 12.5e9
    #: Per-node NIC aggregate shared by all of that node's flows.
    nic_bandwidth: float = 12.5e9
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
        if not isinstance(self.num_nodes, Integral) or self.num_nodes < 1:
            raise ConfigError("num_nodes must be an integer >= 1, got "
                              f"{self.num_nodes!r}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {TOPOLOGIES}"
            )
        # ``not x > 0`` also refuses NaN, which ``x <= 0`` lets through.
        if not self.link_bandwidth > 0 or not self.nic_bandwidth > 0:
            raise ConfigError("fabric bandwidths must be positive")
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
