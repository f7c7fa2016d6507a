"""Cost-model calibration constants.

The reproduction runs every experiment *functionally* (real sampling, real
hash-table probes, real numpy training) and converts the counted work into
modeled seconds. Hardware facts (bandwidths, capacities — the paper's
Table 3) live in :mod:`repro.gpu.spec`; this module holds the *calibration*
constants of the linear cost model: per-operation throughputs and latencies
that are not pure datasheet numbers.

Calibration philosophy: constants are set once, to magnitudes consistent
with published microbenchmarks of Ampere-class GPUs, and are never tuned
per-experiment. The paper-vs-measured comparisons in EXPERIMENTS.md are
about *shape* (who wins, by roughly what factor), which is governed by the
counted work, not by these constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostModelConfig:
    """Throughputs/latencies converting counted work into modeled seconds."""

    # --- Sampling ---------------------------------------------------------
    #: Neighbor draws per second for a GPU sampler (DGL-style, massive
    #: thread parallelism; order 1e9 draws/s on Ampere).
    gpu_sample_edges_per_s: float = 1.0e9
    #: Neighbor draws per second for a CPU sampler (PyG-style; tens of
    #: millions/s across cores). The ~50x gap reproduces PyG's 97%-in-sample
    #: profile from the paper's Figure 1.
    cpu_sample_edges_per_s: float = 2.0e7
    #: Fixed kernel-launch / loader overhead per sampling hop.
    sample_hop_overhead_s: float = 20e-6

    # --- ID map -----------------------------------------------------------
    #: Aggregate atomic operations per second across the device (atomicCAS /
    #: atomicAdd on global memory, moderately contended).
    atomic_ops_per_s: float = 2.0e9
    #: Plain hash-table reads per second (lookup kernel, step 3 of Fig. 4).
    table_lookups_per_s: float = 8.0e9
    #: Amortized cost per synchronized local-ID assignment in the DGL-style
    #: ID map (step 2 of Fig. 4 requires thread synchronization per unique
    #: global ID; this constant is what Fused-Map eliminates).
    sync_cost_per_unique_s: float = 4.0e-9
    #: Fixed cost per kernel launch (applies to each ID-map step).
    kernel_launch_s: float = 8e-6
    #: CPU-side ID map throughput (ids/second; PyG maps on the host).
    cpu_idmap_ids_per_s: float = 3.0e7

    # --- Memory IO --------------------------------------------------------
    #: Fixed latency per host->device transfer (driver + DMA setup).
    pcie_transfer_latency_s: float = 15e-6
    #: Host-side gather throughput: assembling non-contiguous feature rows
    #: into a pinned staging buffer, bytes/second. Faster than the PCIe 4.0
    #: link (the paper's premise: today the *transfer* dominates memory IO;
    #: its Section 7.3 predicts the gather takes over at Grace-Hopper
    #: bandwidths).
    host_gather_bytes_per_s: float = 80e9

    # --- Out-of-core storage ----------------------------------------------
    #: NVMe sequential read bandwidth (PCIe 4.0 x4 data-center drive).
    nvme_read_bytes_per_s: float = 6.8e9
    #: Per-read-command latency of the drive (device + controller).
    nvme_read_latency_s: float = 80e-6
    #: Device IOPS ceiling for page-sized random reads.
    nvme_iops_limit: float = 1.0e6
    #: Commands a host-side (bounce-buffer) reader keeps in flight.
    nvme_host_queue_depth: int = 32
    #: Commands GPU-initiated direct access keeps in flight (GIDS-style:
    #: thousands of GPU threads each own an outstanding request).
    nvme_gpu_queue_depth: int = 4096

    # --- Computation ------------------------------------------------------
    #: Fraction of peak FLOPs attainable by the dense update GEMM.
    gemm_efficiency: float = 0.45
    #: L1/L2 hit rates of the *naive* aggregation access pattern. These are
    #: the paper's Table 2 measurements (3-5% / 15-25%); the Table 2
    #: benchmark regenerates them with the functional cache simulator, and
    #: the compute cost model uses these calibrated averages on its hot path.
    naive_l1_hit: float = 0.045
    naive_l2_hit: float = 0.19
    #: Fixed cost per GNN layer (kernel launches, bookkeeping).
    layer_overhead_s: float = 30e-6
    #: GNNAdvisor per-element preprocessing cost (neighbor grouping + node
    #: renumbering; applied to nodes + edges of every sampled subgraph).
    advisor_preprocess_s_per_elem: float = 6.0e-9
    #: Effective-bandwidth multiplier for GNNAdvisor's 2D workload
    #: management (better coalescing than naive, below Memory-Aware).
    advisor_bandwidth_gain: float = 1.6

    # --- Multi-GPU --------------------------------------------------------
    #: NCCL ring all-reduce bus bandwidth per GPU pair (bytes/s).
    nccl_bus_bytes_per_s: float = 20e9
    #: Latency per all-reduce call.
    nccl_latency_s: float = 30e-6
    #: Aggregate host memory bandwidth available to all PCIe links (two
    #: EPYC sockets; caps per-GPU transfer rate when many GPUs pull at once).
    host_aggregate_bytes_per_s: float = 80e9

    # --- Memory accounting -------------------------------------------------
    #: Fixed device-resident runtime overhead (CUDA context, framework).
    runtime_overhead_bytes: int = 1_200_000_000
    #: Multiplier for allocator slack / fragmentation on workspace buffers.
    allocator_slack: float = 1.35

    def scaled(self, **overrides: float) -> "CostModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: Package-wide default calibration.
DEFAULT_COST_MODEL = CostModelConfig()


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one training run (shared by all frameworks).

    Mirrors the paper's Section 6.1 setup, at reproduction scale:
    batch size, sampling fanouts (hop order: ``fanouts[0]`` is the first hop
    from the seed nodes), number of simulated GPUs, and the Match-Reorder
    window ``reorder_window`` (the paper's ``n`` mini-batches sampled ahead).
    """

    batch_size: int = 256
    fanouts: tuple = (5, 10, 15)
    num_gpus: int = 2
    hidden_dim: int = 64
    num_epochs: int = 1
    #: Mini-batches sampled ahead and greedily reordered (the paper's n).
    reorder_window: int = 32
    #: Fraction of each batch drawn from a contiguous run of sorted train
    #: IDs, modeling the community-correlated splits of the real benchmarks
    #: (see :class:`repro.graph.partition.MinibatchPlan`).
    batch_locality: float = 0.6
    train_model: bool = False
    #: When set, cache-using frameworks size their feature cache as this
    #: fraction of the full feature table instead of the dataset's
    #: leftover-memory budget (the paper's Fig. 10a sweep).
    cache_ratio_override: float | None = None
    # --- Out-of-core storage tier (SSD-resident feature table) ------------
    #: Page size of the NVMe-backed feature store.
    page_bytes: int = 4096
    #: Host/device memory budget for the page cache; None sizes it as 10%
    #: of the feature table (the large-graph regime the tier targets).
    host_memory_bytes: int | None = None
    #: "direct" = GPU-initiated SSD->GPU reads (GIDS); "bounce" = classic
    #: SSD->host DRAM->GPU staging.
    storage_access: str = "direct"
    #: Page-cache policy: "partition" (BGL-style) or "lru".
    page_cache_policy: str = "partition"
    #: Rounds the out-of-core pipeline admits at once (sampled, not yet
    #: trained) while it overlaps storage reads with sampling/compute;
    #: at least 1 (``ConfigError`` otherwise).
    storage_prefetch_depth: int = 4
    seed: int = 0
    cost: CostModelConfig = field(default_factory=CostModelConfig)

    def __post_init__(self) -> None:
        if self.storage_prefetch_depth < 1:
            raise ConfigError("storage_prefetch_depth must be >= 1, got "
                              f"{self.storage_prefetch_depth}")

    @property
    def num_layers(self) -> int:
        """Number of GNN layers implied by the sampling depth."""
        return len(self.fanouts)
