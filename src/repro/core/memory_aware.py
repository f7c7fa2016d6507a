"""Memory-Aware computation (paper Section 4.2).

The aggregation of Eq. 1 reads three streams per target node ``u``:

* source features ``x_v`` — read once each,
* edge weights ``w_uv`` — read ``d`` times each,
* partial sums ``h_u`` — read ``|N(u)| - 1`` times.

Naive kernels pull everything through the (thrashing) L1/L2 path from
global memory — Eq. 3. The Memory-Aware kernel stages the two hot streams
(partial sums, weights) in shared memory — Eq. 4 — cutting the bytes that
touch global memory roughly 3x. This module implements both equations as a
cost model, the thread-block planning constraint (X*Y <= 1024,
``4XY + 4X|N(u)|`` shared bytes), and the paper-named ``A3`` aggregation
API that couples the functional numpy kernel with the modeled cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import COST_MODEL
from repro.errors import ConfigError
from repro.gpu.kernels import ThreadBlockConfig, aggregation_kernel_plan, gemm_time
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.spec import GPUSpec, RTX3090
from repro.nn.functional import a3_aggregate
from repro.sampling.subgraph import LayerBlock, SampledSubgraph

#: Cost-model modes, one per compared framework family.
MODES = ("naive", "memory_aware", "advisor")


@dataclass
class AggregationCost:
    """Modeled cost of one aggregation kernel (one direction)."""

    mem_time: float
    flop_time: float
    flops: float
    bytes_shared: float
    bytes_global: float
    #: Bytes actually served by DRAM (global requests minus cache hits) —
    #: the denominator of the roofline's operational intensity.
    dram_bytes: float = 0.0

    @property
    def time(self) -> float:
        """Roofline-style: the kernel is bound by the slower of the two."""
        return max(self.mem_time, self.flop_time)

    @property
    def achieved_flops(self) -> float:
        if self.time == 0:
            return 0.0
        return self.flops / self.time

    @property
    def operational_intensity(self) -> float:
        total_bytes = self.bytes_shared + self.bytes_global
        if total_bytes == 0:
            return 0.0
        return self.flops / total_bytes


@dataclass
class ComputeReport:
    """Accumulated computation-phase cost over blocks/batches."""

    agg_time: float = 0.0
    gemm_time: float = 0.0
    preprocess_time: float = 0.0
    overhead_time: float = 0.0
    flops: float = 0.0
    agg_flops: float = 0.0
    agg_bytes: float = 0.0
    agg_dram_bytes: float = 0.0
    agg_mem_time: float = 0.0

    @property
    def total_time(self) -> float:
        return (self.agg_time + self.gemm_time + self.preprocess_time
                + self.overhead_time)

    def merge(self, other: "ComputeReport") -> "ComputeReport":
        self.agg_time += other.agg_time
        self.gemm_time += other.gemm_time
        self.preprocess_time += other.preprocess_time
        self.overhead_time += other.overhead_time
        self.flops += other.flops
        self.agg_flops += other.agg_flops
        self.agg_bytes += other.agg_bytes
        self.agg_dram_bytes += other.agg_dram_bytes
        self.agg_mem_time += other.agg_mem_time
        return self


@dataclass(frozen=True)
class ModelProfile:
    """Compute shape of one GNN model, as the cost model sees it."""

    name: str
    #: (d_in, d_out) of each layer, input-side first.
    layer_dims: tuple
    #: Dense GEMMs per layer (GIN's MLP update has 2).
    gemms_per_layer: int = 1
    #: Attention heads (> 0 adds per-edge score/softmax work, GAT).
    attention_heads: int = 0
    #: GAT transforms *source* features before aggregating.
    gemm_on_src: bool = False


def model_profile(
    name: str,
    in_dim: int,
    out_dim: int,
    hidden_dim: int = 64,
    num_layers: int = 3,
) -> ModelProfile:
    """Profile for the paper's models ('gcn', 'gin', 'gat')."""
    name = name.lower()
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    layer_dims = tuple((dims[i], dims[i + 1]) for i in range(num_layers))
    if name == "gcn":
        return ModelProfile(name, layer_dims)
    if name == "gin":
        return ModelProfile(name, layer_dims, gemms_per_layer=2)
    if name == "gat":
        return ModelProfile(name, layer_dims, attention_heads=8,
                            gemm_on_src=True)
    raise ConfigError(f"unknown model {name!r}")


class ComputeCostModel:
    """Converts a sampled subgraph + model profile into modeled seconds.

    ``mode`` selects the access-pattern model:

    * ``"naive"`` — Eq. 3; everything streams through the thrashing cache
      path (DGL / PyG).
    * ``"memory_aware"`` — Eq. 4; hot streams in shared memory (FastGL).
    * ``"advisor"`` — naive bandwidth boosted by 2D workload management,
      plus per-subgraph preprocessing time (GNNAdvisor).
    """

    def __init__(
        self,
        spec: GPUSpec = RTX3090,
        mode: str = "memory_aware",
        tb_config: ThreadBlockConfig = ThreadBlockConfig(),
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        self.spec = spec
        self.mode = mode
        self.tb_config = tb_config
        self._hier = MemoryHierarchy(spec)
        self._naive_bw = self._hier.effective_bandwidth(
            COST_MODEL.naive_l1_hit, COST_MODEL.naive_l2_hit
        )

    # -- single aggregation ---------------------------------------------------
    def aggregation_cost(self, num_dst: int, num_edges: int,
                         feature_dim: int) -> AggregationCost:
        """Cost of one aggregation pass (Eq. 3 or Eq. 4, summed over
        targets). Holds for forward and backward alike — Eq. 5 has the same
        access structure transposed."""
        e, dst, d = float(num_edges), float(num_dst), float(feature_dim)
        flops = 2.0 * e * d  # one FMA per edge per dimension
        flop_time = flops / self.spec.peak_flops
        if self.mode == "memory_aware":
            plan = aggregation_kernel_plan(
                num_dst, feature_dim, avg_degree=max(1.0, e / max(dst, 1.0)),
                spec=self.spec, config=self.tb_config,
            )
            # Partial sums: 4(|N|-1)d; weights: 4|N|(d-1) — both shared.
            bytes_shared = 4.0 * d * max(0.0, e - dst) + 4.0 * (d - 1.0) * e
            # Source features 4|N|d and first-touch weights 4|N| — global.
            bytes_global = 4.0 * d * e + 4.0 * e
            shared_bw = self.spec.shared_bw * max(0.25, plan.occupancy)
            mem_time = (bytes_shared / shared_bw
                        + bytes_global / self.spec.global_bw)
            dram_bytes = bytes_global
        else:
            bytes_shared = 0.0
            bytes_global = 4.0 * d * max(0.0, 3.0 * e - dst)
            bandwidth = self._naive_bw
            miss_to_dram = ((1.0 - COST_MODEL.naive_l1_hit)
                            * (1.0 - COST_MODEL.naive_l2_hit))
            dram_bytes = bytes_global * miss_to_dram
            if self.mode == "advisor":
                bandwidth *= COST_MODEL.advisor_bandwidth_gain
                dram_bytes /= COST_MODEL.advisor_bandwidth_gain
            mem_time = bytes_global / bandwidth
        return AggregationCost(
            mem_time=mem_time,
            flop_time=flop_time,
            flops=flops,
            bytes_shared=bytes_shared,
            bytes_global=bytes_global,
            dram_bytes=dram_bytes,
        )

    # -- one layer --------------------------------------------------------------
    def layer_report(
        self,
        block: LayerBlock,
        d_in: int,
        d_out: int,
        profile: ModelProfile,
        include_backward: bool = True,
    ) -> ComputeReport:
        report = ComputeReport()
        directions = 2 if include_backward else 1
        agg_dim = d_out if profile.gemm_on_src else d_in
        agg = self.aggregation_cost(block.num_dst, block.num_edges, agg_dim)
        report.agg_time += agg.time * directions
        report.agg_mem_time += agg.mem_time * directions
        report.agg_flops += agg.flops * directions
        report.agg_bytes += (agg.bytes_shared + agg.bytes_global) * directions
        report.agg_dram_bytes += agg.dram_bytes * directions
        report.flops += agg.flops * directions

        gemm_rows = block.num_src if profile.gemm_on_src else block.num_dst
        one_gemm = gemm_time(gemm_rows, d_out, d_in, self.spec,
                             COST_MODEL.gemm_efficiency)
        # Backward needs dX and dW — two extra GEMMs of the same shape.
        gemm_count = profile.gemms_per_layer * (3 if include_backward else 1)
        report.gemm_time += one_gemm * gemm_count
        report.flops += 2.0 * gemm_rows * d_in * d_out * gemm_count

        if profile.attention_heads:
            # Per-edge score + softmax work per head, fwd (+bwd).
            heads = profile.attention_heads
            extra_bytes = 4.0 * block.num_edges * heads * 6.0 * directions
            extra_flops = 10.0 * block.num_edges * heads * directions
            report.agg_time += extra_bytes / self.spec.global_bw
            report.agg_mem_time += extra_bytes / self.spec.global_bw
            report.flops += extra_flops
        report.overhead_time += COST_MODEL.layer_overhead_s * directions
        return report

    # -- full subgraph -----------------------------------------------------------
    def subgraph_report(
        self,
        subgraph: SampledSubgraph,
        profile: ModelProfile,
        include_backward: bool = True,
    ) -> ComputeReport:
        """Modeled compute cost of one training iteration on ``subgraph``."""
        if len(profile.layer_dims) != subgraph.num_layers:
            raise ConfigError(
                f"profile has {len(profile.layer_dims)} layers, subgraph "
                f"{subgraph.num_layers}"
            )
        report = ComputeReport()
        # Deepest block feeds the first layer.
        for (d_in, d_out), block in zip(
            profile.layer_dims, reversed(subgraph.layers)
        ):
            report.merge(
                self.layer_report(block, d_in, d_out, profile,
                                  include_backward)
            )
        if self.mode == "advisor":
            elems = subgraph.num_nodes + subgraph.num_edges
            report.preprocess_time += (
                elems * COST_MODEL.advisor_preprocess_s_per_elem
            )
        return report


class A3:
    """The paper's user-facing aggregation API (``A3.forward`` /
    ``A3.backward``), pairing the functional kernel with its modeled cost.

    ``forward`` runs the real numpy aggregation (autograd-recorded, so
    calling ``backward()`` on a downstream loss executes Eq. 5) and returns
    the output tensor; ``last_cost`` exposes the modeled kernel cost of the
    most recent call.
    """

    def __init__(self, cost_model: ComputeCostModel | None = None) -> None:
        self.cost_model = cost_model or ComputeCostModel()
        self.last_cost: AggregationCost | None = None

    def forward(self, x_src, edge_src, edge_dst, weight, num_dst: int):
        out = a3_aggregate(x_src, edge_src, edge_dst, weight, num_dst)
        self.last_cost = self.cost_model.aggregation_cost(
            num_dst, len(np.asarray(edge_src)), x_src.shape[1]
        )
        return out

    @staticmethod
    def backward(loss) -> None:
        """Run the recorded backward pass (Eq. 5 included) from ``loss``."""
        loss.backward()
