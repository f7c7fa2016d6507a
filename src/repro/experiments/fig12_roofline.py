"""Figure 12: roofline analysis of the aggregation phase (GCN, Products).

Forward and backward aggregation kernels of DGL (naive), GNNAdvisor and
FastGL (Memory-Aware) are placed on the RTX 3090 roofline. Shape: all
three sit in the memory-bound region; FastGL achieves up to ~4x the
performance of DGL/GNNAdvisor at the same operational intensity, because
the Memory-Aware pattern raises the effective bandwidth, not the FLOP
count.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.core.memory_aware import ComputeCostModel, model_profile
from repro.experiments.runner import ExperimentResult
from repro.gpu.spec import RTX3090
from repro.graph.datasets import get_dataset
from repro.metrics.roofline import RooflinePoint, roofline_ceiling
from repro.sampling import NeighborSampler
from repro.utils.rng import RngFactory

MODES = (("dgl", "naive"), ("gnnadvisor", "advisor"),
         ("fastgl", "memory_aware"))


def run(dataset_name: str = "products",
        config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig()
    dataset = get_dataset(dataset_name, seed=config.seed)
    rngs = RngFactory(config.seed)
    sampler = NeighborSampler(dataset.graph, config.fanouts,
                              rng=rngs.child("fig12"))
    subgraph = sampler.sample(dataset.train_ids[: config.batch_size])
    profile = model_profile("gcn", dataset.feature_dim, dataset.num_classes,
                            hidden_dim=config.hidden_dim,
                            num_layers=config.num_layers)
    result = ExperimentResult(
        exp_id="fig12",
        title=f"Roofline of the aggregation phase (GCN on {dataset_name}, "
              "forward+backward)",
        headers=["kernel", "OI_flop_per_byte", "achieved_GFLOPs",
                 "roof_GFLOPs", "of_roof"],
    )
    points = {}
    for label, mode in MODES:
        cost_model = ComputeCostModel(RTX3090, mode)
        report = cost_model.subgraph_report(subgraph, profile)
        point = RooflinePoint(
            name=label,
            operational_intensity=(
                report.agg_flops / max(1.0, report.agg_dram_bytes)
            ),
            achieved_flops=report.agg_flops / max(report.agg_time, 1e-12),
        )
        points[label] = point
        roof = roofline_ceiling(point.operational_intensity)
        result.rows.append([
            label,
            round(point.operational_intensity, 4),
            round(point.achieved_gflops, 1),
            round(roof / 1e9, 1),
            round(point.achieved_flops / roof, 3),
        ])
    gain = points["fastgl"].achieved_flops / points["dgl"].achieved_flops
    result.notes.append(
        f"FastGL achieves {gain:.2f}x the naive kernel's performance "
        "(paper: up to 4.2x); all kernels are memory-bound (OI << "
        "peak/bandwidth ridge)"
    )
    return result
