"""Extension experiments for the paper's Section 7 discussion.

Not tables/figures of the evaluation, but claims the paper makes in
prose, reproduced quantitatively:

* :func:`run_grace_hopper` — Section 7.3: as host<->device bandwidth grows
  toward Grace-Hopper's 900 GB/s, the memory-IO bottleneck shifts from the
  transfer itself to organizing (gathering) the data on the CPU side.
* :func:`run_multimachine` — Section 7.1: FastGL's advantage over DGL is
  machine-count-agnostic; data-parallel scaling across machines preserves
  the gap.
* :func:`run_sampler_generality` — Section 7: Fused-Map accelerates the
  ID map under node-wise, random-walk and layer-wise samplers alike.
"""

from __future__ import annotations

from repro.config import COST_MODEL, RunConfig
from repro.experiments.runner import ExperimentResult, epoch_report
from repro.gpu.multimachine import MachineSpec, multimachine_epoch_time
from repro.graph.datasets import get_dataset
from repro.sampling import (
    BaselineIdMap,
    FusedIdMap,
    NeighborSampler,
    RandomWalkSampler,
)
from repro.sampling.layerwise import LayerWiseSampler
from repro.utils.rng import RngFactory

#: Host link bandwidths to sweep: PCIe 3.0/4.0/5.0, NVLink-C2C (GH200).
LINK_BANDWIDTHS = (16e9, 32e9, 64e9, 900e9)


def run_grace_hopper(dataset_name: str = "papers100m",
                     config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig(num_gpus=2)
    result = ExperimentResult(
        exp_id="ext_gh",
        title="Section 7.3: memory-IO composition vs host-link bandwidth "
              f"(DGL on {dataset_name})",
        headers=["link_GBps", "io_s", "gather_share", "transfer_share"],
    )
    report = epoch_report("dgl", dataset_name, config, model="gcn")
    for bandwidth in LINK_BANDWIDTHS:
        feature_bytes = report.transfer.feature_bytes
        total_bytes = report.transfer.total_bytes
        # Grace-Hopper's unified memory also removes today's host-DRAM
        # aggregate cap, so the sweep applies the link bandwidth directly.
        gather = feature_bytes / COST_MODEL.host_gather_bytes_per_s
        transfer = (total_bytes / bandwidth
                    + report.transfer.num_transfers
                    * COST_MODEL.pcie_transfer_latency_s)
        io = gather + transfer
        result.rows.append([
            bandwidth / 1e9, io,
            round(gather / io, 3), round(transfer / io, 3),
        ])
    result.notes.append(
        "paper claim: at Grace-Hopper bandwidth the transfer stage stops "
        "dominating and host-side data organization becomes the bottleneck"
    )
    return result


def run_multimachine(dataset_name: str = "products",
                     machines=(1, 2, 4),
                     config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig(num_gpus=4)
    result = ExperimentResult(
        exp_id="ext_mm",
        title="Section 7.1: data-parallel scaling across machines "
              f"({dataset_name}, {config.num_gpus} GPUs/machine)",
        headers=["machines", "dgl_s", "fastgl_s", "x_dgl"],
    )
    spec = MachineSpec(gpus_per_machine=config.num_gpus)
    from repro.core.memory_aware import model_profile
    from repro.frameworks.base import _profile_param_bytes

    dataset = get_dataset(dataset_name, seed=config.seed)
    profile = model_profile("gcn", dataset.feature_dim,
                            dataset.num_classes,
                            hidden_dim=config.hidden_dim,
                            num_layers=config.num_layers)
    grad_bytes = _profile_param_bytes(profile)
    for count in machines:
        times = {}
        for name in ("dgl", "fastgl"):
            report = epoch_report(name, dataset_name, config, model="gcn")
            times[name] = multimachine_epoch_time(
                report.epoch_time, report.num_batches, grad_bytes,
                count, spec,
            )
        result.rows.append([
            count, times["dgl"], times["fastgl"],
            round(times["dgl"] / times["fastgl"], 2),
        ])
    result.notes.append(
        "paper claim: the FastGL/DGL gap is machine-count-agnostic"
    )
    return result


def run_gpu_sensitivity(dataset_name: str = "products",
                        config: RunConfig | None = None
                        ) -> ExperimentResult:
    """Hardware sensitivity: the FastGL/DGL gap on an RTX 3090 vs an A100.

    FastGL's advantage comes from byte/synchronization counts, not from
    one card's constants — on the A100 (2.2x the DRAM bandwidth, same
    PCIe link) the compute phases shrink for everyone while the memory-IO
    bottleneck persists, so the gap survives.
    """
    from repro.frameworks import DGLFramework, FastGLFramework
    from repro.gpu.spec import A100, RTX3090

    config = config or RunConfig(num_gpus=2)
    result = ExperimentResult(
        exp_id="ext_gpu",
        title=f"GPU sensitivity on {dataset_name}: RTX 3090 vs A100",
        headers=["gpu", "dgl_s", "fastgl_s", "x_dgl", "dgl_io_frac",
                 "fastgl_compute_s"],
    )
    dataset = get_dataset(dataset_name, seed=config.seed)
    for spec in (RTX3090, A100):
        dgl = DGLFramework(spec=spec).run_epoch(dataset, config)
        fast = FastGLFramework(spec=spec).run_epoch(dataset, config)
        result.rows.append([
            spec.name,
            dgl.epoch_time,
            fast.epoch_time,
            round(dgl.epoch_time / fast.epoch_time, 2),
            round(dgl.phases.fractions()["memory_io"], 3),
            fast.phases.compute,
        ])
    result.notes.append(
        "shape: faster DRAM shrinks compute for everyone; the PCIe-bound "
        "memory-IO phase persists, so FastGL's advantage survives the "
        "hardware change"
    )
    return result


def run_cache_policies(datasets=("products", "mag", "papers100m"),
                       config: RunConfig | None = None) -> ExperimentResult:
    """Section 3.1's cache-collapse claim: on large graphs the leftover
    memory admits so few rows that *any* static policy (PaGraph's degree
    ranking, GNNLab's presample ranking) stops working — the paper quotes
    PaGraph under 20% hit rate on MAG."""
    config = config or RunConfig(num_gpus=2)
    result = ExperimentResult(
        exp_id="ext_cache",
        title="Static-cache hit rates under the leftover-memory budget",
        headers=["dataset", "budget_frac", "pagraph_hit", "gnnlab_hit",
                 "fastgl_reuse_frac"],
    )
    from repro.frameworks import PaGraphFramework

    for dataset_name in datasets:
        dataset = get_dataset(dataset_name, seed=config.seed)
        budget_frac = (dataset.cache_budget_bytes()
                       / dataset.feature_table_bytes())
        pagraph_fw = PaGraphFramework()
        pagraph = epoch_report(pagraph_fw, dataset_name, config,
                               model="gcn", dataset=dataset)
        gnnlab = epoch_report("gnnlab", dataset_name, config, model="gcn")
        fastgl = epoch_report("fastgl", dataset_name, config, model="gcn")
        pg_hit = pagraph.transfer.num_cache_hits / max(
            1, pagraph.transfer.num_wanted)
        gl_hit = gnnlab.transfer.num_cache_hits / max(
            1, gnnlab.transfer.num_wanted)
        reuse = (fastgl.transfer.num_reused
                 + fastgl.transfer.num_cache_hits) / max(
            1, fastgl.transfer.num_wanted)
        result.rows.append([
            dataset_name, round(budget_frac, 4),
            round(pg_hit, 3), round(gl_hit, 3), round(reuse, 3),
        ])
    result.notes.append(
        "paper claims: PaGraph's hit rate is under 20% on MAG; Match's "
        "reuse does not depend on spare memory at all"
    )
    return result


def run_sampler_generality(dataset_name: str = "products",
                           config: RunConfig | None = None
                           ) -> ExperimentResult:
    config = config or RunConfig(num_gpus=1)
    dataset = get_dataset(dataset_name, seed=config.seed)
    rngs = RngFactory(config.seed)
    result = ExperimentResult(
        exp_id="ext_samplers",
        title="Section 7: Fused-Map ID-map speedup across sampling "
              f"algorithms ({dataset_name})",
        headers=["sampler", "baseline_idmap_s", "fused_idmap_s", "x"],
    )

    def build(kind: str, idmap):
        rng = rngs.child(f"{kind}:{type(idmap).__name__}")
        if kind == "node-wise":
            return NeighborSampler(dataset.graph, config.fanouts,
                                   idmap=idmap, rng=rng)
        if kind == "random-walk":
            return RandomWalkSampler(dataset.graph, walk_length=3,
                                     num_walks=10, idmap=idmap, rng=rng)
        return LayerWiseSampler(dataset.graph, (512, 2048, 8192),
                                idmap=idmap, rng=rng)

    seeds = dataset.train_ids[: config.batch_size]
    for kind in ("node-wise", "random-walk", "layer-wise"):
        times = {}
        for label, idmap in (("baseline", BaselineIdMap()),
                             ("fused", FusedIdMap())):
            sampler = build(kind, idmap)
            subgraph = sampler.sample(seeds)
            times[label] = subgraph.idmap_report.modeled_time()
        result.rows.append([
            kind, times["baseline"], times["fused"],
            round(times["baseline"] / times["fused"], 2),
        ])
    result.notes.append(
        "paper claim: every sampling algorithm needs the ID map, so "
        "Fused-Map's speedup generalizes"
    )
    return result
