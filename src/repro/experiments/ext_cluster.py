"""Multi-node scaling study: partition-aware halo exchange at scale.

The paper stops at one machine (Section 7 evaluates up to 8 GPUs in a
single node). These experiments push the same workloads across the
simulated cluster tier (:mod:`repro.cluster`): the Papers100M analogue
sharded over 4-16 machines, comparing what the tier actually models —

* :func:`run_strong_scaling` — fixed problem, growing cluster: modeled
  epoch speedup and parallel efficiency per (partitioner, remote-cache)
  pair, against the single-node run of the same config.
* :func:`run_weak_scaling` — the graph grows with the cluster (constant
  work per node): efficiency is how close epoch time stays to the
  single-node epoch on the per-node share.
* :func:`run_partitioners` — edge-cut quality vs halo traffic vs epoch
  time for every registered partitioner at a fixed cluster size.

The claim under test is the cluster tentpole: edge-cut-aware placement
plus frequency caching of hot remote rows keeps the network lane small
enough that scaling efficiency stays useful, where random placement
with no cache pays the full boundary traffic every round.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.spec import ClusterSpec
from repro.config import RunConfig
from repro.experiments.runner import ExperimentResult, epoch_report
from repro.pipeline import ExecutionSpec

#: Cluster sizes the scaling curves sweep.
NODE_COUNTS = (4, 8, 16)

#: (label, partitioner, remote_cache) variants compared throughout:
#: the informed bundle, its two ablations, and the uninformed floor.
VARIANTS = (
    ("greedy+freq", "greedy", "freq"),
    ("greedy+none", "greedy", "none"),
    ("random+freq", "random", "freq"),
    ("random+none", "random", "none"),
)

#: A 20 Gb/s fabric (two-level fat-tree, 2:1 oversubscribed) — modest
#: enough that halo traffic is a visible share of the modeled epoch, as
#: on real ethernet clusters (the 100 Gb/s default models InfiniBand).
FABRIC = dict(topology="fat-tree", link_bandwidth=2.5e9,
              nic_bandwidth=2.5e9)


def _cluster_config(config: RunConfig | None) -> RunConfig:
    """Default multi-node setup: 2 GPUs per node, sparse fanouts."""
    return config or RunConfig(num_gpus=2, batch_size=128, fanouts=(5, 10))


def _spec(num_nodes: int, partitioner: str, cache: str) -> ClusterSpec:
    return ClusterSpec(num_nodes=num_nodes, partitioner=partitioner,
                       remote_cache=cache, **FABRIC)


def _exec(num_nodes: int, partitioner: str, cache: str) -> ExecutionSpec:
    return ExecutionSpec(cluster=_spec(num_nodes, partitioner, cache))


def run_strong_scaling(dataset_name: str = "papers100m",
                       nodes=NODE_COUNTS,
                       config: RunConfig | None = None) -> ExperimentResult:
    """Fixed Papers100M analogue, 4-16 nodes, informed vs uninformed."""
    config = _cluster_config(config)
    result = ExperimentResult(
        exp_id="ext_cluster_strong",
        title=f"Strong scaling across simulated nodes ({dataset_name}, "
              f"{config.num_gpus} GPUs/node, 20 Gb/s fat-tree)",
        headers=["nodes", "cluster", "epoch_s", "speedup", "efficiency",
                 "cut", "halo_hit", "net_share"],
    )
    base = epoch_report(
        "fastgl", dataset_name, config, model="gcn",
        execution=_exec(1, "greedy", "freq"),
    )
    for num_nodes in nodes:
        for label, partitioner, cache in VARIANTS:
            report = epoch_report(
                "fastgl", dataset_name, config, model="gcn",
                execution=_exec(num_nodes, partitioner, cache),
            )
            cluster = report.cluster
            speedup = base.epoch_time / report.epoch_time
            detail = report.phases.fractions(detail=True)
            result.rows.append([
                num_nodes, label,
                round(report.epoch_time, 6),
                round(speedup, 2),
                round(speedup / num_nodes, 3),
                f"{cluster['partition']['cut_fraction']:.1%}",
                f"{cluster['halo']['hit_rate']:.1%}",
                f"{detail['network']:.1%}",
            ])
    result.notes.append(
        "expected shape: greedy+freq holds the highest efficiency at "
        "every size — the edge-cut partitioner shrinks boundary traffic "
        "and the frequency cache absorbs the hot remote rows; "
        "random+none pays full halo traffic and falls off first as the "
        "per-node batch share shrinks"
    )
    return result


def run_weak_scaling(dataset_name: str = "papers100m",
                     nodes=NODE_COUNTS,
                     config: RunConfig | None = None) -> ExperimentResult:
    """Graph grows with the cluster: constant per-node share of the
    Papers100M analogue, efficiency vs the single-node run."""
    from repro.graph.datasets import DATASETS, Dataset

    config = _cluster_config(config)
    base_spec = DATASETS[dataset_name]
    per_node = max(1, base_spec.num_nodes // max(nodes))

    def sized(num_nodes: int) -> Dataset:
        spec = replace(base_spec,
                       name=f"{base_spec.name}-x{num_nodes}",
                       num_nodes=per_node * num_nodes)
        return Dataset(spec, seed=config.seed)

    result = ExperimentResult(
        exp_id="ext_cluster_weak",
        title=f"Weak scaling: {per_node} graph nodes per machine "
              f"({dataset_name} recipe, informed vs uninformed cluster)",
        headers=["nodes", "cluster", "graph_nodes", "epoch_s",
                 "efficiency", "cut", "halo_hit"],
    )
    baselines: dict = {}
    for num_nodes in (1,) + tuple(nodes):
        dataset = sized(num_nodes)
        for label, partitioner, cache in VARIANTS:
            if num_nodes == 1 and label != "greedy+freq":
                continue  # one node has no partitions to differ on
            report = epoch_report(
                "fastgl", dataset_name, config, model="gcn",
                dataset=dataset,
                execution=_exec(num_nodes, partitioner, cache),
            )
            if num_nodes == 1:
                baselines["epoch"] = report.epoch_time
                continue
            cluster = report.cluster
            result.rows.append([
                num_nodes, label, dataset.spec.num_nodes,
                round(report.epoch_time, 6),
                round(baselines["epoch"] / report.epoch_time, 3),
                f"{cluster['partition']['cut_fraction']:.1%}",
                f"{cluster['halo']['hit_rate']:.1%}",
            ])
    result.notes.append(
        "expected shape: perfect weak scaling is efficiency 1.0 (epoch "
        "time flat as graph and cluster grow together); the gap is the "
        "network lane — smallest under greedy+freq, growing with node "
        "count as the boundary widens and inter-pod hops appear"
    )
    return result


def run_partitioners(dataset_name: str = "papers100m",
                     num_nodes: int = 8,
                     config: RunConfig | None = None) -> ExperimentResult:
    """Every registered partitioner at one cluster size: cut quality vs
    halo bytes vs modeled epoch time (frequency cache throughout)."""
    config = _cluster_config(config)
    result = ExperimentResult(
        exp_id="ext_cluster_part",
        title=f"Partitioner quality at {num_nodes} nodes "
              f"({dataset_name}, freq remote cache)",
        headers=["partitioner", "cut", "balance", "halo_nodes",
                 "halo_MB", "halo_hit", "epoch_s"],
    )
    for partitioner in ("greedy", "random", "hash"):
        report = epoch_report(
            "fastgl", dataset_name, config, model="gcn",
            execution=_exec(num_nodes, partitioner, "freq"),
        )
        cluster = report.cluster
        partition, halo = cluster["partition"], cluster["halo"]
        result.rows.append([
            partitioner,
            f"{partition['cut_fraction']:.1%}",
            round(partition["balance"], 3),
            sum(partition["halo_nodes"]),
            round(halo["bytes_moved"] / 1e6, 2),
            f"{halo['hit_rate']:.1%}",
            round(report.epoch_time, 6),
        ])
    result.notes.append(
        "expected shape: greedy cuts a fraction of the edges random/hash "
        "cut, which shrinks the halo front and the bytes on the wire; "
        "the epoch-time gap is that traffic divided by the fabric"
    )
    return result


def run(config: RunConfig | None = None) -> ExperimentResult:
    """All parts merged for the benchmark harness."""
    merged = ExperimentResult(
        exp_id="ext_cluster",
        title="Multi-node cluster tier studies",
    )
    for part in (run_strong_scaling(config=config),
                 run_weak_scaling(config=config),
                 run_partitioners(config=config)):
        merged.notes.append(part.render())
    return merged
