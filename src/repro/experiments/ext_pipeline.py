"""Pipelined-epoch study: overlap vs the phase-sequential driver.

The paper overlaps sampling, feature IO, and compute inside FastGL's
epoch (Section 4's prefetch and Section 5's cache hide transfer time);
the pipeline tier generalizes that overlap into an explicit stage graph
any framework can run through (:mod:`repro.pipeline`). These
experiments quantify what the graph buys and where its knobs bind:

* :func:`run_overlap` — every framework, sequential vs pipelined, on a
  Papers100M-shaped configuration: epoch time, the
  ``max(stage totals) + fill`` lower bound, achieved overlap ratio, and
  where the stalls concentrate.
* :func:`run_queue_depths` — the backpressure sweep: queue depth 1
  (fully serialized handoff) through deep run-ahead, against the
  unbounded bound.
* :func:`run_staleness` — bounded-staleness gradient accumulation:
  rounds between allreduces vs epoch time, on a cluster so the saved
  sync includes the inter-node hop.

The claim under test (the tentpole gate): on configurations whose
stage totals are comparable, the pipelined epoch approaches
``max(sample, IO, compute)`` plus the pipeline fill — time the
sequential driver pays serially.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec
from repro.config import RunConfig
from repro.experiments.runner import ExperimentResult, epoch_report
from repro.pipeline import ExecutionSpec, PipelineSpec

#: Frameworks the overlap table compares (the paper lineup's extremes:
#: the CPU-sampling baseline, the two pipelined-by-design systems, and
#: the full FastGL stack).
OVERLAP_FRAMEWORKS = ("pyg", "dgl", "gnnlab", "fastgl", "fastgl-ooc")

#: Queue depths the backpressure sweep visits.
QUEUE_DEPTHS = (1, 2, 3, 4, 8)

#: Staleness bounds the accumulation sweep visits (0 = sync each round).
STALENESS = (0, 1, 3, 7)


def _pipeline_config(config: RunConfig | None) -> RunConfig:
    """Papers100M-shaped run: 2 GPUs, sparse fanouts, batches small
    enough that every lane runs many rounds (the pipeline needs rounds
    in flight to overlap)."""
    return config or RunConfig(num_gpus=2, batch_size=128,
                               fanouts=(5, 10))


def _exec(depth: int = 2, staleness: int = 0,
          cluster: ClusterSpec | None = None) -> ExecutionSpec:
    return ExecutionSpec(
        cluster=cluster,
        pipeline=PipelineSpec(mode="pipelined", queue_depth=depth,
                              staleness=staleness),
    )


def run_overlap(dataset_name: str = "papers100m",
                config: RunConfig | None = None) -> ExperimentResult:
    """Sequential vs pipelined epoch for every compared framework."""
    config = _pipeline_config(config)
    result = ExperimentResult(
        exp_id="ext_pipeline_overlap",
        title=f"Pipelined epoch vs phase-sequential driver "
              f"({dataset_name}, {config.num_gpus} GPUs)",
        headers=["framework", "seq_s", "piped_s", "bound_s", "overlap",
                 "vs_bound", "bottleneck", "stall_s"],
    )
    for name in OVERLAP_FRAMEWORKS:
        seq = epoch_report(name, dataset_name, config)
        piped = epoch_report(name, dataset_name, config,
                             execution=_exec())
        info = piped.pipeline
        totals = info["stage_totals"]
        bottleneck = max(totals, key=totals.get)
        # Overlap ratio: how much of the serially-paid time the graph
        # hid. 0 = no faster than sequential, 1 = at the lower bound.
        hidden = seq.epoch_time - piped.epoch_time
        hideable = seq.epoch_time - info["bound_seconds"]
        overlap = hidden / hideable if hideable > 1e-12 else 1.0
        result.rows.append([
            name,
            round(seq.epoch_time, 6),
            round(piped.epoch_time, 6),
            round(info["bound_seconds"], 6),
            round(overlap, 3),
            round(piped.epoch_time / info["bound_seconds"], 3)
            if info["bound_seconds"] > 0 else 1.0,
            bottleneck,
            round(sum(info["stall_seconds"].values()), 6),
        ])
    result.notes.append(
        "expected shape: piped_s lands within a few percent of bound_s "
        "(= max stage total + pipeline fill) for every framework; the "
        "sequential/pipelined gap is widest where no single stage "
        "dominates (DGL: sampling and IO both heavy) and narrowest "
        "where one stage already swallows the epoch (PyG's CPU "
        "sampling; FastGL's cache leaves compute dominant)"
    )
    return result


def run_queue_depths(dataset_name: str = "papers100m",
                     framework: str = "dgl",
                     config: RunConfig | None = None) -> ExperimentResult:
    """Backpressure sweep: bounded buffers vs the overlap they permit."""
    config = _pipeline_config(config)
    result = ExperimentResult(
        exp_id="ext_pipeline_depth",
        title=f"Queue-depth sweep ({framework}, {dataset_name})",
        headers=["queue_depth", "piped_s", "vs_depth1", "stall_s"],
    )
    base = None
    for depth in QUEUE_DEPTHS:
        report = epoch_report(framework, dataset_name, config,
                              execution=_exec(depth=depth))
        info = report.pipeline
        if base is None:
            base = report.epoch_time
        result.rows.append([
            depth,
            round(report.epoch_time, 6),
            round(base / report.epoch_time, 3),
            round(sum(info["stall_seconds"].values()), 6),
        ])
    result.notes.append(
        "expected shape: epoch time is non-increasing in depth (more "
        "run-ahead never hurts) and saturates fast — double buffering "
        "(depth 2) captures nearly all of the unbounded overlap, the "
        "classic result the transfer lane's design assumes"
    )
    return result


def run_staleness(dataset_name: str = "papers100m",
                  framework: str = "fastgl",
                  num_nodes: int = 4,
                  config: RunConfig | None = None) -> ExperimentResult:
    """Bounded-staleness accumulation on a cluster: fewer allreduces,
    including the inter-node fabric hop."""
    config = _pipeline_config(config)
    cluster = ClusterSpec(num_nodes=num_nodes, link_bandwidth=2.5e9,
                          nic_bandwidth=2.5e9)
    result = ExperimentResult(
        exp_id="ext_pipeline_staleness",
        title=f"Bounded-staleness accumulation ({framework}, "
              f"{num_nodes} nodes, {dataset_name})",
        headers=["staleness", "syncs", "piped_s", "allreduce_s",
                 "network_s"],
    )
    for staleness in STALENESS:
        report = epoch_report(
            framework, dataset_name, config,
            execution=_exec(staleness=staleness, cluster=cluster),
        )
        info = report.pipeline
        result.rows.append([
            staleness,
            info["num_syncs"],
            round(report.epoch_time, 6),
            round(report.phases.allreduce, 6),
            round(report.phases.network, 6),
        ])
    result.notes.append(
        "expected shape: sync count falls as rounds/(staleness+1) and "
        "both the allreduce and network phases shrink proportionally; "
        "epoch time is non-increasing in staleness (the timing model "
        "only removes barriers — convergence effects are out of scope)"
    )
    return result


def run(config: RunConfig | None = None) -> ExperimentResult:
    """All parts merged for the benchmark harness."""
    merged = ExperimentResult(
        exp_id="ext_pipeline",
        title="Asynchronous pipelined epoch studies",
    )
    for part in (run_overlap(config=config),
                 run_queue_depths(config=config),
                 run_staleness(config=config)):
        merged.notes.append(part.render())
    return merged
