"""Shared epoch driver for all compared frameworks.

Each framework (PyG, DGL, GNNAdvisor, GNNLab, FastGL) is one strategy
bundle over the common substrate — Table 5 of the paper:

=============  ========  ============  ==============  ===============
framework      sampling  ID map        memory IO       computation
=============  ========  ============  ==============  ===============
PyG            CPU       CPU           naive           naive
DGL            GPU       3-kernel      naive           naive
GNNAdvisor     GPU       3-kernel      naive           2D workload (+preprocess)
GNNLab         GPU       3-kernel      static cache    naive (factored GPUs)
FastGL         GPU       Fused-Map     Match-Reorder   Memory-Aware
=============  ========  ============  ==============  ===============

``run_epoch`` executes one epoch *functionally* (sampling, byte-exact
transfer planning, optional real training) and *temporally* (the cost
model converts counted work into modeled seconds), returning an
:class:`EpochReport` with the three-phase breakdown the paper's figures
are built from.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.config import CostModelConfig, RunConfig
from repro.core.memory_aware import (
    ComputeCostModel,
    ComputeReport,
    ModelProfile,
    model_profile,
)
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.faults import get_fault_plan
from repro.gpu.cluster import allreduce_time
from repro.gpu.pcie import PCIeLink, link_from_cost
from repro.gpu.spec import GPUSpec, RTX3090
from repro.graph.datasets import Dataset
from repro.graph.partition import MinibatchPlan
from repro.nn import Adam, Tensor, build_model, cross_entropy
from repro.obs import get_registry
from repro.pipeline import (
    ExecutionSpec,
    PipelineSpec,
    pipelined_epoch_layout,
)
from repro.pipeline.epoch import make_span, merge_pipeline_info
from repro.sampling import (
    BaselineIdMap,
    NeighborSampler,
    SampledSubgraph,
)
from repro.sampling.base import Sampler
from repro.transfer.loader import FeatureLoader, NaiveLoader, TransferReport
from repro.utils.rng import RngFactory


@dataclass
class PhaseTimes:
    """Modeled seconds per training phase, summed over an epoch."""

    sample: float = 0.0
    #: ID-map share of the sample phase (already included in ``sample``).
    idmap: float = 0.0
    memory_io: float = 0.0
    #: Cross-node fabric traffic (halo feature exchange + inter-node
    #: gradient allreduce); 0.0 outside cluster runs.
    network: float = 0.0
    compute: float = 0.0
    #: Preprocess share of ``compute`` (GNNAdvisor; already included).
    preprocess: float = 0.0
    allreduce: float = 0.0

    @property
    def serial_total(self) -> float:
        """Sum of the three phases plus gradient sync (no overlap)."""
        return (self.sample + self.memory_io + self.network + self.compute
                + self.allreduce)

    def fractions(self, detail: bool = False) -> dict:
        """Phase shares of the serial total (the paper's stacked bars).

        The default three-way split folds the ID map into ``sample`` and
        network + preprocess + allreduce into ``compute`` (the paper's
        Fig. 1 view — single-node runs have no network share to fold).
        ``detail=True`` splits those shares out as disjoint components —
        the stepwise-figure view — so the returned values still sum to
        1.0 in both modes. Each mode returns the same key set whether or
        not the total is zero (shares are all 0.0 in the empty case).
        """
        if detail:
            parts = {
                "sample": self.sample - self.idmap,
                "idmap": self.idmap,
                "memory_io": self.memory_io,
                "network": self.network,
                "compute": self.compute - self.preprocess,
                "preprocess": self.preprocess,
                "allreduce": self.allreduce,
            }
        else:
            parts = {
                "sample": self.sample,
                "memory_io": self.memory_io,
                "compute": self.compute + self.network + self.allreduce,
            }
        total = self.serial_total
        if total == 0:
            return {key: 0.0 for key in parts}
        return {key: value / total for key, value in parts.items()}


@dataclass(frozen=True)
class CacheStats:
    """Typed view of an epoch's feature-residency counters.

    ``hits`` counts rows served from a static device cache, ``reused``
    rows kept resident by Match across consecutive batches, ``loaded``
    rows that actually crossed the host link; together they partition
    ``wanted``.
    """

    wanted: int
    loaded: int
    reused: int
    hits: int

    @property
    def hit_rate(self) -> float:
        """Cache hits per wanted row."""
        if self.wanted == 0:
            return 0.0
        return self.hits / self.wanted

    @property
    def resident_rate(self) -> float:
        """Rows that never crossed the link (cache hits + Match reuse)."""
        if self.wanted == 0:
            return 0.0
        return (self.hits + self.reused) / self.wanted


@dataclass
class EpochReport:
    """Everything one epoch produced: times, bytes, counters, losses."""

    framework: str
    dataset: str
    model: str
    num_batches: int
    #: Phase sums across all batches and trainer GPUs.
    phases: PhaseTimes
    #: Modeled wall-clock of the epoch (accounts for data parallelism and
    #: any pipeline overlap the framework implements).
    epoch_time: float
    transfer: TransferReport
    compute: ComputeReport
    idmap_report: object = None
    losses: list = field(default_factory=list)
    #: Device-memory accounting of the largest iteration (bytes).
    memory_peak_bytes: int = 0
    memory_detail: dict = field(default_factory=dict)
    #: Trainer GPUs the epoch ran on (every node's, on cluster runs).
    num_trainers: int = 1
    #: Per trainer lane, the ``(sample, memory_io, compute)`` seconds of
    #: each batch in execution order, across epochs; lanes are listed up
    #: to the last one that ran a batch.
    iterations: list = field(default_factory=list)
    #: The modeled timeline as :func:`~repro.pipeline.epoch.make_span`
    #: dicts (see :meth:`timeline` for typed spans).
    spans: list = field(default_factory=list)
    #: Stage-graph accounting of pipelined runs
    #: (:func:`repro.pipeline.epoch.merge_pipeline_info`).
    pipeline: dict | None = None
    #: :meth:`repro.cluster.engine.ClusterState.summary` of cluster runs.
    cluster: dict | None = None
    #: The trained parameters of ``train_model`` runs, so conformance
    #: tests can assert bit-identical model state across configurations.
    final_params: list | None = None

    @property
    def avg_loss(self) -> float:
        if not self.losses:
            return float("nan")
        return float(np.mean(self.losses))

    @property
    def extras(self) -> dict:
        """Read-only dict view of :attr:`spans` (as ``timeline``),
        :attr:`cluster` and :attr:`final_params`, under the key names the
        end-to-end benchmark harness still reads. Everything else reads
        the fields."""
        view = {"timeline": self.spans}
        if self.cluster is not None:
            view["cluster"] = self.cluster
        if self.final_params is not None:
            view["final_params"] = self.final_params
        return view

    def timeline(self) -> list:
        """The modeled epoch timeline as :class:`repro.obs.trace.Span`
        objects (one per phase interval per lane), built from
        :attr:`spans`.

        The layout is exactly what the framework's epoch-time model
        computed — including allreduce and pipeline overlap — so
        ``max(span.end for span in report.timeline())`` equals
        :attr:`epoch_time`.
        """
        from repro.obs.trace import Span

        return [
            Span(
                name=entry["name"],
                start=entry["start"],
                duration=entry["dur"],
                lane=entry["lane"],
                category=entry["cat"],
                depth=entry.get("depth", 0),
                args={key: value for key, value in entry.items()
                      if key not in ("name", "start", "dur", "lane", "cat",
                                     "depth")},
            )
            for entry in self.spans
        ]

    def cache_stats(self) -> CacheStats:
        """Typed feature-residency counters of the memory-IO phase."""
        return CacheStats(
            wanted=self.transfer.num_wanted,
            loaded=self.transfer.num_loaded,
            reused=self.transfer.num_reused,
            hits=self.transfer.num_cache_hits,
        )

    def summary(self) -> str:
        """One human-readable paragraph about this epoch."""
        from repro.utils.format import format_bytes, format_seconds

        fractions = self.phases.fractions()
        return (
            f"{self.framework} on {self.dataset}/{self.model}: "
            f"{self.num_batches} batches in "
            f"{format_seconds(self.epoch_time)} modeled "
            f"(sample {fractions['sample']:.0%}, "
            f"memory IO {fractions['memory_io']:.0%}, "
            f"compute {fractions['compute']:.0%}); "
            f"{format_bytes(self.transfer.feature_bytes)} features over "
            f"PCIe, {self.transfer.num_reused} rows reused, "
            f"{self.transfer.num_cache_hits} cache hits"
        )


@dataclass(frozen=True)
class CostContext:
    """The modeled-cost pieces a run prices every batch with.

    Built once per run by :meth:`Framework.cost_context`. ``param_bytes``
    comes from the model profile, so gradient sync and the workspace
    model price the same bytes whether or not a real model trains.
    """

    cost: CostModelConfig
    link: PCIeLink
    cost_model: ComputeCostModel
    profile: ModelProfile
    param_bytes: int


@dataclass
class BatchCost:
    """One priced mini-batch: modeled seconds and the reports behind them.

    The one per-batch record of an epoch: the lane step prices it, the
    driver adds the halo exchange and accounts it, and every epoch
    layout reads lanes of it (``list[list[BatchCost]]``, one list per
    trainer lane in execution order).
    """

    #: Draw + ID-map seconds (the whole sample phase).
    sample: float
    #: ID-map share of ``sample``.
    idmap: float
    memory_io: float
    transfer: TransferReport
    compute: ComputeReport
    #: Halo-exchange seconds: set by the epoch driver after the exchange
    #: on cluster runs, 0.0 elsewhere.
    network: float = 0.0


def _chunk(batches: list, num_chunks: int) -> list:
    """Split ``batches`` into ``num_chunks`` contiguous chunks (sizes differ
    by at most one)."""
    sizes = [len(batches) // num_chunks] * num_chunks
    for i in range(len(batches) % num_chunks):
        sizes[i] += 1
    out = []
    start = 0
    for size in sizes:
        out.append(batches[start:start + size])
        start += size
    return out


#: Phase order of one iteration's spans within a timeline lane. The
#: ``network`` slot (halo feature exchange) sits between memory IO and
#: compute — remote rows must land before the forward pass — and is only
#: populated by cluster runs.
PHASE_SPAN_ORDER = ("sample", "memory_io", "network", "compute")


def carve_lane(spans: list, lane: int, r: int, start: float,
               phases) -> float:
    """Lay round ``r``'s ``(phase, seconds)`` pairs end to end on lane
    ``gpu{lane}`` from ``start``, skipping zero durations; returns where
    the lane's work ends."""
    cursor = start
    for phase, duration in phases:
        if duration > 0:
            spans.append(make_span(f"gpu{lane}", phase, phase, cursor,
                                   duration, r))
            cursor += duration
    return cursor


def barrier_spans(spans: list, lanes: int, r: int, start: float,
                  sync: float, net_sync: float) -> None:
    """Round ``r``'s gradient sync on every trainer lane: the intra-node
    allreduce from ``start``, then the inter-node hop after it."""
    if sync > 0:
        for lane in range(lanes):
            spans.append(make_span(f"gpu{lane}", "allreduce", "allreduce",
                                   start, sync, r))
    if net_sync > 0:
        for lane in range(lanes):
            spans.append(make_span(f"gpu{lane}", "allreduce_net", "network",
                                   start + sync, net_sync, r))


def _inject_retry_spans(spans: list, lanes: list) -> None:
    """Overlay ``cat="retry"`` child spans on the memory-IO intervals
    whose loads were retried.

    The retry backoff is already *inside* the memory-IO duration (the
    transfer report folds it into ``modeled_time``), so the retry span is
    drawn nested at the tail of its parent interval and never extends the
    timeline — reconciliation between the trace extent and the modeled
    epoch time is preserved for every layout. Per-trainer lanes
    (``gpuN``) use that lane's retry seconds; aggregated stage lanes
    (e.g. the out-of-core ``nvme`` lane, whose duration is the max across
    lanes) use the max retry seconds of the round.
    """
    if not any(batch.transfer.retry_delay_s > 0 for lane in lanes
               for batch in lane):
        return

    def round_retries(lane_name: str, r: int):
        if lane_name.startswith("gpu"):
            try:
                lane_index = int(lane_name[3:])
            except ValueError:
                return 0, 0.0
            lane = lanes[lane_index] if lane_index < len(lanes) else []
            if r >= len(lane):
                return 0, 0.0
            transfer = lane[r].transfer
            return transfer.num_retries, transfer.retry_delay_s
        count, delay = 0, 0.0
        for lane in lanes:
            if r < len(lane):
                count += lane[r].transfer.num_retries
                delay = max(delay, lane[r].transfer.retry_delay_s)
        return count, delay

    overlays = []
    for span in spans:
        if span["cat"] != "memory_io":
            continue
        count, delay = round_retries(span["lane"], span.get("batch", -1))
        if count <= 0 or delay <= 0:
            continue
        duration = min(delay, span["dur"])
        overlays.append(make_span(
            span["lane"], "retry", "retry",
            span["start"] + span["dur"] - duration, duration,
            span.get("batch", 0), retries=count, depth=1,
        ))
    spans.extend(overlays)


def _consecutive_match(matrix, order) -> float:
    """Summed match degree of consecutive pairs under ``order``."""
    order = list(order)
    return float(sum(matrix[a][b] for a, b in zip(order, order[1:])))


@dataclass
class _EpochRun:
    """What the steps of one :meth:`Framework.run_epoch` call share: the
    run's fixed inputs, built once by ``_start_run``, and the report the
    steps fill in."""

    dataset: Dataset
    config: RunConfig
    costs: CostContext
    rngs: RngFactory
    plan: MinibatchPlan
    sampler: Sampler
    loaders: list
    #: Trainers sharing one node's host link (all of them off-cluster).
    per_node_trainers: int
    #: :class:`~repro.cluster.engine.ClusterState`, or None.
    cluster: object
    model: object
    optimizer: object
    pipeline: PipelineSpec
    #: Seconds of one sync round's intra-node allreduce and of its
    #: inter-node hop (0.0 off-cluster).
    sync: float
    net_sync: float
    obs_phase: dict
    obs_batches: object
    report: EpochReport
    #: Per-epoch stage-graph accounting of pipelined runs.
    pipeline_infos: list = field(default_factory=list)


class Framework:
    """Base framework; subclasses override the strategy hooks."""

    name = "base"
    #: "gpu" or "cpu" — where neighbor draws run.
    sample_device = "gpu"
    #: Compute-cost mode: "naive", "memory_aware" or "advisor".
    compute_mode = "naive"
    #: FastGL prefetches the next subgraph's topology under compute.
    prefetch_topology = False
    #: FastGL reorders each window of sampled mini-batches (Algorithm 1).
    use_reorder = False
    #: Naive kernels materialize per-edge messages (memory accounting);
    #: the fused Memory-Aware kernel does not.
    materialize_edge_messages = True

    def __init__(self, spec: GPUSpec = RTX3090) -> None:
        self.spec = spec

    # -- strategy hooks ------------------------------------------------------
    def make_idmap(self):
        return BaselineIdMap()

    def make_sampler(self, dataset: Dataset, config: RunConfig,
                     rng) -> Sampler:
        return NeighborSampler(
            dataset.graph,
            config.fanouts,
            idmap=self.make_idmap(),
            device=self.sample_device,
            rng=rng,
        )

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        return NaiveLoader(dataset.features)

    def num_sampler_gpus(self, config: RunConfig) -> int:
        """GPUs dedicated to sampling (0: trainers sample for themselves)."""
        return 0

    def num_trainer_gpus(self, config: RunConfig) -> int:
        trainers = config.num_gpus - self.num_sampler_gpus(config)
        if trainers < 1:
            raise ValueError(
                f"{self.name} needs more than {config.num_gpus} GPU(s)"
            )
        return trainers

    # -- the epoch driver -----------------------------------------------------
    def run_epoch(
        self,
        dataset: Dataset,
        config: RunConfig,
        model_name: str = "gcn",
        sampler: Sampler | None = None,
        execution: ExecutionSpec | None = None,
    ) -> EpochReport:
        """Execute one epoch and return its full report.

        ``execution`` (an :class:`~repro.pipeline.ExecutionSpec`)
        bundles every execution-environment knob:

        * ``cluster`` (a :class:`~repro.cluster.spec.ClusterSpec`)
          scales the run across simulated machines: ``config.num_gpus``
          describes *one* node, global trainer lanes multiply by
          ``num_nodes``, each batch pays a halo feature exchange for
          remote input rows, and the gradient sync becomes hierarchical
          (intra-node NCCL + an inter-node fabric allreduce in the
          ``network`` phase). A one-node cluster is bit-identical to
          ``cluster=None``.
        * ``faults`` (a :class:`~repro.faults.FaultPlan`) is installed
          for the span of the run, replacing a hand-written
          ``fault_scope`` around the call.
        * ``pipeline`` selects the epoch scheduler: ``"off"`` keeps
          this framework's classic layout bit-for-bit; ``"pipelined"``
          drives the epoch through the bounded stage graph
          (:mod:`repro.pipeline`) so sample/transfer/halo/train
          overlap across rounds. Model state (losses, parameters) is
          identical in both modes — the pipeline only reschedules
          modeled time.
        """
        if execution is None:
            execution = ExecutionSpec()
        with ExitStack() as stack:
            if execution.faults is not None:
                from repro.faults import fault_scope

                stack.enter_context(fault_scope(execution.faults))
            return self._run_epoch(dataset, config, model_name, sampler,
                                   execution)

    def _run_epoch(
        self,
        dataset: Dataset,
        config: RunConfig,
        model_name: str,
        sampler: Sampler | None,
        execution: ExecutionSpec,
    ) -> EpochReport:
        run = self._start_run(dataset, config, model_name, sampler,
                              execution)
        for epoch in range(config.num_epochs):
            chunks, subgraphs = self._sample_lanes(run, epoch)
            lanes = self._price_lanes(run, subgraphs)
            # Lane-major, execution order within a lane: the order every
            # accumulation, the halo caches and training run in.
            for t, lane in enumerate(lanes):
                for position, batch in lane:
                    self._account_batch(run, t, batch,
                                        subgraphs[t][position],
                                        chunks[t][position])
            self._lay_out_epoch(run, [[batch for _, batch in lane]
                                      for lane in lanes])
        report = run.report
        if report.transfer is None:
            report.transfer = TransferReport()
        if run.pipeline_infos:
            report.pipeline = merge_pipeline_info(run.pipeline_infos)
        if run.cluster is not None:
            report.cluster = run.cluster.summary()
        if run.model is not None:
            report.final_params = [param.data.copy()
                                   for param in run.model.parameters()]
        return report

    def _start_run(self, dataset: Dataset, config: RunConfig,
                   model_name: str, sampler: Sampler | None,
                   execution: ExecutionSpec) -> _EpochRun:
        """Build what every epoch of a run shares, and its empty report."""
        rngs = RngFactory(config.seed)
        costs = self.cost_context(dataset, config, model_name)
        per_node_trainers = self.num_trainer_gpus(config)
        cluster = None
        if execution.cluster is not None and execution.cluster.num_nodes >= 1:
            from repro.cluster.engine import ClusterState

            cluster = ClusterState(dataset, config, execution.cluster,
                                   per_node_trainers)
        trainers = per_node_trainers * (
            cluster.num_nodes if cluster is not None else 1)
        if sampler is None:
            sampler = self.make_sampler(dataset, config,
                                        rngs.child("sampler"))
        loaders = [
            self.make_loader(dataset, config, sampler,
                             rngs.child(f"loader{t}"))
            for t in range(trainers)
        ]
        model = optimizer = None
        if config.train_model:
            model = build_model(
                model_name, dataset.feature_dim, dataset.num_classes,
                hidden_dim=config.hidden_dim, num_layers=config.num_layers,
                seed=rngs.child_seed("model"),
            )
            optimizer = Adam(model.parameters(), lr=3e-3)
        # Observability handles, fetched once per run. With the registry
        # disabled these are the shared no-op singletons, so the
        # per-batch path performs only no-op method calls.
        registry = get_registry()
        phase_hist = registry.histogram(
            "repro_phase_seconds",
            "Modeled per-batch seconds spent in each training phase",
        )
        return _EpochRun(
            dataset=dataset,
            config=config,
            costs=costs,
            rngs=rngs,
            plan=MinibatchPlan(dataset.train_ids, config.batch_size,
                               locality=config.batch_locality),
            sampler=sampler,
            loaders=loaders,
            per_node_trainers=per_node_trainers,
            cluster=cluster,
            model=model,
            optimizer=optimizer,
            pipeline=execution.pipeline,
            # One sync round: the NCCL allreduce across a node's trainers
            # (0.0 at one GPU), then on cluster runs the inter-node hop.
            sync=allreduce_time(costs.param_bytes, per_node_trainers,
                                config.cost),
            net_sync=(cluster.net_sync_time(costs.param_bytes)
                      if cluster is not None else 0.0),
            obs_phase={
                phase: phase_hist.labels(framework=self.name, phase=phase)
                for phase in ("sample", "idmap", "memory_io", "network",
                              "compute", "allreduce")
            },
            obs_batches=registry.counter(
                "repro_batches_total", "Mini-batches processed",
            ).labels(framework=self.name),
            report=EpochReport(
                framework=self.name, dataset=dataset.name, model=model_name,
                num_batches=0, phases=PhaseTimes(), epoch_time=0.0,
                transfer=None, compute=ComputeReport(),
                num_trainers=trainers,
            ),
        )

    def _sample_lanes(self, run: _EpochRun, epoch: int) -> tuple:
        """Place one epoch's mini-batches on the trainer lanes and sample
        them; returns ``(chunks, subgraphs)``, one list per lane.

        One shared sampler draws every lane's batches, lane-major: its
        RNG's draw order is part of the results.
        """
        batches = run.plan.batches(run.rngs.child(f"epoch-shuffle:{epoch}"))
        if run.cluster is not None:
            # Owner-compute placement: each node trains the seeds its
            # partition owns (identical to _chunk at one node).
            chunks = run.cluster.place_batches(batches,
                                               run.config.batch_size)
        else:
            chunks = _chunk(batches, run.report.num_trainers)
        run.report.num_batches += sum(len(chunk) for chunk in chunks)
        subgraphs = [[run.sampler.sample(seeds) for seeds in chunk]
                     for chunk in chunks]
        return chunks, subgraphs

    def _price_lanes(self, run: _EpochRun, subgraphs: list) -> list:
        """Run every lane's :meth:`run_lane`, in lane order; returns each
        lane's ``(position, BatchCost)`` pairs in execution order."""
        # The epoch's pcie_stall keys, reserved lane-major, one per batch:
        # a batch's key depends only on its lane and position, and the
        # out-of-core loaders' storage_slow draw reuses it.
        sizes = [len(lane) for lane in subgraphs]
        first = get_fault_plan().reserve_keys("pcie_stall", sum(sizes))
        firsts = accumulate(sizes[:-1], initial=first)
        # PCIe contention is per node: only the trainers sharing one host
        # link compete (== all trainers without a cluster).
        return [
            self.run_lane(lane, run.sampler, loader, run.config, run.costs,
                          run.per_node_trainers, first_key=first_key)
            for lane, loader, first_key in zip(subgraphs, run.loaders,
                                               firsts)
        ]

    def _account_batch(self, run: _EpochRun, t: int, batch: BatchCost,
                       subgraph: SampledSubgraph, seeds: np.ndarray) -> None:
        """Fold lane ``t``'s next record into the report: its halo
        exchange, the phase sums and report merges, the metrics, one
        training step and the workspace peak."""
        report, phases, obs = run.report, run.report.phases, run.obs_phase
        if run.cluster is not None:
            # Halo exchange runs lane-major, after pricing: the per-node
            # remote caches evolve in one deterministic order.
            batch.network = run.cluster.batch_network_time(t, subgraph)
        comp = batch.compute
        phases.sample += batch.sample
        phases.idmap += batch.idmap
        phases.memory_io += batch.memory_io
        phases.network += batch.network
        phases.compute += comp.total_time
        phases.preprocess += comp.preprocess_time
        obs["sample"].observe(batch.sample)
        obs["idmap"].observe(batch.idmap)
        obs["memory_io"].observe(batch.memory_io)
        if batch.network > 0:
            obs["network"].observe(batch.network)
        obs["compute"].observe(comp.total_time)
        run.obs_batches.inc()
        if report.transfer is None:
            # Typed like the loader's reports, so storage-backed loaders
            # keep their SSD counters through the merge.
            report.transfer = type(batch.transfer)()
        report.transfer.merge(batch.transfer)
        report.compute.merge(comp)
        report.idmap_report = (
            subgraph.idmap_report if report.idmap_report is None
            else report.idmap_report + subgraph.idmap_report
        )
        while len(report.iterations) <= t:
            report.iterations.append([])
        report.iterations[t].append(
            (batch.sample, batch.memory_io, comp.total_time))
        if run.model is not None:
            report.losses.append(self.train_batch(
                run.model, run.optimizer, run.dataset, subgraph, seeds))
        usage = self._workspace_bytes(subgraph, run.dataset, run.config,
                                      run.costs)
        if usage["total"] > report.memory_peak_bytes:
            report.memory_peak_bytes = usage["total"]
            report.memory_detail = usage

    def _lay_out_epoch(self, run: _EpochRun, lanes: list) -> None:
        """Lay one epoch's lanes out on the timeline, after the epochs
        before it, and charge its sync rounds to the phases."""
        report = run.report
        if run.pipeline.enabled:
            seconds, spans, info = self._pipelined_timeline(
                lanes, run.sync, run.net_sync, run.config,
                pipeline=run.pipeline,
            )
            info["epoch_seconds"] = seconds
            run.pipeline_infos.append(info)
            # Bounded-staleness accumulation syncs fewer than once per
            # round; the other layouts sync every round.
            syncs = info["num_syncs"]
        else:
            seconds, spans = self._epoch_timeline(lanes, run.sync,
                                                  run.net_sync, run.config)
            syncs = max(len(lane) for lane in lanes)
        _inject_retry_spans(spans, lanes)
        for span in spans:
            span["start"] += report.epoch_time
        report.spans.extend(spans)
        report.epoch_time += seconds
        # Hierarchical sync: the intra-node NCCL share is ``allreduce``;
        # the inter-node hop is network-phase time.
        allreduce = syncs * run.sync
        report.phases.allreduce += allreduce
        if allreduce > 0:
            run.obs_phase["allreduce"].observe(allreduce)
        if run.net_sync > 0:
            net_sync = syncs * run.net_sync
            report.phases.network += net_sync
            run.obs_phase["network"].observe(net_sync)

    # -- one batch: pricing and training ---------------------------------------
    def cost_context(self, dataset: Dataset, config: RunConfig,
                     model_name: str) -> CostContext:
        """The host link, compute cost model and model profile a run
        prices its batches with (built once per run)."""
        profile = model_profile(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=config.hidden_dim, num_layers=config.num_layers,
        )
        return CostContext(
            cost=config.cost,
            link=link_from_cost(self.spec, config.cost),
            cost_model=ComputeCostModel(self.spec, config.cost,
                                        self.compute_mode),
            profile=profile,
            param_bytes=_profile_param_bytes(profile),
        )

    def price_batch(self, subgraph: SampledSubgraph, sampler: Sampler,
                    loader: FeatureLoader, costs: CostContext,
                    trainers: int, fault_key: int | None = None
                    ) -> BatchCost:
        """Modeled cost of one sampled mini-batch — the paper's Fig. 5
        iteration: sample + ID map, the loader's transfer plan, the
        compute report, and the memory IO left after topology prefetch.

        ``loader.plan`` advances the loader's residency state, so
        consecutive calls price consecutive batches on one device;
        ``trainers`` GPUs share the host link. ``fault_key`` is the
        transfer's ``pcie_stall`` key (default: the next in sequence).
        """
        cost = costs.cost
        idmap_t = subgraph.idmap_report.modeled_time(cost)
        sample_t = sampler.modeled_sample_time(subgraph, cost) + idmap_t
        transfer = loader.plan(subgraph, key=fault_key)
        comp = costs.cost_model.subgraph_report(subgraph, costs.profile)
        io_t = self._io_time(transfer, comp, costs.link, cost, trainers)
        return BatchCost(sample=sample_t, idmap=idmap_t, memory_io=io_t,
                         transfer=transfer, compute=comp)

    def run_lane(self, subgraphs: list, sampler: Sampler,
                 loader: FeatureLoader, config: RunConfig,
                 costs: CostContext, trainers: int,
                 first_key: int | None = None) -> list:
        """One trainer lane's post-sampling work: reorder each window,
        then price the batches in execution order.

        Returns ``(position, BatchCost)`` pairs in execution order, and
        leaves the caller's accumulators alone: ``run_epoch`` folds the
        records in afterwards. Metric side effects (loader counters,
        reorder histograms) go to the current registry. With
        ``first_key``, the ``i``-th priced batch gets ``pcie_stall``
        key ``first_key + i``; without it, the next keys in sequence.
        """
        loader.reset_epoch()
        order = list(range(len(subgraphs)))
        if self.use_reorder and len(subgraphs) > 2:
            order = self._reorder_windows(subgraphs, config)
        return [
            (position, self.price_batch(
                subgraphs[position], sampler, loader, costs, trainers,
                fault_key=None if first_key is None else first_key + i))
            for i, position in enumerate(order)
        ]

    @staticmethod
    def train_batch(model, optimizer, dataset: Dataset,
                    subgraph: SampledSubgraph, seeds: np.ndarray) -> float:
        """One optimizer step of ``model`` on a sampled mini-batch;
        returns the loss."""
        features = Tensor(dataset.features.gather(subgraph.input_nodes))
        loss = cross_entropy(model(subgraph, features),
                             dataset.labels[seeds])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    # -- helpers ---------------------------------------------------------------
    def _reorder_windows(self, subgraphs: list, config: RunConfig) -> list:
        """Greedy-reorder each window of ``reorder_window`` mini-batches."""
        order: list = []
        window = config.reorder_window
        registry = get_registry()
        obs_match = registry.histogram(
            "repro_reorder_match_degree",
            "Summed consecutive match degree per reorder window, before "
            "(order=arrival) and after (order=reordered) Greedy Reorder",
            buckets=(0.25, 0.5, 1, 2, 4, 8, 16, 32),
        )
        for start in range(0, len(subgraphs), window):
            group = list(range(start, min(start + window, len(subgraphs))))
            if len(group) > 2:
                matrix = match_degree_matrix(
                    [subgraphs[i].unique_input_nodes() for i in group],
                    assume_unique=True,
                )
                chosen = greedy_reorder(matrix)
                if registry.enabled:
                    arrival = range(len(group))
                    obs_match.labels(
                        framework=self.name, order="arrival",
                    ).observe(_consecutive_match(matrix, arrival))
                    obs_match.labels(
                        framework=self.name, order="reordered",
                    ).observe(_consecutive_match(matrix, chosen))
                group = [group[i] for i in chosen]
            order.extend(group)
        return order

    def _io_time(self, report: TransferReport, comp: ComputeReport,
                 link, cost, trainers: int) -> float:
        io_t = report.modeled_time(link, cost, concurrent_links=trainers)
        if self.prefetch_topology and report.total_bytes > 0:
            # Topology of the next batch moves under this batch's compute;
            # only the un-overlapped remainder counts.
            bw = link.effective_bandwidth(trainers)
            structure_t = report.structure_bytes / bw
            io_t -= min(structure_t, comp.total_time)
        return max(0.0, io_t)

    def _pipeline_stage_times(self, lanes: list, config: RunConfig) -> tuple:
        """Per-round stage seconds the pipelined layout schedules.

        Returns ``(samples, ios, nets, computes)``, each one value per
        lockstep round: the phase reduced across trainer lanes by max,
        because the stage (sampler stream / DMA engine / NIC / training
        stream) only releases the round once its slowest lane finishes.
        Frameworks with a dedicated sampling tier (GNNLab) override this
        to factor their sampler-GPU throughput into the sample stage.
        """
        rounds = max(len(lane) for lane in lanes)
        samples = [0.0] * rounds
        ios = [0.0] * rounds
        nets = [0.0] * rounds
        computes = [0.0] * rounds
        for lane in lanes:
            for r, batch in enumerate(lane):
                samples[r] = max(samples[r], batch.sample)
                ios[r] = max(ios[r], batch.memory_io)
                computes[r] = max(computes[r], batch.compute.total_time)
                nets[r] = max(nets[r], batch.network)
        return samples, ios, nets, computes

    def _pipelined_timeline(self, lanes: list, sync: float, net_sync: float,
                            config: RunConfig, *,
                            pipeline: PipelineSpec) -> tuple:
        """Asynchronous layout: the epoch's rounds flow through the
        bounded stage graph so round ``i+2`` samples while ``i+1``
        transfers and ``i`` trains. Returns ``(epoch_seconds, spans,
        info)``; model state is untouched — only modeled time moves.
        """
        samples, ios, nets, computes = self._pipeline_stage_times(lanes,
                                                                  config)
        return pipelined_epoch_layout(
            samples, ios, nets, computes,
            sync=sync, net_sync=net_sync, pipeline=pipeline,
            label=self.name or "epoch",
        )

    def _epoch_timeline(self, lanes: list, sync: float, net_sync: float,
                        config: RunConfig) -> tuple:
        """Lockstep data-parallel layout: each round runs one batch per
        trainer lane; gradient sync joins the round as a collective all
        lanes attend (``sync`` seconds of intra-node allreduce, then
        ``net_sync`` of inter-node hop on cluster runs).

        Every layout takes the epoch's lanes of :class:`BatchCost` and
        the two per-round sync seconds, and returns ``(epoch_seconds,
        spans)`` where each span is a :func:`make_span` dict; here every
        lane's final span ends exactly at ``epoch_seconds``, so the
        exported trace reconciles with the modeled epoch time.
        """
        rounds = max(len(lane) for lane in lanes)
        spans: list = []
        total = 0.0
        for r in range(rounds):
            round_time = 0.0
            for t, lane in enumerate(lanes):
                if r >= len(lane):
                    continue
                batch = lane[r]
                cursor = carve_lane(spans, t, r, total, zip(
                    PHASE_SPAN_ORDER,
                    (batch.sample, batch.memory_io, batch.network,
                     batch.compute.total_time)))
                round_time = max(round_time, cursor - total)
            barrier_spans(spans, len(lanes), r, total + round_time, sync,
                          net_sync)
            total += round_time + sync + net_sync
        return total, spans

    def _workspace_bytes(self, subgraph: SampledSubgraph, dataset: Dataset,
                         config: RunConfig, costs: CostContext) -> dict:
        """Device-memory accounting for one iteration (Table 1/9 model)."""
        cost = config.cost
        profile = costs.profile
        param_bytes = costs.param_bytes
        store = dataset.features
        feature_buf = subgraph.num_nodes * store.bytes_per_node
        structure = subgraph.structure_bytes()
        activations = 0
        edge_messages = 0
        for (d_in, d_out), block in zip(profile.layer_dims,
                                        reversed(subgraph.layers)):
            rows = block.num_src if profile.gemm_on_src else block.num_dst
            activations += rows * d_out * 4 * 2  # forward + gradient
            agg_dim = d_out if profile.gemm_on_src else d_in
            if self.materialize_edge_messages:
                edge_messages += block.num_edges * agg_dim * 4
        workspace = feature_buf + structure + activations + edge_messages
        total = int(
            cost.runtime_overhead_bytes
            + param_bytes * 3  # params + Adam moments
            + workspace * cost.allocator_slack
            + self._extra_device_bytes(dataset, config)
        )
        return {
            "total": total,
            "features": feature_buf,
            "structure": structure,
            "activations": activations,
            "edge_messages": edge_messages,
            "params_opt": param_bytes * 3,
            "runtime": cost.runtime_overhead_bytes,
            "cache": self._extra_device_bytes(dataset, config),
        }

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        """Additional pinned device memory (feature caches)."""
        return 0


def _profile_param_bytes(profile) -> int:
    """Parameter bytes implied by a model profile (when no real model is
    instantiated): weights + biases per GEMM."""
    total = 0
    for d_in, d_out in profile.layer_dims:
        per_gemm = d_in * d_out + d_out
        total += per_gemm * profile.gemms_per_layer
        if profile.attention_heads:
            total += 2 * profile.attention_heads * d_out
    return total * 4
