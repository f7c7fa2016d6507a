"""Pipelined epoch layout: rounds flowing through the stage graph.

Converts one epoch's per-round stage times (sample / memory IO / halo
exchange / train) into the overlapped timeline
:meth:`repro.frameworks.base.Framework.run_epoch` exports when
``PipelineSpec.mode == "pipelined"``: the rounds flow through
:func:`repro.pipeline.graph.stage_graph_makespan`, so round ``i+2``
samples while ``i+1`` transfers and ``i`` trains, halo exchange runs as
its own stage (overlapping the previous round's compute instead of
serializing before it), and the gradient allreduce joins the train
stage — every ``staleness + 1`` rounds when bounded-staleness
accumulation is on.

The returned spans reconcile exactly: the last executed interval ends
at the returned makespan, and the per-stage stall spans (the new
``stalls`` timeline lane) never extend past it.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs import get_registry
from repro.pipeline.graph import stage_graph_makespan
from repro.pipeline.spec import PipelineSpec

#: Stage name -> timeline lane of the pipelined layout.
STAGE_LANES = {
    "sample": "sampler",
    "memory_io": "io",
    "network": "network",
    "train": "trainers",
}

#: Histogram buckets of the in-flight counts the layouts observe at
#: each admission to the stage graph.
OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


def make_span(lane: str, label: str, cat: str, start: float, dur: float,
              batch: int, **extra) -> dict:
    """One modeled timeline span, named ``label[batch]``: the dict shape
    every epoch layout emits (``extra`` keys follow the standard ones)."""
    return {"lane": lane, "name": f"{label}[{batch}]", "cat": cat,
            "start": start, "dur": dur, "batch": batch, **extra}


def stall_counter(registry):
    """``repro_pipeline_stall_seconds_total``; each layout that emits it
    defines what a stall second is (see ``docs/observability.md``)."""
    return registry.counter(
        "repro_pipeline_stall_seconds_total",
        "Modeled seconds a pipeline stage spent waiting on the other",
    )


def sync_round_flags(rounds: int, staleness: int) -> list:
    """Which rounds end in a synchronizing allreduce.

    ``staleness = 0`` syncs every round (today's semantics); ``k`` lets
    gradients accumulate locally for up to ``k`` extra rounds, syncing
    every ``k + 1`` rounds — and always after the final round, so the
    epoch never ends with unsynchronized gradients.
    """
    if rounds <= 0:
        return []
    period = staleness + 1
    flags = [(r + 1) % period == 0 for r in range(rounds)]
    flags[-1] = True
    return flags


def pipelined_epoch_layout(
    samples: Sequence[float],
    ios: Sequence[float],
    nets: Sequence[float],
    computes: Sequence[float],
    *,
    sync: float,
    net_sync: float,
    pipeline: PipelineSpec,
    label: str = "epoch",
) -> tuple:
    """Lay one epoch's rounds out through the stage graph.

    ``samples``/``ios``/``nets``/``computes`` are per-round stage
    seconds (already reduced across trainer lanes by the framework's
    ``_pipeline_stage_times`` hook). Returns ``(epoch_seconds, spans,
    info)`` where ``spans`` is the timeline (work spans per stage lane
    plus ``cat="stall"`` spans in the ``stalls`` lane) and ``info`` is
    the accounting dict :func:`merge_pipeline_info` folds into the
    report's ``pipeline`` field: per-stage totals, stall seconds, the
    sync-round count, and the ``max(stage totals) + fill`` lower-bound
    estimate the overlap gate compares against.

    When observability is enabled, the summed stall seconds per stage go
    to ``repro_pipeline_stall_seconds_total`` and the items in flight at
    each admission to ``repro_pipeline_queue_occupancy``, both labeled
    ``pipeline=label``.
    """
    rounds = len(samples)
    flags = sync_round_flags(rounds, pipeline.staleness)
    sync_per_round = [(sync + net_sync) if flag else 0.0 for flag in flags]
    trains = [computes[r] + sync_per_round[r] for r in range(rounds)]

    # The halo stage only exists on cluster runs: a permanently zero-
    # length stage would silently add an extra buffer edge (more
    # run-ahead) without modeling anything.
    include_net = any(t > 0 for t in nets)
    names = ["sample", "memory_io"]
    stage_times = [list(samples), list(ios)]
    if include_net:
        names.append("network")
        stage_times.append(list(nets))
    names.append("train")
    stage_times.append(trains)

    registry = get_registry()
    occupancy = registry.histogram(
        "repro_pipeline_queue_occupancy",
        "Items in flight (admitted, not yet out of the last stage) at "
        "each admission to the stage graph",
        buckets=OCCUPANCY_BUCKETS,
    ).labels(pipeline=label)
    records: list = []
    stall_records: list = []
    makespan = stage_graph_makespan(
        stage_times,
        names=names,
        queue_depth=pipeline.queue_depth,
        record=records.append,
        stall_record=stall_records.append,
        admit=occupancy.observe,
    )

    spans: list = []
    for stage, batch, start, end in records:
        if stage != "train":
            if end > start:
                spans.append(make_span(STAGE_LANES[stage], stage, stage,
                                       start, end - start, batch))
            continue
        # The train interval carries compute then the round's gradient
        # sync (intra-node allreduce, then the inter-node hop), carved
        # out of the recorded stage interval so reconciliation holds.
        cursor = start
        comp = computes[batch]
        if comp > 0:
            spans.append(make_span("trainers", "compute", "compute", cursor,
                                   comp, batch))
            cursor += comp
        if flags[batch] and sync > 0:
            spans.append(make_span("trainers", "allreduce", "allreduce",
                                   cursor, sync, batch))
            cursor += sync
        if flags[batch] and net_sync > 0:
            spans.append(make_span("trainers", "allreduce_net", "network",
                                   cursor, net_sync, batch))
    stall_seconds = {name: 0.0 for name in names}
    for stage, batch, start, end in stall_records:
        stall_seconds[stage] += end - start
        spans.append(make_span("stalls", f"stall:{stage}", "stall", start,
                               end - start, batch, stage=stage))
    if registry.enabled:
        stalls = stall_counter(registry)
        for name, total in stall_seconds.items():
            if total > 0:
                stalls.labels(pipeline=label, stage=name).inc(total)

    totals = {name: float(sum(t)) for name, t in zip(names, stage_times)}
    bottleneck = max(totals, key=totals.get)
    fill = sum(stage_times[s][0] for s, name in enumerate(names)
               if name != bottleneck)
    info = {
        "mode": pipeline.mode,
        "queue_depth": pipeline.queue_depth,
        "staleness": pipeline.staleness,
        "stage_totals": totals,
        "stall_seconds": stall_seconds,
        "num_syncs": int(sum(flags)),
        "serial_seconds": float(sum(totals.values())),
        "fill_seconds": float(fill),
        "bound_seconds": float(totals[bottleneck] + fill),
    }
    return makespan, spans, info


def merge_pipeline_info(infos: list) -> dict:
    """Fold the per-epoch ``info`` dicts of :func:`pipelined_epoch_layout`
    (each with its ``epoch_seconds`` added) into the run summary the
    report carries as its ``pipeline`` field.

    Scalar seconds and sync counts sum across epochs; the per-stage
    total/stall maps merge key-wise (the halo stage may be absent on
    epochs with no remote rows). Mode knobs come from the spec and are
    identical across epochs.
    """
    merged = {
        "mode": infos[0]["mode"],
        "queue_depth": infos[0]["queue_depth"],
        "staleness": infos[0]["staleness"],
        "stage_totals": {},
        "stall_seconds": {},
        "num_syncs": 0,
        "serial_seconds": 0.0,
        "fill_seconds": 0.0,
        "bound_seconds": 0.0,
        "epoch_seconds": 0.0,
    }
    for info in infos:
        merged["num_syncs"] += info["num_syncs"]
        for key in ("serial_seconds", "fill_seconds", "bound_seconds",
                    "epoch_seconds"):
            merged[key] += info[key]
        for field, totals in (("stage_totals", info["stage_totals"]),
                              ("stall_seconds", info["stall_seconds"])):
            for name, value in totals.items():
                merged[field][name] = merged[field].get(name, 0.0) + value
    return merged
