"""The asynchronous pipelined epoch engine and its execution-spec API.

Three pieces:

* :class:`PipelineSpec` / :class:`ExecutionSpec` — the frozen spec
  values the redesigned front door (``api.run(..., exec=...)``,
  ``Framework.run_epoch(..., execution=...)``) carries instead of
  scattered keyword arguments.
* :func:`stage_graph_makespan` — the repo's one makespan engine, a
  bounded-queue dataflow graph on :mod:`repro.sim.events` (exclusive
  stages with backpressure and an optional in-flight window). GNNLab's
  and the out-of-core layouts run on it too.
* :func:`pipelined_epoch_layout` — one epoch's rounds laid out through
  that graph, returning a reconciling timeline with per-stage stall
  spans.

``python -m repro.experiments ext_pipe_overlap`` compares sequential and
pipelined epochs; ``python -m repro.gate pipeline`` gates a
deterministic overlap suite against
``benchmarks/results/pipeline_baseline.json``.
"""

from repro.pipeline.epoch import pipelined_epoch_layout, sync_round_flags
from repro.pipeline.graph import stage_graph_makespan, stage_graph_reference
from repro.pipeline.spec import (
    DEFAULT_EXECUTION,
    PIPELINE_OFF,
    ExecutionSpec,
    PipelineSpec,
)

__all__ = [
    "DEFAULT_EXECUTION",
    "PIPELINE_OFF",
    "ExecutionSpec",
    "PipelineSpec",
    "pipelined_epoch_layout",
    "stage_graph_makespan",
    "stage_graph_reference",
    "sync_round_flags",
]
