"""Execution specs: the one bundle of knobs a run carries.

:class:`PipelineSpec` describes *how* an epoch's phases are scheduled —
phase-sequential per mini-batch (the classic driver) or overlapped
through the bounded stage-graph pipeline of :mod:`repro.pipeline.graph`
— and :class:`ExecutionSpec` bundles the execution-environment knobs of a
training epoch (cluster shape, epoch scheduling) into one
frozen, hashable value that :func:`repro.api.run` and
:meth:`repro.frameworks.base.Framework.run_epoch` accept uniformly.

Both are frozen dataclasses: safe as dict keys (the experiment runner
memoizes on them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.spec import ClusterSpec
from repro.config import is_integer
from repro.errors import ConfigError

#: Allowed pipeline modes.
PIPELINE_MODES = ("off", "pipelined")


@dataclass(frozen=True)
class PipelineSpec:
    """How an epoch's sample/transfer/compute phases are scheduled.

    ``mode="off"`` keeps the classic driver: each framework lays its
    epoch out exactly as before (lockstep phase-sequential rounds, or
    the intrinsic producer/consumer pipelines of GNNLab and the
    out-of-core tier) — bit-identical to runs that never mention a
    pipeline. ``mode="pipelined"`` drives the epoch through the full
    stage graph instead: batch ``i+2`` samples while ``i+1`` transfers
    (a double-buffered lane at the default ``queue_depth=2``) and ``i``
    trains, with cluster halo exchange overlapping compute as its own
    stage. An unknown ``mode``, or a ``queue_depth`` or ``staleness`` that
    is not an integer in range (a bool is not one), raises
    :class:`~repro.errors.ConfigError`.
    """

    #: ``"off"`` (phase-sequential, the default) or ``"pipelined"``.
    mode: str = "off"
    #: Bounded-buffer capacity of each stage-to-stage queue: how many
    #: batches one stage may run ahead of the next. 2 = double buffering.
    queue_depth: int = 2
    #: Rounds gradients may accumulate before a synchronizing allreduce
    #: (bounded staleness). 0 syncs every round; ``k`` syncs every
    #: ``k+1`` rounds (and always after the final round).
    staleness: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PIPELINE_MODES:
            raise ConfigError(
                f"pipeline mode must be one of {PIPELINE_MODES}, "
                f"got {self.mode!r}"
            )
        for name, low in (("queue_depth", 1), ("staleness", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise ConfigError(
                    f"{name} must be an integer >= {low}, got {value!r}")

    @property
    def enabled(self) -> bool:
        """True when the overlapped stage-graph driver is selected."""
        return self.mode == "pipelined"


#: The default: classic phase-sequential scheduling.
PIPELINE_OFF = PipelineSpec()


@dataclass(frozen=True)
class ExecutionSpec:
    """Everything about *where and how* an epoch executes, in one value.

    The model/dataset knobs stay in :class:`~repro.config.RunConfig`;
    this spec is orthogonal to them — the same config can run
    sequentially on one node or pipelined across a simulated cluster by
    swapping only the ``ExecutionSpec``. Every trainer lane is priced in
    the calling process. A field of the wrong type raises
    :class:`~repro.errors.ConfigError` at construction. Fault plans are
    not part of it: :func:`~repro.faults.fault_scope` installs one.
    """

    #: Optional :class:`~repro.cluster.spec.ClusterSpec` scaling the run
    #: across simulated machines (``RunConfig`` then describes one node).
    cluster: ClusterSpec | None = None
    #: Epoch scheduling (see :class:`PipelineSpec`). A bare mode string
    #: (``"off"`` / ``"pipelined"``) is promoted to a spec.
    pipeline: PipelineSpec = field(default=PIPELINE_OFF)

    def __post_init__(self) -> None:
        if isinstance(self.pipeline, str):
            object.__setattr__(self, "pipeline",
                               PipelineSpec(mode=self.pipeline))
        elif not isinstance(self.pipeline, PipelineSpec):
            raise ConfigError(
                "pipeline must be a PipelineSpec or a mode string, got "
                f"{type(self.pipeline).__name__}"
            )
        if not isinstance(self.cluster, (ClusterSpec, type(None))):
            raise ConfigError(
                "cluster must be a ClusterSpec or None, got "
                f"{type(self.cluster).__name__}"
            )


#: The default execution: single node, pipeline off.
DEFAULT_EXECUTION = ExecutionSpec()
