"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ReproError):
    """An invalid graph structure or an out-of-range node/edge reference."""


class SamplingError(ReproError):
    """A sampler was configured or invoked incorrectly."""


class DeviceMemoryError(ReproError):
    """A simulated device allocation exceeded the device capacity."""

    def __init__(self, requested: int, available: int, what: str = "") -> None:
        self.requested = int(requested)
        self.available = int(available)
        self.what = what
        suffix = f" for {what}" if what else ""
        super().__init__(
            f"device allocation of {requested} bytes{suffix} exceeds "
            f"available {available} bytes"
        )


class ConfigError(ReproError):
    """An invalid experiment or model configuration."""


class FaultError(ReproError):
    """Base class for injected (or modeled) hardware/runtime faults."""


class StorageReadError(FaultError):
    """An NVMe page read failed (the drive returned an error or timed out).

    Models a media/controller read error; carries the failing page so the
    resilience layer can target its retry and the residency invalidation.
    """

    def __init__(self, page_id: int, attempts: int = 1) -> None:
        self.page_id = int(page_id)
        self.attempts = int(attempts)
        super().__init__(
            f"NVMe read of page {page_id} failed after {attempts} attempt(s)"
        )


class TransferStallError(FaultError):
    """A host->device feature transfer stalled past its retry budget.

    Models a PCIe link stall / DMA timeout; the device-side buffer state
    is unknown afterwards, so Match residency must be invalidated.
    """

    def __init__(self, what: str = "feature transfer",
                 attempts: int = 1) -> None:
        self.attempts = int(attempts)
        super().__init__(
            f"{what} stalled and was abandoned after {attempts} attempt(s)"
        )


class NetworkStallError(FaultError):
    """A node-to-node fabric transfer stalled past its retry budget.

    Models a NIC/link stall (flapping port, congested spine, RDMA
    timeout) during the halo feature exchange; the requesting node's
    receive buffers are incomplete, so the exchange must be re-issued.
    """

    def __init__(self, src: int, dst: int, attempts: int = 1) -> None:
        self.src = int(src)
        self.dst = int(dst)
        self.attempts = int(attempts)
        super().__init__(
            f"fabric transfer node{src}->node{dst} stalled and was "
            f"abandoned after {attempts} attempt(s)"
        )


class WorkerCrashError(FaultError):
    """A parallel worker process died more times than the crash budget.

    Models the loss of a GPU worker (OOM kill, XID error, node loss); the
    pool reassigns the chunk (one task) to a fresh worker up to
    :data:`repro.parallel.MAX_CRASHES` times before giving up with this
    error.
    """

    def __init__(self, chunk_index: int, crashes: int) -> None:
        self.chunk_index = int(chunk_index)
        self.crashes = int(crashes)
        super().__init__(
            f"parallel chunk {chunk_index} lost its worker {crashes} "
            f"time(s); crash budget exhausted"
        )


class ParallelTaskError(ReproError, RuntimeError):
    """A task raised inside :func:`repro.parallel.parallel_map`.

    Carries the task's index into the mapped items so a failing task can
    be re-run in isolation (``fn(items[task_index])``). Both the forked
    and the serial path raise this same type; the original exception is
    chained as ``__cause__`` (serial) or appended as the worker traceback
    (forked).
    """

    def __init__(self, task_index: int, cause: str,
                 worker_traceback: str | None = None) -> None:
        self.task_index = int(task_index)
        self.worker_traceback = worker_traceback
        message = f"parallel task {task_index} failed: {cause}"
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)
