"""Multi-core execution engine (``--jobs N``).

See :mod:`repro.parallel.executor` for the determinism contract: job
count changes wall-clock only, never results or merged metrics
(transport byte counters excepted — they measure the transport itself;
see :func:`strip_transport_metrics`). The supervised pool also survives
worker loss: crashed workers (real or injected via the ``worker_crash``
fault site) are replaced and their tasks reassigned, bit-identically,
up to :data:`MAX_CRASHES` times per task.

Results come back pickled over one pipe per worker, and the pool counts
those bytes in ``repro_parallel_ipc_bytes_total``.
"""

from repro.errors import ParallelTaskError, WorkerCrashError
from repro.parallel.executor import (
    CRASH_EXIT_CODE,
    MAX_CRASHES,
    TRANSPORT_METRICS,
    fork_available,
    parallel_map,
    resolve_jobs,
    strip_transport_metrics,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "MAX_CRASHES",
    "ParallelTaskError",
    "TRANSPORT_METRICS",
    "WorkerCrashError",
    "fork_available",
    "parallel_map",
    "resolve_jobs",
    "strip_transport_metrics",
]
