"""Multi-GPU data-parallel model.

The paper trains data-parallel on up to 8 GPUs in one machine, with NCCL
gradient all-reduce (Section 5). Two effects shape Fig. 14a:

* ring all-reduce moves ``2*(M-1)/M`` times the gradient bytes per GPU, and
* all GPUs pull features over PCIe from the *same* host memory, so per-GPU
  transfer bandwidth degrades with GPU count (see
  :meth:`repro.gpu.pcie.PCIeLink.effective_bandwidth`).

IO-heavy baselines (DGL) are hurt by the second effect much more than
FastGL, whose Match strategy moves fewer bytes — reproducing the paper's
observation that FastGL's scaling (5.93x at 8 GPUs) beats DGL's (3.36x).
"""

from __future__ import annotations

from repro.config import COST_MODEL


def allreduce_time(grad_bytes: float, num_gpus: int) -> float:
    """Seconds for one ring all-reduce of ``grad_bytes`` across ``num_gpus``."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_gpus == 1 or grad_bytes <= 0:
        return 0.0
    moved = 2.0 * (num_gpus - 1) / num_gpus * grad_bytes
    return COST_MODEL.nccl_latency_s + moved / COST_MODEL.nccl_bus_bytes_per_s
