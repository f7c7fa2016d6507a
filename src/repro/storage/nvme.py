"""NVMe SSD link model (PCIe 4.0 x4 data-center drive).

The out-of-core tier's analogue of :mod:`repro.gpu.pcie`: reads are issued
as page-granular commands, and completion time is governed by three
quantities — per-command latency, sequential read bandwidth, and the
*queue depth* the initiator sustains. Latency is amortized across the
commands in flight, which is exactly why GPU-initiated direct access
(GIDS, arXiv:2306.16384) wins: tens of thousands of GPU threads keep the
device queues far deeper than a host-side bounce-buffer reader can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import COST_MODEL


@dataclass(frozen=True)
class NVMeLink:
    """One NVMe drive seen over PCIe 4.0 x4; ``NVMeLink()`` is the
    calibrated drive (:data:`~repro.config.COST_MODEL`)."""

    #: Sequential read bandwidth (datasheet ~7 GB/s for a Gen4 drive).
    bandwidth: float = COST_MODEL.nvme_read_bytes_per_s
    #: Per-command completion latency (read, device + controller).
    latency_s: float = COST_MODEL.nvme_read_latency_s
    #: Device-side IOPS ceiling for small random reads.
    iops_limit: float = COST_MODEL.nvme_iops_limit

    def read_time(
        self,
        num_requests: int,
        num_bytes: float,
        queue_depth: int = 1,
        bandwidth_cap: float | None = None,
    ) -> float:
        """Seconds to complete ``num_requests`` read commands moving
        ``num_bytes`` total, with ``queue_depth`` commands kept in flight.

        Latency is paid once per *wave* of ``queue_depth`` commands; the
        payload streams at the link bandwidth (optionally capped by a
        downstream link, e.g. the GPU's PCIe slot for peer-to-peer reads)
        and the device's IOPS ceiling.
        """
        if num_requests <= 0 or num_bytes <= 0:
            return 0.0
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        bandwidth = self.bandwidth
        if bandwidth_cap is not None:
            bandwidth = min(bandwidth, bandwidth_cap)
        waves = math.ceil(num_requests / queue_depth)
        stream = max(num_bytes / bandwidth, num_requests / self.iops_limit)
        return waves * self.latency_s + stream
