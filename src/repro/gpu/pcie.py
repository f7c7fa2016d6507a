"""Host <-> device link model (PCIe 4.0 x16, as in the paper).

The memory-IO phase the paper optimizes is, at bottom, ``bytes / 32 GB/s``
plus fixed per-transfer latency and the host-side gather of non-contiguous
feature rows into a staging buffer. When several GPUs pull simultaneously
the aggregate host memory bandwidth caps the per-link rate — this contention
is what makes IO-heavy baselines scale poorly with GPU count (Fig. 14a).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import COST_MODEL


@dataclass(frozen=True)
class PCIeLink:
    """One host->device link with optional multi-GPU contention."""

    bandwidth: float = 32e9
    latency_s: float = COST_MODEL.pcie_transfer_latency_s
    #: Aggregate host-side bandwidth shared by all concurrent links.
    host_aggregate: float = COST_MODEL.host_aggregate_bytes_per_s

    def effective_bandwidth(self, concurrent_links: int = 1) -> float:
        """Per-link bandwidth when ``concurrent_links`` GPUs transfer at once."""
        if concurrent_links < 1:
            raise ValueError("concurrent_links must be >= 1")
        return min(self.bandwidth, self.host_aggregate / concurrent_links)

    def transfer_time(self, num_bytes: float, concurrent_links: int = 1) -> float:
        """Seconds to move ``num_bytes`` host->device on one link."""
        if num_bytes <= 0:
            return 0.0
        return self.latency_s + num_bytes / self.effective_bandwidth(concurrent_links)


def link_from_cost(spec) -> PCIeLink:
    """The calibrated host link of GPU ``spec``."""
    return PCIeLink(bandwidth=spec.pcie_bw)
