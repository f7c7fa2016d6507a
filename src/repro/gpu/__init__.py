"""Simulated GPU substrate.

The paper's techniques are defined by *where bytes move* on a real GPU. This
subpackage models the relevant hardware: the memory hierarchy of an RTX 3090
(Table 3 of the paper), a set-associative cache simulator that reproduces the
paper's Table-2 hit-rate measurements, a thread-block/occupancy model for the
Memory-Aware kernel, the host<->device PCIe link, and a multi-GPU
data-parallel model.
"""

from repro.gpu.spec import GPUSpec, RTX3090
from repro.gpu.memory import CacheSim, CacheStats, MemoryHierarchy
from repro.gpu.pcie import PCIeLink
from repro.gpu.kernels import ThreadBlockConfig, aggregation_kernel_plan
from repro.gpu.cluster import allreduce_time

__all__ = [
    "GPUSpec",
    "RTX3090",
    "CacheSim",
    "CacheStats",
    "MemoryHierarchy",
    "PCIeLink",
    "ThreadBlockConfig",
    "aggregation_kernel_plan",
    "allreduce_time",
]
