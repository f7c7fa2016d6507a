"""GPU hardware specifications (the paper's Table 3).

``RTX3090`` reproduces the memory-level statistics the paper reports for the
NVIDIA GeForce RTX 3090 used in its evaluation: per-level bandwidths and
capacities, SM count, and the peak FP32 throughput the paper quotes
(29155 GFLOP/s).
"""

from __future__ import annotations

from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class GPUSpec:
    """Datasheet-level description of one GPU."""

    name: str
    #: Global (device) memory capacity in bytes.
    global_mem_bytes: int
    #: Global memory bandwidth, bytes/second.
    global_bw: float
    #: L2 cache capacity in bytes and bandwidth in bytes/second.
    l2_bytes: int
    l2_bw: float
    #: L1 cache / shared memory: capacity per SM (they share the same
    #: 128 KiB array on Ampere) and bandwidth, bytes/second (aggregate).
    l1_bytes_per_sm: int
    l1_bw: float
    shared_bw: float
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Peak FP32 throughput, FLOP/second.
    peak_flops: float
    #: Maximum threads per thread block.
    max_threads_per_block: int = 1024
    #: Maximum resident threads per SM.
    max_threads_per_sm: int = 1536
    #: Shared memory usable per thread block (bytes). Ampere reserves part
    #: of the 128 KiB array for L1; 100 KiB is the per-block limit.
    max_shared_per_block: int = 100 * KIB
    #: Cache line size used by L1/L2 (bytes).
    cache_line_bytes: int = 128
    warp_size: int = 32
    #: Host link bandwidth (PCIe 4.0 x16 as in the paper), bytes/second.
    pcie_bw: float = 32e9

    def spec_table_rows(self) -> list:
        """Rows reproducing the paper's Table 3 for this GPU."""
        return [
            ("L1 Cache", f"{self.l1_bw / 1e12:.0f}TB/s",
             f"{self.l1_bytes_per_sm // KIB}KB (per SM)"),
            ("Shared Memory", f"{self.shared_bw / 1e12:.0f}TB/s",
             f"{self.l1_bytes_per_sm // KIB}KB (per SM)"),
            ("L2 Cache", f"{self.l2_bw / 1e12:.0f}TB/s",
             f"{self.l2_bytes // MIB}MB"),
            ("Global Memory", f"{self.global_bw / 1e9:.0f}GB/s",
             f"{self.global_mem_bytes // GIB}GB"),
        ]


#: The evaluation GPU of the paper: NVIDIA GeForce RTX 3090, 24 GB.
RTX3090 = GPUSpec(
    name="RTX 3090",
    global_mem_bytes=24 * GIB,
    global_bw=938e9,
    l2_bytes=6 * MIB,
    l2_bw=4e12,
    l1_bytes_per_sm=128 * KIB,
    l1_bw=12e12,
    shared_bw=12e12,
    num_sms=82,
    peak_flops=29_155e9,
)

#: NVIDIA A100-SXM4 80 GB — used by the GPU-sensitivity extension study to
#: show the cost model (and FastGL's advantage) is parametric in the
#: hardware, not fitted to one card.
A100 = GPUSpec(
    name="A100 80GB",
    global_mem_bytes=80 * GIB,
    global_bw=2_039e9,
    l2_bytes=40 * MIB,
    l2_bw=7e12,
    l1_bytes_per_sm=192 * KIB,
    l1_bw=19e12,
    shared_bw=19e12,
    num_sms=108,
    peak_flops=19_500e9,
    max_shared_per_block=164 * KIB,
    max_threads_per_sm=2048,
    pcie_bw=32e9,
)
