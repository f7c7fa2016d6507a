"""Multi-machine data-parallel extension (the paper's Section 7.1 claim).

The paper expects FastGL to stay efficient across machines because its
three techniques are machine-count-agnostic. This module extends the
single-node cluster model with inter-machine gradient synchronization over
a NIC: a hierarchical all-reduce (intra-node ring over NVLink/PCIe, then
inter-node ring over the network, then broadcast back).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.cluster import allreduce_time


@dataclass(frozen=True)
class MachineSpec:
    """One machine: GPU count and its network interface."""

    gpus_per_machine: int = 8
    #: NIC bandwidth, bytes/second (100 GbE default).
    nic_bytes_per_s: float = 12.5e9
    #: Per-message network latency.
    nic_latency_s: float = 50e-6


def hierarchical_allreduce_time(
    grad_bytes: float,
    num_machines: int,
    machine: MachineSpec = MachineSpec(),
) -> float:
    """Seconds for a hierarchical all-reduce across machines.

    Phase 1: intra-node ring reduce (NCCL). Phase 2: inter-node ring over
    the NIC on the reduced buffer. Phase 3: intra-node broadcast (costed
    as a second intra-node pass).
    """
    if num_machines < 1:
        raise ValueError("num_machines must be >= 1")
    if grad_bytes <= 0:
        return 0.0
    intra = allreduce_time(grad_bytes, machine.gpus_per_machine)
    if num_machines == 1:
        return intra
    moved = 2.0 * (num_machines - 1) / num_machines * grad_bytes
    inter = machine.nic_latency_s + moved / machine.nic_bytes_per_s
    return 2.0 * intra + inter


def multimachine_epoch_time(
    single_machine_epoch_time: float,
    iterations: int,
    grad_bytes: float,
    num_machines: int,
    machine: MachineSpec = MachineSpec(),
) -> float:
    """Epoch time when the batch stream is split across ``num_machines``.

    Compute/IO work divides across machines (each keeps its own host
    memory and PCIe links, so there is no cross-machine host contention);
    every iteration pays the hierarchical synchronization instead of the
    intra-node one.
    """
    if num_machines < 1:
        raise ValueError("num_machines must be >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    intra_only = allreduce_time(grad_bytes, machine.gpus_per_machine)
    per_machine_iters = -(-iterations // num_machines)  # ceil division
    compute_share = (single_machine_epoch_time
                     - iterations * intra_only) / max(1, iterations)
    sync = hierarchical_allreduce_time(grad_bytes, num_machines, machine)
    return per_machine_iters * max(0.0, compute_share) + (
        per_machine_iters * sync
    )
