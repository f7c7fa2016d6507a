"""Discrete-event machinery.

:mod:`repro.sim.events` is a tiny virtual-time event loop. Two kinds of
simulator run on it: the pipeline engine
(:func:`repro.pipeline.graph.stage_graph_makespan`), which every
overlapped epoch layout uses — GNNLab's sampler/trainer pipeline, the
out-of-core prefetch pipeline and the pipelined epoch — and the
online-serving simulators in :mod:`repro.serve`.
"""

from repro.sim.events import EventLoop

__all__ = ["EventLoop"]
