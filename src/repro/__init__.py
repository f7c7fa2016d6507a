"""FastGL reproduction: GPU-efficient sampling-based GNN training at scale.

This package reproduces *FastGL: A GPU-Efficient Framework for Accelerating
Sampling-Based GNN Training at Large Scale* (ASPLOS 2024) on a simulated
GPU substrate. The paper's three techniques live in :mod:`repro.core`
(Match-Reorder, Memory-Aware computation, Fused-Map sampling); simulated
baseline frameworks (PyG, DGL, GNNAdvisor, GNNLab) in
:mod:`repro.frameworks`; and one experiment driver per paper table/figure
in :mod:`repro.experiments`.

Quickstart (the :mod:`repro.api` facade)::

    from repro.api import run, serve, available_frameworks

    report = run("fastgl", "products", config=RunConfig(num_gpus=2))
    print(report.epoch_time, report.phases.fractions())

    serving = serve("fastgl", "reddit")
    print(serving.p99, serving.throughput)
"""

from repro.config import COST_MODEL, CostModelConfig, RunConfig
from repro.errors import (
    ConfigError,
    GraphError,
    ReproError,
    SamplingError,
)
from repro.frameworks import (
    DGLFramework,
    FastGLFramework,
    FRAMEWORKS,
    Framework,
    GNNAdvisorFramework,
    GNNLabFramework,
    PyGFramework,
    available_frameworks,
    create,
    fastgl_variant,
    register,
)
from repro.api import run, serve
from repro.pipeline import ExecutionSpec, PipelineSpec
from repro.core.pipeline import FastGLTrainer, TrainHistory
from repro.graph import CSRGraph, Dataset, DATASETS, get_dataset
from repro.gpu import GPUSpec, RTX3090
from repro.sampling import (
    BaselineIdMap,
    CpuIdMap,
    FusedIdMap,
    NeighborSampler,
    RandomWalkSampler,
    SampledSubgraph,
)

__version__ = "0.1.0"

__all__ = [
    "CostModelConfig",
    "COST_MODEL",
    "RunConfig",
    "ReproError",
    "GraphError",
    "SamplingError",
    "ConfigError",
    "Framework",
    "FRAMEWORKS",
    "available_frameworks",
    "create",
    "register",
    "run",
    "serve",
    "ExecutionSpec",
    "PipelineSpec",
    "PyGFramework",
    "DGLFramework",
    "GNNAdvisorFramework",
    "GNNLabFramework",
    "FastGLFramework",
    "fastgl_variant",
    "FastGLTrainer",
    "TrainHistory",
    "CSRGraph",
    "Dataset",
    "DATASETS",
    "get_dataset",
    "GPUSpec",
    "RTX3090",
    "NeighborSampler",
    "RandomWalkSampler",
    "SampledSubgraph",
    "FusedIdMap",
    "BaselineIdMap",
    "CpuIdMap",
    "__version__",
]
