"""The public facade: one import for training runs and serving sims.

Everything the package can do is reachable through four names::

    from repro.api import run, serve, create, available_frameworks

    report = run("fastgl", "products", config=RunConfig(num_gpus=2))
    print(report.epoch_time, report.phases.fractions())
    print(report.cache_stats().hit_rate)

    serving = serve("fastgl", "reddit", serve_config=ServeConfig(rate=800))
    print(serving.p99, serving.throughput)

``run`` executes one modeled training epoch and returns an
:class:`~repro.frameworks.base.EpochReport`; ``serve`` replays an online
inference workload through :mod:`repro.serve` and returns a
:class:`~repro.serve.server.ServeReport`. Both accept a framework as a
registry name (see :func:`available_frameworks`), a class, or an
instance, and a dataset as a registry name or a
:class:`~repro.graph.datasets.Dataset`.

The *what to run* knobs stay individual (``config``, ``model``,
``sampler``); everything describing *where and how* an epoch executes —
cluster shape and epoch pipelining — travels in one frozen
:class:`~repro.pipeline.ExecutionSpec` passed as ``exec``::

    report = run(
        "fastgl", "products",
        config=RunConfig(num_gpus=2),
        exec=ExecutionSpec(cluster=ClusterSpec(num_nodes=2),
                           pipeline="pipelined"),
    )

A different simulated device is a framework instance built with it:
``run(FastGLFramework(spec=A100), "products")``. Faults are injected by
running the call inside :func:`repro.faults.fault_scope`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import RunConfig
from repro.errors import ConfigError
from repro.frameworks.base import EpochReport, Framework
from repro.frameworks.registry import available_frameworks, create, resolve
from repro.graph.datasets import Dataset, get_dataset
from repro.pipeline import ExecutionSpec, PipelineSpec
from repro.serve.fleet import FleetReport, FleetSpec
from repro.serve.fleet import simulate_fleet as _simulate_fleet
from repro.serve.server import ServeConfig, ServeReport
from repro.serve.server import simulate as _simulate

__all__ = [
    "run",
    "serve",
    "create",
    "resolve",
    "available_frameworks",
    "ExecutionSpec",
    "PipelineSpec",
    "RunConfig",
    "ServeConfig",
    "EpochReport",
    "ServeReport",
    "FleetSpec",
    "FleetReport",
]

FrameworkLike = Union[str, type, Framework]
DatasetLike = Union[str, Dataset]


def _check_type(name: str, value, kind: type) -> None:
    """Refuse an optional argument that is neither ``None`` nor a
    ``kind`` (it would otherwise fail mid-run with ``AttributeError``)."""
    if value is not None and not isinstance(value, kind):
        raise ConfigError(
            f"{name} must be a {kind.__name__} or None, got {value!r}")


def _coerce_dataset(dataset: DatasetLike, seed: int) -> Dataset:
    if isinstance(dataset, str):
        return get_dataset(dataset, seed=seed)
    return dataset


def run(
    framework: FrameworkLike,
    dataset: DatasetLike,
    *,
    config: Optional[RunConfig] = None,
    exec: Optional[ExecutionSpec] = None,
    model: str = "gcn",
    sampler=None,
) -> EpochReport:
    """Run one modeled training epoch.

    Parameters
    ----------
    framework:
        Registry name (``"fastgl"``, ``"dgl"``, ...), a
        :class:`~repro.frameworks.base.Framework` subclass, or an
        instance (how to run on another device:
        ``FastGLFramework(spec=A100)``).
    dataset:
        Dataset registry name or a constructed
        :class:`~repro.graph.datasets.Dataset`.
    config:
        :class:`~repro.config.RunConfig`; defaults to ``RunConfig()``.
        Anything else raises :class:`~repro.errors.ConfigError`.
    exec:
        :class:`~repro.pipeline.ExecutionSpec` bundling the execution
        environment: ``cluster``
        (:class:`~repro.cluster.spec.ClusterSpec` — ``config`` then
        describes one node) and ``pipeline`` (``"off"`` |
        ``"pipelined"`` or a :class:`~repro.pipeline.PipelineSpec`).
        Anything else raises :class:`~repro.errors.ConfigError`.
    model:
        Model profile name (``"gcn"``, ``"gat"``, ``"graphsage"``).
    sampler:
        Optional pre-built sampler, forwarded to ``run_epoch``.
    """
    if exec is None:
        exec = ExecutionSpec()
    elif not isinstance(exec, ExecutionSpec):
        raise ConfigError(f"exec must be an ExecutionSpec, got {exec!r}")
    _check_type("config", config, RunConfig)
    if config is None:
        config = RunConfig()
    instance = resolve(framework)
    data = _coerce_dataset(dataset, config.seed)
    return instance.run_epoch(data, config, model_name=model,
                              sampler=sampler, execution=exec)


def serve(
    framework: FrameworkLike,
    dataset: DatasetLike,
    *,
    run_config: Optional[RunConfig] = None,
    serve_config: Optional[ServeConfig] = None,
    model: str = "gcn",
    fleet: Optional[FleetSpec] = None,
) -> Union[ServeReport, FleetReport]:
    """Simulate online inference serving (see :mod:`repro.serve`).

    Accepts the same ``framework``/``dataset`` forms as :func:`run`;
    ``serve_config`` (a :class:`~repro.serve.server.ServeConfig`)
    describes the request workload and micro-batching policy, and
    ``run_config`` carries the sampling fanouts and seed.

    With ``fleet=FleetSpec(...)`` the simulation runs N replicas behind
    the spec's router/autoscaler/cache-tier policies and returns a
    :class:`~repro.serve.fleet.FleetReport` instead (a one-replica
    round-robin fleet is bit-identical to the default path — the fleet
    conformance suite pins this).

    Each of ``run_config``, ``serve_config`` and ``fleet`` is ``None`` or
    an instance of its class; anything else raises
    :class:`~repro.errors.ConfigError` before the profile is built.
    """
    _check_type("run_config", run_config, RunConfig)
    _check_type("serve_config", serve_config, ServeConfig)
    _check_type("fleet", fleet, FleetSpec)
    if run_config is None:
        run_config = RunConfig(num_gpus=1)
    data = _coerce_dataset(dataset, run_config.seed)
    if fleet is not None:
        return _simulate_fleet(
            framework,
            data,
            run_config=run_config,
            serve_config=serve_config,
            fleet=fleet,
            model=model,
        )
    return _simulate(
        framework,
        data,
        run_config=run_config,
        serve_config=serve_config,
        model=model,
    )
