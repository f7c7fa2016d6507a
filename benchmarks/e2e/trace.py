"""Per-layer wall-clock attribution from outside the program.

:class:`LayerTracer` wraps the public entry points of the repository's
modules (the :data:`LAYERS` table) for the duration of one traced run
and restores the originals afterwards, so untraced runs execute the
unmodified functions and pay nothing.

Each wrapper patches the name its caller actually looks up: several
entry points are imported by name into their callers' modules
(``match_degree`` into the router and the batcher, ``partition_graph``
into the cluster engine, the reorder kernels and the pipeline layout into
``repro.frameworks.base``), so the wrapper goes on that module attribute,
not on the defining module. Targets are resolved by name and must be defined
where the table says; a renamed or moved symbol raises
:class:`TraceTargetError` instead of silently dropping a layer.

Attribution is by *self time*: a call's duration minus the time spent in
wrapped calls it made. A call into the layer that is already innermost
(``Module.__call__`` of a submodule, a feature store delegating to
another) passes straight through, so nested calls count once.
"""

from __future__ import annotations

import functools
import importlib
import time

#: Layer -> wrapped entry points, as ``"module:Qualified.name"``.
LAYERS = {
    "cluster.halo": ("repro.cluster.halo:HaloExchange.exchange",),
    "cluster.partition": ("repro.cluster.engine:partition_graph",),
    "transfer.cache_build": (
        "repro.transfer.cache:PresampleCachePolicy.build",
        "repro.transfer.cache:DegreeCachePolicy.build",
    ),
    "transfer.plan": ("repro.transfer.loader:FeatureLoader.plan",),
    "sampling": (
        "repro.sampling.neighbor:NeighborSampler.sample",
        "repro.sampling.layerwise:LayerWiseSampler.sample",
        "repro.sampling.random_walk:RandomWalkSampler.sample",
    ),
    "sampling.idmap": (
        "repro.sampling.idmap.fused:FusedIdMap.map",
        "repro.sampling.idmap.baseline:BaselineIdMap.map",
        "repro.sampling.idmap.baseline:CpuIdMap.map",
    ),
    "core.reorder": (
        "repro.frameworks.base:match_degree_matrix",
        "repro.frameworks.base:greedy_reorder",
    ),
    "core.match": (
        "repro.serve.routing:match_degree",
        "repro.serve.batcher:match_degree",
    ),
    "core.memory_aware": (
        "repro.core.memory_aware:ComputeCostModel.subgraph_report",
    ),
    "nn": (
        "repro.nn.modules:Module.__call__",
        "repro.nn.tensor:Tensor.backward",
        "repro.nn.optim:Adam.step",
        "repro.nn.optim:SGD.step",
    ),
    "graph.features": (
        "repro.graph.features:HashFeatureStore.gather",
        "repro.graph.features:MaterializedFeatureStore.gather",
        "repro.graph.features:PlantedFeatureStore.gather",
        "repro.storage.feature_store:StorageBackedFeatureStore.gather",
    ),
    "pipeline": ("repro.frameworks.base:pipelined_epoch_layout",),
    "sim.events": ("repro.sim.events:EventLoop.run",),
    "serve.routing": (
        "repro.serve.routing:RoundRobinRouter.choose",
        "repro.serve.routing:JoinShortestQueueRouter.choose",
        "repro.serve.routing:MatchAffinityRouter.choose",
    ),
    "serve.batcher": ("repro.serve.server:select_next_batch",),
    "serve.cache_tier": (
        "repro.serve.cache_tier:CacheTier.lookup",
        "repro.serve.cache_tier:CacheTier.insert",
    ),
    "serve.autoscale": (
        "repro.serve.autoscale:Autoscaler.decide",
        "repro.serve.autoscale:Autoscaler.observe_occupancy",
        "repro.serve.autoscale:Autoscaler.observe_latency",
    ),
    "serve.service": ("repro.serve.profiles:ServingProfile.service",),
    "frameworks": ("repro.frameworks.base:Framework.run_epoch",),
    "serve.fleet": ("repro.serve.fleet:FleetSim.run",),
}

#: Wall-clock the traced run spent outside every wrapped layer.
UNATTRIBUTED = "unattributed"


class TraceTargetError(LookupError):
    """A :data:`LAYERS` entry no longer names a symbol in ``src``."""


def resolve(target: str) -> tuple:
    """``(owner, attribute, raw)`` for ``"module:Qualified.name"``.

    ``raw`` is the attribute as stored in the owner's namespace (a
    ``staticmethod`` object stays one), so restoring it is exact. The
    attribute must be defined on the owner itself: an inherited one means
    the implementation moved and the table is stale.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetError(f"trace target {target}: {exc}") from exc
    *path, attribute = qualname.split(".")
    for part in path:
        if part not in vars(owner):
            raise TraceTargetError(
                f"trace target {target}: {part!r} not found")
        owner = vars(owner)[part]
    if attribute not in vars(owner):
        raise TraceTargetError(
            f"trace target {target}: {attribute!r} is not defined on "
            f"{getattr(owner, '__name__', owner)!r}")
    return owner, attribute, vars(owner)[attribute]


class LayerTracer:
    """Install wrappers, attribute self time per layer, uninstall.

    Use as a context manager around exactly the code to attribute; the
    counters accumulate across uses until :meth:`reset`.
    """

    def __init__(self, layers: dict = LAYERS) -> None:
        self.layers = layers
        self._installed: list = []
        self._stack: list = []  # frames: [layer, seconds in wrapped children]
        self.reset()

    def reset(self) -> None:
        self.calls = {layer: 0 for layer in self.layers}
        self.self_s = {layer: 0.0 for layer in self.layers}
        #: Calls per wrapped target, nested pass-through calls included.
        self.target_calls = {t: 0 for ts in self.layers.values() for t in ts}
        #: Work counted from the values the wrapped layers return.
        self.work = {"sampling.edges": 0, "sampling.input_nodes": 0,
                     "transfer.rows_wanted": 0, "transfer.rows_loaded": 0,
                     "transfer.rows_resident": 0}
        self._stack.clear()

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        # Resolve everything before patching anything: a stale table
        # fails without leaving half the program wrapped.
        resolved = [(layer, target, resolve(target))
                    for layer, targets in self.layers.items()
                    for target in targets]
        for layer, target, (owner, attribute, raw) in resolved:
            if isinstance(raw, staticmethod):
                patched = staticmethod(
                    self._wrap(layer, target, raw.__func__))
            else:
                patched = self._wrap(layer, target, raw)
            setattr(owner, attribute, patched)
            self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- the wrapper ---------------------------------------------------------
    def _wrap(self, layer: str, target: str, fn):
        stack = self._stack
        observe = _OBSERVERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.target_calls[target] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.work, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def attribution(self, wall_s: float) -> dict:
        """Per-layer ``calls``/``self_s``/``share`` of a traced wall time,
        plus the ``unattributed`` remainder (which makes the self times
        sum to ``wall_s`` exactly)."""
        out = {}
        for layer in self.layers:
            out[layer] = {"calls": self.calls[layer],
                          "self_s": self.self_s[layer],
                          "share": self.self_s[layer] / wall_s}
        rest = wall_s - sum(self.self_s.values())
        out[UNATTRIBUTED] = {"calls": 0, "self_s": rest,
                             "share": rest / wall_s}
        return out


def _observe_sampling(work: dict, subgraph) -> None:
    work["sampling.edges"] += subgraph.num_sampled_edges
    work["sampling.input_nodes"] += subgraph.num_nodes


def _observe_plan(work: dict, report) -> None:
    work["transfer.rows_wanted"] += report.num_wanted
    work["transfer.rows_loaded"] += report.num_loaded
    work["transfer.rows_resident"] += report.num_reused + report.num_cache_hits


_OBSERVERS = {"sampling": _observe_sampling, "transfer.plan": _observe_plan}
