"""The four end-to-end workloads, driven through the public API.

Each workload builds its inputs from the seed in :meth:`setup` (outside
the timed region), then :meth:`run` makes one closed-loop call into the
program: ``repro.api.run`` for a training epoch, ``repro.serve.
simulate_fleet`` for a fleet trace. The seed feeds ``Dataset(spec,
seed)``, ``RunConfig.seed`` and ``ServeConfig.seed``; the program
receives only the generated inputs.

:meth:`outputs` extracts the modeled results every run of one invocation
must reproduce exactly, :meth:`problems` the invariants a correct run
satisfies, and :meth:`counters` the work counters the traced run reports.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.api import run as api_run  # noqa: E402
from repro.cluster.spec import ClusterSpec  # noqa: E402
from repro.config import RunConfig  # noqa: E402
from repro.experiments.ext_fleet import FLEET_WORKLOAD  # noqa: E402
from repro.faults import FaultPlan, FaultSpec, fault_scope  # noqa: E402
from repro.graph.datasets import DATASETS, Dataset  # noqa: E402
from repro.pipeline import ExecutionSpec  # noqa: E402
from repro.serve import (  # noqa: E402
    AutoscalerConfig,
    CacheTierConfig,
    FleetSpec,
    ServeConfig,
    simulate_fleet,
)
from repro.serve.fleet import fleet_demo_dataset  # noqa: E402

#: Timelines must end at the modeled epoch time to within this.
RECONCILE_TOL = 1e-6
#: Seed of the crash plan. The failure scenario is part of a workload's
#: shape, not drawn from ``--seed``: with a seed-derived plan the number
#: of crashed replicas is binomial (0-4) and moves a run's host time by
#: more than half from one seed to the next.
CRASH_PLAN_SEED = 99


def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TrainingWorkload:
    """One modeled training epoch through ``repro.api.run``."""

    name: str
    framework: str
    dataset: str
    #: ``(num_nodes, train_fraction)`` of the scaled dataset instance;
    #: index 0 is the benchmark size, index 1 the ``--smoke`` size.
    sizes: tuple
    materialize: bool = False
    train_model: bool = False
    execution: ExecutionSpec = ExecutionSpec()

    def setup(self, seed: int, smoke: bool = False):
        num_nodes, train_fraction = self.sizes[1 if smoke else 0]
        spec = replace(DATASETS[self.dataset], num_nodes=num_nodes,
                       train_fraction=train_fraction)
        dataset = Dataset(spec, seed=seed)
        if self.materialize:
            dataset.materialize_features()
        return dataset, RunConfig(seed=seed, train_model=self.train_model)

    def run(self, state):
        dataset, config = state
        return api_run(self.framework, dataset, config=config,
                       exec=self.execution)

    @staticmethod
    def num_items(report) -> int:
        return report.num_batches

    @staticmethod
    def outputs(report) -> dict:
        phases = report.phases
        rows = report.cache_stats()
        out = {
            "epoch_time": report.epoch_time,
            "num_batches": report.num_batches,
            "phases": [phases.sample, phases.idmap, phases.memory_io,
                       phases.network, phases.compute, phases.allreduce],
            "rows": [rows.wanted, rows.loaded, rows.reused, rows.hits],
        }
        if report.losses:
            out["avg_loss"] = report.avg_loss
            out["losses_sha"] = _sha([np.asarray(report.losses)])
            out["params_sha"] = _sha(report.extras["final_params"])
        halo = report.extras.get("cluster", {}).get("halo")
        if halo is not None:
            out["halo"] = [halo["requested_rows"], halo["cache_hits"],
                           halo["bytes_moved"]]
        return out

    @staticmethod
    def problems(report) -> list:
        found = []
        extent = max((span["start"] + span["dur"]
                      for span in report.extras["timeline"]), default=0.0)
        if abs(extent - report.epoch_time) > RECONCILE_TOL:
            found.append(f"timeline ends at {extent!r}, epoch_time is "
                         f"{report.epoch_time!r}")
        if report.num_batches < 1:
            found.append("epoch ran no mini-batches")
        if report.losses and not np.all(np.isfinite(report.losses)):
            found.append("non-finite training loss")
        return found

    @staticmethod
    def counters(report) -> dict:
        halo = report.extras.get("cluster", {}).get("halo", {})
        return {
            "cluster.halo.requested_rows": halo.get("requested_rows", 0),
            "cluster.halo.hit_rate": halo.get("hit_rate", 0.0),
            "cluster.halo.bytes_moved": halo.get("bytes_moved", 0),
        }


@dataclass(frozen=True)
class FleetWorkload:
    """One serving-fleet trace through ``repro.serve.simulate_fleet``."""

    name: str
    #: Requests per trace; index 0 is the benchmark size, 1 ``--smoke``.
    sizes: tuple
    fleet: FleetSpec
    #: Overrides of ``ext_fleet.FLEET_WORKLOAD``'s serving knobs.
    serve: dict = field(default_factory=dict)
    #: ``replica_crash`` probability (0 = no fault plan installed).
    crash_probability: float = 0.0

    def setup(self, seed: int, smoke: bool = False):
        serve_config = ServeConfig(**dict(
            FLEET_WORKLOAD, **self.serve, seed=seed,
            num_requests=self.sizes[1 if smoke else 0]))
        return (fleet_demo_dataset(seed=seed),
                RunConfig(num_gpus=1, seed=seed), serve_config)

    def run(self, state):
        dataset, run_config, serve_config = state
        faults = nullcontext()
        if self.crash_probability:
            # A fresh plan per run: a plan records the faults it injected.
            faults = fault_scope(FaultPlan(seed=CRASH_PLAN_SEED, sites={
                "replica_crash": FaultSpec(
                    probability=self.crash_probability, max_failures=1)}))
        with faults:
            return simulate_fleet("fastgl", dataset, run_config=run_config,
                                  serve_config=serve_config, fleet=self.fleet)

    @staticmethod
    def num_items(report) -> int:
        return len(report.requests)

    @staticmethod
    def outputs(report) -> dict:
        return {
            "p50": report.p50,
            "p99": report.p99,
            "makespan": report.makespan,
            "outcomes": [report.num_completed, report.num_shed,
                         report.num_dropped],
            "device_hit_rate": report.device_hit_rate,
            "tier_hit_rate": report.tier_hit_rate,
            "crashes": len(report.crash_events),
            "rerouted": report.rerouted,
            "scale_events": len(report.scale_events),
            "replicas": len(report.replicas),
        }

    @staticmethod
    def problems(report) -> list:
        found = []
        if not report.reconciles():
            found.append("fleet timeline does not reconcile with makespan")
        if report.num_terminal != len(report.requests):
            found.append(f"{report.num_terminal} terminal outcomes for "
                         f"{len(report.requests)} requests")
        return found

    @staticmethod
    def counters(report) -> dict:
        return {
            "serve.device_hit_rate": report.device_hit_rate,
            "serve.cache_tier.hit_rate": report.tier_hit_rate,
            "serve.cache_tier.stale_rate": report.tier_stale_rate,
            "serve.rerouted": report.rerouted,
            "serve.crashes": len(report.crash_events),
            "serve.scale_events": len(report.scale_events),
        }


#: The benchmark's workloads; BENCHMARK.json and README.md say why each
#: one exists and which layer it stresses.
WORKLOADS = {
    w.name: w for w in (
        TrainingWorkload(
            name="cluster-fastgl",
            framework="fastgl",
            dataset="papers100m",
            sizes=((20_000, 0.28), (8_000, 0.28)),
            execution=ExecutionSpec(cluster=ClusterSpec(num_nodes=4),
                                    pipeline="pipelined"),
        ),
        TrainingWorkload(
            name="train-dgl",
            framework="dgl",
            dataset="products",
            sizes=((30_000, 0.034), (10_000, 0.05)),
            materialize=True,
            train_model=True,
        ),
        FleetWorkload(
            name="fleet-affinity",
            sizes=(400, 60),
            fleet=FleetSpec(num_replicas=4, router="match-affinity"),
        ),
        FleetWorkload(
            name="fleet-overload",
            sizes=(170, 60),
            # The flash crowd's peak rate, sustained: one flash crowd made
            # the backlog, and with it the host cost, swing with the seed.
            serve={"rate": 20_000.0, "max_batch": 1, "batch_window_s": 0.0,
                   "queue_capacity": 64},
            fleet=FleetSpec(
                num_replicas=4, router="jsq",
                autoscaler=AutoscalerConfig(
                    enabled=True, max_replicas=6, add_occupancy=0.2,
                    drain_occupancy=0.02, interval_s=0.005,
                    cooldown_s=0.02),
                cache=CacheTierConfig(enabled=True, capacity_rows=8192,
                                      ttl_s=0.05)),
            crash_probability=0.5,
        ),
    )
}
