"""One regression gate over every committed baseline.

Usage::

    python -m repro.gate cluster pipeline   # check against the baselines
    python -m repro.gate fleet --write      # refresh one baseline

Each scenario replays a deterministic suite and returns a flat
``name -> value`` metric dict plus a list of invariant failures. Checking
compares the metrics against the scenario's committed baseline under
``benchmarks/results/`` with :func:`repro.obs.regress.check`; ``--write``
rewrites that baseline from the run instead, and refuses to when an
invariant failed. Five scenarios are *modeled* (counted work converted
to seconds under the fixed cost model, bit-identical across runs):

* ``obs`` — one epoch each of dgl, fastgl and fastgl-ooc, every
  instrumented subsystem (:mod:`repro.obs.regress`);
* ``cluster`` — a 4-node mini cluster, greedy edge-cut partitioning +
  frequency remote cache vs random partitioning with no cache; the
  informed cluster must win for every framework;
* ``pipeline`` — sequential vs bounded stage-graph epochs; the pipelined
  epoch must not lose, must keep model state, and must land within 15%
  of ``max(stage totals) + fill``;
* ``serve`` — dgl and fastgl serving one request schedule;
* ``fleet`` — a 4-replica fastgl fleet behind every routing policy.

Every epoch, serving and fleet timeline must reconcile with its modeled
time within :data:`RECONCILE_TOL`. The sixth scenario, ``bench``, times
the hot kernels (:mod:`repro.bench`): it pins their seeded work counters
exactly and puts floors under their wall-clock speedups.

Exit status: 0 when every named scenario passes, 1 on a regression or an
invariant failure, 2 when a baseline file is missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable

from repro.bench.kernels import build_bench_baseline, flatten_bench, run_bench
from repro.cluster.spec import ClusterSpec
from repro.config import RunConfig
from repro.frameworks import FRAMEWORKS
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale
from repro.obs import flatten_snapshot, instrumented, regress, to_snapshot
from repro.pipeline import ExecutionSpec, PipelineSpec
from repro.serve.autoscale import AutoscalerConfig
from repro.serve.cache_tier import CacheTierConfig
from repro.serve.fleet import FleetSpec, fleet_demo_dataset, simulate_fleet
from repro.serve.routing import ROUTER_POLICIES
from repro.serve.server import ServeConfig, simulate

#: Reconciliation tolerance between timeline extent and modeled time.
RECONCILE_TOL = 1e-6

#: Achieved pipelined epoch vs the ``max(stage totals) + fill`` estimate.
BOUND_SLACK = 1.15

#: The committed baselines, beside ``src/`` in the source checkout.
RESULTS = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "results")


@dataclass(frozen=True)
class Scenario:
    """One gated suite and where its baseline lives."""

    #: ``() -> (flat metrics, invariant failures)``.
    run: Callable[[], tuple]
    baseline: pathlib.Path
    #: Default relative tolerance written into a refreshed baseline.
    tolerance: float
    #: The ``suite`` label written into a refreshed baseline.
    suite: tuple = ()
    #: Makes the baseline document for non-modeled metrics (``bench``).
    build: Callable[[dict], dict] | None = None

    def build_baseline(self, metrics: dict) -> dict:
        if self.build is not None:
            return self.build(metrics)
        return regress.build_baseline(metrics, self.tolerance, self.suite)


def _smoke_dataset(name: str, num_nodes: int, feature_dim: int,
                   train_fraction: float):
    """A tiny self-contained dataset (never reads the named registry);
    ``name`` seeds its generator."""
    spec = DatasetSpec(
        name=name,
        num_nodes=num_nodes,
        avg_degree=10.0,
        feature_dim=feature_dim,
        num_classes=8,
        train_fraction=train_fraction,
        paper=PaperScale(300_000, 3_000_000, 1 << 30),
    )
    return Dataset(spec, seed=0)


def serve_smoke_dataset():
    """The ``serve`` scenario's dataset (also ``python -m repro.serve
    --dataset smoke``)."""
    return _smoke_dataset("serve-smoke", 3000, 32, 0.3)


def _reconcile(label: str, report) -> list:
    """``[]`` when the report's timeline ends at its modeled time (serve
    and fleet reports check themselves; epoch reports end at
    ``epoch_time``)."""
    if hasattr(report, "reconciles"):
        ok = report.reconciles(RECONCILE_TOL)
    else:
        extent = max((span.end for span in report.timeline()), default=0.0)
        ok = abs(extent - report.epoch_time) <= RECONCILE_TOL
    return [] if ok else [f"{label}: timeline does not reconcile with its "
                          "modeled time"]


def _gauges(registry, help_text: str, labels: dict, values) -> None:
    for metric, value in values:
        registry.gauge(metric, help_text).labels(**labels).set(float(value))


def _obs() -> tuple:
    return flatten_snapshot(regress.collect_benchmark_metrics()), []


def _bench() -> tuple:
    return flatten_bench(run_bench(medium=True)), []


def _cluster() -> tuple:
    dataset = _smoke_dataset("cluster-smoke", 4000, 128, 0.2)
    # Three epochs so the remote caches see repeat traffic; small batches
    # so every lane runs several rounds.
    config = RunConfig(batch_size=64, fanouts=(5, 5), num_gpus=2,
                       num_epochs=3, seed=0)
    # A 20 Gb/s fabric (vs the 100 Gb/s default) so halo traffic is a
    # visible share of the mini epochs.
    fabric = dict(link_bandwidth=2.5e9, nic_bandwidth=2.5e9)
    specs = {
        "greedy+freq": ClusterSpec(num_nodes=4, partitioner="greedy",
                                   remote_cache="freq", **fabric),
        "random+none": ClusterSpec(num_nodes=4, partitioner="random",
                                   remote_cache="none", **fabric),
    }
    # The baseline strategy bundle plus the out-of-core stack (its
    # pipelined timeline exercises the network spans differently).
    frameworks = ("dgl", "fastgl-ooc")
    failures, epoch = [], {}
    with instrumented() as registry:
        for name in frameworks:
            for variant, spec in specs.items():
                report = FRAMEWORKS[name]().run_epoch(
                    dataset, config, model_name="gcn",
                    execution=ExecutionSpec(cluster=spec))
                epoch[name, variant] = report.epoch_time
                failures += _reconcile(f"{name}/{variant}", report)
                halo = report.cluster.get("halo", {})
                partition = report.cluster.get("partition", {})
                _gauges(registry, "Cluster smoke summary statistic",
                        {"framework": name, "variant": variant}, (
                    ("repro_cluster_epoch_seconds", report.epoch_time),
                    ("repro_cluster_network_seconds",
                     report.phases.network),
                    ("repro_cluster_halo_hit_rate",
                     halo.get("hit_rate", 0.0)),
                    ("repro_cluster_halo_bytes", halo.get("bytes_moved", 0)),
                    ("repro_cluster_cut_fraction_run",
                     partition.get("cut_fraction", 0.0)),
                ))
        metrics = flatten_snapshot(to_snapshot(registry))
    for name in frameworks:
        informed = epoch[name, "greedy+freq"]
        uninformed = epoch[name, "random+none"]
        if not informed < uninformed:
            failures.append(f"{name}: greedy+freq ({informed:.6f}s) not "
                            f"faster than random+none ({uninformed:.6f}s)")
    return metrics, failures


def _pipeline() -> tuple:
    dataset = _smoke_dataset("pipeline-smoke", 4000, 128, 0.2)
    # Small batches so every stage runs many rounds — the pipeline needs
    # rounds in flight before overlap shows.
    config = RunConfig(batch_size=32, fanouts=(5, 5), num_gpus=2,
                       num_epochs=2, seed=0)
    pipelined_exec = ExecutionSpec(pipeline=PipelineSpec(
        mode="pipelined", queue_depth=2))
    failures = []
    with instrumented() as registry:
        # The serial baseline (widest overlap win) and the full FastGL
        # stack (cache leaves one stage dominant — the narrow case).
        for name in ("dgl", "fastgl"):
            sequential = FRAMEWORKS[name]().run_epoch(
                dataset, config, model_name="gcn")
            pipelined = FRAMEWORKS[name]().run_epoch(
                dataset, config, model_name="gcn", execution=pipelined_exec)
            info = pipelined.pipeline
            bound = info["bound_seconds"]
            hidden = sequential.epoch_time - pipelined.epoch_time
            hideable = sequential.epoch_time - bound
            _gauges(registry, "Pipeline smoke summary statistic",
                    {"framework": name}, (
                ("repro_pipeline_sequential_epoch_seconds",
                 sequential.epoch_time),
                ("repro_pipeline_pipelined_epoch_seconds",
                 pipelined.epoch_time),
                ("repro_pipeline_bound_seconds", bound),
                ("repro_pipeline_overlap_ratio",
                 hidden / hideable if hideable > 1e-12 else 1.0),
                ("repro_pipeline_total_stall_seconds",
                 sum(info["stall_seconds"].values())),
            ))
            for label, report in (("sequential", sequential),
                                  ("pipelined", pipelined)):
                failures += _reconcile(f"{name}/{label}", report)
            if pipelined.losses != sequential.losses:
                failures.append(f"{name}: model state diverged between "
                                "sequential and pipelined runs")
            if pipelined.epoch_time > sequential.epoch_time + 1e-9:
                failures.append(
                    f"{name}: pipelined ({pipelined.epoch_time:.6f}s) "
                    f"slower than sequential ({sequential.epoch_time:.6f}s)")
            if pipelined.epoch_time > bound * BOUND_SLACK:
                failures.append(
                    f"{name}: pipelined epoch ({pipelined.epoch_time:.6f}s) "
                    f"misses the overlap bound ({bound:.6f}s) by more "
                    f"than {BOUND_SLACK - 1:.0%}")
        metrics = flatten_snapshot(to_snapshot(registry))
    return metrics, failures


def _serve() -> tuple:
    dataset = serve_smoke_dataset()
    run_config = RunConfig(num_gpus=1, fanouts=(5, 10, 15), seed=0)
    serve_config = ServeConfig(
        rate=50_000.0, num_requests=400, arrival="poisson",
        seeds_per_request=8, max_batch=16, batch_window_s=0.002,
        queue_capacity=128, slo_s=0.5, seed=0,
    )
    failures = []
    with instrumented() as registry:
        for name in ("dgl", "fastgl"):
            report = simulate(name, dataset, run_config=run_config,
                              serve_config=serve_config)
            failures += _reconcile(name, report)
            _gauges(registry, "Serving summary statistic",
                    {"framework": name}, (
                ("repro_serve_p50_seconds", report.p50),
                ("repro_serve_p95_seconds", report.p95),
                ("repro_serve_p99_seconds", report.p99),
                ("repro_serve_throughput_rps", report.throughput),
                ("repro_serve_makespan_seconds", report.makespan),
            ))
        metrics = flatten_snapshot(to_snapshot(registry))
    return metrics, failures


def _fleet() -> tuple:
    dataset = fleet_demo_dataset()
    run_config = RunConfig(num_gpus=1, fanouts=(5, 10, 15), seed=0)
    # A locality-skewed population (32 user clusters) so match-affinity
    # routing has residency to exploit.
    serve_config = ServeConfig(
        rate=2000.0, num_requests=500, arrival="poisson",
        seeds_per_request=16, max_batch=4, batch_window_s=0.002,
        queue_capacity=512, slo_s=5.0, seed=0, num_users=32,
    )
    failures = []
    with instrumented() as registry:
        for policy in ROUTER_POLICIES:
            fleet = FleetSpec(
                num_replicas=4, router=policy,
                autoscaler=AutoscalerConfig(enabled=False),
                cache=CacheTierConfig(enabled=False),
            )
            report = simulate_fleet("fastgl", dataset,
                                    run_config=run_config,
                                    serve_config=serve_config, fleet=fleet)
            failures += _reconcile(policy, report)
            _gauges(registry, "Fleet summary statistic", {"policy": policy}, (
                ("repro_fleet_p50_seconds", report.p50),
                ("repro_fleet_p99_seconds", report.p99),
                ("repro_fleet_throughput_rps", report.throughput),
                ("repro_fleet_device_hit_rate", report.device_hit_rate),
                ("repro_fleet_tier_hit_rate", report.tier_hit_rate),
                ("repro_fleet_replicas", len(report.replicas)),
            ))
        metrics = flatten_snapshot(to_snapshot(registry))
    return metrics, failures


#: Scenario name -> definition, in the order ``--help`` lists them.
SCENARIOS = {
    "obs": Scenario(_obs, RESULTS / "baseline.json",
                    regress.DEFAULT_TOLERANCE, regress.SUITE_FRAMEWORKS),
    "bench": Scenario(_bench, RESULTS / "bench_baseline.json", 0.0,
                      build=build_bench_baseline),
    "cluster": Scenario(_cluster, RESULTS / "cluster_baseline.json", 0.02,
                        ("dgl/greedy+freq", "dgl/random+none",
                         "fastgl-ooc/greedy+freq", "fastgl-ooc/random+none")),
    "pipeline": Scenario(_pipeline, RESULTS / "pipeline_baseline.json",
                         0.02, ("dgl", "fastgl")),
    "serve": Scenario(_serve, RESULTS / "serve_baseline.json", 0.02,
                      ("dgl", "fastgl")),
    "fleet": Scenario(_fleet, RESULTS / "fleet_baseline.json", 0.02,
                      ("jsq", "match-affinity", "round-robin")),
}


def run_gate(name: str, write: bool = False) -> int:
    """Check (or, with ``write``, refresh) one scenario's baseline;
    returns its exit status."""
    scenario = SCENARIOS[name]
    baseline = None
    if not write:
        try:
            baseline = json.loads(scenario.baseline.read_text())
        except FileNotFoundError:
            print(f"{name}: no baseline at {scenario.baseline}; create one "
                  f"with `python -m repro.gate {name} --write`",
                  file=sys.stderr)
            return 2
    metrics, failures = scenario.run()
    for failure in failures:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    if write:
        if failures:
            print(f"{name}: not writing {scenario.baseline} from a failing "
                  "run", file=sys.stderr)
            return 1
        document = scenario.build_baseline(metrics)
        scenario.baseline.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"{name}: wrote {scenario.baseline} "
              f"({len(document['metrics'])} metrics)")
        return 0
    violations = regress.check(metrics, baseline)
    checked = len(baseline.get("metrics", {}))
    if violations:
        print(f"{name}: {len(violations)} of {checked} metrics regressed:")
        for violation in violations:
            print("  " + regress.format_violation(violation))
    else:
        print(f"{name}: ok: {checked} metrics within tolerance")
    return 1 if violations or failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate",
        description="Replay deterministic scenarios and gate them against "
                    "their committed baselines in benchmarks/results/.",
    )
    parser.add_argument("scenarios", nargs="+", metavar="NAME",
                        choices=list(SCENARIOS),
                        help=f"scenario(s) to run: {', '.join(SCENARIOS)}")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the baselines from this run instead "
                             "of checking them (refused when an invariant "
                             "fails)")
    args = parser.parse_args(argv)
    return max(run_gate(name, write=args.write) for name in args.scenarios)


if __name__ == "__main__":
    sys.exit(main())
