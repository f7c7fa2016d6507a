"""Extension experiments: the serving fleet (:mod:`repro.serve.fleet`).

The paper's Match stage exploits inter-batch node overlap on one GPU;
these experiments ask the fleet question — *when N replicas serve
overlapping user streams, what does routing on Match residency buy over
classic load balancing?*

* :func:`run_routing` — round-robin vs JSQ vs match-affinity at a fixed
  replica count on a locality-skewed user population: match-affinity
  must win **both** p99 and device cache-hit rate (the acceptance gate
  in ``benchmarks/test_ext_fleet.py``).
* :func:`run_scaling` — JSQ p99 as the replica count grows at a fixed
  arrival rate, with the shared cache tier's hit split alongside.
* :func:`run_chaos` — replica crashes mid-flash-crowd under the
  ``replica_crash`` fault site: availability ledger, re-routed counts
  and the autoscaler's recovery actions.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.experiments.runner import ExperimentResult
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.serve import (
    AutoscalerConfig,
    CacheTierConfig,
    FleetSpec,
    ServeConfig,
    simulate_fleet,
)
from repro.serve.fleet import fleet_demo_dataset
from repro.serve.routing import ROUTER_POLICIES

#: The locality-skewed fleet workload every experiment shares: user
#: clusters draw seeds from overlapping windows, memory IO dominates
#: service time, and the fleet runs warm but unsaturated.
FLEET_WORKLOAD = dict(
    rate=2_000.0,
    num_requests=500,
    seeds_per_request=16,
    max_batch=4,
    batch_window_s=0.002,
    queue_capacity=512,
    slo_s=5.0,
    num_users=32,
)


def _fleet_config(seed: int, **overrides) -> ServeConfig:
    base = dict(FLEET_WORKLOAD, seed=seed)
    base.update(overrides)
    return ServeConfig(**base)


def run_routing(dataset_name: str = "fleet-smoke",
                config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig(num_gpus=1, seed=0)
    dataset = fleet_demo_dataset(dataset_name, seed=config.seed)
    result = ExperimentResult(
        exp_id="ext_fleet_routing",
        title="Fleet routing policies on overlapping user streams "
              "(fastgl, 4 replicas)",
        headers=["router", "p50_ms", "p99_ms", "throughput_rps",
                 "device_hit", "availability", "rerouted"],
    )
    serve_config = _fleet_config(config.seed)
    for policy in ROUTER_POLICIES:
        report = simulate_fleet(
            "fastgl", dataset, run_config=config,
            serve_config=serve_config,
            fleet=FleetSpec(num_replicas=4, router=policy))
        result.rows.append([
            policy,
            round(report.p50 * 1e3, 3),
            round(report.p99 * 1e3, 3),
            round(report.throughput, 1),
            round(report.device_hit_rate, 4),
            round(report.availability, 4),
            report.rerouted,
        ])
    result.series.append((
        "p99_ms", [row[0] for row in result.rows],
        [row[2] for row in result.rows],
    ))
    result.series.append((
        "device_hit", [row[0] for row in result.rows],
        [row[4] for row in result.rows],
    ))
    result.notes.append(
        "match-affinity keeps each user cluster on the replica whose "
        "Match residency already holds its feature rows, so the same "
        "requests cost less PCIe traffic AND less queueing than "
        "round-robin or JSQ — the paper's inter-batch overlap insight "
        "applied across replicas instead of across micro-batches"
    )
    return result


def run_scaling(dataset_name: str = "fleet-smoke",
                config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig(num_gpus=1, seed=0)
    dataset = fleet_demo_dataset(dataset_name, seed=config.seed)
    result = ExperimentResult(
        exp_id="ext_fleet_scale",
        title="JSQ fleet p99 vs replica count at fixed arrival rate "
              "(fastgl, shared cache tier on)",
        headers=["replicas", "p50_ms", "p99_ms", "throughput_rps",
                 "tier_hit", "tier_stale", "device_hit"],
    )
    # Singleton batching with a residency-free service keeps queueing
    # effects clean; the shared tier still shows its hit/stale split.
    serve_config = _fleet_config(config.seed, max_batch=1,
                                 batch_window_s=0.0)
    for replicas in (1, 2, 4, 8):
        report = simulate_fleet(
            "fastgl", dataset, run_config=config,
            serve_config=serve_config,
            fleet=FleetSpec(num_replicas=replicas, router="jsq",
                            cache=CacheTierConfig(enabled=True,
                                                  capacity_rows=8192,
                                                  ttl_s=0.05)))
        result.rows.append([
            replicas,
            round(report.p50 * 1e3, 3),
            round(report.p99 * 1e3, 3),
            round(report.throughput, 1),
            round(report.tier_hit_rate, 4),
            round(report.tier_stale_rate, 4),
            round(report.device_hit_rate, 4),
        ])
    result.series.append((
        "p99_ms", [str(r[0]) for r in result.rows],
        [r[2] for r in result.rows],
    ))
    result.notes.append(
        "doubling replicas divides each queue's arrival rate, so JSQ "
        "p99 falls monotonically toward the bare service time; the "
        "shared tier's TTL split shows the staleness price a fleet pays "
        "for caching embeddings that retrain underneath it"
    )
    return result


def run_chaos(dataset_name: str = "fleet-smoke",
              config: RunConfig | None = None) -> ExperimentResult:
    config = config or RunConfig(num_gpus=1, seed=0)
    dataset = fleet_demo_dataset(dataset_name, seed=config.seed)
    result = ExperimentResult(
        exp_id="ext_fleet_chaos",
        title="Replica loss mid-flash-crowd: availability ledger and "
              "autoscaler recovery (fastgl, 4 replicas)",
        headers=["crash_prob", "crashes", "rerouted", "outage",
                 "availability", "p99_ms", "scale_adds"],
    )
    serve_config = _fleet_config(config.seed, arrival="flash")
    for probability in (0.0, 0.5, 1.0):
        plan = FaultPlan(seed=99, sites={
            "replica_crash": FaultSpec(probability=probability,
                                       max_failures=1),
        })
        with fault_scope(plan):
            report = simulate_fleet(
                "fastgl", dataset, run_config=config,
                serve_config=serve_config,
                fleet=FleetSpec(
                    num_replicas=4, router="jsq",
                    autoscaler=AutoscalerConfig(
                        enabled=True, max_replicas=6,
                        add_occupancy=0.2, drain_occupancy=0.02,
                        interval_s=0.005, cooldown_s=0.02)))
        adds = sum(1 for e in report.scale_events if e.action == "add")
        result.rows.append([
            probability,
            len(report.crash_events),
            report.rerouted,
            report.outage_shed,
            round(report.availability, 4),
            round(report.p99 * 1e3, 3),
            adds,
        ])
    result.notes.append(
        "a crashed replica's queued and in-flight requests are recovered "
        "and re-routed (never silently lost): completed + shed + dropped "
        "always equals the scheduled total, and availability falls only "
        "by what genuinely could not be absorbed"
    )
    return result
