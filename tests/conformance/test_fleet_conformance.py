"""Fleet conformance: a one-replica fleet IS the single server, and
one cold start per fleet IS one per replica.

For every registered framework's serving profile, a fleet of one
replica behind round-robin routing with the autoscaler and cache tier
off must reproduce the plain :class:`ServerSim` run **bit-identically**:
same per-request outcomes and latencies, same report aggregates, same
modeled timeline span-for-span, and both timelines reconciling with
their makespans to ``1e-6``. This pins the ``ReplicaEngine`` extraction:
the fleet abstraction may add capability, never drift.

:func:`simulate_fleet` builds one serving profile and gives every
replica (initial, autoscaled or replacement) a copy of it. The reference
here is the per-replica cold start it replaced: :class:`FleetSim` driven
by a factory that runs :meth:`ServingProfile.build` for each replica.
Both must agree on every request, every replica timeline, the transfer
totals, the makespan and the crash and scale events.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from helpers import make_spec  # noqa: E402
from repro.config import RunConfig  # noqa: E402
from repro.faults import FaultPlan, FaultSpec, fault_scope  # noqa: E402
from repro.frameworks.registry import available_frameworks  # noqa: E402
from repro.graph.datasets import Dataset  # noqa: E402
from repro.serve import (  # noqa: E402
    AutoscalerConfig,
    FleetSim,
    FleetSpec,
    ServeConfig,
    ServingProfile,
    simulate,
    simulate_fleet,
)

RECONCILE_TOL = 1e-6

FRAMEWORKS = list(available_frameworks())


@pytest.fixture(scope="module")
def serve_dataset() -> Dataset:
    spec = make_spec(
        name="fleet-conformance",
        num_nodes=800,
        avg_degree=8.0,
        feature_dim=16,
        num_classes=4,
        train_fraction=0.3,
    )
    return Dataset(spec, seed=7)


def _serve_config() -> ServeConfig:
    # High enough rate that batching, backlog reorder, shed and
    # deadline-drop paths all exercise.
    return ServeConfig(rate=20_000.0, num_requests=120,
                       seeds_per_request=6, max_batch=8,
                       batch_window_s=0.002, queue_capacity=32,
                       slo_s=0.05, seed=13)


def _run_config() -> RunConfig:
    return RunConfig(num_gpus=1, fanouts=(3, 3), seed=13)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_one_replica_fleet_is_bit_identical(framework, serve_dataset):
    single = simulate(framework, serve_dataset,
                      run_config=_run_config(),
                      serve_config=_serve_config())
    fleet = simulate_fleet(framework, serve_dataset,
                           run_config=_run_config(),
                           serve_config=_serve_config(),
                           fleet=FleetSpec(num_replicas=1,
                                           router="round-robin"))
    assert len(fleet.replicas) == 1
    replica = fleet.replicas[0]

    # Same clock: the fleet makespan and the replica's lifetime are the
    # single server's makespan exactly.
    assert fleet.makespan == single.makespan
    assert replica.makespan == single.makespan

    # Per-request journeys: identical outcomes and latencies.
    single_by_id = {r.req_id: r for r in single.requests}
    fleet_by_id = {r.req_id: r for r in fleet.requests}
    assert single_by_id.keys() == fleet_by_id.keys()
    for req_id, ours in single_by_id.items():
        theirs = fleet_by_id[req_id]
        assert ours.outcome == theirs.outcome, req_id
        assert ours.arrival == theirs.arrival, req_id
        assert ours.completion == theirs.completion, req_id

    # Report aggregates field-for-field.
    assert replica.num_completed == single.num_completed
    assert replica.num_shed == single.num_shed
    assert replica.num_dropped == single.num_dropped
    assert replica.phase_busy == single.phase_busy
    assert replica.mean_batch_size == single.mean_batch_size
    np.testing.assert_array_equal(
        np.sort(replica.latencies), np.sort(single.latencies))
    if single.transfer is not None:
        assert replica.transfer.num_wanted == single.transfer.num_wanted
        assert replica.transfer.num_reused == single.transfer.num_reused

    # The modeled timeline, span for span.
    assert replica.timeline == single.timeline

    # Both reconcile to tolerance.
    assert single.reconciles(RECONCILE_TOL)
    assert replica.reconciles(RECONCILE_TOL)
    assert fleet.reconciles(RECONCILE_TOL)

    # Fleet bookkeeping is quiet: nothing rerouted, no outage, no
    # scaling, no crashes.
    assert fleet.rerouted == 0
    assert fleet.outage_shed == 0
    assert fleet.scale_events == []
    assert fleet.crash_events == []


# -- one cold start per fleet ---------------------------------------------------
#: Fleet cells: the three routers at three replicas, and an autoscaled
#: fleet losing replicas to ``replica_crash`` (its adds are copies made
#: mid-run, after other copies have served).
COLD_START_CELLS = {
    "round-robin": (FleetSpec(num_replicas=3, router="round-robin"), 0.0),
    "jsq": (FleetSpec(num_replicas=3, router="jsq"), 0.0),
    "match-affinity": (FleetSpec(num_replicas=3, router="match-affinity"),
                       0.0),
    "autoscale-crash": (FleetSpec(
        num_replicas=3, router="jsq",
        autoscaler=AutoscalerConfig(enabled=True, max_replicas=6,
                                    add_occupancy=0.1,
                                    drain_occupancy=0.01,
                                    interval_s=0.0005, cooldown_s=0.001)),
        0.5),
}


def _fleet(run, crash_probability: float):
    if not crash_probability:
        return run()
    plan = FaultPlan(seed=0, sites={"replica_crash": FaultSpec(
        probability=crash_probability, max_failures=1)})
    with fault_scope(plan):
        return run()


def _per_replica_build(framework, dataset):
    """The reference factory: a full cold start for every replica."""
    def factory() -> ServingProfile:
        return ServingProfile.build(framework, dataset, _run_config())
    return factory


@pytest.mark.parametrize("cell", sorted(COLD_START_CELLS))
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_shared_cold_start_is_bit_identical(framework, cell, serve_dataset):
    spec, crash_probability = COLD_START_CELLS[cell]
    want = _fleet(lambda: FleetSim(
        _per_replica_build(framework, serve_dataset), _serve_config(),
        spec).run(), crash_probability)
    got = _fleet(lambda: simulate_fleet(
        framework, serve_dataset, run_config=_run_config(),
        serve_config=_serve_config(), fleet=spec), crash_probability)

    if crash_probability:
        # The cell must exercise what it is for.
        assert want.crash_events, "no replica crashed"
        assert any(e.action == "add" for e in want.scale_events)
    assert got.makespan == want.makespan
    assert ([(r.req_id, r.outcome, r.arrival, r.completion, r.reroutes)
             for r in got.requests]
            == [(r.req_id, r.outcome, r.arrival, r.completion, r.reroutes)
                for r in want.requests])
    np.testing.assert_array_equal(got.latencies, want.latencies)
    assert len(got.replicas) == len(want.replicas)
    for ours, theirs in zip(got.replicas, want.replicas):
        assert ours.timeline == theirs.timeline
        assert ours.phase_busy == theirs.phase_busy
        assert ours.transfer == theirs.transfer
        assert ours.makespan == theirs.makespan
    assert got.crash_events == want.crash_events
    assert got.scale_events == want.scale_events
    assert got.rerouted == want.rerouted
    assert got.outage_shed == want.outage_shed
    assert got.reconciles(RECONCILE_TOL)


def _profile_state(profile: ServingProfile) -> tuple:
    """What serving one batch may move: the sampler's RNG, the Match
    residency and the loader cache's counters."""
    cache = getattr(profile.loader, "cache", None)
    counters = None
    if cache is not None:
        counters = (cache.hits, cache.misses,
                    getattr(cache, "evictions", None))
    return (profile.sampler.rng.bit_generator.state,
            profile.resident_nodes.tolist(), counters)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_profile_copies_are_isolated(framework, serve_dataset):
    template = ServingProfile.build(framework, serve_dataset, _run_config())
    served, sibling = template.copy(), template.copy()
    fresh = ServingProfile.build(framework, serve_dataset, _run_config())
    start = _profile_state(fresh)
    # A copy starts exactly where a fresh build does ...
    assert _profile_state(served) == start
    cache = getattr(fresh.loader, "cache", None)
    if cache is not None and hasattr(cache, "cached_ids"):
        np.testing.assert_array_equal(served.loader.cache.cached_ids,
                                      cache.cached_ids)
        # ... shares what nothing mutates ...
        assert (served.loader.cache.cached_ids
                is template.loader.cache.cached_ids)
    assert served.framework is template.framework
    assert served.sampler.graph is serve_dataset.graph
    assert served.costs is template.costs
    assert served.sampler is not template.sampler
    assert served.loader is not template.loader

    seeds = np.sort(serve_dataset.train_ids[:8])
    for _ in range(2):
        served.service(seeds)
    # ... and owns what serving moves.
    assert _profile_state(served) != start
    assert _profile_state(template) == start
    assert _profile_state(sibling) == start
