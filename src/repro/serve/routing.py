"""Request routing policies for the serving fleet.

A :class:`Router` picks which replica an arriving request enters. Three
policies ship:

* **round-robin** — arrival order modulo live replicas; the control
  every fleet experiment is measured against.
* **jsq** (join-shortest-queue) — classic load balancing on admission
  depth; optimal for latency when service times are i.i.d., blind to
  *what* each replica has cached.
* **match-affinity** — the FastGL Match insight lifted from batching to
  routing: send the request to the replica whose **resident feature
  rows** (the Match-aware cache state the profile already tracks)
  overlap its seeds the most, measured by
  :func:`repro.core.match.match_degree`. Below :data:`MATCH_THRESHOLD`
  the signal is noise — fall back to JSQ so cold replicas still share
  load.

Every policy breaks ties on the lowest replica index (the same pinned
tie rule as Greedy Reorder), so routing decisions are deterministic and
replayable.
"""

from __future__ import annotations

import numpy as np

# benchmarks/e2e/trace.py wraps ``match_degree`` here by name: keep it.
from repro.core.match import match_degree  # noqa: F401
from repro.errors import ConfigError
from repro.sampling.idmap.base import sorted_unique
from repro.serve.request import InferenceRequest

#: Match-affinity score floor; below it the router falls back to JSQ.
MATCH_THRESHOLD = 0.125
#: Admitted requests a match-affinity pick may sit past the shortest
#: queue (the bounded-load guard).
LOAD_SLACK = 4


class Router:
    """Base routing policy over a live replica set.

    ``choose`` receives the replicas currently accepting traffic (never
    empty — the fleet handles the total-outage case itself) and the
    arriving request; it returns one of them. Policies are stateful
    (round-robin keeps a cursor) but must depend only on the replica
    set, the request and their own state — never on wall clock or
    global RNG — so a fleet replay is deterministic.
    """

    name = "base"

    def choose(self, replicas: list, request: InferenceRequest):
        raise NotImplementedError

    def replica_lost(self, replica) -> None:
        """Notification that ``replica`` left the live set (crash or
        drain); stateful policies re-anchor their cursors here."""


class RoundRobinRouter(Router):
    """Arrival order modulo live replicas (lowest index first)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, replicas: list, request: InferenceRequest):
        chosen = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return chosen

    def replica_lost(self, replica) -> None:
        # Keep the cadence: the cursor is modulo whatever set survives.
        self._cursor = 0


def join_shortest_queue(replicas: list):
    """The JSQ pick: least admission depth, lowest index on ties."""
    best = replicas[0]
    for replica in replicas[1:]:
        if replica.load < best.load:
            best = replica
    return best


class JoinShortestQueueRouter(Router):
    """Route to the replica with the fewest admitted-but-unserved
    requests; ties go to the lowest replica index."""

    name = "jsq"

    def choose(self, replicas: list, request: InferenceRequest):
        return join_shortest_queue(replicas)


class MatchAffinityRouter(Router):
    """Route by match degree against each replica's resident rows.

    The serving analogue of the paper's Match stage one level up: a
    replica that just served this user cluster still holds most of the
    feature rows the request's fan-out will want, so sending the
    request there turns into cache hits instead of PCIe traffic. The
    score is ``match_degree(request.seeds, replica.resident_nodes)``,
    computed from the request's unique seeds (found once per request) and
    one ``np.searchsorted`` into each replica's sorted-unique residency;
    when no replica clears :data:`MATCH_THRESHOLD` (cold start, disjoint
    users) the policy degrades to JSQ so affinity never starves load
    balancing. Ties break to the lowest replica index.

    **Bounded load.** Pure affinity hotspots: one popular user cluster
    pins its replica while the rest idle, and the hot queue's delay
    swamps everything residency saved. Affinity therefore only
    considers replicas within :data:`LOAD_SLACK` admitted requests of the
    shortest queue — the bounded-load variant of consistent-hashing
    routers — so the policy trades at most :data:`LOAD_SLACK` positions
    of queueing for locality.
    """

    name = "match-affinity"

    def choose(self, replicas: list, request: InferenceRequest):
        seeds = sorted_unique(np.asarray(request.seeds, dtype=np.int64))
        min_load = min(r.load for r in replicas)
        best = None
        best_score = -1.0
        for replica in replicas:
            if replica.load > min_load + LOAD_SLACK:
                continue
            resident = replica.resident_nodes
            if len(resident) == 0:
                continue
            score = 0.0
            if len(seeds):
                # Both sets are unique, so the seeds found in the residency
                # are the overlap whichever set is the smaller. (in_sorted
                # would scatter the whole residency into a bitmap here.)
                pos = np.minimum(np.searchsorted(resident, seeds),
                                 len(resident) - 1)
                overlap = int(np.count_nonzero(resident[pos] == seeds))
                score = overlap / min(len(seeds), len(resident))
            if score > best_score + 1e-12:
                best, best_score = replica, score
        if best is None or best_score < MATCH_THRESHOLD:
            return join_shortest_queue(replicas)
        return best


#: Registry of routing policies (CLI/API names -> factory).
ROUTER_POLICIES = {
    "round-robin": RoundRobinRouter,
    "jsq": JoinShortestQueueRouter,
    "match-affinity": MatchAffinityRouter,
}


def build_router(policy: str) -> Router:
    """Instantiate a registered policy by name."""
    if policy not in ROUTER_POLICIES:
        raise ConfigError(
            f"unknown routing policy {policy!r}; registered: "
            f"{sorted(ROUTER_POLICIES)}")
    return ROUTER_POLICIES[policy]()
