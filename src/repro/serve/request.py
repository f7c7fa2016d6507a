"""Inference requests, arrival processes, and admission control.

One :class:`InferenceRequest` is a k-hop neighborhood query: *give me
predictions for these seed nodes*. The serving hot path it triggers —
sample the k-hop subgraph, fetch the feature rows, aggregate — is the
same three-phase loop the paper profiles for training (Fig. 1), which is
why the paper's GPU-efficiency techniques transfer to serving unchanged.

Arrival processes generate deterministic request schedules (Poisson,
bursty, or a flash crowd); :class:`RequestQueue` applies admission
control in front of the micro-batcher: a queue cap (load shedding) and
deadline-based dropping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import RngFactory, ensure_rng


@dataclass
class InferenceRequest:
    """One online inference query."""

    req_id: int
    #: Virtual-time arrival (seconds since the simulation epoch).
    arrival: float
    #: Seed node IDs whose predictions the client wants.
    seeds: np.ndarray
    #: Latest acceptable completion time (arrival + SLO), or +inf.
    deadline: float = float("inf")
    #: Filled in by the server simulation.
    completion: float | None = None
    outcome: str = "pending"  # pending | completed | shed | dropped
    #: Simulated user the query came from (-1 = anonymous population).
    user_id: int = -1
    #: Times a fleet re-routed this request after a replica loss.
    reroutes: int = 0

    @property
    def latency(self) -> float:
        """Sojourn time (completion - arrival); NaN until completed."""
        if self.completion is None:
            return float("nan")
        return self.completion - self.arrival

    @property
    def met_deadline(self) -> bool:
        return self.completion is not None and self.completion <= self.deadline


def poisson_arrivals(rate: float, num_requests: int, rng=None) -> np.ndarray:
    """Arrival times of a Poisson process with ``rate`` requests/second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = ensure_rng(rng)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    return np.cumsum(gaps)


def bursty_arrivals(
    rate: float,
    num_requests: int,
    rng=None,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
) -> np.ndarray:
    """A two-state modulated Poisson process (calm / burst).

    Each request is drawn from the burst state with probability
    ``burst_fraction``; burst gaps are ``burst_factor`` times shorter.
    Rates are normalized so the *mean* rate stays ``rate``, making bursty
    and Poisson schedules comparable at equal load.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not 0.0 <= burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in [0, 1)")
    rng = ensure_rng(rng)
    # mean gap = (1-f)/calm_rate + f/(calm_rate*factor) == 1/rate
    calm_rate = rate * ((1.0 - burst_fraction)
                        + burst_fraction / burst_factor)
    in_burst = rng.random(num_requests) < burst_fraction
    gaps = rng.exponential(1.0 / calm_rate, size=num_requests)
    gaps[in_burst] /= burst_factor
    return np.cumsum(gaps)


def flash_crowd_arrivals(
    rate: float,
    num_requests: int,
    rng=None,
    flash_start_frac: float = 0.4,
    flash_requests_frac: float = 0.4,
    flash_factor: float = 10.0,
) -> np.ndarray:
    """A Poisson baseline with one flash crowd in the middle.

    ``flash_requests_frac`` of the requests arrive at ``flash_factor``
    times the baseline rate, starting once ``flash_start_frac`` of the
    baseline requests have landed — a breaking-news spike hitting a
    steady service. The autoscaler and chaos experiments key off this
    shape: the spike is where queues build and a replica loss hurts most.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not 0.0 <= flash_start_frac < 1.0:
        raise ValueError("flash_start_frac must be in [0, 1)")
    if not 0.0 < flash_requests_frac < 1.0:
        raise ValueError("flash_requests_frac must be in (0, 1)")
    if flash_factor < 1.0:
        raise ValueError("flash_factor must be >= 1")
    rng = ensure_rng(rng)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    flash_len = max(1, int(num_requests * flash_requests_frac))
    flash_at = int((num_requests - flash_len) * flash_start_frac)
    gaps[flash_at:flash_at + flash_len] /= flash_factor
    return np.cumsum(gaps)


#: Name -> generator for the CLI / config surface.
ARRIVAL_PROCESSES = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "flash": flash_crowd_arrivals,
}


#: Power-law exponent of the user-popularity draw: ``user = floor(U *
#: uniform**USER_SKEW)`` concentrates traffic on low-numbered users the
#: way a real service's hot accounts dominate its request log.
USER_SKEW = 3.0

#: A user's personal seed pool is this many times ``seeds_per_request``
#: wide — repeat queries from one user overlap heavily but are not
#: byte-identical, which is what match-affinity routing exploits.
USER_WINDOW_FACTOR = 4


def build_schedule(
    process: str,
    rate: float,
    num_requests: int,
    seed_pool: np.ndarray,
    seeds_per_request: int,
    slo_s: float,
    seed: int = 0,
    num_users: int = 0,
) -> list:
    """Materialize the full deterministic request schedule.

    ``seed_pool`` is the node-ID population queries draw from (typically
    the dataset's held-out split).

    ``num_users > 0`` switches on the population model: each request is
    issued by one of ``num_users`` simulated users (drawn from a skewed
    popularity distribution, so a planet-scale population of millions
    still concentrates traffic on its hot users) and draws its seeds
    from that user's personal window of the pool instead of uniformly.
    Repeat traffic from one user therefore overlaps — the inter-request
    locality that Match-style caching and affinity routing convert into
    saved feature traffic. ``num_users == 0`` keeps the historical
    uniform draw, bit-identical to earlier schedules.
    """
    rngs = RngFactory(seed)
    try:
        generator = ARRIVAL_PROCESSES[process]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {process!r}; available: "
            f"{sorted(ARRIVAL_PROCESSES)}"
        ) from None
    times = generator(rate, num_requests, rng=rngs.child("arrivals"))
    seed_rng = rngs.child("request-seeds")
    size = min(seeds_per_request, len(seed_pool))
    window = min(len(seed_pool), max(size, USER_WINDOW_FACTOR * size))
    requests = []
    for i, t in enumerate(times):
        user = -1
        if num_users > 0:
            user = int(num_users * seed_rng.random() ** USER_SKEW)
            user = min(user, num_users - 1)
            # The user's window tiles the pool; distinct users with
            # distinct windows share nothing, hot users repeat theirs.
            start = (user * window) % max(1, len(seed_pool) - window + 1)
            pool = seed_pool[start:start + window]
        else:
            pool = seed_pool
        seeds = seed_rng.choice(pool, size=size, replace=False)
        requests.append(InferenceRequest(
            req_id=i,
            arrival=float(t),
            seeds=np.sort(seeds.astype(np.int64)),
            deadline=float(t) + slo_s if slo_s > 0 else float("inf"),
            user_id=user,
        ))
    return requests


@dataclass
class AdmissionStats:
    """Counters the admission controller maintains.

    ``shed`` (queue full on arrival) and ``dropped`` (deadline already
    passed at service start) are disjoint exits and reported under
    distinct metrics; ``degraded_shed`` is the subset of ``shed`` caused
    by the degraded-mode capacity reduction rather than the queue
    actually being full.
    """

    admitted: int = 0
    shed: int = 0
    dropped: int = 0
    degraded_shed: int = 0

    @property
    def refused(self) -> int:
        """Requests that never reached service (shed + dropped)."""
        return self.shed + self.dropped

    def merge(self, other: "AdmissionStats") -> "AdmissionStats":
        """Fold another queue's counters in (fleet-level aggregation)."""
        self.admitted += other.admitted
        self.shed += other.shed
        self.dropped += other.dropped
        self.degraded_shed += other.degraded_shed
        return self


class RequestQueue:
    """Admission control in front of the micro-batcher.

    ``capacity`` bounds the number of requests admitted but not yet in
    service; arrivals beyond it are shed immediately (the load-shedding
    half of admission control). Requests whose deadline has already
    passed when the batcher would take them are dropped (deadline drop) —
    serving a guaranteed-late answer only adds queueing delay for
    everyone behind it.

    **Graceful degradation.** With ``degrade_after_drops > 0``, the
    queue watches for deadline-drop bursts (a fault-injected GPU stall,
    a slow storage tier): once that many drops land inside
    ``degrade_window_s``, the admission capacity shrinks by
    ``degrade_capacity_factor`` so new arrivals are shed at the door
    instead of queueing behind work that will blow its deadline anyway.
    Capacity recovers as soon as the window drains.
    """

    def __init__(self, capacity: int, degrade_after_drops: int = 0,
                 degrade_window_s: float = 0.05,
                 degrade_capacity_factor: float = 0.5) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < degrade_capacity_factor <= 1.0:
            raise ValueError("degrade_capacity_factor must be in (0, 1]")
        self.capacity = int(capacity)
        self.degrade_after_drops = int(degrade_after_drops)
        self.degrade_window_s = float(degrade_window_s)
        self.degrade_capacity_factor = float(degrade_capacity_factor)
        self.stats = AdmissionStats()
        self._in_queue = 0
        self._recent_drops: list = []

    @property
    def depth(self) -> int:
        """Requests currently admitted but not yet in service."""
        return self._in_queue

    def degraded(self, now: float) -> bool:
        """Whether the recent deadline-drop rate tripped degraded mode."""
        if self.degrade_after_drops <= 0:
            return False
        cutoff = now - self.degrade_window_s
        self._recent_drops = [t for t in self._recent_drops if t >= cutoff]
        return len(self._recent_drops) >= self.degrade_after_drops

    def _capacity_when(self, degraded: bool) -> int:
        if degraded:
            return max(1, int(self.capacity * self.degrade_capacity_factor))
        return self.capacity

    def effective_capacity(self, now: float) -> int:
        """Current admission cap (shrunk while degraded)."""
        return self._capacity_when(self.degraded(now))

    def offer(self, request: InferenceRequest, now: float) -> bool:
        """Admit or refuse ``request`` at time ``now``.

        Refusals are classified by *cause*, and the causes are disjoint:
        while degraded, a request whose deadline has already passed is a
        **deadline drop at the door** (``dropped``) — never a shed.
        Before this rule, the same guaranteed-late request was charged to
        ``degraded_shed`` when it arrived at the reduced-capacity
        boundary but to ``dropped`` when it squeaked in below the cap
        and was taken a moment later, so the two counters double-counted
        the one deadline casualty class right at the boundary the
        degradation window watches.
        """
        degraded = self.degraded(now)
        if degraded and now > request.deadline:
            request.outcome = "dropped"
            request.completion = now
            self.stats.dropped += 1
            # A door-drop is the same casualty class as a take()-drop:
            # it keeps the degradation window armed.
            self._recent_drops.append(now)
            return False
        cap = self._capacity_when(degraded)
        if self._in_queue >= cap:
            request.outcome = "shed"
            request.completion = now
            self.stats.shed += 1
            if self._in_queue < self.capacity:
                self.stats.degraded_shed += 1
            return False
        request.outcome = "queued"
        self.stats.admitted += 1
        self._in_queue += 1
        return True

    def take(self, request: InferenceRequest, now: float) -> bool:
        """Move ``request`` from the queue into service; False = deadline
        drop (the request leaves the system instead)."""
        self._in_queue -= 1
        if now > request.deadline:
            request.outcome = "dropped"
            request.completion = now
            self.stats.dropped += 1
            if self.degrade_after_drops > 0:
                self._recent_drops.append(now)
            return False
        request.outcome = "in_service"
        return True
