"""The online-serving event simulation.

:class:`ServerSim` wires three processes over one
:class:`~repro.sim.events.EventLoop`:

* **arrivals** — replays the deterministic request schedule through
  admission control (queue cap -> shed);
* **batcher** — drives a :class:`~repro.serve.batcher.MicroBatcher`
  (size/window triggers) and hands closed batches to the dispatch queue;
* **gpu** — drains the dispatch backlog (FastGL profiles reorder it by
  match degree), deadline-drops stale requests, and services each batch
  through the profile's modeled sample -> memory IO -> aggregate path.

Every request's journey and every GPU phase becomes a modeled span, so
the exported Chrome trace reconciles with the event-loop makespan
exactly; the :class:`ServeReport` carries per-request latencies
(p50/p95/p99), throughput, shed/drop counts and GPU occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.errors import ConfigError
from repro.faults import get_fault_plan
from repro.obs import get_registry
from repro.obs.trace import Tracer
from repro.sampling.idmap.base import sorted_unique
from repro.serve.batcher import MicroBatcher, select_next_batch
from repro.serve.profiles import ServiceTimes, ServingProfile
from repro.serve.request import RequestQueue, build_schedule
from repro.sim.events import TIMEOUT, EventLoop

#: Latency-scaled histogram buckets (seconds) for serving metrics.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving run (arrival process + server policy)."""

    #: Mean arrival rate, requests/second.
    rate: float = 500.0
    num_requests: int = 200
    #: "poisson", "bursty" or "replay" (with ``replay_times``).
    arrival: str = "poisson"
    #: Seed nodes per request (a recommendation query's candidate set).
    seeds_per_request: int = 4
    #: Micro-batch size trigger.
    max_batch: int = 16
    #: Micro-batch window trigger (seconds from batch open).
    batch_window_s: float = 0.004
    #: Admission-queue capacity; arrivals beyond it are shed.
    queue_capacity: int = 64
    #: Latency SLO; requests whose deadline passed before service start
    #: are dropped. <= 0 disables deadlines.
    slo_s: float = 0.25
    seed: int = 0
    replay_times: tuple | None = None
    #: Graceful degradation: this many deadline drops inside
    #: ``degrade_window_s`` shrink the admission capacity by
    #: ``degrade_capacity_factor`` (shed at the door instead of stalling
    #: everyone). 0 disables degradation.
    degrade_after_drops: int = 0
    degrade_window_s: float = 0.05
    degrade_capacity_factor: float = 0.5
    #: Simulated user-population size for locality-skewed seed draws
    #: (0 keeps the legacy uniform draw — bit-identical schedules).
    num_users: int = 0

    def __post_init__(self) -> None:
        for name, least in (("num_requests", 0), ("seeds_per_request", 1),
                            ("num_users", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")


class RequestLedger:
    """Request outcomes, latency percentiles, throughput and timeline
    reconciliation over a run's ``requests`` and ``makespan``.

    Shared by :class:`ServeReport` and
    :class:`~repro.serve.fleet.FleetReport`; a subclass provides those
    two attributes and :meth:`spans`, its modeled timeline.
    """

    requests: list
    makespan: float

    def spans(self) -> list:
        """Every modeled span of the run (``make_span``-style dicts)."""
        raise NotImplementedError

    # -- request outcomes ----------------------------------------------------
    @property
    def completed(self) -> list:
        return [r for r in self.requests if r.outcome == "completed"]

    @property
    def num_completed(self) -> int:
        return len(self.completed)

    @property
    def num_shed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "shed")

    @property
    def num_dropped(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "dropped")

    # -- latency/throughput --------------------------------------------------
    @property
    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.completed], dtype=float)

    def percentile(self, q: float) -> float:
        lat = self.latencies
        if len(lat) == 0:
            return float("nan")
        return float(np.percentile(lat, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_latency(self) -> float:
        lat = self.latencies
        return float(lat.mean()) if len(lat) else float("nan")

    @property
    def throughput(self) -> float:
        """Completed requests per second of makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.num_completed / self.makespan

    # -- timeline ------------------------------------------------------------
    @property
    def timeline_extent(self) -> float:
        """Latest span end — must reconcile with :attr:`makespan`."""
        spans = self.spans()
        if not spans:
            return 0.0
        return max(s["start"] + s["dur"] for s in spans)

    def reconciles(self, tol: float = 1e-6) -> bool:
        return abs(self.timeline_extent - self.makespan) <= tol


@dataclass
class ServeReport(RequestLedger):
    """Everything one serving simulation produced."""

    framework: str
    dataset: str
    config: ServeConfig
    requests: list
    batches: list
    #: Event-loop end time: when the last request left the system.
    makespan: float
    #: Per-phase busy seconds on the GPU lane.
    phase_busy: dict = field(default_factory=dict)
    #: Merged byte accounting across all serviced batches.
    transfer: object = None
    #: Modeled spans (same dict layout as training timelines).
    timeline: list = field(default_factory=list)
    #: The admission controller's counters (shed vs deadline-dropped vs
    #: degraded-mode shed stay distinguishable).
    admission: object = None

    # -- request outcomes ----------------------------------------------------
    @property
    def num_degraded_shed(self) -> int:
        """Sheds attributable to degraded-mode capacity reduction."""
        if self.admission is None:
            return 0
        return self.admission.degraded_shed

    @property
    def shed_rate(self) -> float:
        if not self.requests:
            return 0.0
        return self.num_shed / len(self.requests)

    @property
    def sla_misses(self) -> int:
        """Completed requests that finished after their deadline."""
        return sum(1 for r in self.completed if not r.met_deadline)

    # -- batches -------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        sizes = [b.size for b in self.batches]
        return float(np.mean(sizes)) if sizes else 0.0

    @property
    def occupancy(self) -> float:
        """Fraction of the makespan the GPU spent servicing batches."""
        if self.makespan <= 0:
            return 0.0
        return sum(self.phase_busy.values()) / self.makespan

    # -- timeline ------------------------------------------------------------
    def spans(self) -> list:
        return self.timeline

    def to_tracer(self) -> Tracer:
        tracer = Tracer(enabled=True)
        for span in self.timeline:
            tracer.add_span(
                span["name"], start=span["start"], duration=span["dur"],
                lane=span["lane"], category=span["cat"],
                **{k: v for k, v in span.items()
                   if k not in ("name", "start", "dur", "lane", "cat")},
            )
        return tracer

    def write_chrome_trace(self, path) -> int:
        return self.to_tracer().write_chrome_trace(
            path, pid=f"serve:{self.framework}",
            other_data={"framework": self.framework,
                        "dataset": self.dataset,
                        "makespan_s": self.makespan},
        )

    def summary(self) -> str:
        return (
            f"{self.framework} served {self.num_completed}/"
            f"{len(self.requests)} requests on {self.dataset}: "
            f"p50 {self.p50 * 1e3:.2f}ms, p95 {self.p95 * 1e3:.2f}ms, "
            f"p99 {self.p99 * 1e3:.2f}ms, "
            f"{self.throughput:.0f} req/s, "
            f"shed {self.num_shed}, dropped {self.num_dropped}, "
            f"occupancy {self.occupancy:.0%}"
        )


def schedule_requests(profile: ServingProfile, cfg: ServeConfig) -> list:
    """The deterministic request schedule one serving run replays."""
    dataset = profile.dataset
    pool = dataset.test_ids if len(dataset.test_ids) else dataset.train_ids
    return build_schedule(
        cfg.arrival, cfg.rate, cfg.num_requests, pool,
        seeds_per_request=cfg.seeds_per_request,
        slo_s=cfg.slo_s, seed=cfg.seed, replay_times=cfg.replay_times,
        num_users=cfg.num_users,
    )


class ReplicaEngine:
    """The batching + GPU service processes of one serving replica.

    Extracted from the original single-server simulation so a fleet
    (:class:`repro.serve.fleet.FleetSim`) can run N of these on one
    shared event loop. One engine owns exactly the replica-local state
    the single server always had — admission queue, micro-batcher,
    dispatch backlog, phase accounting, timeline — plus the hooks a
    fleet needs: :meth:`offer` (a router's entry point), :meth:`crash`
    (drain every queued/in-flight request for re-routing) and
    :meth:`spawn`. A fleet of one replica is therefore bit-identical to
    the pre-fleet :class:`ServerSim` — same queues, same process order,
    same spans — which the fleet conformance suite pins.
    """

    def __init__(self, loop: EventLoop, profile: ServingProfile,
                 cfg: ServeConfig, replica_id: int = 0,
                 cache_tier=None, fault_plan=None) -> None:
        self.loop = loop
        self.profile = profile
        self.cfg = cfg
        self.replica_id = int(replica_id)
        #: GPU-lane name; replica 0 keeps the historical ``gpu0``.
        self.lane = f"gpu{self.replica_id}"
        self.cache_tier = cache_tier
        self.fault_plan = (fault_plan if fault_plan is not None
                           else get_fault_plan())
        self.admitted = loop.queue(f"admitted{self.replica_id}")
        self.dispatch = loop.queue(f"dispatch{self.replica_id}")
        self.admission = RequestQueue(
            cfg.queue_capacity,
            degrade_after_drops=cfg.degrade_after_drops,
            degrade_window_s=cfg.degrade_window_s,
            degrade_capacity_factor=cfg.degrade_capacity_factor,
        )
        self.batcher = MicroBatcher(cfg.max_batch, cfg.batch_window_s)
        self.timeline: list = []
        self.batches: list = []
        self.backlog: list = []
        self.phase_busy = {"sample": 0.0, "memory_io": 0.0, "compute": 0.0}
        self.transfer_total = None
        #: Requests currently on the GPU (re-routed if we crash mid-pass).
        self.inflight: list = []
        #: Every request that reached a terminal outcome at this replica.
        self.touched: list = []
        self.alive = True
        #: Draining replicas finish their backlog but accept no routing.
        self.draining = False
        self.started_at = loop.now
        self.stopped_at: float | None = None
        self.crashed_at: float | None = None
        self.last_exit = 0.0
        #: Optional fleet callback ``(request, now)`` on terminal exit.
        self.on_exit = None
        self.tier_hits = 0
        self.tier_stale = 0
        self.tier_lookups = 0

        registry = get_registry()
        self._obs_outcome = registry.counter(
            "repro_serve_requests_total",
            "Inference requests by final outcome",
        )
        self._obs_latency = registry.histogram(
            "repro_serve_latency_seconds",
            "End-to-end request latency (arrival to completion)",
            buckets=LATENCY_BUCKETS,
        ).labels(framework=profile.name)
        self._obs_batch = registry.histogram(
            "repro_serve_batch_size",
            "Requests coalesced per micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        ).labels(framework=profile.name)
        self._obs_busy = registry.counter(
            "repro_serve_busy_seconds_total",
            "Modeled GPU seconds per serving phase",
        )
        # Distinct exit counters: shed (admission refused on arrival,
        # including degraded-mode sheds) vs deadline-dropped (admitted
        # but stale at service start) must never fold together.
        self._obs_shed = registry.counter(
            "repro_serve_shed_requests_total",
            "Requests refused by admission control (queue full or "
            "degraded mode)",
        ).labels(framework=profile.name)
        self._obs_deadline_dropped = registry.counter(
            "repro_serve_deadline_dropped_total",
            "Admitted requests dropped because their deadline passed "
            "before service start",
        ).labels(framework=profile.name)

    # -- fleet-facing state --------------------------------------------------
    @property
    def load(self) -> int:
        """Requests admitted but not yet in service (the JSQ signal)."""
        return self.admission.depth

    @property
    def resident_nodes(self) -> np.ndarray:
        """Feature rows resident on this replica's device (Match state)."""
        return self.profile.resident_nodes

    @property
    def accepting(self) -> bool:
        """Whether a router may send new requests here."""
        return self.alive and not self.draining

    @property
    def idle(self) -> bool:
        """No admitted, batching, backlogged or in-flight work."""
        return (self.load == 0 and not self.inflight
                and not self.batcher.has_open_batch and not self.backlog
                and len(self.dispatch) == 0)

    def spawn(self) -> None:
        """Register the replica's batching + GPU processes on the loop."""
        self.loop.spawn(self._batching())
        self.loop.spawn(self._gpu())

    # -- request entry and exit ----------------------------------------------
    def offer(self, request, now: float) -> bool:
        """Route one request into this replica's admission queue."""
        if self.admission.offer(request, now):
            self.admitted.put(request)
            return True
        outcome = request.outcome  # "shed", or a degraded-mode door-drop
        self._queue_span(request, now, outcome)
        self._obs_outcome.labels(framework=self.profile.name,
                                 outcome=outcome).inc()
        if outcome == "dropped":
            self._obs_deadline_dropped.inc()
        else:
            self._obs_shed.inc()
        self._exit(request, now)
        return False

    def _exit(self, request, now: float) -> None:
        self.last_exit = max(self.last_exit, now)
        self.touched.append(request)
        if self.on_exit is not None:
            self.on_exit(request, now)

    def _queue_span(self, request, end: float, outcome: str) -> None:
        self.timeline.append({
            "lane": "requests", "name": f"{outcome}[{request.req_id}]",
            "cat": "queue", "start": request.arrival,
            "dur": max(0.0, end - request.arrival),
            "request": request.req_id,
        })

    # -- crash / drain -------------------------------------------------------
    def crash(self, now: float) -> list:
        """Kill the replica; return every request it was holding.

        Queued, batching, backlogged and in-flight requests are all
        recovered (their outcome reset to ``pending``) so the fleet can
        re-route instead of losing them. The replica's processes observe
        ``alive == False`` at their next resume and stop.
        """
        self.alive = False
        self.draining = True
        self.crashed_at = now
        self.stopped_at = now
        stranded: list = []
        stranded.extend(self.admitted.drain())
        stranded.extend(self.batcher.drain_open())
        for batch in self.backlog:
            stranded.extend(batch.requests)
        self.backlog = []
        while True:
            extra = self.dispatch.get_nowait()
            if extra is TIMEOUT:
                break
            stranded.extend(extra.requests)
        stranded.extend(self.inflight)
        self.inflight = []
        for request in stranded:
            request.outcome = "pending"
            request.reroutes += 1
        # Spans of the abandoned in-flight batch were written at dispatch
        # time and extend past the crash; cut them at the moment of death
        # (and refund the unserved GPU seconds) so the replica's timeline
        # still reconciles with its lifetime.
        kept = []
        for span in self.timeline:
            end = span["start"] + span["dur"]
            if end > now + 1e-12:
                new_dur = max(0.0, now - span["start"])
                if span["cat"] in self.phase_busy:
                    self.phase_busy[span["cat"]] -= span["dur"] - new_dur
                if new_dur <= 0.0:
                    continue
                span = dict(span, dur=new_dur)
            kept.append(span)
        self.timeline = kept
        self.timeline.append({
            "lane": self.lane, "name": "replica_crash",
            "cat": "fault_crash", "start": now, "dur": 0.0,
        })
        return stranded

    # -- report --------------------------------------------------------------
    def report(self, requests, makespan: float) -> ServeReport:
        """This replica's serving report over ``requests``."""
        return ServeReport(
            framework=self.profile.name,
            dataset=self.profile.dataset.name,
            config=self.cfg,
            requests=requests,
            batches=self.batches,
            makespan=makespan,
            phase_busy=self.phase_busy,
            transfer=self.transfer_total,
            timeline=self.timeline,
            admission=self.admission.stats,
        )

    # -- the serving processes -----------------------------------------------
    def _batching(self):
        loop = self.loop
        while True:
            first = yield self.admitted.get()
            if not self.alive:
                return
            full = self.batcher.open(first, loop.now)
            while not full:
                remaining = self.batcher.close_deadline - loop.now
                if remaining <= 0:
                    break
                item = yield self.admitted.get(timeout=remaining)
                if not self.alive:
                    return
                if item is TIMEOUT:
                    break
                full = self.batcher.add(item, loop.now)
            self.dispatch.put(self.batcher.close(
                loop.now, trigger="size" if full else "window"))

    def _through_cache_tier(self, times, subgraph):
        """Skip the host fetch for rows the shared tier holds fresh."""
        if self.cache_tier is None:
            return times
        nodes = subgraph.unique_input_nodes()
        hits, stale, missed = self.cache_tier.lookup(nodes, self.loop.now)
        self.tier_lookups += len(nodes)
        self.tier_hits += len(hits)
        self.tier_stale += len(stale)
        self.cache_tier.insert(np.concatenate([stale, missed]),
                               self.loop.now)
        if len(nodes) == 0 or len(hits) == 0:
            return times
        saved = (times.memory_io * (len(hits) / len(nodes))
                 * self.cache_tier.config.io_savings)
        return ServiceTimes(sample=times.sample,
                            memory_io=times.memory_io - saved,
                            compute=times.compute)

    def _gpu(self):
        loop = self.loop
        profile = self.profile
        while True:
            if not self.backlog:
                batch = yield self.dispatch.get()
                if not self.alive:
                    return
                self.backlog.append(batch)
            while True:  # drain batches that closed while busy
                extra = self.dispatch.get_nowait()
                if extra is TIMEOUT:
                    break
                self.backlog.append(extra)
            index = 0
            if profile.reorder_backlog and len(self.backlog) > 1:
                index = select_next_batch(self.backlog,
                                          profile.resident_nodes)
            batch = self.backlog.pop(index)
            live = []
            for request in batch.requests:
                if self.admission.take(request, loop.now):
                    live.append(request)
                else:
                    self._queue_span(request, loop.now, "dropped")
                    self._obs_outcome.labels(framework=profile.name,
                                             outcome="dropped").inc()
                    self._obs_deadline_dropped.inc()
                    self._exit(request, loop.now)
            if not live:
                continue
            seeds = sorted_unique(np.concatenate(
                [r.seeds for r in live]))
            times, subgraph, transfer = profile.service(seeds)
            if self.transfer_total is None:
                self.transfer_total = type(transfer)()
            self.transfer_total.merge(transfer)
            times = self._through_cache_tier(times, subgraph)
            self.inflight = live
            start = loop.now
            cursor = start
            stall = 0.0
            if self.fault_plan.enabled:
                # An injected serving stall (a wedged GPU, a blown
                # request deadline upstream) delays this batch's
                # whole service; the admission queue's degradation
                # logic is what keeps the backlog from melting down.
                # Replica 0 keeps the historical per-batch key so
                # single-server runs are unchanged; other replicas
                # decorrelate with a large odd stride.
                stall = self.fault_plan.stall(
                    "serve_stall",
                    key=batch.batch_id + self.replica_id * 1_000_003)
                if stall > 0:
                    self.timeline.append({
                        "lane": self.lane,
                        "name": f"fault_stall[{batch.batch_id}]",
                        "cat": "fault_stall", "start": cursor,
                        "dur": stall, "batch": batch.batch_id,
                    })
                    cursor += stall
                    self.phase_busy["fault_stall"] = (
                        self.phase_busy.get("fault_stall", 0.0) + stall)
                    self._obs_busy.labels(framework=profile.name,
                                          phase="fault_stall").inc(stall)
            for phase, duration in (("sample", times.sample),
                                    ("memory_io", times.memory_io),
                                    ("compute", times.compute)):
                if duration > 0:
                    self.timeline.append({
                        "lane": self.lane,
                        "name": f"{phase}[{batch.batch_id}]",
                        "cat": phase, "start": cursor,
                        "dur": duration, "batch": batch.batch_id,
                    })
                    cursor += duration
                self.phase_busy[phase] += duration
                self._obs_busy.labels(framework=profile.name,
                                      phase=phase).inc(duration)
            yield times.total + stall
            if not self.alive:
                # Crashed mid-pass: the crash handler already re-routed
                # self.inflight; this service never completed.
                return
            batch.service_start = start
            batch.service_end = loop.now
            batch.requests = live
            self.batches.append(batch)
            self.inflight = []
            self._obs_batch.observe(len(live))
            for request in live:
                request.completion = loop.now
                request.outcome = "completed"
                self._queue_span(request, start, "wait")
                self._obs_outcome.labels(framework=profile.name,
                                         outcome="completed").inc()
                self._obs_latency.observe(request.latency)
                self._exit(request, loop.now)


class ServerSim:
    """One framework's serving simulation over one request schedule."""

    def __init__(self, profile: ServingProfile,
                 serve_config: ServeConfig | None = None) -> None:
        self.profile = profile
        self.serve_config = serve_config or ServeConfig()

    def _schedule(self) -> list:
        return schedule_requests(self.profile, self.serve_config)

    def run(self) -> ServeReport:
        cfg = self.serve_config
        requests = self._schedule()
        loop = EventLoop()
        engine = ReplicaEngine(loop, self.profile, cfg)

        def arrivals():
            for request in requests:
                yield max(0.0, request.arrival - loop.now)
                engine.offer(request, loop.now)

        loop.spawn(arrivals())
        engine.spawn()
        makespan = loop.run()
        return engine.report(requests, makespan)


def simulate(
    framework,
    dataset,
    *,
    run_config: RunConfig | None = None,
    serve_config: ServeConfig | None = None,
    model: str = "gcn",
) -> ServeReport:
    """Build a profile for ``framework`` and run one serving simulation."""
    run_config = run_config or RunConfig(num_gpus=1)
    profile = ServingProfile.build(framework, dataset, run_config,
                                   model=model)
    return ServerSim(profile, serve_config).run()
