"""Deterministic, seedable fault injection.

A :class:`FaultPlan` describes *where* and *how often* the simulated
hardware misbehaves: each **site** (a named injection point compiled into
the hot paths — NVMe reads, PCIe transfers, worker processes, the serving
GPU lane) carries a :class:`FaultSpec` with a firing probability and a
failure/latency shape. Every decision is a pure function of ``(plan
seed, site, operation key)``, so the same plan driven through the same
call sequence produces the same fault trace — the property the chaos
tests pin.

Two decision shapes cover all sites:

* **failure sites** — :meth:`FaultPlan.failures_planned` returns how many
  consecutive times the operation identified by ``key`` fails before
  succeeding (capped by ``max_failures``). The resilience layer retries
  through them; when the cap exceeds the retry budget the operation
  fails for real.
* **delay sites** — :meth:`FaultPlan.stall` returns extra modeled seconds
  (a slow read, a PCIe hiccup, a GPU stall) or 0.0.

The active plan is process-global (like the metrics registry) so
instrumented code never threads it through call signatures; forked
workers inherit it. The default plan is disabled and free: every site
check is one attribute read.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_registry

#: The fault sites compiled into the codebase, with the real-hardware
#: failure each one models (see docs/resilience.md).
KNOWN_SITES = (
    "storage_read",   # NVMe page-read error (media/controller failure)
    "storage_slow",   # NVMe latency outlier (thermal throttle, GC pause)
    "pcie_stall",     # PCIe transfer stall / DMA timeout
    "worker_crash",   # worker-process loss (GPU OOM kill, XID, node loss)
    "serve_stall",    # serving-lane stall blowing request deadlines
    "net_stall",      # node-to-node fabric link stall (NIC/spine congestion)
    "replica_crash",  # serving-replica loss mid-traffic (host/GPU death)
)


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves.

    ``probability`` is the per-operation chance of faulting at all;
    ``max_failures`` caps how many consecutive attempts an operation can
    fail (failure sites); ``delay_s`` is the modeled stall added when a
    delay site fires.
    """

    probability: float = 0.0
    max_failures: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the plan's trace."""

    site: str
    #: Operation key the decision was drawn for.
    key: int
    #: Attempt number the fault hit (0 = first try; delay sites use 0).
    attempt: int
    #: "fail", "crash" or "stall".
    kind: str
    delay_s: float = 0.0


def _site_id(site: str) -> int:
    """Stable integer identity of a site name (seeds the per-site RNG)."""
    return zlib.crc32(site.encode("utf-8"))


class FaultPlan:
    """A seeded description of which operations fault, and how.

    ``sites`` maps site name -> :class:`FaultSpec`; unknown names are
    allowed (third-party sites), known names are listed in
    :data:`KNOWN_SITES`. A plan with no sites is disabled and injects
    nothing.
    """

    def __init__(self, seed: int = 0, sites: dict | None = None) -> None:
        self.seed = int(seed)
        self.sites = dict(sites or {})
        for name, spec in self.sites.items():
            if not isinstance(spec, FaultSpec):
                raise TypeError(
                    f"site {name!r} must map to a FaultSpec, "
                    f"got {type(spec).__name__}"
                )
        self.enabled = any(
            spec.probability > 0 for spec in self.sites.values()
        )
        self._lock = threading.Lock()
        self._counters: dict = {}
        self.events: list = []

    # -- construction helpers ------------------------------------------------
    @classmethod
    def disabled(cls) -> "FaultPlan":
        return cls(seed=0, sites={})

    @classmethod
    def chaos(cls, seed: int, probability: float = 0.2,
              max_failures: int = 2, delay_s: float = 1e-4) -> "FaultPlan":
        """A plan exercising every known site at the same intensity —
        the conformance harness's default storm."""
        sites = {
            "storage_read": FaultSpec(probability=probability,
                                      max_failures=max_failures),
            "storage_slow": FaultSpec(probability=probability,
                                      delay_s=delay_s),
            "pcie_stall": FaultSpec(probability=probability,
                                    max_failures=max_failures),
            "worker_crash": FaultSpec(probability=probability,
                                      max_failures=max_failures),
            "serve_stall": FaultSpec(probability=probability,
                                     delay_s=delay_s),
            "net_stall": FaultSpec(probability=probability,
                                   max_failures=max_failures),
            "replica_crash": FaultSpec(probability=probability,
                                       max_failures=max_failures),
        }
        return cls(seed=seed, sites=sites)

    def spec(self, site: str) -> FaultSpec | None:
        return self.sites.get(site)

    # -- deterministic decisions ---------------------------------------------
    def _rng(self, site: str, key: int, stream: int = 0):
        return np.random.default_rng(np.random.SeedSequence(
            [self.seed, _site_id(site), int(key), int(stream)]
        ))

    def next_key(self, site: str) -> int:
        """The next per-site operation key (a per-process sequence number).

        Callers that can name their operation stably (page ID, chunk
        index, batch ID) should pass that instead — explicit keys stay
        deterministic across process topologies; sequence keys are only
        deterministic for a fixed call order within one process.
        """
        return self.reserve_keys(site, 1)

    def reserve_keys(self, site: str, count: int) -> int:
        """Advance ``site``'s sequence by ``count`` keys and return the
        first. The caller hands ``first + i`` to its ``i``-th operation,
        so the keys stay the ones ``count`` :meth:`next_key` calls would
        draw here, whatever order the operations then run in."""
        with self._lock:
            first = self._counters.get(site, 0)
            self._counters[site] = first + count
        return first

    def failures_planned(self, site: str, key: int) -> int:
        """How many consecutive attempts the operation ``key`` at ``site``
        fails before succeeding. Pure in ``(seed, site, key)``."""
        spec = self.sites.get(site)
        if spec is None or spec.probability <= 0 or spec.max_failures <= 0:
            return 0
        draws = self._rng(site, key).random(spec.max_failures)
        failures = 0
        for value in draws:
            if value >= spec.probability:
                break
            failures += 1
        return failures

    def should_crash(self, site: str, key: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` of operation ``key`` crashes.

        Pure — safe to consult from any process (forked workers decide
        their own fate; the supervising parent records the event)."""
        return attempt < self.failures_planned(site, key)

    def stall(self, site: str, key: int | None = None) -> float:
        """Extra modeled seconds a delay site adds to operation ``key``
        (0.0 when the site does not fire)."""
        spec = self.sites.get(site)
        if spec is None or spec.probability <= 0 or spec.delay_s <= 0:
            return 0.0
        if key is None:
            key = self.next_key(site)
        rng = self._rng(site, key)
        if rng.random() >= spec.probability:
            return 0.0
        # Scale in [0.5, 1.5): outliers are never exactly alike.
        delay = spec.delay_s * (0.5 + rng.random())
        self.record(site, key, 0, "stall", delay_s=delay)
        return delay

    def jitter_rng(self, site: str, key: int):
        """The RNG retry backoff jitter draws from for operation ``key``
        (independent of the fault-decision stream)."""
        return self._rng(site, key, stream=1)

    # -- trace ---------------------------------------------------------------
    def record(self, site: str, key: int, attempt: int, kind: str,
               delay_s: float = 0.0) -> FaultEvent:
        """Append one event to the fault trace (and the metrics registry)."""
        event = FaultEvent(site=site, key=int(key), attempt=int(attempt),
                           kind=kind, delay_s=float(delay_s))
        with self._lock:
            self.events.append(event)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_faults_injected_total",
                "Injected faults by site and kind",
            ).labels(site=site, kind=kind).inc()
        return event

    def trace(self) -> tuple:
        """The fault trace as a comparable tuple of events."""
        with self._lock:
            return tuple(self.events)

    def reset_trace(self) -> None:
        """Drop recorded events and per-site sequence counters."""
        with self._lock:
            self.events.clear()
            self._counters.clear()

    def fired(self, site: str | None = None) -> int:
        """Number of recorded events (optionally for one site)."""
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for e in self.events if e.site == site)


#: The always-off plan the process starts with.
NO_FAULTS = FaultPlan.disabled()

_active_plan: FaultPlan = NO_FAULTS
_active_lock = threading.Lock()


def get_fault_plan() -> FaultPlan:
    """The process-wide active fault plan (disabled until opted in)."""
    return _active_plan


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan:
    """Install ``plan`` (None = disable); returns the previous plan."""
    global _active_plan
    with _active_lock:
        previous = _active_plan
        _active_plan = plan if plan is not None else NO_FAULTS
    return previous


@contextmanager
def fault_scope(plan: FaultPlan | None):
    """Run a block under ``plan``, restoring the previous plan after."""
    previous = set_fault_plan(plan)
    try:
        yield get_fault_plan()
    finally:
        set_fault_plan(previous)
