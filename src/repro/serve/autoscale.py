"""Queue-driven replica autoscaling for the serving fleet.

The :class:`Autoscaler` watches one signal the fleet already measures —
an EWMA (factor :data:`EWMA_ALPHA`) of mean queue occupancy across live
replicas — and decides between three actions: add a replica, drain one
(never below :data:`MIN_REPLICAS`), or hold. Two guard rails keep it
honest:

* **cooldown** — after any scale action the controller holds for
  ``cooldown_s`` of simulated time, so one burst cannot trigger a
  thrash storm;
* **hysteresis** — the drain threshold sits well below the add
  threshold (``drain_occupancy < add_occupancy``), so the controller
  never flaps add->drain on a signal hovering near one line. The
  no-flap property (no add immediately followed by a drain within one
  cooldown window) is pinned by a property test.

Decisions are pure functions of the observed signals and the
controller's own state — no randomness — so fleet runs replay
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: EWMA smoothing factor per occupancy sample (1.0 = no smoothing).
EWMA_ALPHA = 0.3
#: The controller never drains below this many live replicas.
MIN_REPLICAS = 1


@dataclass(frozen=True)
class AutoscalerConfig:
    """Controller knobs (thresholds are fractions of queue capacity)."""

    enabled: bool = False
    #: Scale up when EWMA occupancy exceeds this fraction of capacity.
    add_occupancy: float = 0.75
    #: Scale down when EWMA occupancy falls below this fraction.
    drain_occupancy: float = 0.15
    #: Seconds between signal samples.
    interval_s: float = 0.01
    #: Minimum simulated seconds between scale actions.
    cooldown_s: float = 0.05
    max_replicas: int = 8

    def __post_init__(self) -> None:
        if self.drain_occupancy >= self.add_occupancy:
            raise ConfigError(
                "hysteresis requires drain_occupancy < add_occupancy")
        if self.max_replicas < MIN_REPLICAS:
            raise ConfigError(f"max_replicas must be >= {MIN_REPLICAS}, "
                              f"got {self.max_replicas}")
        # A zero interval would sample forever at one instant: the
        # monitor's clock never advances, so the fleet never finishes.
        if not self.interval_s > 0.0:
            raise ConfigError(
                f"interval_s must be > 0, got {self.interval_s}")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, as recorded in the fleet report."""

    time: float
    #: "add" or "drain".
    action: str
    #: Live replica count after the action took effect.
    replicas: int
    #: The EWMA occupancy that drove the decision.
    occupancy: float


class Autoscaler:
    """EWMA + hysteresis + cooldown replica-count controller."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._ewma: float | None = None
        self._last_action_at = -float("inf")
        self.events: list = []

    @property
    def occupancy_ewma(self) -> float:
        return 0.0 if self._ewma is None else self._ewma

    # benchmarks/e2e/trace.py wraps this method by name: keep it until
    # that table drops it. Nothing calls it.
    def observe_latency(self, latency: float) -> None:
        """Ignore one completion's latency: only occupancy drives the
        controller."""

    def observe_occupancy(self, occupancy: float) -> float:
        """Fold one occupancy sample (mean fraction of queue capacity
        across live replicas) into the EWMA; returns the new EWMA."""
        if self._ewma is None:
            self._ewma = occupancy
        else:
            self._ewma = (EWMA_ALPHA * occupancy
                          + (1 - EWMA_ALPHA) * self._ewma)
        return self._ewma

    def decide(self, now: float, live_replicas: int) -> str:
        """"add", "drain" or "hold" for the current signals.

        Cooldown gates *all* actions; hysteresis (the dead band between
        the two thresholds) guarantees consecutive decisions never
        reverse each other without the signal crossing the full band.
        """
        cfg = self.config
        if now - self._last_action_at < cfg.cooldown_s:
            return "hold"
        occupancy = self.occupancy_ewma
        wants_add = occupancy > cfg.add_occupancy
        if wants_add and live_replicas < cfg.max_replicas:
            self._record(now, "add", live_replicas + 1, occupancy)
            return "add"
        if (occupancy < cfg.drain_occupancy and not wants_add
                and live_replicas > MIN_REPLICAS):
            self._record(now, "drain", live_replicas - 1, occupancy)
            return "drain"
        return "hold"

    def _record(self, now, action, replicas, occupancy) -> None:
        self._last_action_at = now
        self.events.append(ScaleEvent(time=now, action=action,
                                      replicas=replicas,
                                      occupancy=occupancy))
