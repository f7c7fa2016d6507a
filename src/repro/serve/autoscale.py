"""Queue-driven replica autoscaling for the serving fleet.

The :class:`Autoscaler` watches two signals the fleet already measures —
an EWMA of mean queue occupancy across live replicas, and a running p99
latency estimate over the most recent completions — and decides between
three actions: add a replica, drain one, or hold. Two guard rails keep
it honest:

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


@dataclass(frozen=True)
class AutoscalerConfig:
    """Controller knobs (thresholds are fractions of queue capacity)."""

    enabled: bool = False
    #: Scale up when EWMA occupancy exceeds this fraction of capacity.
    add_occupancy: float = 0.75
    #: Scale down when EWMA occupancy falls below this fraction.
    drain_occupancy: float = 0.15
    #: Also scale up when the p99 estimate exceeds this (seconds);
    #: <= 0 disables the latency trigger.
    add_p99_s: float = 0.0
    #: Seconds between signal samples.
    interval_s: float = 0.01
    #: Minimum simulated seconds between scale actions.
    cooldown_s: float = 0.05
    #: EWMA smoothing factor per sample (1.0 = no smoothing).
    alpha: float = 0.3
    min_replicas: int = 1
    max_replicas: int = 8
    #: Completions the p99 estimate is computed over.
    latency_window: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if self.drain_occupancy >= self.add_occupancy:
            raise ConfigError(
                "hysteresis requires drain_occupancy < add_occupancy")
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ConfigError("need 1 <= min_replicas <= max_replicas")
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
    #: The p99 estimate at decision time (0.0 when unavailable).
    p99: float


class Autoscaler:
    """EWMA + hysteresis + cooldown replica-count controller."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._ewma: float | None = None
        self._latencies: list = []
        self._last_action_at = -float("inf")
        self.events: list = []

    @property
    def occupancy_ewma(self) -> float:
        return 0.0 if self._ewma is None else self._ewma

    def observe_latency(self, latency: float) -> None:
        """Feed one completed request's end-to-end latency."""
        self._latencies.append(latency)
        window = self.config.latency_window
        if len(self._latencies) > 2 * window:
            del self._latencies[:-window]

    def p99_estimate(self) -> float:
        """p99 over the recent-latency window (0.0 until data exists)."""
        window = self._latencies[-self.config.latency_window:]
        if not window:
            return 0.0
        ordered = sorted(window)
        index = min(len(ordered) - 1, int(0.99 * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def observe_occupancy(self, occupancy: float) -> float:
        """Fold one occupancy sample (mean fraction of queue capacity
        across live replicas) into the EWMA; returns the new EWMA."""
        if self._ewma is None:
            self._ewma = occupancy
        else:
            alpha = self.config.alpha
            self._ewma = alpha * occupancy + (1 - alpha) * self._ewma
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
        p99 = self.p99_estimate()
        wants_add = occupancy > cfg.add_occupancy or (
            cfg.add_p99_s > 0 and p99 > cfg.add_p99_s)
        if wants_add and live_replicas < cfg.max_replicas:
            self._record(now, "add", live_replicas + 1, occupancy, p99)
            return "add"
        if (occupancy < cfg.drain_occupancy and not wants_add
                and live_replicas > cfg.min_replicas):
            self._record(now, "drain", live_replicas - 1, occupancy, p99)
            return "drain"
        return "hold"

    def _record(self, now, action, replicas, occupancy, p99) -> None:
        self._last_action_at = now
        self.events.append(ScaleEvent(time=now, action=action,
                                      replicas=replicas,
                                      occupancy=occupancy, p99=p99))
