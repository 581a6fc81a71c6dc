"""Per-device circuit breakers on the simulated timeline.

A :class:`CircuitBreaker` guards one device ("gpu", "pim", or
"transfer").  It opens after ``threshold`` *consecutive* failures;
while open, callers are told to route around the device.  The cooldown
clock is the **simulated** schedule clock, not wall time: once the
timeline advances past ``cooldown_s`` the breaker half-opens and lets
one probe execution through — success closes it, another failure
re-opens it for a fresh cooldown.  The classic state machine
(CLOSED -> OPEN -> HALF_OPEN -> {CLOSED | OPEN}) keeps a flapping PIM
rank from stalling the whole stream with retry traffic while still
re-admitting it when it recovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ParameterError


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of breaker states (0 = healthy, higher = worse).
STATE_VALUES = {BreakerState.CLOSED: 0, BreakerState.HALF_OPEN: 1,
                BreakerState.OPEN: 2}


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker for one device."""

    device: str
    threshold: int = 3
    cooldown_s: float = 1e-3
    metrics: object = None
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    opens: int = 0
    rejected: int = 0
    open_until: float = 0.0
    #: (simulated time, transition) history, for traces and manifests.
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.threshold < 1:
            raise ParameterError("breaker threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ParameterError("breaker cooldown must be >= 0")
        self._publish_state()

    def _publish_state(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "anaheim_breaker_state",
                "Circuit-breaker state (0 closed, 1 half-open, 2 open)",
                labelnames=("device",)).set(
                    STATE_VALUES[self.state], device=self.device)

    # -- Queries -------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May the caller dispatch to this device at simulated ``now``?

        An open breaker whose cooldown has elapsed half-opens as a side
        effect and admits the call as its probe.
        """
        if self.state is BreakerState.OPEN:
            if now >= self.open_until:
                self._transition(BreakerState.HALF_OPEN, now,
                                 "cooldown elapsed")
                return True
            self.rejected += 1
            return False
        return True

    # -- Outcome reporting ---------------------------------------------------

    def record_success(self, now: float) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now, "probe succeeded")

    def record_failure(self, now: float) -> bool:
        """Count one failure; True when this failure opened the breaker."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open(now, "probe failed")
            return True
        if (self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.threshold):
            self._open(now, f"{self.consecutive_failures} consecutive "
                            f"failures")
            return True
        return False

    # -- Internals -----------------------------------------------------------

    def _open(self, now: float, reason: str) -> None:
        self.opens += 1
        self.open_until = now + self.cooldown_s
        self._transition(BreakerState.OPEN, now, reason)

    def _transition(self, state: BreakerState, now: float,
                    reason: str) -> None:
        self.events.append({"at_s": now, "from": self.state.value,
                            "to": state.value, "reason": reason})
        self.state = state
        if self.metrics is not None:
            self.metrics.counter(
                "anaheim_breaker_transitions_total",
                "Circuit-breaker state transitions",
                labelnames=("device", "to")).inc(
                    device=self.device, to=state.value)
            self._publish_state()

    def summary(self) -> dict:
        return {
            "state": self.state.value,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "failures": self.failures,
            "successes": self.successes,
            "opens": self.opens,
            "rejected": self.rejected,
            "events": list(self.events),
        }


#: The devices a hybrid schedule exercises.
DEVICES = ("gpu", "pim", "transfer")


class BreakerBoard:
    """One breaker per device, with a shared policy."""

    def __init__(self, threshold: int = 3, cooldown_s: float = 1e-3,
                 devices=DEVICES, metrics=None):
        self.breakers = {device: CircuitBreaker(
            device=device, threshold=threshold, cooldown_s=cooldown_s,
            metrics=metrics) for device in devices}

    def breaker(self, device: str) -> CircuitBreaker:
        return self.breakers[device]

    def allow(self, device: str, now: float) -> bool:
        breaker = self.breakers.get(device)
        return True if breaker is None else breaker.allow(now)

    def record_success(self, device: str, now: float) -> None:
        breaker = self.breakers.get(device)
        if breaker is not None:
            breaker.record_success(now)

    def record_failure(self, device: str, now: float) -> bool:
        breaker = self.breakers.get(device)
        return False if breaker is None else breaker.record_failure(now)

    def summary(self) -> dict:
        return {device: breaker.summary()
                for device, breaker in self.breakers.items()}
