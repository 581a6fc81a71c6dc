"""Service-level health: the PIM->GPU degradation state machine.

PR 3's :class:`~repro.core.scheduler.ResilientScheduler` handles faults
*per kernel* (verify -> retry -> fallback -> quarantine one site).  The
:class:`HealthMonitor` is the service-level half: it consumes those
quarantine events, per-device fault counters, and breaker transitions,
and decides when the run should stop fighting the PIM hardware and
degrade gracefully:

``HEALTHY -> PIM_DEGRADED -> GPU_ONLY -> FAILED``

* **PIM_DEGRADED** — some PIM capacity lost (quarantined sites), but
  offloading still pays; the scheduler keeps routing around the holes.
* **GPU_ONLY** — enough capacity lost (site count or fault rate over
  threshold) that the remaining block sequence is re-lowered to the
  GPU-only schedule mid-run: every remaining PIM kernel executes as
  its ``gpu_equivalent``, exactly what the lowering would have emitted
  with offload disabled (§V-C / §VII-D's GPU fallback argument).
* **FAILED** — the GPU itself is gone (its breaker opened); there is
  no device left to serve on and the run raises ``FaultError``.

States only escalate — hardware that degraded once is not trusted back
for the remainder of a run; re-admission happens at the *breaker*
level (half-open probes) before GPU_ONLY is reached.
"""

from __future__ import annotations

import enum

from repro.errors import ParameterError


class DegradationState(enum.Enum):
    HEALTHY = "healthy"
    PIM_DEGRADED = "pim-degraded"
    GPU_ONLY = "gpu-only"
    FAILED = "failed"


#: Escalation order (index comparisons implement "only forward").
_ORDER = (DegradationState.HEALTHY, DegradationState.PIM_DEGRADED,
          DegradationState.GPU_ONLY, DegradationState.FAILED)


class HealthMonitor:
    """Degradation state machine fed by the resilient scheduler.

    ``degraded_after``/``gpu_only_after`` are quarantined-site counts;
    ``pim_fault_rate_limit`` (with at least ``rate_window`` PIM kernel
    executions observed) catches the case where faults are spread over
    too many sites for quarantine to trip.
    """

    def __init__(self, degraded_after: int = 1, gpu_only_after: int = 3,
                 pim_fault_rate_limit: float | None = None,
                 rate_window: int = 50,
                 uncorrectable_limit: int | None = None,
                 metrics=None):
        if degraded_after < 1 or gpu_only_after < degraded_after:
            raise ParameterError(
                "need 1 <= degraded_after <= gpu_only_after")
        if pim_fault_rate_limit is not None \
                and not 0.0 < pim_fault_rate_limit <= 1.0:
            raise ParameterError("pim_fault_rate_limit must be in (0, 1]")
        if uncorrectable_limit is not None and uncorrectable_limit < 1:
            raise ParameterError("uncorrectable_limit must be >= 1")
        self.degraded_after = degraded_after
        self.gpu_only_after = gpu_only_after
        self.pim_fault_rate_limit = pim_fault_rate_limit
        self.rate_window = rate_window
        self.uncorrectable_limit = uncorrectable_limit
        self.metrics = metrics
        self.state = DegradationState.HEALTHY
        self._publish_state()
        self.quarantined = 0
        self.pim_kernels = 0
        self.pim_faults = 0
        self.gpu_faults = 0
        self.transfer_faults = 0
        self.uncorrectable_memory = 0
        self.events: list = []

    # -- Queries -------------------------------------------------------------

    @property
    def gpu_only(self) -> bool:
        return _ORDER.index(self.state) >= _ORDER.index(
            DegradationState.GPU_ONLY)

    @property
    def failed(self) -> bool:
        return self.state is DegradationState.FAILED

    def pim_fault_rate(self) -> float:
        return self.pim_faults / self.pim_kernels if self.pim_kernels else 0.0

    # -- Inputs from the scheduler -------------------------------------------

    def note_pim_kernel(self) -> None:
        self.pim_kernels += 1

    def note_fault(self, device: str, now: float) -> None:
        """One effective (non-benign) fault detected on ``device``."""
        if device == "pim":
            self.pim_faults += 1
            if (self.pim_fault_rate_limit is not None
                    and self.pim_kernels >= self.rate_window
                    and self.pim_fault_rate() > self.pim_fault_rate_limit):
                self.escalate(DegradationState.GPU_ONLY, now,
                              f"PIM fault rate {self.pim_fault_rate():.3f} "
                              f"over limit {self.pim_fault_rate_limit}")
        elif device == "transfer":
            self.transfer_faults += 1
        else:
            self.gpu_faults += 1

    def note_quarantine(self, site, now: float) -> None:
        """One PIM site quarantined by the recovery policy."""
        self.quarantined += 1
        if self.quarantined >= self.gpu_only_after:
            self.escalate(DegradationState.GPU_ONLY, now,
                          f"{self.quarantined} quarantined sites "
                          f"(threshold {self.gpu_only_after})")
        elif self.quarantined >= self.degraded_after:
            self.escalate(DegradationState.PIM_DEGRADED, now,
                          f"site {site} quarantined "
                          f"({self.quarantined} total)")

    def note_uncorrectable(self, region, now: float) -> None:
        """Memory pressure from the RAS layer: one uncorrectable-by-ECC
        error (double-bit detection or checksum-caught escape) in
        ``region``.  A sustained uncorrectable stream past
        ``uncorrectable_limit`` degrades PIM -> GPU exactly like a
        fault storm — the substrate is leaking faster than scrub and
        spares can contain."""
        self.uncorrectable_memory += 1
        if (self.uncorrectable_limit is not None
                and self.uncorrectable_memory >= self.uncorrectable_limit):
            self.escalate(DegradationState.GPU_ONLY, now,
                          f"{self.uncorrectable_memory} uncorrectable "
                          f"memory errors (limit "
                          f"{self.uncorrectable_limit}, last region "
                          f"{region})")

    def note_breaker_open(self, device: str, now: float) -> None:
        """A device breaker opened; losing the GPU is terminal."""
        if device == "gpu":
            self.escalate(DegradationState.FAILED, now,
                          "GPU circuit breaker opened")
        elif device == "pim":
            self.escalate(DegradationState.PIM_DEGRADED, now,
                          "PIM circuit breaker opened")

    def note_policy_exhausted(self, kernel: str, now: float) -> None:
        """Retries exhausted with fallback disabled: rather than abort
        the whole run (PR 3 raised ``FaultError`` here), the service
        degrades to GPU_ONLY and re-executes the kernel on the GPU."""
        self.escalate(DegradationState.GPU_ONLY, now,
                      f"kernel {kernel!r} exhausted retries with "
                      f"fallback disabled")

    # -- Transitions ---------------------------------------------------------

    def escalate(self, state: DegradationState, now: float,
                 reason: str) -> bool:
        """Move forward to ``state``; False if already at or past it."""
        if _ORDER.index(state) <= _ORDER.index(self.state):
            return False
        self.events.append({"at_s": now, "from": self.state.value,
                            "to": state.value, "reason": reason})
        self.state = state
        if self.metrics is not None:
            self.metrics.counter(
                "anaheim_degradation_transitions_total",
                "Health-monitor escalations", labelnames=("to",)).inc(
                    to=state.value)
            self._publish_state()
        return True

    def _publish_state(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "anaheim_degradation_state",
                "Degradation level (0 healthy .. 3 failed)").set(
                    _ORDER.index(self.state))

    def summary(self) -> dict:
        return {
            "state": self.state.value,
            "quarantined_sites": self.quarantined,
            "pim_kernels": self.pim_kernels,
            "pim_faults": self.pim_faults,
            "gpu_faults": self.gpu_faults,
            "transfer_faults": self.transfer_faults,
            "uncorrectable_memory": self.uncorrectable_memory,
            "pim_fault_rate": self.pim_fault_rate(),
            "events": list(self.events),
        }
