"""Admission control: bounded queues, rate limits, load shedding.

Anaheim feeds GPU and PIM kernels through a single stream queue
(PAPER §V); this module is the layer *above* that queue that decides
which jobs deserve a place in it at all.  Under a burst of arrivals a
FIFO server degrades every job together — the overload discipline here
rejects or sheds the work that cannot be served well so the rest is
served on time:

* :class:`TokenBucket` — per-tenant rate limiting at the front door;
* :class:`BoundedQueue` — a priority queue with a hard capacity and
  high/low watermarks; crossing the high watermark sheds the
  lowest-priority (newest-first) queued jobs until the low watermark
  is restored;
* :class:`CostModel` — per-workload service costs derived from the
  existing analytic GPU/PIM models, so admission can *predict* a
  job's completion time from the current backlog;
* :class:`AdmissionController` — the policy: a job is admitted only if
  its tenant has tokens, the queue has room, and the predicted
  completion time meets its deadline; otherwise
  :class:`~repro.errors.AdmissionError` (one line) at enqueue, before
  any work is wasted;
* **brownout** — sustained overload (a run of arrivals during which
  the queue never recovers below the low watermark) feeds the existing
  :class:`~repro.serving.health.HealthMonitor`: service quality
  degrades (wider effective deadlines at PIM_DEGRADED, GPU-only
  re-lowering at GPU_ONLY) instead of the queue collapsing.

Everything runs on the simulated clock and is deterministic: the same
seeded arrival stream produces byte-identical admit/shed decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AdmissionError, ParameterError
from repro.serving.health import DegradationState


class TokenBucket:
    """Deterministic token bucket on the simulated clock."""

    def __init__(self, rate_qps: float | None, burst: int = 4):
        if rate_qps is not None and rate_qps <= 0:
            raise ParameterError("token-bucket rate must be > 0 qps")
        if burst < 1:
            raise ParameterError("token-bucket burst must be >= 1")
        self.rate_qps = rate_qps
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_s = 0.0

    def allow(self, now: float) -> bool:
        """Take one token if available; refills at ``rate_qps``."""
        if self.rate_qps is None:
            return True
        elapsed = max(0.0, now - self._last_s)
        self._last_s = max(self._last_s, now)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_qps)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class QueueItem:
    """One admitted, not-yet-dispatched job."""

    arrival: object
    seq: int
    enqueued_s: float
    cost_s: float

    def order_key(self) -> tuple:
        return (self.arrival.priority, self.seq)


class BoundedQueue:
    """Priority queue with a hard cap and shed watermarks.

    Dispatch order is (priority, arrival sequence): priority 0 first,
    FIFO within a class.  Shedding removes from the *other* end —
    lowest priority first, newest first within a class — so the jobs
    that have waited longest in the best classes survive.
    """

    def __init__(self, cap: int, high_watermark: int | None = None,
                 low_watermark: int | None = None):
        if cap < 1:
            raise ParameterError("queue capacity must be >= 1")
        self.cap = cap
        self.high_watermark = (high_watermark if high_watermark is not None
                               else max(1, (3 * cap) // 4))
        self.low_watermark = (low_watermark if low_watermark is not None
                              else max(0, cap // 2))
        if not 0 <= self.low_watermark < self.high_watermark <= cap:
            raise ParameterError(
                f"need 0 <= low ({self.low_watermark}) < high "
                f"({self.high_watermark}) <= cap ({cap})")
        self._items: list = []      # kept sorted by order_key()
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.cap

    @property
    def over_high_watermark(self) -> bool:
        return len(self._items) >= self.high_watermark

    def backlog_s(self) -> float:
        return sum(item.cost_s for item in self._items)

    def push(self, item: QueueItem) -> None:
        if self.full:
            raise AdmissionError(
                f"queue full ({self.cap} jobs); cannot enqueue "
                f"{item.arrival.key}")
        self._items.append(item)
        self._items.sort(key=QueueItem.order_key)
        self.peak_depth = max(self.peak_depth, len(self._items))

    def pop(self) -> QueueItem:
        if not self._items:
            raise ParameterError("pop from an empty queue")
        return self._items.pop(0)

    def shed_to_low_watermark(self) -> list:
        """Remove lowest-priority-newest jobs until depth <= low."""
        victims = []
        while len(self._items) > self.low_watermark:
            victims.append(self._items.pop())
        return victims


class CostModel:
    """Per-(kind, workload) service costs in simulated seconds.

    ``costs`` maps workload name to ``{"pim": s, "gpu": s}`` — the
    analytic schedule's ``total_time`` with and without PIM offload.
    Job kind does not change the modeled service cost: run, bench, and
    analytic-faults jobs all execute the same schedule shape.
    """

    def __init__(self, costs: dict):
        if not costs:
            raise ParameterError("cost model needs at least one workload")
        self.costs = dict(costs)

    def cost(self, kind: str, workload: str, mode: str = "pim") -> float:
        entry = self.costs.get(workload)
        if entry is None:
            raise ParameterError(
                f"cost model has no workload {workload!r} "
                f"(knows {sorted(self.costs)})")
        return entry["gpu"] if mode == "gpu" else entry["pim"]

    @classmethod
    def from_model(cls, gpu=None, pim=None, library=None,
                   workloads=("Boot", "HELR", "Sort"),
                   ras=None) -> "CostModel":
        """Build the table by running the analytic framework once per
        (workload, device mode) — the same cost models the scheduler
        charges its timeline with.  ``ras`` (a ``ReliabilityConfig``)
        attaches the memory-RAS layer to the PIM-mode run, so scrub
        and repair overhead shrinks the advertised PIM capacity."""
        from repro.core.framework import AnaheimFramework
        from repro.gpu.configs import A100_80GB
        from repro.params import paper_params
        from repro.pim.configs import A100_NEAR_BANK
        from repro.workloads import applications as apps
        gpu = gpu if gpu is not None else A100_80GB
        pim = pim if pim is not None else A100_NEAR_BANK
        kwargs = {"library": library} if library is not None else {}
        params = paper_params()
        costs = {}
        for name in workloads:
            workload = apps.build(name, params)
            with_pim = AnaheimFramework(gpu, pim, ras_config=ras,
                                        **kwargs).run(
                workload.blocks, params.degree, label=name).report
            gpu_only = AnaheimFramework(gpu, None, **kwargs).run(
                workload.blocks, params.degree, label=name).report
            costs[name] = {"pim": with_pim.total_time,
                           "gpu": gpu_only.total_time}
        return cls(costs)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Every knob of the overload layer, canonicalizable."""

    queue_cap: int = 16
    high_watermark: int | None = None
    low_watermark: int | None = None
    shed_policy: str = "priority"        # "priority" | "none"
    deadline_slack: float = 1.0          # margin on predicted completion
    brownout_after: int = 8              # hot arrivals before brownout
    brownout_deadline_factor: float = 2.0

    def canonical(self) -> dict:
        return {"queue_cap": self.queue_cap,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "shed_policy": self.shed_policy,
                "deadline_slack": self.deadline_slack,
                "brownout_after": self.brownout_after,
                "brownout_deadline_factor": self.brownout_deadline_factor}


class _AdmissionMetrics:
    """Queue/admission/shed metric families, declared once."""

    def __init__(self, registry):
        from repro.obs.metrics import QUEUE_SECONDS_BUCKETS
        self.decisions = registry.counter(
            "anaheim_admission_total",
            "Admission decisions at enqueue, by outcome",
            labelnames=("decision",))
        self.shed = registry.counter(
            "anaheim_shed_total",
            "Queued jobs shed after admission, by reason",
            labelnames=("reason",))
        self.depth = registry.gauge(
            "anaheim_queue_depth", "Bounded-queue depth (current)")
        self.peak = registry.gauge(
            "anaheim_queue_depth_peak", "Bounded-queue depth (peak)")
        self.wait = registry.histogram(
            "anaheim_queue_wait_seconds",
            "Simulated seconds between enqueue and dispatch",
            buckets=QUEUE_SECONDS_BUCKETS)
        self.brownout = registry.counter(
            "anaheim_admission_brownout_total",
            "Brownout escalations triggered by sustained overload",
            labelnames=("to",))


class AdmissionController:
    """The admission policy over one :class:`BoundedQueue`.

    ``health`` is the *existing* service health monitor: chaos events
    (quarantines, breaker trips) escalate it from the fault side, and
    this controller escalates it from the overload side (brownout).
    Its state feeds back into admission as the service ``mode`` (pim
    vs gpu-only costs) and the effective-deadline widening factor.
    """

    def __init__(self, policy: AdmissionPolicy, cost_model: CostModel,
                 tenants, health=None, metrics=None):
        if policy.shed_policy not in ("priority", "none"):
            raise ParameterError(
                f"unknown shed policy {policy.shed_policy!r} "
                f"(expected priority or none)")
        self.policy = policy
        self.cost_model = cost_model
        self.health = health
        self.queue = BoundedQueue(policy.queue_cap,
                                  policy.high_watermark,
                                  policy.low_watermark)
        self.buckets = {tenant.name: TokenBucket(tenant.rate_qps,
                                                 tenant.burst)
                        for tenant in tenants}
        self.decisions: list = []
        self.counts = {"admitted": 0, "rate-limited": 0, "queue-full": 0,
                       "deadline-infeasible": 0}
        self.shed_counts = {"watermark": 0, "expired": 0}
        self._seq = 0
        self._hot_streak = 0
        self._m = _AdmissionMetrics(metrics) if metrics is not None \
            else None

    # -- Health coupling -----------------------------------------------------

    @property
    def mode(self) -> str:
        """Service mode the *next* dispatch will use."""
        if self.health is not None and self.health.gpu_only:
            return "gpu"
        return "pim"

    def deadline_factor(self) -> float:
        """How much wider deadlines are at the current health level."""
        if self.health is None:
            return 1.0
        factor = self.policy.brownout_deadline_factor
        return {DegradationState.HEALTHY: 1.0,
                DegradationState.PIM_DEGRADED: factor,
                DegradationState.GPU_ONLY: factor * factor,
                DegradationState.FAILED: factor * factor}[self.health.state]

    def effective_deadline(self, arrival) -> float | None:
        if arrival.deadline_s is None:
            return None
        return arrival.deadline_s * self.deadline_factor()

    def _note_brownout(self, now: float) -> None:
        """Sustained overload escalates the health monitor.

        A streak of ``brownout_after`` arrivals without the queue ever
        recovering below the low watermark enters PIM_DEGRADED (wider
        deadlines); a streak twice as long re-lowers to GPU_ONLY.  The
        monitor's escalate-only semantics make brownout sticky for the
        run, like every other degradation source.
        """
        if self.health is None:
            return
        streak = self._hot_streak
        target = None
        if streak >= 2 * self.policy.brownout_after:
            target = DegradationState.GPU_ONLY
        elif streak >= self.policy.brownout_after:
            target = DegradationState.PIM_DEGRADED
        if target is None:
            return
        if self.health.escalate(
                target, now,
                f"brownout: {streak} consecutive arrivals with the "
                f"queue at or over the low watermark "
                f"({self.queue.low_watermark})"):
            if self._m is not None:
                self._m.brownout.inc(to=target.value)

    # -- Admission -----------------------------------------------------------

    def admit(self, arrival, now: float,
              server_backlog_s: float = 0.0) -> QueueItem:
        """Enqueue ``arrival`` or raise a one-line
        :class:`~repro.errors.AdmissionError`.

        ``server_backlog_s`` is the in-service remaining time; the
        predicted completion is ``now + backlog + queue + own cost``
        against the (possibly brownout-widened) deadline.
        """
        bucket = self.buckets.get(arrival.tenant)
        if bucket is not None and not bucket.allow(now):
            raise AdmissionError(
                f"{arrival.key}: tenant {arrival.tenant!r} is "
                f"rate-limited")
        if self.queue.full:
            raise AdmissionError(
                f"{arrival.key}: queue full "
                f"({self.queue.depth}/{self.queue.cap})")
        mode = self.mode
        cost = self.cost_model.cost(arrival.kind, arrival.workload, mode)
        deadline = self.effective_deadline(arrival)
        if deadline is not None:
            predicted = (server_backlog_s + self.queue.backlog_s()
                         + cost) * self.policy.deadline_slack
            if predicted > deadline:
                raise AdmissionError(
                    f"{arrival.key}: predicted completion in "
                    f"{predicted:.4f}s cannot meet the {deadline:.4f}s "
                    f"deadline")
        item = QueueItem(arrival=arrival, seq=self._seq, enqueued_s=now,
                         cost_s=cost)
        self._seq += 1
        self.queue.push(item)
        return item

    def offer(self, arrival, now: float,
              server_backlog_s: float = 0.0) -> dict:
        """One arrival through the full policy; the decision record.

        Admission failures become ``rejected`` records instead of
        propagating; watermark shedding and brownout bookkeeping run
        after every offered arrival.
        """
        record = {"index": arrival.index, "t_s": arrival.t_s,
                  "tenant": arrival.tenant, "kind": arrival.kind,
                  "workload": arrival.workload,
                  "priority": arrival.priority}
        try:
            self.admit(arrival, now, server_backlog_s)
        except AdmissionError as exc:
            reason = ("rate-limited" if "rate-limited" in str(exc)
                      else "queue-full" if "queue full" in str(exc)
                      else "deadline-infeasible")
            record.update(decision="rejected", reason=reason)
            self.counts[reason] += 1
            if self._m is not None:
                self._m.decisions.inc(decision=reason)
        else:
            record.update(decision="admitted", reason=None)
            self.counts["admitted"] += 1
            if self._m is not None:
                self._m.decisions.inc(decision="admitted")
        self.decisions.append(record)

        # Watermark shedding + sustained-pressure accounting.  The hot
        # streak counts arrivals since the queue last recovered below
        # the low watermark — shedding drops the depth back to the low
        # watermark, so "over the high watermark" alone would reset on
        # every crossing and brownout could never engage.
        if self.queue.over_high_watermark \
                and self.policy.shed_policy == "priority":
            for victim in self.queue.shed_to_low_watermark():
                self.record_shed(victim, "watermark")
        if self.queue.depth >= max(1, self.queue.low_watermark):
            self._hot_streak += 1
        else:
            self._hot_streak = 0
        self._note_brownout(now)
        if self._m is not None:
            self._m.depth.set(self.queue.depth)
            self._m.peak.set(self.queue.peak_depth)
        return record

    # -- Post-admission bookkeeping ------------------------------------------

    def record_shed(self, item: QueueItem, reason: str) -> None:
        self.shed_counts[reason] += 1
        self.decisions.append({
            "index": item.arrival.index, "t_s": item.arrival.t_s,
            "tenant": item.arrival.tenant, "kind": item.arrival.kind,
            "workload": item.arrival.workload,
            "priority": item.arrival.priority,
            "decision": "shed", "reason": reason})
        if self._m is not None:
            self._m.shed.inc(reason=reason)

    def record_wait(self, wait_s: float) -> None:
        if self._m is not None:
            self._m.wait.observe(wait_s)
            self._m.depth.set(self.queue.depth)
