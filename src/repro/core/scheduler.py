"""Stream-queue scheduler for hybrid GPU+PIM kernel traces (§V-C).

GPU and PIM kernels live in one stream: the end of each kernel triggers
the next, with a small transition overhead whenever execution moves
between the GPU and the PIM devices ("a couple of microseconds", §V-C).
PIM and GPU kernels never overlap (no pipelining, §V-C).

The scheduler produces a :class:`ScheduleReport` with the Gantt-chart
segments (Fig. 4a), per-category time breakdown (Figs. 2-3, 10), DRAM
traffic (Fig. 4b), and the energy decomposition (Fig. 8).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.trace import (CATEGORY_LABELS, GpuKernel, OpCategory,
                              PimKernel, Trace)
from repro.errors import FaultError
from repro.faults.fallback import gpu_equivalent
from repro.faults.inject import FaultInjector
from repro.faults.plan import PERSISTENT_MODELS
from repro.gpu.cache import CacheModel
from repro.gpu.model import GpuModel
from repro.pim.executor import PimCost, PimExecutor


@dataclass
class Segment:
    """One Gantt-chart bar."""

    start: float
    end: float
    device: str            # "gpu" or "pim"
    name: str
    category: OpCategory

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ScheduleReport:
    """Everything the evaluation figures need from one execution."""

    label: str
    segments: list = field(default_factory=list)
    total_time: float = 0.0
    gpu_time: float = 0.0
    pim_time: float = 0.0
    transition_time: float = 0.0
    transitions: int = 0
    time_by_category: dict = field(default_factory=dict)
    gpu_dram_bytes: float = 0.0
    #: DRAM bytes of transfer-category kernels specifically (a subset
    #: of ``gpu_dram_bytes``) — the numerator of the transfer-bandwidth
    #: utilization the :class:`~repro.obs.utilization.UtilizationReport`
    #: computes.
    transfer_bytes: float = 0.0
    pim_internal_bytes: float = 0.0
    pim_activations: int = 0
    energy_gpu_dynamic: float = 0.0
    energy_gpu_idle: float = 0.0
    energy_pim: float = 0.0
    #: Fault-campaign accounting, populated by :class:`ResilientScheduler`
    #: (empty on plain runs): injection/detection/recovery counts plus the
    #: verify/retry/fallback time the recovery policy added to the
    #: timeline.
    fault_summary: dict = field(default_factory=dict)

    @property
    def energy(self) -> float:
        return self.energy_gpu_dynamic + self.energy_gpu_idle + self.energy_pim

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s)."""
        return self.energy * self.total_time

    def pipelining_bound(self) -> float:
        """Lower bound on runtime with perfect GPU/PIM overlap.

        The paper deliberately does not pipeline PIM and GPU kernels
        (§V-C): doing so would need invasive coherence hardware.  This
        bound — the slower device's busy time plus transitions — shows
        what pipelining could at best recover; with Anaheim shrinking
        the element-wise share, the residual gain is marginal (Fig. 10
        discussion).
        """
        return max(self.gpu_time, self.pim_time) + self.transition_time

    def pipelining_headroom(self) -> float:
        """Potential speedup from perfect pipelining (≥ 1.0)."""
        bound = self.pipelining_bound()
        return self.total_time / bound if bound else 1.0

    def category_share(self, category: OpCategory) -> float:
        if self.total_time == 0:
            return 0.0
        return self.time_by_category.get(category, 0.0) / self.total_time

    def breakdown(self) -> dict:
        """{label: seconds} in the paper's legend order."""
        return {CATEGORY_LABELS[cat]: self.time_by_category.get(cat, 0.0)
                for cat in OpCategory}


class _SchedulerMetrics:
    """Metric families the scheduler updates (one lookup at init)."""

    def __init__(self, registry):
        from repro.obs.metrics import KERNEL_SECONDS_BUCKETS
        self.kernels = registry.counter(
            "anaheim_kernels_total", "Kernels dispatched",
            labelnames=("device", "category"))
        self.kernel_seconds = registry.histogram(
            "anaheim_kernel_seconds",
            "Simulated kernel time including recovery traffic",
            labelnames=("device", "category"),
            buckets=KERNEL_SECONDS_BUCKETS)
        self.transitions = registry.counter(
            "anaheim_transitions_total", "GPU<->PIM device transitions")
        self.faults = registry.counter(
            "anaheim_fault_events_total",
            "Fault pipeline events seen by the resilient scheduler",
            labelnames=("event",))

    def kernel(self, device: str, category, duration: float) -> None:
        self.kernels.inc(device=device, category=category.value)
        self.kernel_seconds.observe(duration, device=device,
                                    category=category.value)


class Scheduler:
    """Executes a trace against a GPU model and (optionally) a PIM device."""

    def __init__(self, gpu_model: GpuModel,
                 pim_executor: PimExecutor | None = None,
                 cache: CacheModel | None = None,
                 keep_segments: bool = True,
                 tracer=None,
                 metrics=None):
        self.gpu_model = gpu_model
        self.pim_executor = pim_executor
        self.cache = cache or CacheModel(
            l2_bytes=gpu_model.config.l2_cache_bytes)
        self.keep_segments = keep_segments
        self.tracer = tracer
        self.metrics = metrics
        self._m = _SchedulerMetrics(metrics) if metrics is not None \
            else None

    # -- Per-kernel dispatch (split out so tracing wraps one call) ----------
    # The resilient loop charges its executions through the same helpers.

    @staticmethod
    def _account_pim(cost: PimCost, report: ScheduleReport) -> None:
        report.pim_time += cost.time
        report.pim_internal_bytes += cost.internal_bytes
        report.pim_activations += cost.activations
        report.energy_pim += cost.energy

    def _dispatch_pim(self, kernel: PimKernel, report: ScheduleReport) -> float:
        cost = self.pim_executor.cost(kernel)
        self._account_pim(cost, report)
        return cost.time

    def _dispatch_gpu(self, kernel: GpuKernel, report: ScheduleReport) -> float:
        dram = self.cache.dram_bytes(kernel)
        cost = self.gpu_model.kernel_cost(kernel, dram_bytes=dram)
        report.gpu_time += cost.time
        report.gpu_dram_bytes += cost.dram_bytes
        if kernel.category is OpCategory.TRANSFER:
            report.transfer_bytes += cost.dram_bytes
        report.energy_gpu_dynamic += self.gpu_model.kernel_energy(
            kernel, cost)
        return cost.time

    def run(self, trace: Trace) -> ScheduleReport:
        report = ScheduleReport(label=trace.label)
        clock = 0.0
        previous_device = None
        overhead = self.gpu_model.config.pim_transition_overhead
        tracer = self.tracer
        for kernel in trace:
            if isinstance(kernel, PimKernel):
                if self.pim_executor is None:
                    raise ValueError(
                        "trace contains PIM kernels but no PIM executor "
                        "was provided")
                device = "pim"
                dispatch = self._dispatch_pim
            else:
                device = "gpu"
                dispatch = self._dispatch_gpu
            if tracer is None:
                duration = dispatch(kernel, report)
            else:
                name = f"dispatch.{device}.{kernel.category.value}"
                with tracer.span(name, kernel=kernel.name):
                    duration = dispatch(kernel, report)
            if self._m is not None:
                self._m.kernel(device, kernel.category, duration)
            if previous_device is not None and previous_device != device:
                clock += overhead
                report.transition_time += overhead
                report.transitions += 1
                if self._m is not None:
                    self._m.transitions.inc()
            start = clock
            clock += duration
            report.time_by_category[kernel.category] = (
                report.time_by_category.get(kernel.category, 0.0) + duration)
            if self.keep_segments:
                report.segments.append(Segment(
                    start=start, end=clock, device=device,
                    name=kernel.name, category=kernel.category))
            previous_device = device
        report.total_time = clock
        report.energy_gpu_idle = self.gpu_model.config.idle_power * clock
        return report


class ResilientScheduler(Scheduler):
    """Fault-tolerant scheduler: verify -> bounded retry -> GPU fallback.

    With a :class:`~repro.faults.plan.FaultPlan` attached, every kernel
    execution faces the plan's fault draws; every kernel's output is
    verified (residue checksums for PIM/GPU results, sequence checks
    for transfers), detected faults are retried up to
    ``plan.max_attempts`` times, persistent or retry-exhausted faults
    fall back to an equivalent GPU re-execution, and PIM sites that
    keep failing are quarantined — subsequent kernels mapped there are
    rerouted to the GPU up front.  All recovery traffic (verification,
    re-execution, fallback kernels, extra device transitions) lands in
    the simulated timeline, and the injection/detection/recovery counts
    land in ``report.fault_summary``.

    The serving layer can attach three more policies:

    * ``health`` — a :class:`repro.serving.health.HealthMonitor`.  It
      consumes quarantine events, fault counters, and breaker opens;
      once it crosses into GPU_ONLY, the remaining trace is re-lowered
      on the fly to the GPU-only schedule (every remaining PIM kernel
      executes as its :func:`~repro.faults.fallback.gpu_equivalent`,
      exactly what lowering without offload would have emitted) instead
      of raising :class:`~repro.errors.FaultError`.
    * ``breakers`` — a :class:`repro.serving.breaker.BreakerBoard` with
      per-device circuit breakers (GPU/PIM/transfer) on the simulated
      clock; an open PIM breaker reroutes PIM kernels to the GPU until
      its cooldown elapses and a probe succeeds.
    * ``kernel_timeout`` — a per-kernel ceiling on simulated execution
      time.  A PIM kernel that would exceed it is treated as hung:
      killed at the timeout mark (partial time/energy charged) and
      re-executed on the GPU.

    Without a plan the class degrades to the plain :class:`Scheduler`.
    """

    def __init__(self, gpu_model: GpuModel,
                 pim_executor: PimExecutor | None = None,
                 cache: CacheModel | None = None,
                 keep_segments: bool = True,
                 metrics=None,
                 plan=None,
                 injector: FaultInjector | None = None,
                 health=None,
                 breakers=None,
                 kernel_timeout: float | None = None,
                 ras=None):
        super().__init__(gpu_model, pim_executor, cache=cache,
                         keep_segments=keep_segments, metrics=metrics)
        if plan is None and injector is not None:
            plan = injector.plan
        if plan is None and ras is not None:
            # RAS without a fault plan still needs the resilient loop:
            # attach an empty plan (no fault draws) so the per-kernel
            # site/verify machinery runs.
            from repro.faults.plan import FaultPlan
            plan = FaultPlan(seed=ras.config.seed)
        self.plan = plan
        self.injector = injector if injector is not None else (
            FaultInjector(plan) if plan is not None else None)
        self.health = health
        self.breakers = breakers
        self.kernel_timeout = kernel_timeout
        self.ras = ras
        if ras is not None:
            ras.bind(self.injector, health)

    def run(self, trace: Trace) -> ScheduleReport:
        if self.injector is None:
            return super().run(trace)
        plan, injector = self.plan, self.injector
        ras = self.ras
        health, breakers = self.health, self.breakers
        kernel_timeout = self.kernel_timeout
        report = ScheduleReport(label=trace.label)
        overhead = self.gpu_model.config.pim_transition_overhead
        clock = 0.0
        previous_device = None
        times = {"verify_time": 0.0, "retry_time": 0.0, "fallback_time": 0.0}
        event_counts = Counter()
        event_base = len(injector.log.events)
        pim_index = 0

        def advance(duration: float, device: str, name: str,
                    category) -> None:
            nonlocal clock, previous_device
            if previous_device is not None and previous_device != device:
                clock += overhead
                report.transition_time += overhead
                report.transitions += 1
                if self._m is not None:
                    self._m.transitions.inc()
            if self._m is not None:
                self._m.kernel(device, category, duration)
            if ras is not None and device == "gpu":
                # PIM banks idle while the GPU runs: feed the
                # opportunistic scrub budget.
                ras.note_idle(duration)
            start = clock
            clock += duration
            report.time_by_category[category] = (
                report.time_by_category.get(category, 0.0) + duration)
            if self.keep_segments:
                report.segments.append(Segment(
                    start=start, end=clock, device=device,
                    name=name, category=category))
            previous_device = device

        def breaker_device(device: str, category) -> str:
            return "transfer" if category is OpCategory.TRANSFER else device

        def note_event(event: str) -> None:
            event_counts[event] += 1
            if self._m is not None:
                self._m.faults.inc(event=event)

        def note_success(device: str, category) -> None:
            if breakers is not None:
                breakers.record_success(breaker_device(device, category),
                                        clock)

        def note_failure(device: str, category) -> None:
            bdev = breaker_device(device, category)
            if breakers is not None and breakers.record_failure(bdev, clock):
                note_event("breaker_open")
                if health is not None:
                    health.note_breaker_open(bdev, clock)
            if health is not None:
                health.note_fault(bdev, clock)
                if health.failed:
                    raise FaultError(
                        "GPU circuit breaker opened; no healthy device "
                        "remains to serve the schedule")

        def note_quarantine(site) -> None:
            note_event("quarantine")
            if health is not None:
                health.note_quarantine(site, clock)

        def gpu_fallback(pim_name: str, fallback) -> None:
            fb_duration = self._dispatch_gpu(fallback, report)
            fb_verify = self.gpu_model.verify_cost(fallback)
            report.gpu_time += fb_verify
            advance(fb_duration + fb_verify, "gpu",
                    f"{pim_name}.fallback", fallback.category)
            times["verify_time"] += fb_verify
            times["fallback_time"] += fb_duration + fb_verify
            note_success("gpu", fallback.category)

        for kernel in trace:
            is_pim = isinstance(kernel, PimKernel)
            if is_pim and self.pim_executor is None:
                raise ValueError(
                    "trace contains PIM kernels but no PIM executor "
                    "was provided")
            exec_kernel = kernel
            device = "pim" if is_pim else "gpu"
            site = None
            if is_pim:
                site = injector.site_for(pim_index)
                pim_index += 1
                if health is not None:
                    health.note_pim_kernel()
                if injector.is_quarantined(site):
                    injector.note_reroute()
                    note_event("rerouted")
                    exec_kernel = gpu_equivalent(kernel)
                    device, site = "gpu", None
                elif health is not None and health.gpu_only:
                    # degraded mode: the remaining block sequence runs
                    # on the GPU-only schedule
                    note_event("degraded_reroute")
                    exec_kernel = gpu_equivalent(kernel)
                    device, site = "gpu", None
                elif breakers is not None \
                        and not breakers.allow("pim", clock):
                    note_event("breaker_reroute")
                    exec_kernel = gpu_equivalent(kernel)
                    device, site = "gpu", None

            ras_escape = False
            if ras is not None and device == "pim":
                # Memory maintenance due before the kernel touches its
                # region: scrub passes, operand-fetch ECC resolution,
                # and any remap migrations, all charged as PIM time.
                ras_items, ras_escape = ras.before_kernel(site, clock)
                for ras_name, ras_secs in ras_items:
                    report.pim_time += ras_secs
                    advance(ras_secs, "pim", ras_name, exec_kernel.category)

            attempts = 0
            while True:
                instruction = getattr(exec_kernel, "instruction", None)
                fault = injector.kernel_fault(device, exec_kernel.category,
                                              instruction=instruction,
                                              site=site)
                if device == "pim":
                    nominal = self.pim_executor.cost(exec_kernel)
                    executed = self.pim_executor.apply_fault(nominal, fault)
                    if (kernel_timeout is not None and fault is None
                            and executed.time > kernel_timeout):
                        # Hung PIM kernel: killed at the timeout mark
                        # (partial time/energy charged, no result to
                        # verify), re-executed on the GPU, and the site
                        # takes a strike like any other failure.
                        self._account_pim(executed.truncated(kernel_timeout),
                                          report)
                        advance(kernel_timeout, "pim",
                                f"{exec_kernel.name}.timeout",
                                exec_kernel.category)
                        note_event("kernel_timeout")
                        note_failure("pim", exec_kernel.category)
                        gpu_fallback(exec_kernel.name,
                                     gpu_equivalent(exec_kernel))
                        if injector.record_site_failure(site):
                            note_quarantine(site)
                        break
                    self._account_pim(executed, report)
                    duration = executed.time
                    verify = plan.pim_verify_overhead * nominal.time
                    report.pim_time += verify
                else:
                    duration = self._dispatch_gpu(exec_kernel, report)
                    verify = self.gpu_model.verify_cost(exec_kernel)
                    report.gpu_time += verify
                label = exec_kernel.name if attempts == 0 else (
                    f"{exec_kernel.name}.retry{attempts}")
                advance(duration + verify, device, label,
                        exec_kernel.category)
                times["verify_time"] += verify
                if attempts > 0:
                    times["retry_time"] += duration + verify
                if fault is None:
                    if ras_escape:
                        # An ECC escape (>= 3-bit retention error)
                        # corrupted the operands; the residue-checksum
                        # verify just caught it.  Rewrite the region
                        # from redundancy and re-execute the kernel.
                        ras_escape = False
                        note_event("ras_escape")
                        note_failure("pim", exec_kernel.category)
                        for ras_name, ras_secs in ras.repair_items(site,
                                                                   clock):
                            report.pim_time += ras_secs
                            advance(ras_secs, "pim", ras_name,
                                    exec_kernel.category)
                        attempts += 1
                        continue
                    if (kernel_timeout is not None and device == "gpu"
                            and duration > kernel_timeout):
                        # A GPU overrun has no second device to fall
                        # back to: record it (and charge the breaker)
                        # but keep the completed result.
                        note_event("kernel_timeout")
                        note_failure(device, exec_kernel.category)
                    else:
                        note_success(device, exec_kernel.category)
                    break
                note_event("injected")
                if injector.fault_is_benign(fault, instruction):
                    event = injector.event(fault, exec_kernel.name,
                                           "analytic", site=site)
                    event.benign = True
                    note_event("benign")
                    note_success(device, exec_kernel.category)
                    break
                event = injector.event(fault, exec_kernel.name, "analytic",
                                       site=site)
                event.detected = True
                event.attempts = attempts + 1
                note_event("detected")
                note_failure(device, exec_kernel.category)
                attempts += 1
                if (attempts <= plan.max_attempts
                        and fault not in PERSISTENT_MODELS):
                    event.recovery = "retry"
                    note_event("retry")
                    continue
                if not plan.allow_fallback:
                    if health is None:
                        raise FaultError(
                            f"kernel {exec_kernel.name!r} failed "
                            f"{attempts} attempt(s) at site {site} and "
                            f"fallback is disabled")
                    # Service-level override: degrade to GPU_ONLY and
                    # keep serving instead of aborting the whole run.
                    health.note_policy_exhausted(exec_kernel.name, clock)
                    note_event("policy_degraded")
                # GPU fallback: re-execute on the reliable device.  A
                # failed PIM site takes a strike; enough strikes
                # quarantine it for the rest of the schedule.
                fallback = (gpu_equivalent(exec_kernel)
                            if device == "pim" else exec_kernel)
                gpu_fallback(exec_kernel.name, fallback)
                event.recovery = "fallback"
                note_event("fallback")
                if device == "pim" and injector.record_site_failure(site):
                    note_quarantine(site)
                break

        report.total_time = clock
        report.energy_gpu_idle = self.gpu_model.config.idle_power * clock
        from repro.faults.events import FaultLog
        run_log = FaultLog(events=injector.log.events[event_base:],
                           rerouted=event_counts["rerouted"],
                           quarantined_sites=list(
                               injector.log.quarantined_sites))
        report.fault_summary = dict(run_log.summary(), **times,
                                    plan_digest=plan.digest())
        if health is not None or breakers is not None \
                or kernel_timeout is not None:
            report.fault_summary.update(
                degraded_reroutes=event_counts["degraded_reroute"],
                breaker_reroutes=event_counts["breaker_reroute"],
                kernel_timeouts=event_counts["kernel_timeout"])
        if health is not None:
            report.fault_summary["degradation"] = health.summary()
        if breakers is not None:
            report.fault_summary["breakers"] = breakers.summary()
        if ras is not None:
            report.fault_summary["ras"] = ras.summary()
        return report
