"""The Anaheim software framework: high-level entry point (§V-C, Fig. 4a).

``AnaheimFramework`` binds a GPU model, an optional PIM device, and a
library profile; it lowers block IR through the optimization passes and
schedules the result, returning :class:`ScheduleReport` objects that the
benchmarks turn into the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fusion import (GPU_ALL_FUSE, PIM_FULL, LoweringOptions,
                               lower)
from repro.core.scheduler import (ResilientScheduler, ScheduleReport,
                                  Scheduler)
from repro.gpu.cache import CacheModel
from repro.gpu.configs import CHEDDAR, GpuConfig, LibraryProfile
from repro.gpu.model import GpuModel
from repro.obs.tracer import maybe_span
from repro.pim.configs import PimConfig
from repro.pim.executor import PimExecutor


@dataclass
class ExecutionResult:
    """A schedule report plus the options that produced it."""

    report: ScheduleReport
    options: LoweringOptions


class AnaheimFramework:
    """Translates FHE block programs into scheduled hybrid executions."""

    def __init__(self, gpu: GpuConfig, pim: PimConfig | None = None,
                 library: LibraryProfile = CHEDDAR,
                 working_set_bytes: float = 0.0,
                 keep_segments: bool = False,
                 tracer=None,
                 metrics=None,
                 fault_plan=None,
                 health=None,
                 breakers=None,
                 kernel_timeout: float | None = None,
                 ras_config=None):
        self.gpu = gpu
        self.pim = pim
        self.library = library
        self.tracer = tracer
        self.metrics = metrics
        self.gpu_model = GpuModel(gpu, library, metrics=metrics)
        self.pim_executor = (PimExecutor(pim, metrics=metrics)
                             if pim is not None else None)
        self.cache = CacheModel(l2_bytes=gpu.l2_cache_bytes,
                                working_set_bytes=working_set_bytes)
        self.keep_segments = keep_segments
        self.fault_plan = fault_plan
        #: Serving-layer resilience state (HealthMonitor / BreakerBoard /
        #: per-kernel timeout).  Shared across runs of this framework on
        #: purpose: degradation is a property of the *hardware*, so a
        #: second workload on the same framework inherits the state.
        self.health = health
        self.breakers = breakers
        self.kernel_timeout = kernel_timeout
        #: Memory RAS model (:class:`repro.dram.reliability
        #: .ReliabilityConfig`).  A fresh :class:`~repro.faults.ras
        #: .RasEngine` is built per run so every run is a pure function
        #: of (config, trace) — wear does not leak across runs.
        self.ras_config = ras_config if pim is not None else None

    def _scheduler(self) -> Scheduler:
        if self.fault_plan is not None or self.ras_config is not None:
            ras = None
            if self.ras_config is not None:
                from repro.faults.ras import RasEngine
                ras = RasEngine(self.ras_config, timing=self.pim.timing,
                                metrics=self.metrics)
            return ResilientScheduler(self.gpu_model, self.pim_executor,
                                      cache=self.cache,
                                      keep_segments=self.keep_segments,
                                      metrics=self.metrics,
                                      plan=self.fault_plan,
                                      health=self.health,
                                      breakers=self.breakers,
                                      kernel_timeout=self.kernel_timeout,
                                      ras=ras)
        return Scheduler(self.gpu_model, self.pim_executor,
                         cache=self.cache,
                         keep_segments=self.keep_segments,
                         tracer=self.tracer,
                         metrics=self.metrics)

    def default_options(self) -> LoweringOptions:
        """Best options for the bound devices: full fusion, plus PIM
        offload when a PIM device is attached (GPU-only configurations
        get the ExtraFuse pass instead — §VII-D)."""
        return PIM_FULL if self.pim is not None else GPU_ALL_FUSE

    def run(self, blocks, degree: int,
            options: LoweringOptions | None = None,
            label: str = "") -> ExecutionResult:
        """Lower and schedule one block program."""
        if options is None:
            options = self.default_options()
        if options.offload and self.pim_executor is None:
            raise ValueError("offloading requested without a PIM device")
        with maybe_span(self.tracer, "framework.run", label=label,
                        options=options.describe()):
            with maybe_span(self.tracer, "framework.lower"):
                trace = lower(blocks, degree, options, label=label,
                              tracer=self.tracer)
            scheduler = self._scheduler()
            with maybe_span(self.tracer, "framework.schedule",
                            kernels=len(trace)):
                report = scheduler.run(trace)
        return ExecutionResult(report=report, options=options)

    def compare(self, blocks, degree: int, label: str = "") -> dict:
        """Baseline GPU vs Anaheim execution of the same program."""
        baseline = AnaheimFramework(
            self.gpu, pim=None, library=self.library,
            working_set_bytes=self.cache.working_set_bytes,
            keep_segments=self.keep_segments, tracer=self.tracer)
        out = {"gpu": baseline.run(blocks, degree, GPU_ALL_FUSE,
                                   label=f"{label} (GPU)")}
        if self.pim is not None:
            out["pim"] = self.run(blocks, degree, PIM_FULL,
                                  label=f"{label} (Anaheim)")
        return out
