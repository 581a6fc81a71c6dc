"""Roofline execution model for GPU kernels.

Each kernel's time is ``max(compute, memory) + launch overhead`` where
compute uses the calibrated per-category sustained efficiency and memory
uses the (near-peak) streaming bandwidth.  This reproduces the paper's
§IV analysis: element-wise ops sit far below the roofline ridge
(< 2 ops/byte vs a 10-44 ops/byte ridge) and are bandwidth-bound, while
(I)NTT and BConv are compute-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import GpuKernel, OpCategory
from repro.gpu.configs import CHEDDAR, MODMUL_INT_OPS, GpuConfig, LibraryProfile


@dataclass(frozen=True)
class KernelCost:
    """Time/energy estimate for one kernel on one GPU."""

    time: float            # seconds, including launch overhead
    compute_time: float
    memory_time: float
    dram_bytes: float      # bytes that actually travel to/from DRAM

    @property
    def bound(self) -> str:
        return "compute" if self.compute_time >= self.memory_time else "memory"


class GpuModel:
    """Costs GPU kernels against a :class:`GpuConfig` and library profile."""

    def __init__(self, config: GpuConfig, library: LibraryProfile = CHEDDAR,
                 metrics=None):
        self.config = config
        self.library = library
        self.metrics = metrics
        if metrics is not None:
            self._m_costs = metrics.counter(
                "anaheim_gpu_kernel_costs_total",
                "GPU kernel costings by category",
                labelnames=("category",))
            self._m_dram = metrics.counter(
                "anaheim_gpu_dram_bytes_total",
                "DRAM bytes charged to GPU kernels")

    # -- Calibrated sustained rates -------------------------------------------

    def _compute_efficiency(self, category: OpCategory) -> float:
        cfg = self.config
        lib = self.library
        if category == OpCategory.NTT:
            return cfg.ntt_efficiency * lib.ntt
        if category == OpCategory.BCONV:
            return cfg.bconv_efficiency * lib.bconv
        # Element-wise/automorphism compute is trivially parallel ALU
        # work; treat it as running at NTT-like sustained efficiency so
        # the roofline (not compute) limits it.
        return cfg.ntt_efficiency * lib.elementwise

    def _bandwidth_efficiency(self, category: OpCategory) -> float:
        cfg = self.config
        lib = self.library
        if category == OpCategory.ELEMENTWISE:
            return cfg.elementwise_bw_efficiency * lib.elementwise
        if category == OpCategory.AUTOMORPHISM:
            # Permutations have poor access locality; they sustain less
            # of peak bandwidth than unit-stride element-wise kernels.
            return 0.6 * cfg.elementwise_bw_efficiency * lib.automorphism
        if category == OpCategory.TRANSFER:
            return cfg.elementwise_bw_efficiency
        return cfg.elementwise_bw_efficiency

    # -- Costing ----------------------------------------------------------------

    def kernel_cost(self, kernel: GpuKernel,
                    dram_bytes: float | None = None) -> KernelCost:
        """Roofline time for one kernel.

        ``dram_bytes`` optionally overrides the DRAM traffic (the cache
        model may find part of the footprint resident in L2); kernel
        *time* still pays the full footprint at L2-or-better speed, so
        only the slower DRAM share is charged at DRAM bandwidth.
        """
        cfg = self.config
        int_ops = kernel.mod_ops * MODMUL_INT_OPS
        eff = self._compute_efficiency(kernel.category)
        compute_time = int_ops / (cfg.int_ops_per_second * eff) if int_ops else 0.0
        if dram_bytes is None:
            dram_bytes = kernel.total_bytes
        bw = cfg.dram_bandwidth * self._bandwidth_efficiency(kernel.category)
        memory_time = dram_bytes / bw if dram_bytes else 0.0
        time = max(compute_time, memory_time) + cfg.kernel_launch_overhead
        if self.metrics is not None:
            self._m_costs.inc(category=kernel.category.value)
            self._m_dram.inc(dram_bytes)
        return KernelCost(time=time, compute_time=compute_time,
                          memory_time=memory_time, dram_bytes=dram_bytes)

    def kernel_energy(self, kernel: GpuKernel, cost: KernelCost) -> float:
        """Dynamic energy of one kernel (J).

        Core dynamic power is charged only while the SMs actually
        compute; memory-bound kernels mostly pay the memory-subsystem
        activity power plus per-bit DRAM access energy.  Idle/static
        power is charged by the scheduler over the whole schedule.
        """
        cfg = self.config
        core = cfg.core_dynamic_power * min(cost.compute_time, cost.time)
        memory = cfg.memory_active_power * cost.time
        dram = cost.dram_bytes * 8.0 * cfg.dram_pj_per_bit * 1e-12
        return core + memory + dram

    #: Fraction of a kernel's output-stream time that inline residue
    #: checksumming adds: the reduction is fused into the producing
    #: kernel (it rides the write stream), so only the extra ALU work
    #: and the tiny checksum vector cost anything.
    VERIFY_STREAM_FRACTION = 0.02

    def verify_cost(self, kernel: GpuKernel) -> float:
        """Modeled residue-checksum verification time for one kernel (s).

        Used by the fault-tolerant scheduler when a fault plan is
        attached; the plain scheduler never calls it.
        """
        if not kernel.bytes_written:
            return 0.0
        cfg = self.config
        bw = cfg.dram_bandwidth * cfg.elementwise_bw_efficiency
        return self.VERIFY_STREAM_FRACTION * kernel.bytes_written / bw

    def arithmetic_intensity(self, kernel: GpuKernel) -> float:
        """Int ops per DRAM byte — the paper's §IV-D metric."""
        if kernel.total_bytes == 0:
            return float("inf")
        return kernel.mod_ops * MODMUL_INT_OPS / kernel.total_bytes
