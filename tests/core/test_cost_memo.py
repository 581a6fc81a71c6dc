"""Per-run lowering and cost memos: frozen IR, bit identity, exact counts.

``Lowering`` lowers each distinct block value once and shares the
resulting kernel objects among every repeat of the block; the schedulers
price each distinct kernel object once per run.  Both memos must be
invisible in the results: every report field, segment, fault summary and
metric digest equals a run that lowers and prices every kernel afresh.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.core import blocks as B
from repro.core.framework import AnaheimFramework
from repro.core.fusion import GPU_ALL_FUSE, PIM_FULL, lower
from repro.core.scheduler import (ResilientScheduler, ScheduleReport,
                                  Segment)
from repro.core.trace import GpuKernel, OpCategory, PimKernel, Trace
from repro.dram.reliability import ReliabilityConfig
from repro.faults.plan import FaultModel, FaultPlan, FaultSpec, default_plan
from repro.faults.ras import RasEngine
from repro.gpu.cache import CacheModel
from repro.gpu.configs import A100_80GB
from repro.gpu.model import GpuModel
from repro.obs.metrics import MetricsRegistry
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.pim.executor import PimExecutor
from repro.serving.breaker import BreakerBoard
from repro.serving.health import HealthMonitor
from repro.workloads import applications as apps

N = 2 ** 16
L = 24

PROGRAMS = {"Boot": {}, "HELR": {}, "Sort": {"rounds": 1}}
OPTIONS = {"gpu": GPU_ALL_FUSE, "pim": PIM_FULL}


@pytest.fixture(scope="module")
def params():
    return paper_params()


@pytest.fixture(scope="module")
def programs(params):
    return {name: apps.WORKLOADS[name](params, **kwargs).blocks
            for name, kwargs in PROGRAMS.items()}


@pytest.fixture()
def calls(monkeypatch):
    """Counts of ``GpuModel.kernel_cost`` and ``PimExecutor.cost`` calls."""
    counts = {"gpu": 0, "pim": 0}
    kernel_cost, pim_cost = GpuModel.kernel_cost, PimExecutor.cost

    def counted_kernel_cost(self, *args, **kwargs):
        counts["gpu"] += 1
        return kernel_cost(self, *args, **kwargs)

    def counted_pim_cost(self, *args, **kwargs):
        counts["pim"] += 1
        return pim_cost(self, *args, **kwargs)

    monkeypatch.setattr(GpuModel, "kernel_cost", counted_kernel_cost)
    monkeypatch.setattr(PimExecutor, "cost", counted_pim_cost)
    return counts


def _unshared_trace(blocks, degree, options, label) -> Trace:
    """The trace ``lower`` builds, with fresh kernel objects per block."""
    trace = Trace(label=label)
    for block in blocks:
        trace.extend(lower([block], degree, options).kernels)
    return trace


def _fresh_report(trace, gpu_model, pim_executor, cache) -> ScheduleReport:
    """The plain scheduler's stream, pricing every kernel afresh."""
    report = ScheduleReport(label=trace.label)
    overhead = gpu_model.config.pim_transition_overhead
    clock, previous = 0.0, None
    for kernel in trace:
        if isinstance(kernel, PimKernel):
            device = "pim"
            cost = pim_executor.cost(kernel)
            report.pim_time += cost.time
            report.pim_internal_bytes += cost.internal_bytes
            report.pim_activations += cost.activations
            report.energy_pim += cost.energy
        else:
            device = "gpu"
            cost = gpu_model.kernel_cost(
                kernel, dram_bytes=cache.dram_bytes(kernel))
            report.gpu_time += cost.time
            report.gpu_dram_bytes += cost.dram_bytes
            if kernel.category is OpCategory.TRANSFER:
                report.transfer_bytes += cost.dram_bytes
            report.energy_gpu_dynamic += gpu_model.kernel_energy(kernel,
                                                                 cost)
        if previous is not None and previous != device:
            clock += overhead
            report.transition_time += overhead
            report.transitions += 1
        start = clock
        clock += cost.time
        report.time_by_category[kernel.category] = (
            report.time_by_category.get(kernel.category, 0.0) + cost.time)
        report.segments.append(Segment(start=start, end=clock,
                                       device=device, name=kernel.name,
                                       category=kernel.category))
        previous = device
    report.total_time = clock
    report.energy_gpu_idle = gpu_model.config.idle_power * clock
    return report


def _assert_identical(memo: ScheduleReport, fresh: ScheduleReport) -> None:
    assert memo == fresh
    assert list(memo.time_by_category) == list(fresh.time_by_category)
    assert memo.segments and len(memo.segments) == len(fresh.segments)


class TestFrozenIr:
    @pytest.mark.parametrize("obj, field", [
        (GpuKernel("k", OpCategory.NTT, 1.0, 2.0, 3.0), "mod_ops"),
        (PimKernel("p", "Add", limbs=4, degree=N), "limbs"),
        (B.hadd(L), "limbs"),
        (B.elementwise("e", L, reads=2, writes=1), "attrs"),
    ])
    def test_assigning_a_field_raises(self, obj, field):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, 7)

    def test_block_key_reads_attrs_by_value(self):
        one = B.Block(kind="bconv", limbs=L, attrs={"out_limbs": 3, "x": 1})
        same = B.Block(kind="bconv", limbs=L, attrs={"x": 1, "out_limbs": 3})
        other = B.Block(kind="bconv", limbs=L, attrs={"out_limbs": 4, "x": 1})
        assert one.key() == same.key()
        assert one.key() != other.key()

    def test_equal_blocks_share_kernels(self):
        blocks = [B.raw_bconv(L, 3), B.raw_bconv(L, 3), B.raw_bconv(L, 4)]
        first, second, third = lower(blocks, N, GPU_ALL_FUSE).kernels
        assert first is second
        assert first is not third and first != third


class TestPlainSchedulerBitIdentity:
    @pytest.mark.parametrize("side", sorted(OPTIONS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_report_equals_fresh_pricing(self, params, programs, calls,
                                         name, side):
        blocks, options = programs[name], OPTIONS[side]
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                     keep_segments=True)
        memo = framework.run(blocks, params.degree, options,
                             label=name).report
        memo_calls = dict(calls)
        fresh = _fresh_report(
            _unshared_trace(blocks, params.degree, options, name),
            framework.gpu_model, framework.pim_executor, framework.cache)
        _assert_identical(memo, fresh)
        # The oracle priced every kernel; the memo priced far fewer.
        kernels = len(memo.segments)
        assert calls["gpu"] + calls["pim"] - sum(memo_calls.values()) \
            == kernels
        assert sum(memo_calls.values()) * 4 < kernels


class _Forgetful(dict):
    """A memo table that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


class _FreshResilientScheduler(ResilientScheduler):
    """Prices every execution afresh: retries and fallbacks included."""

    def _reset_costs(self):
        self._gpu_costs = _Forgetful()
        self._pim_costs = _Forgetful()
        self._fallbacks = _Forgetful()


class TestResilientSchedulerBitIdentity:
    @staticmethod
    def _run(trace, plan, kernel_timeout=None, cls=ResilientScheduler):
        registry = MetricsRegistry()
        scheduler = cls(
            GpuModel(A100_80GB, metrics=registry),
            PimExecutor(A100_NEAR_BANK, metrics=registry),
            cache=CacheModel(l2_bytes=A100_80GB.l2_cache_bytes),
            keep_segments=True, metrics=registry, plan=plan,
            health=HealthMonitor(degraded_after=1, gpu_only_after=3,
                                 metrics=registry),
            breakers=BreakerBoard(metrics=registry),
            kernel_timeout=kernel_timeout,
            ras=RasEngine(ReliabilityConfig(seed=0),
                          timing=A100_NEAR_BANK.timing, metrics=registry))
        return scheduler.run(trace), registry

    @pytest.mark.parametrize("side", sorted(OPTIONS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_report_and_metrics_equal_fresh_pricing(
            self, params, programs, calls, name, side):
        blocks, options = programs[name], OPTIONS[side]
        # Three stuck sites quarantine, then degrade the run to GPU-only
        # partway; a kernel timeout only suits the PIM side (a GPU
        # overrun opens the GPU breaker and fails the run).
        plan = default_plan(seed=3, scale=5.0, stuck_sites=(1, 5, 9))
        timeout = 1e-4 if side == "pim" else None
        memo, memo_metrics = self._run(
            lower(blocks, params.degree, options, label=name), plan,
            timeout)
        memo_calls = sum(calls.values())
        fresh, fresh_metrics = self._run(
            _unshared_trace(blocks, params.degree, options, name), plan,
            timeout, cls=_FreshResilientScheduler)
        _assert_identical(memo, fresh)
        assert memo.fault_summary == fresh.fault_summary
        assert memo_metrics.digest() == fresh_metrics.digest()
        # The oracle priced each execution, which the registry counts
        # once per kernel on both sides.
        costings = sum(
            value for family in ("anaheim_gpu_kernel_costs_total",
                                 "anaheim_pim_instructions_total")
            for value in fresh_metrics.get(family).samples().values())
        assert sum(calls.values()) - memo_calls == costings
        assert memo_calls * 4 < costings
        summary = memo.fault_summary
        assert summary["detected"] > 0
        if side == "pim":
            assert summary["rerouted"] > 0
            assert summary["degraded_reroutes"] > 0
            assert summary["kernel_timeouts"] > 0
            assert summary["ras"]["corrected"] > 0

    def test_reroutes_of_one_pim_kernel_price_one_fallback(self, calls):
        plan = FaultPlan(seed=0, quarantine_threshold=1, specs=(
            FaultSpec(FaultModel.PIM_STUCK_AT, sites=tuple(range(32))),))
        trace = lower([B.hadd(L)] * 64, N, PIM_FULL)
        assert len({id(kernel) for kernel in trace}) == 1
        report, _ = self._run(trace, plan)
        assert report.fault_summary["rerouted"] > 0
        assert calls == {"gpu": 1, "pim": 1}


class TestPricingCounts:
    def test_sort_compare_prices_each_distinct_kernel_once(self, params,
                                                           calls):
        """Exact and machine-independent: one full Sort ``compare``
        schedules 1,418,760 GPU and 264,390 PIM kernels."""
        program = apps.WORKLOADS["Sort"](params)
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK)
        framework.compare(program.blocks, params.degree, label="Sort")
        assert calls == {"gpu": 878, "pim": 96}
