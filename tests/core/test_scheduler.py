"""Tests for the hybrid stream-queue scheduler and Gantt rendering."""

import pytest

from repro.core import blocks as B
from repro.core.fusion import GPU_ALL_FUSE, PIM_FULL, lower
from repro.core.gantt import render_breakdown, render_gantt
from repro.core.scheduler import Scheduler
from repro.core.trace import OpCategory, Trace
from repro.gpu.configs import A100_80GB
from repro.gpu.model import GpuModel
from repro.pim.configs import A100_NEAR_BANK
from repro.pim.executor import PimExecutor

N = 2 ** 16
L, AUX, D = 54, 14, 4


@pytest.fixture()
def scheduler():
    return Scheduler(GpuModel(A100_80GB), PimExecutor(A100_NEAR_BANK))


def _hybrid_trace():
    blocks = [B.mod_up(L, AUX, D), B.key_mult(L, AUX, D),
              B.aut_accum(L + AUX, 4), B.mod_down(L, AUX)]
    return lower(blocks, N, PIM_FULL, label="hybrid")


class TestScheduling:
    def test_total_is_sum_of_parts(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        assert report.total_time == pytest.approx(
            report.gpu_time + report.pim_time + report.transition_time)

    def test_transitions_counted(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        # GPU modup -> PIM keymult+ep -> GPU autaccum/moddown boundaries.
        assert report.transitions >= 2
        assert report.transition_time == pytest.approx(
            report.transitions * A100_80GB.pim_transition_overhead)

    def test_segments_are_contiguous(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        clock = 0.0
        for segment in report.segments:
            assert segment.start >= clock - 1e-12
            assert segment.end > segment.start
            clock = segment.end
        assert clock == pytest.approx(report.total_time)

    def test_category_times_sum_to_busy_time(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        assert sum(report.time_by_category.values()) == pytest.approx(
            report.gpu_time + report.pim_time)

    def test_pim_trace_without_executor_rejected(self):
        gpu_only = Scheduler(GpuModel(A100_80GB), pim_executor=None)
        with pytest.raises(ValueError):
            gpu_only.run(_hybrid_trace())

    def test_gpu_only_trace_has_no_transitions(self, scheduler):
        blocks = [B.mod_up(L, AUX, D), B.mod_down(L, AUX)]
        trace = lower(blocks, N, GPU_ALL_FUSE)
        report = scheduler.run(trace)
        assert report.transitions == 0
        assert report.pim_time == 0.0

    def test_energy_composition(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        assert report.energy == pytest.approx(
            report.energy_gpu_dynamic + report.energy_gpu_idle
            + report.energy_pim)
        assert report.energy_gpu_idle == pytest.approx(
            A100_80GB.idle_power * report.total_time)
        assert report.energy_pim > 0

    def test_edp(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        assert report.edp == pytest.approx(report.energy * report.total_time)


class TestGantt:
    def test_render_contains_devices(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        art = render_gantt(report, width=80)
        assert "GPU |" in art
        assert "PIM |" in art
        assert "P" in art.split("PIM |")[1]

    def test_render_without_segments(self, scheduler):
        sparse = Scheduler(GpuModel(A100_80GB),
                           PimExecutor(A100_NEAR_BANK),
                           keep_segments=False)
        report = sparse.run(_hybrid_trace())
        assert "no segments" in render_gantt(report)

    def test_breakdown_table(self, scheduler):
        report = scheduler.run(_hybrid_trace())
        table = render_breakdown({"hybrid": report})
        assert "Element-wise" in table
        assert "hybrid" in table

    def test_empty_trace(self, scheduler):
        report = scheduler.run(Trace(label="empty"))
        assert report.total_time == 0.0
        assert report.category_share(OpCategory.NTT) == 0.0
