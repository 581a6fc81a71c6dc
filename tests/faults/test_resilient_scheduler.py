"""ResilientScheduler: timeline invariants, recovery, determinism."""

import pytest

from repro.core import blocks as B
from repro.core.fusion import PIM_FULL, lower
from repro.core.scheduler import ResilientScheduler, Scheduler
from repro.errors import FaultError
from repro.faults.plan import default_plan
from repro.gpu.configs import A100_80GB
from repro.gpu.model import GpuModel
from repro.pim.configs import A100_NEAR_BANK
from repro.pim.executor import PimExecutor

N = 2 ** 16
L, AUX, D = 54, 14, 4


def _trace(repeat=1):
    blocks = [B.mod_up(L, AUX, D), B.key_mult(L, AUX, D),
              B.aut_accum(L + AUX, 4), B.mod_down(L, AUX)] * repeat
    return lower(blocks, N, PIM_FULL, label="hybrid")


def _run(plan, repeat=1, **kwargs):
    scheduler = ResilientScheduler(GpuModel(A100_80GB),
                                   PimExecutor(A100_NEAR_BANK),
                                   plan=plan, **kwargs)
    return scheduler.run(_trace(repeat))


class TestNoPlan:
    def test_degrades_to_plain_scheduler(self):
        base = Scheduler(GpuModel(A100_80GB),
                         PimExecutor(A100_NEAR_BANK)).run(_trace())
        resilient = _run(None)
        assert resilient.total_time == pytest.approx(base.total_time)
        assert resilient.fault_summary == {}


class TestCleanPlan:
    def test_verification_is_the_only_overhead(self):
        base = Scheduler(GpuModel(A100_80GB),
                         PimExecutor(A100_NEAR_BANK)).run(_trace())
        report = _run(default_plan(scale=0.0))
        summary = report.fault_summary
        assert summary["injected"] == 0
        assert summary["retry_time"] == 0.0
        assert summary["fallback_time"] == 0.0
        assert summary["verify_time"] > 0.0
        assert report.total_time == pytest.approx(
            base.total_time + summary["verify_time"])


class TestInvariants:
    @pytest.fixture()
    def report(self):
        return _run(default_plan(seed=1, scale=50.0))

    def test_campaign_injects_and_recovers(self, report):
        summary = report.fault_summary
        assert summary["injected"] > 0
        assert summary["undetected"] == 0
        assert summary["unrecovered"] == 0
        assert summary["coverage"] == 1.0
        assert summary["plan_digest"] == default_plan(seed=1,
                                                      scale=50.0).digest()

    def test_total_is_sum_of_parts(self, report):
        assert report.total_time == pytest.approx(
            report.gpu_time + report.pim_time + report.transition_time)

    def test_category_times_sum_to_busy_time(self, report):
        assert sum(report.time_by_category.values()) == pytest.approx(
            report.gpu_time + report.pim_time)

    def test_segments_are_contiguous(self, report):
        clock = 0.0
        for segment in report.segments:
            assert segment.start >= clock - 1e-12
            assert segment.end > segment.start
            clock = segment.end
        assert clock == pytest.approx(report.total_time)

    def test_recovery_labels_in_segments(self, report):
        names = {s.name for s in report.segments}
        assert any(".retry" in n or ".fallback" in n for n in names)

    def test_deterministic_across_runs(self, report):
        again = _run(default_plan(seed=1, scale=50.0))
        assert again.fault_summary == report.fault_summary
        assert again.total_time == pytest.approx(report.total_time)

    def test_seed_changes_campaign(self, report):
        other = _run(default_plan(seed=2, scale=50.0))
        assert other.fault_summary != report.fault_summary


class TestStuckSites:
    def test_stuck_site_quarantined_and_rerouted(self):
        plan = default_plan(seed=3, scale=0.0, stuck_sites=(0,),
                            n_sites=2, quarantine_threshold=1)
        report = _run(plan, repeat=4)
        summary = report.fault_summary
        assert summary["quarantined_sites"] == [0]
        assert summary["rerouted"] > 0
        assert summary["recovered_fallback"] >= 1
        assert summary["unrecovered"] == 0
        assert report.total_time == pytest.approx(
            report.gpu_time + report.pim_time + report.transition_time)

    def test_fallback_disabled_raises(self):
        plan = default_plan(seed=3, scale=0.0, stuck_sites=(0,),
                            n_sites=1, allow_fallback=False)
        with pytest.raises(FaultError):
            _run(plan)
