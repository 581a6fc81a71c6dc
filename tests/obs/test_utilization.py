"""Tests for the derived utilization accounting."""

import dataclasses

import pytest

from repro.core.framework import AnaheimFramework
from repro.core.scheduler import ScheduleReport, Segment
from repro.core.trace import OpCategory
from repro.gpu.configs import A100_80GB
from repro.obs.metrics import MetricsRegistry
from repro.obs.utilization import UtilizationReport
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.workloads.linear_transform_trace import hoisted_block


@pytest.fixture(scope="module")
def gantt_report():
    """The Fig. 4a hoisted-transform schedule, segments kept."""
    params = paper_params()
    blocks = hoisted_block(params.level_count, params.aux_count,
                           params.dnum, rotations=8)
    framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                 keep_segments=True)
    return framework.run(blocks, params.degree, label="fig4a").report


class TestFromReport:
    def test_busy_fractions_match_timeline_within_1e9(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report,
                                             gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        # Busy time summed from the Gantt segments must agree with the
        # report's per-device aggregates...
        assert util.busy_time["gpu"] == pytest.approx(
            gantt_report.gpu_time, abs=1e-9)
        assert util.busy_time["pim"] == pytest.approx(
            gantt_report.pim_time, abs=1e-9)
        # ...and the makespan accounting must close.
        assert util.accounting_error < 1e-9
        total = sum(util.busy_fraction(d) for d in util.busy_time) \
            + util.transition_time / util.total_time
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_segments_and_aggregates_agree(self, gantt_report):
        """Deriving from segments or from aggregate times must match."""
        from_segments = UtilizationReport.from_report(gantt_report)
        stripped = dataclasses.replace(gantt_report, segments=[])
        assert not stripped.segments
        from_aggregates = UtilizationReport.from_report(stripped)
        for device in ("gpu", "pim"):
            assert from_segments.busy_time[device] == pytest.approx(
                from_aggregates.busy_time[device], rel=1e-12)

    def test_overlap_efficiency_is_bound_over_total(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report)
        assert util.overlap_efficiency == pytest.approx(
            gantt_report.pipelining_bound() / gantt_report.total_time)
        assert 0.0 < util.overlap_efficiency <= 1.0
        assert util.pipelining_headroom == pytest.approx(
            gantt_report.pipelining_headroom())

    def test_mmac_occupancy_recovers_stream_share(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report,
                                             pim=A100_NEAR_BANK)
        pim = A100_NEAR_BANK
        chunk_accesses = gantt_report.pim_internal_bytes / pim.chunk_bytes
        stream = (chunk_accesses / pim.units) * pim.cycles_per_chunk \
            / pim.clock_hz
        assert util.mmac_stream_time == pytest.approx(stream)
        assert util.mmac_lane_occupancy == pytest.approx(
            stream / util.busy_time["pim"])
        assert util.pim_act_overhead_fraction == pytest.approx(
            1.0 - util.mmac_lane_occupancy)
        # Streaming is a strict subset of PIM busy time: rows must
        # open/close around it.
        assert 0.0 < util.mmac_lane_occupancy < 1.0

    def test_bandwidth_utilizations_bounded(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report,
                                             gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        for value in (util.pim_internal_bw_utilization,
                      util.gpu_dram_bw_utilization,
                      util.transfer_bw_utilization):
            assert value is not None
            assert 0.0 < value <= 1.0

    def test_without_configs_hardware_fields_absent(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report)
        assert util.mmac_lane_occupancy is None
        assert util.gpu_dram_bw_utilization is None
        assert util.busy_time  # device accounting still present

    def test_empty_report(self):
        util = UtilizationReport.from_report(ScheduleReport(label="empty"))
        assert util.total_time == 0.0
        assert util.busy_fraction("gpu") == 0.0
        assert util.accounting_error == 0.0


class TestExport:
    def test_as_dict_json_safe_and_complete(self, gantt_report):
        import json
        util = UtilizationReport.from_report(gantt_report,
                                             gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        doc = json.loads(json.dumps(util.as_dict()))
        assert doc["label"] == "fig4a"
        assert set(doc["busy_fraction"]) == {"gpu", "pim"}
        assert doc["mmac_lane_occupancy"] is not None

    def test_record_publishes_gauges(self, gantt_report):
        registry = MetricsRegistry()
        util = UtilizationReport.from_report(gantt_report,
                                             gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        util.record(registry)
        busy = registry.get("anaheim_device_busy_fraction")
        assert busy.value(device="gpu") == pytest.approx(
            util.busy_fraction("gpu"))
        assert registry.get("anaheim_overlap_efficiency").value() == \
            pytest.approx(util.overlap_efficiency)
        assert registry.get("anaheim_mmac_lane_occupancy").value() == \
            pytest.approx(util.mmac_lane_occupancy)

    def test_render_mentions_devices(self, gantt_report):
        util = UtilizationReport.from_report(gantt_report,
                                             gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        text = util.render()
        assert "gpu busy" in text and "pim busy" in text
        assert "MMAC lane occupancy" in text

    def test_synthetic_two_device_schedule(self):
        report = ScheduleReport(label="synth", total_time=10.0,
                                gpu_time=6.0, pim_time=3.0,
                                transition_time=1.0, transitions=2)
        report.segments = [
            Segment(start=0.0, end=6.0, device="gpu", name="a",
                    category=OpCategory.NTT),
            Segment(start=7.0, end=10.0, device="pim", name="b",
                    category=OpCategory.ELEMENTWISE),
        ]
        report.time_by_category = {OpCategory.NTT: 6.0,
                                   OpCategory.ELEMENTWISE: 3.0}
        util = UtilizationReport.from_report(report)
        assert util.busy_fraction("gpu") == pytest.approx(0.6)
        assert util.busy_fraction("pim") == pytest.approx(0.3)
        assert util.accounting_error == pytest.approx(0.0, abs=1e-12)
