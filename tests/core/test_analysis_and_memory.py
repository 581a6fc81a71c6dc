"""Tests for analysis helpers, memory planning, and metrics."""

import pytest

from repro.analysis.reporting import (format_bytes, format_ratio,
                                      format_seconds, format_table)
from repro.core import blocks as B
from repro.core.allocator import plan_memory
from repro.core.framework import AnaheimFramework
from repro.core.fusion import GPU_ALL_FUSE
from repro.core.trace import OpCategory
from repro.gpu.configs import A100_80GB
from repro.params import paper_params
from repro.workloads.metrics import (edp, edp_improvement,
                                     energy_efficiency_gain, geomean,
                                     speedup)

P = paper_params()


@pytest.fixture(scope="module")
def report():
    framework = AnaheimFramework(A100_80GB)
    blocks = [B.mod_up(20, P.aux_count, P.dnum), B.hadd(20)]
    return framework.run(blocks, P.degree, GPU_ALL_FUSE, label="r").report


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(4.2e-6) == "4.2us"

    def test_format_bytes(self):
        assert format_bytes(2.5e9) == "2.50GB"
        assert format_bytes(3.2e6) == "3.2MB"
        assert format_bytes(800) == "0.8KB"

    def test_format_ratio(self):
        assert format_ratio(1.6180) == "1.62x"


class TestMetrics:
    def test_speedup_and_edp(self):
        assert speedup(2.0, 1.0) == 2.0
        assert energy_efficiency_gain(4.0, 2.0) == 2.0
        assert edp(3.0, 2.0) == 6.0

    def test_edp_improvement(self, report):
        assert edp_improvement(report, report) == pytest.approx(1.0)

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0


class TestMemoryPlanning:
    def test_paper_scale_evk_budget(self):
        plan = plan_memory(P, evk_count=10, plaintext_limbs=0,
                           live_ciphertexts=0)
        # 10 evks x ~142MB, times the scratch factor.
        assert 1.4e9 < plan.evk_bytes < 1.5e9
        assert plan.total_bytes == pytest.approx(plan.raw_bytes * 1.3)

    def test_fits(self):
        plan = plan_memory(P, evk_count=100, plaintext_limbs=10000)
        assert plan.fits(80e9)
        assert not plan.fits(10e9)

    def test_describe_mentions_components(self):
        plan = plan_memory(P, evk_count=1, plaintext_limbs=1)
        text = plan.describe()
        assert "evk" in text and "pt" in text and "ct" in text
