"""Empty-input rendering and Gantt glyph coverage of schedule reports."""

import itertools

from repro.core.framework import AnaheimFramework
from repro.core.gantt import _GLYPHS, render_breakdown, render_gantt
from repro.core.trace import OpCategory
from repro.gpu.configs import A100_80GB
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.workloads.linear_transform_trace import hoisted_block


class TestEmptyInputs:
    def test_render_breakdown_empty_dict(self):
        art = render_breakdown({})
        assert isinstance(art, str)
        assert "no reports" in art


class TestGanttGlyphs:
    def test_every_category_mapped_on_both_devices(self):
        for key in itertools.product(("gpu", "pim"),
                                     (c.value for c in OpCategory)):
            assert key in _GLYPHS, f"missing Gantt glyph for {key}"

    def test_glyphs_distinct_per_device(self):
        for device in ("gpu", "pim"):
            glyphs = [g for (d, _), g in _GLYPHS.items() if d == device]
            assert len(glyphs) == len(set(glyphs))

    def test_no_question_marks_for_scheduled_workload(self):
        params = paper_params()
        blocks = hoisted_block(params.level_count, params.aux_count,
                               params.dnum, rotations=4)
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                     keep_segments=True)
        report = framework.run(blocks, params.degree, label="glyphs").report
        devices = {s.device for s in report.segments}
        categories = {s.category for s in report.segments}
        assert "pim" in devices
        assert OpCategory.TRANSFER in categories  # modup write-backs
        assert "?" not in render_gantt(report, width=120)
