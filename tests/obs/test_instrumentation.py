"""Tests for the tracer and registry threading through the modeling stack.

The tracer only times (spans); every modeled event is counted once, in
the metrics registry.
"""

from collections import Counter

import pytest

from repro.core.framework import AnaheimFramework
from repro.gpu.configs import A100_80GB
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.workloads.linear_transform_trace import hoisted_block


@pytest.fixture(scope="module")
def blocks():
    params = paper_params()
    return (hoisted_block(params.level_count, params.aux_count,
                          params.dnum, rotations=4),
            params.degree)


class TestOptIn:
    def test_default_framework_has_no_tracer(self, blocks):
        program, degree = blocks
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK)
        result = framework.run(program, degree)
        assert result.report.total_time > 0
        # Observability is opt-in: nothing holds a tracer by default.
        assert framework.tracer is None
        assert framework.metrics is None

    def test_default_path_records_zero_spans(self, blocks):
        program, degree = blocks
        witness = Tracer()          # exists but is never passed in
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK)
        framework.run(program, degree)
        assert witness.spans == []
        assert witness.counters == {}

    def test_results_identical_with_and_without_tracer(self, blocks):
        program, degree = blocks
        plain = AnaheimFramework(A100_80GB, A100_NEAR_BANK).run(
            program, degree).report
        traced = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                  tracer=Tracer()).run(program, degree).report
        assert traced.total_time == pytest.approx(plain.total_time)
        assert traced.energy == pytest.approx(plain.energy)
        assert traced.transitions == plain.transitions


def _total(registry, family, **match):
    """Sum of ``family``'s samples whose labels include ``match``."""
    return sum(sample["value"]
               for sample in registry.get(family).snapshot_samples()
               if all(sample["labels"][k] == v for k, v in match.items()))


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self, blocks):
        program, degree = blocks
        tracer = Tracer()
        registry = MetricsRegistry()
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                     tracer=tracer, metrics=registry)
        report = framework.run(program, degree, label="traced").report
        return tracer, registry, report

    def test_framework_phases_spanned(self, traced):
        tracer, _, _ = traced
        names = {s.name for s in tracer.spans}
        assert "framework.run" in names
        assert "framework.lower" in names
        assert "framework.schedule" in names

    def test_tracer_only_times(self, traced):
        tracer, _, _ = traced
        assert tracer.spans
        assert tracer.counters == {}

    def test_lowering_passes_spanned_per_block_kind(self, blocks, traced):
        program, _ = blocks
        tracer, _, _ = traced
        kinds = Counter(block.kind for block in program)
        assert kinds["modup"] > 0
        for kind, count in kinds.items():
            assert len(tracer.find(f"lower.{kind}")) == count
        lowered = [s for s in tracer.spans if s.name.startswith("lower.")]
        assert len(lowered) == len(program)

    def test_scheduler_dispatch_spanned(self, traced):
        tracer, registry, report = traced
        for device in ("gpu", "pim"):
            spans = [s for s in tracer.spans
                     if s.name.startswith(f"dispatch.{device}.")]
            assert spans
            assert len(spans) == _total(registry, "anaheim_kernels_total",
                                        device=device)
        assert report.transitions > 0
        assert (_total(registry, "anaheim_transitions_total")
                == report.transitions)

    def test_device_models_count_costings(self, traced):
        tracer, registry, report = traced
        gpu = [s for s in tracer.spans if s.name.startswith("dispatch.gpu.")]
        pim = [s for s in tracer.spans if s.name.startswith("dispatch.pim.")]
        assert len(gpu) == _total(registry, "anaheim_gpu_kernel_costs_total")
        assert len(pim) == _total(registry, "anaheim_pim_instructions_total")
        assert (_total(registry, "anaheim_pim_activations_total")
                == report.pim_activations)
        assert _total(registry, "anaheim_gpu_dram_bytes_total") == \
            pytest.approx(report.gpu_dram_bytes)

    def test_spans_nest_under_framework_run(self, traced):
        tracer, _, _ = traced
        (root,) = tracer.roots()
        assert root.name == "framework.run"
        assert all(s.duration >= 0 for s in tracer.spans)

    def test_compare_shares_one_tracer(self, blocks):
        program, degree = blocks
        tracer = Tracer()
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                     tracer=tracer)
        framework.compare(program, degree, label="cmp")
        assert len(tracer.find("framework.run")) == 2
