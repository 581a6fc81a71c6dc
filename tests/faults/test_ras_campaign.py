"""RAS campaign: gate, determinism, scheduler integration."""

import json

import pytest

from repro.dram.reliability import ReliabilityConfig
from repro.faults.ras_campaign import (ras_baseline_metrics,
                                       run_analytic_ras,
                                       run_functional_ras,
                                       run_ras_matrix)
from repro.obs.metrics import MetricsRegistry

#: A 2x2 grid containing the default cell — small enough for tests,
#: wide enough to exercise the surfaces.
RATES = (200.0, 1000.0)
INTERVALS = (1e-3, 5e-3)


@pytest.fixture(scope="module")
def matrix():
    return run_ras_matrix(retention_rates=RATES,
                          scrub_intervals=INTERVALS,
                          functional=True, record_wall=False)


class TestAnalyticCell:
    def test_overhead_is_guarded_minus_clean(self, matrix):
        cell = matrix["default_cell"]
        assert cell["guarded_time_s"] > cell["clean_time_s"]
        assert cell["overhead"] == pytest.approx(
            cell["guarded_time_s"] / cell["clean_time_s"] - 1.0)

    def test_default_cell_is_clean_and_cheap(self, matrix):
        cell = matrix["default_cell"]
        assert cell["ras"]["uncorrected"] == 0
        assert cell["ras"]["corrected"] > 0
        assert sum(cell["ras"]["scrub_passes"].values()) > 0
        assert cell["overhead"] < 0.05

    def test_scrubbing_more_often_costs_more(self, matrix):
        # Row-major surfaces: rows are rates, columns intervals.
        for row in matrix["surfaces"]["scrub_time_s"]:
            assert row[0] >= row[-1]

    def test_gate_passes_with_zero_uncorrected(self, matrix):
        assert matrix["gate"]["passed"]
        for row in matrix["surfaces"]["uncorrected"]:
            assert all(v == 0 for v in row)

    def test_ras_segments_on_the_timeline(self):
        cell = run_analytic_ras(ReliabilityConfig())
        ras = cell["ras"]
        assert ras["ras_time_s"] == pytest.approx(
            ras["scrub_time_s"] + ras["repair_time_s"]
            + ras["correct_time_s"] + ras["migration_time_s"])
        assert cell["guarded_time_s"] >= (cell["clean_time_s"]
                                          + ras["ras_time_s"])


class TestDeterminism:
    def test_serial_reruns_are_byte_identical(self, matrix):
        again = run_ras_matrix(retention_rates=RATES,
                               scrub_intervals=INTERVALS,
                               functional=True, record_wall=False)
        assert json.dumps(matrix, sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_pool_matches_serial_documents_and_digests(self, matrix):
        serial_metrics = MetricsRegistry()
        pool_metrics = MetricsRegistry()
        serial = run_ras_matrix(retention_rates=RATES,
                                scrub_intervals=INTERVALS,
                                functional=True, record_wall=False,
                                metrics=serial_metrics, workers=1)
        pooled = run_ras_matrix(retention_rates=RATES,
                                scrub_intervals=INTERVALS,
                                functional=True, record_wall=False,
                                metrics=pool_metrics, workers=2)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(pooled, sort_keys=True)
        assert serial_metrics.digest() == pool_metrics.digest()


class TestFunctionalCell:
    def test_every_retention_event_is_accounted(self, matrix):
        func = matrix["functional"]
        assert func["events"] > 0
        assert func["events"] == (func["ecc_corrected"]
                                  + func["ecc_detected"]
                                  + func["checksum_caught"])
        assert func["unaccounted"] == 0
        assert func["decrypt_ok"]

    def test_escapes_reach_the_checksum_guard(self):
        # Nearly every event flips three bits, so ECC miscorrects some
        # words and the residue checksum is the layer that catches them.
        config = ReliabilityConfig(escape_fraction=0.999,
                                   multi_bit_fraction=0.0)
        cell = run_functional_ras(config, record_wall=False)
        assert cell["checksum_caught"] > 0
        assert cell["unaccounted"] == 0
        assert cell["decrypt_ok"]

    def test_record_wall_controls_the_one_wall_field(self):
        config = ReliabilityConfig()
        with_wall = run_functional_ras(config, record_wall=True)
        without = run_functional_ras(config, record_wall=False)
        assert "wall_s" in with_wall and "wall_s" not in without
        with_wall.pop("wall_s")
        assert json.dumps(with_wall, sort_keys=True) \
            == json.dumps(without, sort_keys=True)


class TestBaselineMetrics:
    def test_flat_gateable_and_json_safe(self, matrix):
        metrics = ras_baseline_metrics(matrix)
        for key in ("errors_total", "corrected", "detected", "escaped",
                    "uncorrected", "scrub_passes_total", "remaps_total",
                    "overhead", "ras_time_s", "clean_time_s",
                    "functional_events", "functional_ecc_corrected",
                    "functional_checksum_caught"):
            assert isinstance(metrics[key], float), key
        assert metrics["uncorrected"] == 0.0
        json.dumps(metrics)
