"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.metrics import MetricsRegistry

#: Full registry digests the ``metrics --smoke`` and ``ras --smoke``
#: gates compute.  Each gate only compares two runs of the same code, so
#: a change that moves every run's counters alike still passes it; these
#: pins catch that.  Re-pin only for an intended change to the counters.
METRICS_SMOKE_DIGEST = ("0205d528f3b0b5e3229eac2025991374"
                        "674db064f3f967883375c87e0ce6f08d")
RAS_SMOKE_DIGEST = ("cfb5026ffced3c15b93159410e01e4f7"
                    "fe9040555044453873073eb05d478b73")


@pytest.fixture()
def digests(monkeypatch):
    """Every ``MetricsRegistry.digest`` value computed during the test."""
    seen = []
    digest = MetricsRegistry.digest

    def recording_digest(self):
        value = digest(self)
        seen.append(value)
        return value

    monkeypatch.setattr(MetricsRegistry, "digest", recording_digest)
    return seen


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "Boot"])
        assert args.gpu == "a100"
        assert args.pim == "near-bank"
        assert args.library == "Cheddar"

    def test_bad_workload_rejected(self, capsys):
        # Unknown workloads are a clean one-line error (exit 1), not an
        # argparse usage dump or a traceback.
        assert main(["run", "--workload", "Nope"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown workload 'Nope'" in err
        assert "Boot" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Boot", "HELR", "Sort", "RNN", "ResNet20"):
            assert name in out

    def test_run_with_pim(self, capsys):
        assert main(["run", "--workload", "Boot", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Anaheim" in out
        assert "EDP gain" in out
        assert "Element-wise" in out

    def test_run_gpu_only(self, capsys):
        assert main(["run", "--workload", "HELR", "--pim", "none"]) == 0
        out = capsys.readouterr().out
        assert "HELR" in out

    def test_run_oom(self, capsys):
        code = main(["run", "--workload", "ResNet20", "--gpu", "rtx4090"])
        assert code == 1
        assert "OoM" in capsys.readouterr().out

    def test_gantt(self, capsys):
        assert main(["gantt", "--rotations", "4", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "GPU |" in out
        assert "PIM |" in out

    def test_microbench(self, capsys):
        assert main(["microbench", "--buffer", "8"]) == 0
        out = capsys.readouterr().out
        assert "PAccum" in out
        assert "unsupported" not in out.split("PAccum")[0]

    def test_microbench_small_buffer_marks_unsupported(self, capsys):
        assert main(["microbench", "--buffer", "4"]) == 0
        assert "unsupported" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_json_is_parseable(self, capsys):
        assert main(["run", "--workload", "HELR", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "HELR"
        assert doc["anaheim"]["total_time"] > 0
        assert doc["baseline"]["total_time"] > doc["anaheim"]["total_time"]
        assert doc["edp_gain"] > 1.0

    def test_run_gpu_only_json(self, capsys):
        assert main(["run", "--workload", "HELR", "--pim", "none",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pim"] is None
        assert doc["report"]["pim_time"] == 0.0

    def test_run_trace_out_writes_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["run", "--workload", "HELR", "--trace-out",
                     str(path)]) == 0
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        assert all("ts" in e and "dur" in e for e in events)
        # Both the GPU-baseline (pid 0) and Anaheim (pid 1) schedules.
        assert {e["pid"] for e in events} == {0, 1}
        assert {e["tid"] for e in events if e["pid"] == 1} == {1, 2}

    def test_run_manifest_has_provenance(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["run", "--workload", "HELR", "--manifest",
                     str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["config"]["gpu"]["name"] == "A100 80GB"
        assert doc["report"]["energy"] > 0
        assert "baseline_report" in doc

    def test_gantt_json_and_trace(self, capsys, tmp_path):
        path = tmp_path / "gantt.json"
        assert main(["gantt", "--rotations", "4", "--json",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["segments"]
        assert json.loads(path.read_text())["traceEvents"]

    def test_unwritable_trace_path_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gantt", "--rotations", "2", "--trace-out",
                  str(tmp_path / "no" / "such" / "dir" / "t.json")])
        assert "cannot write trace" in str(err.value)

    def test_microbench_json(self, capsys):
        assert main(["microbench", "--buffer", "16", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {r["instruction"] for r in doc["instructions"]}
        assert "PAccum" in names
        assert all(r["time"] > 0 for r in doc["instructions"]
                   if r["supported"])


class TestBench:
    def test_write_then_check_passes(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_HELR.json").exists()
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_perturbed_baseline_fails_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 1.10
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 1
        assert "total_time" in capsys.readouterr().out

    def test_loose_tolerance_accepts_perturbation(self, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 1.05
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check", "--tolerance", "0.2"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    @pytest.mark.parametrize("command", [
        ["bench", "--workload", "HELR", "--check"],
        ["faults", "--seeds", "0", "--layer", "analytic", "--check"]])
    def test_bad_tolerance_is_one_line_exit_1(self, capsys, tmp_path,
                                              command, value):
        # nan and inf used to pass every metric, even a tripled one.
        assert main(command + ["--dir", str(tmp_path),
                               "--tolerance", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tolerance must be a finite number")
        assert len(err.strip().splitlines()) == 1

    def test_zero_tolerance_is_exact(self, tmp_path):
        args = ["bench", "--workload", "HELR", "--dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args + ["--check", "--tolerance", "0"]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 3
        path.write_text(json.dumps(doc))
        assert main(args + ["--check", "--tolerance", "0"]) == 1

    def test_check_without_baseline_errors(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out


@pytest.fixture
def floor_ratios(monkeypatch):
    """Pin the NTT ratios at their floors: the counter gate under test
    must not depend on host timing (the floors themselves pass)."""
    from repro.ckks import bench
    floors = dict(bench.RATIO_FLOORS)
    monkeypatch.setattr(bench, "ntt_ratios", lambda: dict(floors))


class TestFunctionalBench:
    def test_write_then_check(self, capsys, tmp_path, floor_ratios):
        args = ["bench", "--workload", "functional", "--dir", str(tmp_path)]
        assert main(args) == 0
        path = tmp_path / "BENCH_functional.json"
        doc = json.loads(path.read_text())
        metrics = doc["metrics"]
        assert not [name for name in metrics if name.endswith("_s")]
        # One warm bootstrap, not a mix of repeats and timing loops.
        assert metrics["ckks.batch_ntt.forward"] == 410
        assert metrics["ckks.modmath.shoup"] == 13844
        assert metrics["ckks.modmath.strict_fallback"] == 0
        assert doc["ntt_lazy_speedup"] == 1.5
        assert doc["precision_max_err"] < 5e-3
        assert main(args + ["--check", "--tolerance", "0"]) == 0
        assert "within ±0%" in capsys.readouterr().out
        metrics["ckks.batch_ntt.inverse"] += 1
        path.write_text(json.dumps(doc))
        assert main(args + ["--check", "--tolerance", "0"]) == 1
        assert "ckks.batch_ntt.inverse" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", ["ntt_batch_speedup",
                                       "ntt_lazy_speedup"])
    def test_ratio_under_floor_fails(self, capsys, monkeypatch, tmp_path,
                                     ratio):
        from repro.ckks import bench
        monkeypatch.setitem(bench.RATIO_FLOORS, ratio, 1e9)
        assert main(["bench", "--workload", "functional", "--dir",
                     str(tmp_path)]) == 1
        assert f"FAIL — {ratio}" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_functional.json").exists()

    def test_ratio_under_floor_fails_the_check(self, capsys, monkeypatch,
                                               tmp_path, floor_ratios):
        args = ["bench", "--workload", "functional", "--dir", str(tmp_path)]
        assert main(args) == 0
        from repro.ckks import bench
        monkeypatch.setitem(bench.RATIO_FLOORS, "ntt_lazy_speedup", 1e9)
        assert main(args + ["--check", "--tolerance", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL — ntt_lazy_speedup" in out
        assert "all metrics within" in out

    def test_profile_surfaces_engine_counters(self, capsys):
        assert main(["profile", "--workload", "functional"]) == 0
        out = capsys.readouterr().out
        assert "ckks.batch_ntt.forward" in out
        assert "ckks.bconv.batched" in out


class TestFaultsCommand:
    def test_analytic_gate_passes(self, capsys):
        assert main(["faults", "--seeds", "0", "--layer", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out
        assert "analytic" in out

    def test_json_output_parseable(self, capsys):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert doc["analytic"][0]["summary"]["coverage"] == 1.0
        assert doc["analytic"][0]["overhead"] < 0.10

    def test_write_then_check_round_trip(self, capsys, tmp_path):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "BENCH_faults.json").exists()
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_check_without_baseline_exits_2(self, capsys, tmp_path):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out

    def test_corrupt_baseline_is_one_line_error(self, capsys, tmp_path):
        (tmp_path / "BENCH_faults.json").write_text("{not json")
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "malformed JSON" in err

    def test_manifest_artifact(self, tmp_path):
        path = tmp_path / "campaign.json"
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--manifest", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["gate"]["passed"]

    def test_run_with_fault_seed_reports_summary(self, capsys):
        assert main(["run", "--workload", "HELR", "--fault-seed", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["anaheim"]["fault_summary"]
        assert summary["undetected"] == 0
        assert summary["unrecovered"] == 0
        assert summary["plan_digest"]


class TestProfile:
    def test_profile_prints_span_tree(self, capsys):
        assert main(["profile", "--workload", "HELR"]) == 0
        out = capsys.readouterr().out
        assert "framework.run" in out
        assert "framework.schedule" in out
        assert "dispatch.pim.elementwise" in out
        # Counts come from the registry, under their exposition names.
        assert 'anaheim_kernels_total{device="gpu",category="ntt"}' in out
        assert "scheduler.kernels.gpu" not in out
        assert "self" in out  # profile columns

    def test_profile_trace_out(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main(["profile", "--workload", "HELR", "--pim", "none",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "framework.run" in names

    def test_functional_rejects_trace_out(self, capsys, tmp_path):
        # The functional profile records counters and no spans, so a
        # trace file would be empty: refuse the flag instead of exiting
        # 0 with nothing written.
        path = tmp_path / "profile.json"
        assert main(["profile", "--workload", "functional",
                     "--trace-out", str(path)]) == 1
        assert "--trace-out" in capsys.readouterr().err
        assert not path.exists()


class TestMetricsCommand:
    def test_smoke_gates(self, capsys, digests):
        assert main(["metrics", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "metrics smoke: PASS" in out
        assert "accounting error" in out
        assert set(digests) == {METRICS_SMOKE_DIGEST}

    def test_prometheus_export_validates(self, capsys):
        from repro.obs.metrics import parse_prometheus
        assert main(["metrics", "--workload", "HELR"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert parsed["types"]["anaheim_kernels_total"] == "counter"
        assert parsed["types"]["anaheim_kernel_seconds"] == "histogram"
        assert parsed["types"]["anaheim_device_busy_fraction"] == "gauge"

    def test_json_digest_identical_across_runs(self, capsys):
        assert main(["metrics", "--workload", "HELR", "--format",
                     "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["metrics", "--workload", "HELR", "--format",
                     "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["digest"] == second["digest"]
        assert first["snapshot"] == second["snapshot"]

    def test_artifacts_and_utilization_printout(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prometheus
        out = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        assert main(["metrics", "--workload", "HELR",
                     "--out", str(out), "--events-out", str(events),
                     "--utilization"]) == 0
        assert parse_prometheus(out.read_text())["samples"]
        kinds = [json.loads(line)["kind"]
                 for line in events.read_text().splitlines()]
        assert kinds == ["run", "utilization"]
        printed = capsys.readouterr().out
        assert "gpu busy" in printed and "pim busy" in printed

    def test_jsonl_format_streams_events(self, capsys):
        assert main(["metrics", "--workload", "HELR", "--format",
                     "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        assert docs[0]["kind"] == "run"

    def test_functional_workload_hit_rates(self, capsys):
        assert main(["metrics", "--workload", "functional",
                     "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "anaheim_functional_events_total" in out
        assert "anaheim_functional_hit_rate" in out
        assert "scratch buffers" in out


class TestTopCommand:
    def test_top_progress_and_latency_table(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prometheus
        prom = tmp_path / "top.prom"
        assert main(["top", "--jobs", "faults:analytic:Boot",
                     "--seeds", "0,1", "--stuck-site", "1",
                     "--stuck-site", "5", "--degraded-after", "1",
                     "--gpu-only-after", "2",
                     "--metrics-out", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "[  1/2]" in out and "[  2/2]" in out
        assert "analytic/0" in out
        assert "units 2/2" in out
        assert "unit latency (simulated)" in out
        assert "degradation:" in out
        parsed = parse_prometheus(prom.read_text())
        assert parsed["types"]["anaheim_serve_unit_seconds"] == \
            "histogram"

    def test_top_resume_marks_restored(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck.json")
        base = ["top", "--jobs", "faults:analytic:Boot",
                "--seeds", "0,1", "--stuck-site", "1",
                "--stuck-site", "5", "--degraded-after", "1",
                "--gpu-only-after", "2"]
        assert main(base + ["--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(base + ["--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert out.count("restored") >= 2  # per-unit notes + summary
        assert "(restored 2)" in out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_telemetry_exists_exactly_with_a_pool(
            self, capsys, tmp_path, workers):
        from repro.obs.metrics import parse_prometheus
        prom = tmp_path / "top.prom"
        assert main(["top", "--jobs", "run:Boot,HELR", "--workers",
                     str(workers), "--metrics-out", str(prom)]) == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus(prom.read_text())
        worker_families = [name for name in parsed["types"]
                           if name.startswith("anaheim_worker_")]
        units = sum(value for name, _, value in parsed["samples"]
                    if name == "anaheim_worker_units_total")
        if workers == 1:
            assert "pool:" not in out
            assert worker_families == []
        else:
            assert "pool: 2 workers" in out
            assert units == 2

    def test_top_without_jobs_errors(self, capsys):
        assert main(["top"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestOverloadCommands:
    def test_serve_arrivals_json_conserves_offered_jobs(self, capsys):
        assert main(["serve", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["admission"]["summary"]
        assert summary["offered"] == summary["admitted"] \
            + summary["rejected_total"]
        assert summary["admitted"] == summary["completed"] \
            + summary["shed_total"]
        assert len(doc["jobs"]) == summary["completed"]

    def test_serve_arrivals_table_prints_queue_picture(self, capsys):
        assert main(["serve", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "admission: offered" in out
        assert "queue: peak depth" in out
        assert "goodput" in out

    def test_soak_json_gates_green(self, capsys):
        assert main(["soak", "--duration", "0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert len(doc["cells"]) == 6       # 3 loads x 2 chaos kinds

    def test_soak_table(self, capsys):
        assert main(["soak", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "soak: capacity" in out
        assert "brownout" in out
        assert "gate: PASS" in out

    def test_soak_bad_chaos_kind(self, capsys):
        assert main(["soak", "--chaos", "meteor"]) == 2
        assert "chaos" in capsys.readouterr().err

    def test_bench_overload_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_overload.json").exists()
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path), "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_bench_overload_perturbed_baseline_fails(self, capsys,
                                                     tmp_path):
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_overload.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["goodput_qps"] *= 1.10
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path), "--check"]) == 1
        assert "goodput_qps" in capsys.readouterr().out

    def test_overload_smoke_gates(self, capsys):
        # At --duration 0.5 the overload never engages; 1 s is the
        # shortest window the smoke gate passes on.
        assert main(["serve", "--smoke", "--arrivals", "poisson:64",
                     "--duration", "1"]) == 0
        assert "overload smoke: PASS" in capsys.readouterr().out

    def test_top_arrivals_shows_queue_columns(self, capsys):
        assert main(["top", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "admission: offered" in out
        assert "queue: peak depth" in out


class TestBenchHistory:
    def test_runs_append_and_render_trend(self, capsys, tmp_path):
        for _ in range(2):
            assert main(["bench", "--workload", "HELR", "--dir",
                         str(tmp_path)]) == 0
        history = tmp_path / "history" / "HELR.jsonl"
        entries = [json.loads(line)
                   for line in history.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["metrics"]["total_time"] == \
            entries[1]["metrics"]["total_time"]
        capsys.readouterr()
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path), "--history"]) == 0
        out = capsys.readouterr().out
        assert "bench history: HELR (2 run(s))" in out
        assert "vs prev" in out and "vs base" in out
        assert "+0.00%" in out

    def test_faults_baselines_reach_the_trend(self, capsys, tmp_path):
        for _ in range(2):
            assert main(["faults", "--seeds", "0", "--layer", "analytic",
                         "--dir", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["bench", "--workload", "faults", "--dir",
                     str(tmp_path), "--history"]) == 0
        out = capsys.readouterr().out
        assert "bench history: faults (2 run(s))" in out
        header = out.splitlines()[1].split()
        assert {"coverage", "injected", "mean_overhead"} <= set(header)
        assert "total_time" not in header

    def test_functional_trend_reads_counters(self, capsys, tmp_path):
        # Seconds-era entries have none of the counter columns.
        from repro.obs.baseline import append_history
        append_history(tmp_path, "functional", {"bootstrap_s": 0.5})
        append_history(tmp_path, "functional",
                       {"ckks.batch_ntt.forward": 619.0,
                        "ckks.batch_ntt.inverse": 429.0,
                        "ckks.modmath.strict_fallback": 1285.0})
        assert main(["bench", "--workload", "functional", "--dir",
                     str(tmp_path), "--history"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "bench history: functional (2 run(s))" in lines[0]
        header = lines[1].split()
        assert {"ckks.batch_ntt.forward", "ckks.batch_ntt.inverse",
                "ckks.modmath.strict_fallback"} <= set(header)
        assert "bootstrap_s" not in header
        assert lines[2].split()[2:] == ["-"] * 9
        assert "1285" in lines[3]

    def test_history_without_runs_is_empty(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path), "--history"]) == 0
        assert "no history recorded" in capsys.readouterr().out


class TestParallelBench:
    def test_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "parallel", "--dir",
                     str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_parallel.json").read_text())
        assert doc["metrics"]["digest_match"] == 1.0
        assert main(["bench", "--workload", "parallel", "--dir",
                     str(tmp_path), "--check"]) == 0
        assert "parallel: all metrics within" in capsys.readouterr().out

    def test_speedup_floor_scales_with_pool(self, capsys, tmp_path):
        # 4 units on 2 workers cannot reach 2x (the greedy-lane optimum
        # is just under it); the floor is half of min(workers, units).
        assert main(["bench", "--workload", "parallel", "--units", "4",
                     "--workers", "2", "--dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert (tmp_path / "BENCH_parallel.json").exists()


class TestRasCommand:
    def test_smoke_gates(self, capsys, digests):
        assert main(["ras", "--smoke"]) == 0
        assert "ras smoke: PASS" in capsys.readouterr().out
        assert set(digests) == {RAS_SMOKE_DIGEST}

    def test_matrix_table_and_gate(self, capsys):
        assert main(["ras", "--retention-rates", "200",
                     "--scrub-intervals", "5e-3", "--no-wall"]) == 0
        out = capsys.readouterr().out
        assert "memory RAS matrix" in out
        assert "gate: PASS" in out
        assert "functional:" in out

    def test_json_document(self, capsys):
        assert main(["ras", "--retention-rates", "200,1000",
                     "--scrub-intervals", "5e-3", "--layer", "analytic",
                     "--no-wall", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert doc["functional"] is None
        assert len(doc["cells"]) == 2

    def test_write_then_check(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--write-baseline"]) == 0
        assert (tmp_path / "BENCH_ras.json").exists()
        assert (tmp_path / "history" / "ras.jsonl").exists()
        capsys.readouterr()
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_bench_ras_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "ras", "--dir",
                     str(tmp_path), "--workers", "1"]) == 0
        doc = json.loads((tmp_path / "BENCH_ras.json").read_text())
        assert doc["metrics"]["uncorrected"] == 0.0
        assert doc["metrics"]["overhead"] < 0.05
        assert main(["bench", "--workload", "ras", "--dir",
                     str(tmp_path), "--workers", "1", "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_perturbed_baseline_fails_check(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--write-baseline"]) == 0
        path = tmp_path / "BENCH_ras.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["corrected"] *= 1.5
        path.write_text(json.dumps(doc))
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 1
        assert "corrected" in capsys.readouterr().out

    def test_check_without_baseline_errors(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out


class TestRasFlagValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "abc", "inf", "nan"])
    def test_bad_scrub_interval_is_one_line_exit_1(self, capsys, value):
        assert main(["serve", "--jobs", "run:Boot",
                     "--scrub-interval", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --scrub-interval")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-2.5", "five"])
    def test_bad_retention_rate_is_one_line_exit_1(self, capsys, value):
        assert main(["serve", "--jobs", "run:Boot",
                     "--retention-rate", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --retention-rate")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--kernel-timeout", "--deadline"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "abc"])
    def test_bad_timeout_or_deadline_is_one_line_exit_1(self, capsys, flag,
                                                       value):
        # Before validation, a negative timeout treated every kernel as
        # hung, nan disabled the timeout, and a negative deadline
        # skipped every unit.
        assert main(["serve", "--jobs", "run:Boot", "--fault-seed", "0",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be positive")
        assert len(err.strip().splitlines()) == 1

    def test_valid_timeout_and_deadline_reach_the_policy(self, capsys):
        assert main(["serve", "--jobs", "run:HELR", "--kernel-timeout",
                     "1e-4", "--deadline", "100", "--json"]) == 0
        policy = json.loads(capsys.readouterr().out)["policy"]
        assert policy["kernel_timeout_s"] == 1e-4
        assert policy["deadline_s"] == 100.0

    @pytest.mark.parametrize("argv", [
        ["faults", "--workers", "0"],
        ["ras", "--workers", "-1"],
        ["serve", "--jobs", "run:Boot", "--workers", "0"],
        ["bench", "--workload", "parallel", "--workers", "0"],
    ], ids=lambda argv: "-".join(argv))
    def test_bad_worker_count_is_one_line_exit_1(self, capsys, argv):
        # faults and ras used to run such counts inline and exit 0.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: worker count must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["ras", "--retention-rates", "200,zero"],
        ["ras", "--retention-rates", ","],
        ["ras", "--scrub-intervals", "0"],
        ["ras", "--scrub-intervals", "1e-3,-1"],
        ["faults", "--seeds", "0,x"],
        ["serve", "--jobs", "faults:analytic:Boot", "--seeds", "x"],
        ["soak", "--loads", "1,x"],
    ], ids=lambda argv: "-".join(argv[1:]))
    def test_bad_sweep_lists_rejected(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_serve_with_ras_reports_scrub_summary(self, capsys):
        assert main(["serve", "--jobs", "run:Boot",
                     "--scrub-interval", "5e-3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        unit = doc["jobs"][0]["units"]["Boot"]
        ras = unit["result"]["report"]["fault_summary"]["ras"]
        assert ras["uncorrected"] == 0
        assert ras["corrected"] > 0
