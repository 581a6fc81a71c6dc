"""Checks of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench/tests

The smoke runs execute every workload for two steps in fresh
subprocesses, exactly as ``run.py`` runs them for real.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*argv, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _smoke(tmp_path_factory, trace: int, name: str) -> dict:
    out = tmp_path_factory.mktemp("smoke") / f"{name}.json"
    proc = _bench("--smoke", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _smoke(tmp_path_factory, 0, "plain")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return [_smoke(tmp_path_factory, 1, f"traced{i}") for i in range(2)]


def _names(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_metrics(document: dict, kind: str) -> None:
    assert set(document["runs"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, results in document["runs"].items():
        for result in results:
            assert result["correct"] and result["failed"] == 0, workload
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            assert got == _names(kind), workload


def test_end_to_end_metrics_match_benchmark_json(plain):
    _check_metrics(plain, "end_to_end")
    for results in plain["runs"].values():
        assert all(m["value"] > 0 for m in results[0]["metrics"].values())


def test_per_layer_metrics_match_benchmark_json(traced):
    _check_metrics(traced[0], "per_layer")


def test_layer_self_times_close_to_op_wall_time(traced):
    for results in traced[0]["runs"].values():
        closure = results[0]["metrics"]["trace.closure"]["value"]
        assert abs(closure - 1.0) <= 0.05


def test_counts_repeat_exactly_across_runs(traced):
    first, second = traced
    for workload, results in first["runs"].items():
        for name, metric in results[0]["metrics"].items():
            if metric["unit"] == "s" or name.startswith("trace."):
                continue
            again = second["runs"][workload][0]["metrics"][name]["value"]
            assert metric["value"] == again, (workload, name)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "boot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cli_run(workload: str, gpu: str, pim: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", "--workload", workload,
         "--gpu", gpu, "--pim", pim, "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("setup,gpu,pim", [
    ("A100 near-bank", "a100", "near-bank"),
    ("A100 custom-HBM", "a100", "custom-hbm"),
    ("RTX 4090 near-bank", "rtx4090", "near-bank"),
])
@pytest.mark.parametrize("workload", ["Boot", "HELR"])
def test_reference_sweep_cells_match_repro_run(setup, gpu, pim, workload):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        cell = json.load(fh)["sweep"]["cells"][f"{setup}/{workload}"]
    proc = _cli_run(workload, gpu, pim)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for side, key in (("gpu", "baseline"), ("pim", "anaheim")):
        for field in ("total_time", "energy"):
            assert out[key][field] == pytest.approx(cell[side][field],
                                                    rel=1e-9)


def test_reference_pins_paper_bootstrap_latencies():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        cells = json.load(fh)["sweep"]["cells"]
    # EXPERIMENTS.md: Anaheim (A100 near-bank) Boot 27.3 ms, HELR 33.0 ms.
    boot = cells["A100 near-bank/Boot"]["pim"]["total_time"]
    helr = cells["A100 near-bank/HELR"]["pim"]["total_time"]
    assert boot == pytest.approx(27.3e-3, abs=0.1e-3)
    assert helr == pytest.approx(33.0e-3, abs=0.1e-3)
    oom = sorted(key for key, cell in cells.items() if cell == "OoM")
    assert oom == ["RTX 4090 near-bank/ResNet18-AESPA",
                   "RTX 4090 near-bank/ResNet20"]
    assert _cli_run("ResNet20", "rtx4090", "near-bank").returncode == 1


@pytest.mark.parametrize("a,b,expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "regressed"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "improved"),
    ([10.0, 14.0, 6.0, 10.0], [10.5, 14.0, 6.5, 10.5], "unresolved"),
    ([10.0, 11.5, 10.5, 11.0], [5.0, 6.5, 5.5, 6.0], "improved"),
])
def test_compare_verdicts(a, b, expected):
    # Lower is better, bound 10%.
    assert compare.verdict(a, b, "lower", 0.10) == expected


def test_missing_shim_target_fails_loudly():
    from layers import Shim, ShimError, _resolve
    shim = Shim("x", "repro.ckks.polyeval:ChebyshevEvaluator._build", "span",
                ("boot",))
    with pytest.raises(ShimError, match="ChebyshevEvaluator._build"):
        _resolve(shim.target)


def test_unhit_targets_are_named():
    from layers import SHIMS, LayerRecorder
    recorder = LayerRecorder()
    assert recorder.unhit("sweep") == [s.target for s in SHIMS
                                       if "sweep" in s.hit]
