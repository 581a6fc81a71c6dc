"""The four benchmark workloads.

Each workload has the same shape:

* ``setup()`` -- everything a user pays once before the first op
  (keys, caches, built traces, one warmup op); timed as ``setup_s``;
* ``prepare()`` -- untimed per-step input (a fresh encrypted batch);
* ``run(inputs)`` -- the timed step; returns ``(outputs, latencies)``
  where ``latencies`` lists the host seconds of each op in the step, or
  is ``None`` when the step is exactly one op;
* ``check(inputs, outputs)`` -- untimed correctness check; returns
  ``(attempted, failed)``.

Inputs derive from ``--seed`` only.  Every step of a run does the same
work, so per-op counters are exact and repeat bit-for-bit between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time

import numpy as np

from layers import SERVE_SUMMARY

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: A boot/mlp op fails when any slot decrypts further than this from
#: the cleartext result.
MAX_ERROR = 2.0 ** -8

#: Relative tolerance of a simulated sweep total against the reference.
SWEEP_RTOL = 1e-9


def derive(seed: int, stream: str) -> int:
    """An independent 32-bit seed per (benchmark seed, input stream)."""
    digest = hashlib.sha256(f"anaheim-bench/{seed}/{stream}".encode())
    return int.from_bytes(digest.digest()[:4], "little")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _precision_bits(error: float) -> float:
    return -math.log2(error) if error > 0 else 53.0


class Boot:
    """Warm full-slot bootstrap at ``BENCH_PARAMS`` (N=2^7, 15+4 limbs).

    EvalMod-heavy: most key switches and rescales of an op are in the
    Chebyshev sine.  Rows are tiny, so per-call overhead dominates.
    """

    name = "boot"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.max_error = 0.0

    def setup(self) -> None:
        from repro.ckks.fixture import bootstrap_fixture
        self.fx = bootstrap_fixture(key_seed=derive(self.seed, "keys"),
                                    message_seed=derive(self.seed, "msg"))

    def prepare(self):
        return self.fx.ct_low

    def run(self, ct):
        return self.fx.bts.bootstrap(ct), None

    def check(self, ct, refreshed) -> tuple:
        error = self.fx.decrypt_error(refreshed)
        self.max_error = max(self.max_error, error)
        return 1, int(not error <= MAX_ERROR)

    def layer_metrics(self) -> dict:
        return {"ckks.precision_bits": _precision_bits(self.max_error)}

    def describe(self) -> str:
        return _describe_error(self.max_error)


def _describe_error(error: float) -> str:
    return (f"max slot error {error:.3g} ({_precision_bits(error):.2f} "
            f"bits) vs cleartext, limit 2^-8")


class Mlp:
    """Encrypted MLP inference: 32x32 dense -> square -> 10x32 dense.

    The same NTT / key-switch layers as ``boot`` at 2048-point rows,
    driven by BSGS rotations and diagonal encoding instead; the degree-2
    activation bypasses EvalMod.
    """

    name = "mlp"
    BLOCK = 32
    INTERVAL = (-4.0, 4.0)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.max_error = 0.0

    def setup(self) -> None:
        from repro.ckks.evaluator import CkksEvaluator
        from repro.ckks.keys import KeyGenerator
        from repro.ckks.nn import Activation, DenseLayer, EncryptedMlp
        from repro.params import toy_params
        params = toy_params(degree=2 ** 11, level_count=8, aux_count=3)
        keygen = KeyGenerator(params, seed=derive(self.seed, "keys"))
        keys = keygen.generate()
        self.ev = CkksEvaluator(params, keys, seed=derive(self.seed, "enc"))
        rng = np.random.default_rng(derive(self.seed, "weights"))
        width = self.BLOCK

        def dense(rows: int):
            return DenseLayer(
                weights=rng.normal(size=(rows, width)) / np.sqrt(width),
                bias=0.1 * rng.normal(size=rows))

        self.mlp = EncryptedMlp(evaluator=self.ev, layers=[
            dense(width),
            Activation(kind="square", degree=2, interval=self.INTERVAL),
            dense(10),
        ], block=width)
        for distance in self.mlp.required_rotations():
            keys.rotations[distance] = keygen.rotation_key(keys.secret,
                                                           distance)
        self.samples = params.slot_count // width
        self.rng = np.random.default_rng(derive(self.seed, "batches"))
        batch, ct = self.prepare()
        self.run((batch, ct))

    def prepare(self):
        batch = self.rng.uniform(-1.0, 1.0, size=(self.samples, self.BLOCK))
        return batch, self.ev.encrypt_message(self.mlp.pack(batch))

    def run(self, inputs):
        return self.mlp.infer(inputs[1]), None

    def check(self, inputs, out) -> tuple:
        got = self.mlp.unpack(self.ev.decrypt_message(out).real,
                              self.samples, 10)
        error = float(np.abs(got - self.mlp.reference(inputs[0])).max())
        self.max_error = max(self.max_error, error)
        return 1, int(not error <= MAX_ERROR)

    def layer_metrics(self) -> dict:
        return {"ckks.precision_bits": _precision_bits(self.max_error)}

    def describe(self) -> str:
        return _describe_error(self.max_error)


#: Application sizes of one sweep pass.  Boot and HELR are the Fig. 8
#: programs as built by ``apps.build``; the other four keep their Fig. 8
#: op mix and memory plan (so the OoM cells stay OoM) with fewer
#: repetitions, so that one pass of the whole 6 x 3 matrix takes about a
#: second instead of ~45 s (full Sort alone is ~11 s per setup).
SWEEP_SIZES = {
    "Boot": {},
    "HELR": {},
    "Sort": {"rounds": 1},
    "RNN": {"iterations": 10, "boots": 2},
    "ResNet20": {"layers": 3},
    "ResNet18-AESPA": {"layers": 3},
}

#: Smoke runs sweep only these cells.
SMOKE_SWEEP = ("A100 near-bank", ("Boot", "HELR"))


def pim_setups():
    """The three evaluated PIM configurations (Table III)."""
    from repro.gpu.configs import A100_80GB, RTX_4090
    from repro.pim.configs import (A100_CUSTOM_HBM, A100_NEAR_BANK,
                                   RTX4090_NEAR_BANK)
    return (("A100 near-bank", A100_80GB, A100_NEAR_BANK),
            ("A100 custom-HBM", A100_80GB, A100_CUSTOM_HBM),
            ("RTX 4090 near-bank", RTX_4090, RTX4090_NEAR_BANK))


class Sweep:
    """The Fig. 8 matrix: 6 workloads x 3 PIM setups, GPU vs Anaheim.

    A few large traces through the plain ``Scheduler``, ``gpu.model``
    and ``pim.executor`` with ``metrics=None``; bypasses ``ckks`` and the
    serving stack.  One op is one pass over every cell, in an order
    drawn from the seed.
    """

    name = "sweep"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        from repro.core.framework import AnaheimFramework
        from repro.params import paper_params
        from repro.workloads import applications as apps
        params = paper_params()
        self.degree = params.degree
        names = SMOKE_SWEEP[1] if self.smoke else tuple(SWEEP_SIZES)
        programs = {name: apps.WORKLOADS[name](params, **SWEEP_SIZES[name])
                    for name in names}
        self.cells = []
        for setup_name, gpu, pim in pim_setups():
            if self.smoke and setup_name != SMOKE_SWEEP[0]:
                continue
            framework = AnaheimFramework(gpu, pim)
            for name, program in programs.items():
                fits = program.memory.fits(gpu.dram_capacity)
                self.cells.append((f"{setup_name}/{name}", framework,
                                   program, fits))
        random.Random(derive(self.seed, "order")).shuffle(self.cells)
        self.run(None)

    def prepare(self):
        return None

    def run(self, _):
        out = {}
        for key, framework, program, fits in self.cells:
            if not fits:
                out[key] = "OoM"
                continue
            runs = framework.compare(program.blocks, self.degree, label=key)
            out[key] = {side: {"total_time": result.report.total_time,
                               "energy": result.report.energy}
                        for side, result in runs.items()}
        return out, None

    def check(self, _, out) -> tuple:
        reference = load_reference()["sweep"]["cells"]
        failed = [key for key, cell in out.items()
                  if not _cell_matches(cell, reference.get(key))]
        for key in failed:
            print(f"sweep: {key} differs from the reference")
        return len(out), len(failed)

    def layer_metrics(self) -> dict:
        return {}

    def describe(self) -> str:
        return (f"{len(self.cells)} cells per pass checked against "
                f"bench/reference.json (rtol {SWEEP_RTOL:g})")


def _cell_matches(cell, expected) -> bool:
    if expected is None or (cell == "OoM") != (expected == "OoM"):
        return False
    if cell == "OoM":
        return True
    return all(math.isclose(cell[side][field], expected[side][field],
                            rel_tol=SWEEP_RTOL, abs_tol=0.0)
               for side in ("gpu", "pim")
               for field in ("total_time", "energy"))


class Serve:
    """Open-loop overload serving with faults, RAS and metrics on.

    Each op is one job the admission simulation dispatched and the
    ``JobRunner`` executed; a step is one simulated window of Poisson
    arrivals at ~2x modeled capacity (``DEFAULT_TENANTS``), with seeded
    chaos quarantines, scrubbing every 5 ms, and a ``MetricsRegistry``
    attached.  Every step replays the same window.

    Brownout is off.  It re-lowers every job after a seed-dependent
    instant to GPU-only service, which skips the RAS and fault layers
    and halves a job's host time, so with it on the host cost of a
    window varied by ~35% between seeds.  Two chaos quarantines
    degrade PIM (wider deadlines) without forcing GPU-only (three
    would), so every job keeps the ``ResilientScheduler`` path.
    """

    name = "serve"
    QPS = 64.0
    WINDOW_S = 2.0
    SMOKE_WINDOW_S = 1.0
    SCRUB_INTERVAL_S = 5e-3
    NO_BROWNOUT = 10 ** 9
    CHAOS_SITES = (1, 5)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.window_s = self.SMOKE_WINDOW_S if smoke else self.WINDOW_S
        self.summary = None
        self.retries = 0
        self.jobs = 0

    def _spec(self, duration_s: float):
        from repro.serving.traffic import ArrivalSpec
        return ArrivalSpec(process="poisson", rate_qps=self.QPS,
                           duration_s=duration_s, seed=self.seed)

    def setup(self) -> None:
        from repro.gpu.configs import A100_80GB
        from repro.pim.configs import A100_NEAR_BANK
        from repro.serving import AdmissionPolicy, ServePolicy
        from repro.serving.admission import CostModel
        from repro.serving.overload import chaos_events
        from repro.serving.traffic import DEFAULT_TENANTS
        self.tenants = DEFAULT_TENANTS
        self.gpu, self.pim = A100_80GB, A100_NEAR_BANK
        self.policy = ServePolicy(seed=self.seed,
                                  scrub_interval_s=self.SCRUB_INTERVAL_S)
        self.admission = AdmissionPolicy(brownout_after=self.NO_BROWNOUT)
        workloads = sorted({entry[1] for tenant in self.tenants
                            for entry in tenant.mix})
        self.cost_model = CostModel.from_model(
            gpu=self.gpu, pim=self.pim, workloads=workloads,
            ras=self.policy.ras_config())
        self.chaos = chaos_events(self.seed, self.window_s,
                                  sites=self.CHAOS_SITES)
        self.spec = self._spec(self.window_s)
        self._serve(self._spec(self.window_s / 4), lambda *a: None)

    def _serve(self, spec, on_unit):
        from repro.obs.metrics import MetricsRegistry
        from repro.serving import run_overload_serve
        document, _ = run_overload_serve(
            spec, self.tenants, self.admission, self.policy, gpu=self.gpu,
            pim=self.pim, chaos=self.chaos, cost_model=self.cost_model,
            metrics=MetricsRegistry(), on_unit=on_unit)
        return document

    def prepare(self):
        return None

    def run(self, _):
        latency = {}
        last = [time.perf_counter()]

        def on_unit(job, unit, doc, fresh):
            now = time.perf_counter()
            latency[job.id] = latency.get(job.id, 0.0) + now - last[0]
            last[0] = now

        document = self._serve(self.spec, on_unit)
        return document, list(latency.values())

    def check(self, _, document) -> tuple:
        from repro.serving.overload import check_invariants
        summary = document["admission"]["summary"]
        jobs = document["jobs"]
        failed = sum(1 for job in jobs if job["status"] != "ok")
        violations = check_invariants({"summary": summary,
                                       "completions": []})
        if len(jobs) != summary["completed"]:
            violations.append(f"{len(jobs)} jobs executed but "
                              f"{summary['completed']} completed")
        expected = self.reference()
        if expected is not None and not _summary_matches(summary, expected):
            violations.append("simulated summary differs from the "
                              "reference")
        for violation in violations:
            print(f"serve: {violation}")
        self.summary = summary
        self.retries += sum(job["retries"] for job in jobs)
        self.jobs += len(jobs)
        return summary["offered"], failed + len(violations)

    def reference(self):
        """The pinned summary for this seed's window, or ``None``."""
        pinned = load_reference()["serve"]
        if self.window_s != pinned["window_s"] or self.QPS != pinned["qps"]:
            return None
        return pinned["summaries"].get(str(self.seed))

    def layer_metrics(self) -> dict:
        out = {f"serving.summary.{field}": float(self.summary[field])
               for field, _ in SERVE_SUMMARY}
        out["serving.jobs.retries"] = self.retries / max(self.jobs, 1)
        return out

    def describe(self) -> str:
        pinned = "pinned" if self.reference() is not None else \
            "unpinned (invariants only)"
        return (f"{self.jobs} jobs executed, all statuses and admission "
                f"invariants checked; reference: {pinned}")


def _summary_matches(summary: dict, expected: dict) -> bool:
    return all(math.isclose(summary[field], value, rel_tol=SWEEP_RTOL)
               for field, value in expected.items())


WORKLOADS = {cls.name: cls for cls in (Boot, Mlp, Sweep, Serve)}

#: Seeds whose serve summaries ``reference.json`` pins.
PINNED_SERVE_SEEDS = (0, 1)


def write_reference() -> dict:
    """Recompute every pinned value and write ``reference.json``."""
    sweep = Sweep(seed=0, smoke=False)
    sweep.setup()
    cells, _ = sweep.run(None)
    summaries = {}
    for seed in PINNED_SERVE_SEEDS:
        serve = Serve(seed=seed, smoke=False)
        serve.setup()
        document, _ = serve.run(None)
        summary = document["admission"]["summary"]
        summaries[str(seed)] = {field: summary[field]
                                for field, _ in SERVE_SUMMARY}
    reference = {
        "sweep": {"sizes": SWEEP_SIZES,
                  "cells": {key: cells[key] for key in sorted(cells)}},
        "serve": {"qps": Serve.QPS, "window_s": Serve.WINDOW_S,
                  "summaries": summaries},
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return reference
