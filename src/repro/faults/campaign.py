"""Fault-injection campaigns: coverage and overhead measurement.

A campaign exercises both halves of the duality:

* the **functional** campaign bootstraps a real ciphertext under an
  active :mod:`repro.faults.guard` session — every injected corruption
  must be detected by the residue checksums and recovered (retry or
  GPU fallback) such that the final decrypt is still correct;
* the **analytic** campaign schedules a paper-scale workload through
  :class:`repro.core.scheduler.ResilientScheduler` and compares the
  timeline against the clean schedule, yielding the time overhead of
  verification + recovery.

``run_matrix`` sweeps both over a seed list and aggregates into the
pass/fail gate the CLI and CI enforce: every effective fault detected
(coverage >= the threshold), nothing unrecovered, decrypt correct.

The matrix is factored into **units** — one ``(layer, seed)`` cell per
unit — so the serving layer can run a campaign incrementally: each
finished unit is checkpointed, and a resumed campaign replays only the
missing units before :func:`assemble_matrix` rebuilds the exact same
document an uninterrupted run would have produced (every unit is
deterministic; pass ``record_wall=False`` to drop the one wall-clock
field the functional layer reports).
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.faults import guard
from repro.faults.plan import FaultPlan, default_plan

#: Decryption error ceiling for the campaign's bootstrap (the clean
#: fixture lands around 2e-4 at the bench parameters; recovery must not
#: degrade it to another order of magnitude).
MAX_DECRYPT_ERROR = 1e-2

#: Minimum detected/effective ratio the campaign gate demands.
COVERAGE_THRESHOLD = 0.99

#: Fault-summary counters mirrored into the metrics registry.
_SUMMARY_EVENTS = ("injected", "benign", "effective", "detected",
                   "undetected", "recovered_retry", "recovered_fallback",
                   "unrecovered", "rerouted")


def _record_summary(metrics, layer: str, summary: dict) -> None:
    """Mirror one unit's fault summary into campaign counters."""
    if metrics is None:
        return
    counter = metrics.counter(
        "anaheim_campaign_faults_total",
        "Fault-campaign injection/detection/recovery outcomes",
        labelnames=("layer", "event"))
    for event in _SUMMARY_EVENTS:
        value = summary.get(event, 0)
        if value:
            counter.inc(value, layer=layer, event=event)


def guarded_bootstrap(sess: guard.FaultSession) -> tuple:
    """Bootstrap the shared fixture with ``sess`` attached; returns
    ``(decrypt error, wall seconds)`` after the invariant check.

    Key generation and the one-time warmup bootstrap run *outside* the
    session (the paper's fault model targets the PIM datapath at
    execution time, not key material at rest).
    """
    from repro.ckks.fixture import bootstrap_fixture

    fx = bootstrap_fixture()
    start = time.perf_counter()
    with guard.attach(sess):
        refreshed = fx.bts.bootstrap(fx.ct_low)
    wall_s = time.perf_counter() - start
    refreshed.check_invariants()
    return fx.decrypt_error(refreshed), wall_s


def clean_and_guarded(workload: str, gpu, pim, guarded_label: str,
                      **options) -> tuple:
    """``(clean, guarded)`` schedule reports of one paper-scale
    workload: one build, scheduled plain and with the framework
    ``options`` (fault plan, RAS config, health, ...) attached.
    ``gpu``/``pim`` default to the A100 + near-bank pair."""
    from repro.core.framework import AnaheimFramework
    from repro.gpu.configs import A100_80GB
    from repro.pim.configs import A100_NEAR_BANK
    from repro.workloads.applications import PaperParams, build

    gpu = gpu if gpu is not None else A100_80GB
    pim = pim if pim is not None else A100_NEAR_BANK
    params = PaperParams()
    wl = build(workload, params)
    clean = AnaheimFramework(gpu, pim=pim).run(
        wl.blocks, params.degree, label=f"{workload} (clean)")
    guarded = AnaheimFramework(gpu, pim=pim, **options).run(
        wl.blocks, params.degree, label=f"{workload} ({guarded_label})")
    return clean.report, guarded.report


def run_functional_campaign(plan: FaultPlan,
                            max_error: float = MAX_DECRYPT_ERROR,
                            record_wall: bool = True,
                            metrics=None) -> dict:
    """Bootstrap a ciphertext with faults live; report coverage.

    ``record_wall=False`` omits the wall-clock field so the result is a
    pure function of the plan — required for byte-identical
    checkpoint/resume.
    """
    sess = guard.FaultSession(plan)
    err, wall_s = guarded_bootstrap(sess)
    summary = sess.log.summary()
    result = {
        "layer": "functional",
        "seed": plan.seed,
        "plan_digest": plan.digest(),
        "summary": summary,
        "events_by_model": {k: v["injected"]
                            for k, v in sess.log.by_model().items()},
        "max_error": err,
        "decrypt_ok": err <= max_error,
    }
    if record_wall:
        result["wall_s"] = wall_s
    _record_summary(metrics, "functional", summary)
    return result


def run_analytic_campaign(plan: FaultPlan, workload: str = "Boot",
                          gpu=None, pim=None, health=None, breakers=None,
                          kernel_timeout: float | None = None,
                          metrics=None) -> dict:
    """Schedule a workload clean and resilient; report time overhead.

    ``health``/``breakers``/``kernel_timeout`` thread the serving
    layer's degradation machinery into the faulted run; its state lands
    in the result's ``summary`` (via ``report.fault_summary``).
    """
    clean, faulted = clean_and_guarded(
        workload, gpu, pim, "faulted", fault_plan=plan, health=health,
        breakers=breakers, kernel_timeout=kernel_timeout)
    clean_t = clean.total_time
    fault_t = faulted.total_time
    summary = dict(faulted.fault_summary)
    _record_summary(metrics, "analytic", summary)
    return {
        "layer": "analytic",
        "seed": plan.seed,
        "workload": workload,
        "plan_digest": plan.digest(),
        "summary": summary,
        "clean_time_s": clean_t,
        "faulted_time_s": fault_t,
        "overhead": fault_t / clean_t - 1.0 if clean_t else 0.0,
        "verify_time_s": summary.get("verify_time", 0.0),
        "retry_time_s": summary.get("retry_time", 0.0),
        "fallback_time_s": summary.get("fallback_time", 0.0),
    }


def campaign_units(seeds=(0, 1, 2), functional: bool = True,
                   analytic: bool = True) -> list:
    """Ordered ``(layer, seed)`` cells of one campaign matrix."""
    units = [("functional", seed) for seed in seeds] if functional else []
    if analytic:
        units.extend(("analytic", seed) for seed in seeds)
    return units


def unit_key(layer: str, seed: int) -> str:
    return f"{layer}/{seed}"


def run_campaign_unit(layer: str, seed: int, *, scale: float = 1.0,
                      workload: str = "Boot", stuck_sites=(),
                      record_wall: bool = True, gpu=None, pim=None,
                      health=None, breakers=None,
                      kernel_timeout: float | None = None,
                      metrics=None) -> dict:
    """Execute one matrix cell (fully determined by its arguments)."""
    plan = default_plan(seed=seed, scale=scale, stuck_sites=stuck_sites)
    if layer == "functional":
        return run_functional_campaign(plan, record_wall=record_wall,
                                       metrics=metrics)
    return run_analytic_campaign(plan, workload=workload, gpu=gpu, pim=pim,
                                 health=health, breakers=breakers,
                                 kernel_timeout=kernel_timeout,
                                 metrics=metrics)


def _aggregate(runs) -> dict:
    """Pool the per-run fault summaries of one campaign layer."""
    keys = ("injected", "benign", "effective", "detected", "undetected",
            "recovered_retry", "recovered_fallback", "unrecovered",
            "rerouted")
    total = {k: sum(r["summary"].get(k, 0) for r in runs) for k in keys}
    total["coverage"] = (total["detected"] / total["effective"]
                         if total["effective"] else 1.0)
    return total


def assemble_matrix(results, seeds, scale: float = 1.0, stuck_sites=(),
                    coverage_threshold: float = COVERAGE_THRESHOLD) -> dict:
    """The campaign document from per-unit results.

    ``results`` maps :func:`unit_key` strings to unit result dicts.  A
    pure function of its inputs: assembling from freshly-run units and
    from checkpoint-restored units yields identical documents.
    """
    functional_runs = [results[unit_key("functional", s)] for s in seeds
                       if unit_key("functional", s) in results]
    analytic_runs = [results[unit_key("analytic", s)] for s in seeds
                     if unit_key("analytic", s) in results]
    result = {
        "seeds": list(seeds),
        "scale": scale,
        "stuck_sites": list(stuck_sites),
        "functional": functional_runs,
        "analytic": analytic_runs,
    }
    if functional_runs:
        agg = _aggregate(functional_runs)
        agg["decrypt_ok"] = all(r["decrypt_ok"] for r in functional_runs)
        agg["max_error"] = max(r["max_error"] for r in functional_runs)
        result["functional_aggregate"] = agg
    if analytic_runs:
        agg = _aggregate(analytic_runs)
        agg["mean_overhead"] = float(
            np.mean([r["overhead"] for r in analytic_runs]))
        result["analytic_aggregate"] = agg

    gate = {"coverage_threshold": coverage_threshold}
    checks = []
    for key in ("functional_aggregate", "analytic_aggregate"):
        agg = result.get(key)
        if agg is None:
            continue
        checks.append(agg["coverage"] >= coverage_threshold)
        checks.append(agg["unrecovered"] == 0)
        checks.append(agg["undetected"] == 0)
    if functional_runs:
        checks.append(result["functional_aggregate"]["decrypt_ok"])
    gate["passed"] = bool(checks) and all(checks)
    result["gate"] = gate
    return result


def run_matrix(seeds=(0, 1, 2), scale: float = 1.0,
               workload: str = "Boot", stuck_sites=(),
               functional: bool = True, analytic: bool = True,
               coverage_threshold: float = COVERAGE_THRESHOLD,
               gpu=None, pim=None, record_wall: bool = True,
               metrics=None, workers: int = 1,
               threads: int = 1) -> dict:
    """The campaign matrix: (layer x seed) sweep plus the gate verdict.

    The cells run through :func:`repro.parallel.run_units` across
    ``workers`` processes of ``threads`` kernel threads each; every
    cell is a pure function of its arguments, so the assembled
    document is byte-identical for any worker count.
    """
    from repro.parallel import run_units
    units = campaign_units(seeds, functional, analytic)
    cell = partial(run_campaign_unit, scale=scale, workload=workload,
                   stuck_sites=tuple(stuck_sites),
                   record_wall=record_wall, gpu=gpu, pim=pim)
    runs = run_units(cell, units, workers=workers, threads=threads,
                     metrics=metrics)
    results = {unit_key(*unit): run for unit, run in zip(units, runs)}
    return assemble_matrix(results, seeds, scale=scale,
                           stuck_sites=stuck_sites,
                           coverage_threshold=coverage_threshold)


def faults_baseline_metrics(result: dict) -> dict:
    """Flat, gateable metrics of the deterministic analytic campaign
    for ``BENCH_faults.json`` write/check."""
    agg = result.get("analytic_aggregate", {})
    runs = result.get("analytic", [])
    return {
        "injected": agg.get("injected", 0),
        "detected": agg.get("detected", 0),
        "coverage": agg.get("coverage", 1.0),
        "recovered_retry": agg.get("recovered_retry", 0),
        "recovered_fallback": agg.get("recovered_fallback", 0),
        "unrecovered": agg.get("unrecovered", 0),
        "mean_overhead": agg.get("mean_overhead", 0.0),
        "clean_time_s": sum(r["clean_time_s"] for r in runs),
        "faulted_time_s": sum(r["faulted_time_s"] for r in runs),
        "verify_time_s": sum(r["verify_time_s"] for r in runs),
    }
