"""Chaos soak: overload x chaos campaigns over the simulated clock.

A **soak cell** is one :func:`~repro.serving.overload.simulate_overload`
run at a chosen load factor (a multiple of the server's
:func:`~repro.serving.traffic.capacity_qps` for the tenant mix) with
chaos either off or driven by a seeded fault plan
(:func:`~repro.serving.overload.chaos_events`).  :func:`run_soak`
sweeps the campaign grid — under-loaded, at capacity, and overloaded,
each with and without chaos — and gates every cell on
:func:`~repro.serving.overload.check_invariants`: every offered job
admitted or rejected, every admitted job completed or cleanly shed,
service intervals well-ordered, queue depth bounded.

Everything runs on the simulated clock, so a full campaign costs
milliseconds of wall time and is a pure function of its seeds:
:func:`overload_bench_cell` — the 2x-capacity Poisson burst with an
active fault plan from the acceptance bar — feeds the pinned
``BENCH_overload.json`` baseline via
``anaheim-repro bench --workload overload``.
"""

from __future__ import annotations

from repro.serving.admission import AdmissionPolicy, CostModel
from repro.serving.health import HealthMonitor
from repro.serving.overload import (chaos_events, check_invariants,
                                    simulate_overload)
from repro.serving.traffic import (DEFAULT_TENANTS, ArrivalSpec,
                                   capacity_qps)

#: Load factors swept by the default campaign: comfortable, at
#: capacity, and the 2x overload regime where shedding must engage.
DEFAULT_LOADS = (0.5, 1.0, 2.0)

#: Chaos dimensions: clean, and quarantines from a seeded fault plan.
DEFAULT_CHAOS = ("none", "faults")

_BROWNOUT_LEVELS = {"healthy": 0, "pim-degraded": 1, "gpu-only": 2,
                    "failed": 3}


def default_cost_model(gpu=None, pim=None, library=None,
                       tenants=DEFAULT_TENANTS) -> CostModel:
    """The cost model covering every workload the tenants can offer."""
    workloads = sorted({entry[1] for tenant in tenants
                        for entry in tenant.mix})
    return CostModel.from_model(gpu=gpu, pim=pim, library=library,
                                workloads=workloads)


def soak_cell(load: float, chaos_kind: str, cost_model: CostModel,
              tenants=DEFAULT_TENANTS, policy: AdmissionPolicy = None,
              seed: int = 0, duration_s: float = 2.0,
              process: str = "poisson", fault_seed: int = 0,
              fault_scale: float = 1.0, metrics=None) -> dict:
    """One campaign cell: simulate, check invariants, summarize."""
    policy = policy if policy is not None else AdmissionPolicy()
    rate = load * capacity_qps(cost_model, tenants)
    spec = ArrivalSpec(process=process, rate_qps=rate,
                       duration_s=duration_s, seed=seed)
    chaos = (chaos_events(fault_seed, duration_s, scale=fault_scale)
             if chaos_kind == "faults" else ())
    health = HealthMonitor()
    sim = simulate_overload(spec, tenants, policy, cost_model,
                            health=health, chaos=chaos, metrics=metrics)
    violations = check_invariants(sim)
    return {"load": load, "chaos": chaos_kind, "rate_qps": rate,
            "passed": not violations, "violations": violations,
            "summary": sim["summary"], "sim": sim}


def run_soak(seed: int = 0, duration_s: float = 2.0,
             loads=DEFAULT_LOADS, chaos_kinds=DEFAULT_CHAOS,
             process: str = "poisson", tenants=DEFAULT_TENANTS,
             policy: AdmissionPolicy = None, cost_model=None,
             gpu=None, pim=None, library=None, fault_seed: int = 0,
             fault_scale: float = 1.0) -> dict:
    """The full soak campaign document (gated, JSON-safe).

    ``gate.passed`` iff every cell satisfies the conservation
    invariants *and* the overloaded cells actually exercised the
    protection (at least one job rejected or shed above capacity —
    a soak that never sheds proves nothing).
    """
    policy = policy if policy is not None else AdmissionPolicy()
    if cost_model is None:
        cost_model = default_cost_model(gpu=gpu, pim=pim, library=library,
                                        tenants=tenants)
    cells = []
    violations = []
    for load in loads:
        for chaos_kind in chaos_kinds:
            cell = soak_cell(load, chaos_kind, cost_model,
                             tenants=tenants, policy=policy, seed=seed,
                             duration_s=duration_s, process=process,
                             fault_seed=fault_seed,
                             fault_scale=fault_scale)
            label = f"load={load:g} chaos={chaos_kind}"
            violations += [f"{label}: {v}" for v in cell["violations"]]
            if load > 1.0:
                summary = cell["summary"]
                protected = (summary["rejected_total"]
                             + summary["shed_total"])
                if summary["offered"] and not protected:
                    violations.append(
                        f"{label}: overloaded cell rejected and shed "
                        f"nothing")
            cell.pop("sim")             # keep the document compact
            cells.append(cell)
    return {
        "tool": "anaheim-repro",
        "kind": "soak",
        "version": 1,
        "seed": seed,
        "duration_s": duration_s,
        "process": process,
        "capacity_qps": capacity_qps(cost_model, tenants),
        "policy": policy.canonical(),
        "tenants": [tenant.canonical() for tenant in tenants],
        "cells": cells,
        "gate": {"passed": not violations, "violations": violations},
    }


def overload_bench_cell(seed: int = 0, duration_s: float = 2.0,
                        tenants=DEFAULT_TENANTS, policy=None,
                        cost_model=None, gpu=None, pim=None,
                        library=None) -> dict:
    """The acceptance-bar cell behind ``BENCH_overload.json``:
    a seeded Poisson burst at 2x capacity with an active fault plan."""
    if cost_model is None:
        cost_model = default_cost_model(gpu=gpu, pim=pim, library=library,
                                        tenants=tenants)
    return soak_cell(2.0, "faults", cost_model, tenants=tenants,
                     policy=policy, seed=seed, duration_s=duration_s)


def overload_bench_metrics(cell: dict) -> dict:
    """Flat, gateable metrics of one cell for baseline write/check."""
    summary = cell["summary"]
    completed = summary["completed"]
    return {
        "offered": float(summary["offered"]),
        "admitted": float(summary["admitted"]),
        "completed": float(completed),
        "rejected_total": float(summary["rejected_total"]),
        "shed_total": float(summary["shed_total"]),
        "goodput_qps": summary["goodput_qps"],
        "shed_rate": summary["shed_rate"],
        "reject_rate": summary["reject_rate"],
        "deadline_hit_rate": (summary["deadline_hits"] / completed
                              if completed else 0.0),
        "queue_wait_p95_s": summary["queue"]["wait_p95_s"],
        "queue_peak_depth": float(summary["queue"]["peak_depth"]),
        "brownout_level": float(_BROWNOUT_LEVELS[
            summary["brownout"]["state"]]),
    }
