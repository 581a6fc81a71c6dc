"""The overload simulation: traffic x admission x service, one clock.

:func:`simulate_overload` replays a seeded open-loop arrival stream
(:mod:`repro.serving.traffic`) against one analytically-modeled server
through the admission policy (:mod:`repro.serving.admission`), entirely
on the simulated clock:

* arrivals are offered in time order; each is admitted, rate-limited,
  rejected at the door (queue full / deadline infeasible), or admitted
  and later shed at a watermark crossing;
* the server drains the bounded queue in priority order; a job whose
  effective deadline already expired when the server reaches it is
  shed (``expired``) instead of wasting service time;
* chaos events (site quarantines on the simulated timeline) and
  sustained overload both feed the same
  :class:`~repro.serving.health.HealthMonitor`; at GPU_ONLY the
  remaining dispatches re-lower to GPU-only service costs and
  brownout-widened deadlines.

Every decision, completion, and summary number is a pure function of
``(spec, tenants, policy, cost model, chaos)`` — byte-identical across
runs and worker counts.  :func:`run_overload_serve` is the end-to-end
wiring: the simulation decides, then a
:class:`~repro.serving.jobs.JobRunner` *executes* the dispatched jobs
in decision order (serially or across a worker pool), with GPU-only
dispatches re-lowered via ``JobSpec.degraded_start``.
"""

from __future__ import annotations

import hashlib
import random

from repro.serving.admission import (AdmissionController, AdmissionPolicy,
                                     CostModel)
from repro.serving.traffic import generate_arrivals


def chaos_events(fault_seed: int, duration_s: float, scale: float = 1.0,
                 sites=(1, 5, 9)) -> tuple:
    """Seeded PIM-site quarantine times for a chaos soak.

    Derived from the :class:`~repro.faults.plan.FaultPlan` digest for
    the same seed/scale, so the chaos stream is bound to the fault
    plan it stands in for: same plan, same quarantine schedule.
    """
    from repro.faults.plan import default_plan
    plan = default_plan(seed=fault_seed, scale=scale)
    rng = random.Random(int.from_bytes(
        hashlib.sha256(f"chaos/{plan.digest()}".encode()).digest()[:8],
        "little"))
    count = max(1, min(len(sites), round(len(sites) * min(scale, 1.0))))
    times = sorted(rng.uniform(0.0, duration_s) for _ in range(count))
    return tuple({"t_s": t, "event": "quarantine", "site": site}
                 for t, site in zip(times, sites))


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values))))
    return sorted_values[rank]


def simulate_overload(spec, tenants, policy: AdmissionPolicy,
                      cost_model: CostModel, health=None, chaos=(),
                      metrics=None) -> dict:
    """Run the open-loop overload simulation; the decision document.

    ``health`` is shared state: chaos quarantines and brownout both
    escalate it, and its level selects service mode and deadline
    widening.  After the last arrival the queue drains fully, so every
    admitted job ends completed or cleanly shed.
    """
    arrivals = generate_arrivals(spec, tenants)
    controller = AdmissionController(policy, cost_model, tenants,
                                     health=health, metrics=metrics)
    events = [(arrival.t_s, 0, "arrival", arrival)
              for arrival in arrivals]
    events += [(event["t_s"], 1, "chaos", event) for event in chaos]
    events.sort(key=lambda e: (e[0], e[1]))

    free_at = 0.0
    completions: list = []
    waits: list = []

    def dispatch_one() -> None:
        """Serve (or expire) the head of the queue."""
        nonlocal free_at
        item = controller.queue.pop()
        start = max(free_at, item.enqueued_s)
        arrival = item.arrival
        deadline = controller.effective_deadline(arrival)
        if deadline is not None and start > arrival.t_s + deadline:
            controller.record_shed(item, "expired")
            return
        mode = controller.mode
        cost = cost_model.cost(arrival.kind, arrival.workload, mode)
        done = start + cost
        free_at = done
        wait = start - arrival.t_s
        waits.append(wait)
        controller.record_wait(wait)
        completions.append({
            "index": arrival.index, "tenant": arrival.tenant,
            "kind": arrival.kind, "workload": arrival.workload,
            "priority": arrival.priority, "t_arrival_s": arrival.t_s,
            "t_start_s": start, "t_done_s": done,
            "queue_wait_s": wait, "cost_s": cost, "mode": mode,
            "met_deadline": (deadline is None
                             or done <= arrival.t_s + deadline),
        })

    for t, _, kind, payload in events:
        # Serve everything the server can finish strictly before t.
        while controller.queue.depth and free_at < t:
            dispatch_one()
        if kind == "chaos":
            if health is not None:
                health.note_quarantine(payload["site"], t)
            continue
        backlog = max(0.0, free_at - t)
        controller.offer(payload, t, server_backlog_s=backlog)
    while controller.queue.depth:                       # drain
        dispatch_one()

    hits = sum(1 for c in completions if c["met_deadline"])
    waits.sort()
    shed_total = sum(controller.shed_counts.values())
    rejected_total = sum(v for k, v in controller.counts.items()
                         if k != "admitted")
    summary = {
        "offered": len(arrivals),
        "offered_qps": len(arrivals) / spec.duration_s,
        "admitted": controller.counts["admitted"],
        "rejected": {k: controller.counts[k]
                     for k in ("rate-limited", "queue-full",
                               "deadline-infeasible")},
        "rejected_total": rejected_total,
        "shed": dict(controller.shed_counts),
        "shed_total": shed_total,
        "completed": len(completions),
        "deadline_hits": hits,
        "deadline_misses": len(completions) - hits,
        "goodput_qps": hits / spec.duration_s,
        "shed_rate": (shed_total / len(arrivals)) if arrivals else 0.0,
        "reject_rate": (rejected_total / len(arrivals)) if arrivals
        else 0.0,
        "queue": {
            "cap": policy.queue_cap,
            "peak_depth": controller.queue.peak_depth,
            "wait_p50_s": _percentile(waits, 0.50),
            "wait_p95_s": _percentile(waits, 0.95),
            "wait_max_s": waits[-1] if waits else 0.0,
        },
        "brownout": ({"state": health.state.value,
                      "events": list(health.events)}
                     if health is not None else None),
        "makespan_s": free_at,
    }
    return {"spec": spec.canonical(),
            "tenants": [tenant.canonical() for tenant in tenants],
            "policy": policy.canonical(),
            "chaos": [dict(event) for event in chaos],
            "summary": summary,
            "decisions": controller.decisions,
            "completions": completions}


def check_invariants(sim: dict) -> list:
    """Conservation checks a soak cell must satisfy; violations list.

    Every offered arrival is admitted or rejected; every admitted job
    is completed or cleanly shed; service intervals are well-ordered.
    """
    summary = sim["summary"]
    violations = []
    if summary["offered"] != summary["admitted"] \
            + summary["rejected_total"]:
        violations.append(
            f"offered {summary['offered']} != admitted "
            f"{summary['admitted']} + rejected "
            f"{summary['rejected_total']}")
    if summary["admitted"] != summary["completed"] \
            + summary["shed_total"]:
        violations.append(
            f"admitted {summary['admitted']} != completed "
            f"{summary['completed']} + shed {summary['shed_total']}")
    for completion in sim["completions"]:
        if not (completion["t_arrival_s"] <= completion["t_start_s"]
                <= completion["t_done_s"]):
            violations.append(
                f"job {completion['index']} served out of order: "
                f"arrival {completion['t_arrival_s']:.6f}, start "
                f"{completion['t_start_s']:.6f}, done "
                f"{completion['t_done_s']:.6f}")
    if summary["queue"]["peak_depth"] > summary["queue"]["cap"]:
        violations.append(
            f"peak depth {summary['queue']['peak_depth']} exceeded "
            f"cap {summary['queue']['cap']}")
    return violations


def jobs_from_completions(completions) -> list:
    """Executable :class:`~repro.serving.jobs.JobSpec` list, one per
    dispatched job, in dispatch order.

    GPU-mode dispatches (brownout / chaos re-lowering) carry
    ``degraded_start=True`` so the runner lowers them without PIM
    offload from the first unit — the same §VII-D fallback schedule
    the health machinery uses mid-run.
    """
    from repro.serving.jobs import JobSpec
    jobs = []
    for completion in completions:
        kind = completion["kind"]
        jobs.append(JobSpec(
            id=f"a{completion['index']}-{kind}", kind=kind,
            workloads=(completion["workload"],),
            layers=("analytic",) if kind == "faults" else (),
            degraded_start=completion["mode"] == "gpu"))
    return jobs


def run_overload_serve(spec, tenants, admission_policy, serve_policy,
                       gpu=None, pim=None, library=None, chaos=(),
                       cost_model=None, metrics=None,
                       workers: int = 1, threads: int = 1,
                       checkpoint_path=None, resume_path=None,
                       checkpoint_keep=None, max_units=None,
                       on_unit=None):
    """Simulate admission, then execute the dispatched jobs.

    Returns ``(document, runner)``: the serve document with an
    ``admission`` section (simulation summary + every decision) and
    the jobs the :class:`~repro.serving.jobs.JobRunner` actually
    executed, committed in dispatch order.  Decisions are made once,
    before execution, so they are byte-identical for any ``workers``;
    the runner's ordered-commit discipline keeps unit documents and
    metric digests identical too.
    """
    from repro.serving.jobs import JobRunner
    if cost_model is None:
        workloads = sorted({entry[1] for tenant in tenants
                            for entry in tenant.mix})
        cost_model = CostModel.from_model(gpu=gpu, pim=pim,
                                          library=library,
                                          workloads=workloads,
                                          ras=serve_policy.ras_config())
    health = serve_policy.health_monitor(metrics)
    sim = simulate_overload(spec, tenants, admission_policy, cost_model,
                            health=health, chaos=chaos, metrics=metrics)
    jobs = jobs_from_completions(sim["completions"])
    runner = JobRunner(jobs, serve_policy, gpu=gpu, pim=pim,
                       library=library, checkpoint_path=checkpoint_path,
                       resume_path=resume_path,
                       checkpoint_keep=checkpoint_keep,
                       max_units=max_units, metrics=metrics,
                       on_unit=on_unit,
                       workers=workers, threads=threads)
    document = runner.run()
    document["admission"] = {
        "spec": sim["spec"], "tenants": sim["tenants"],
        "policy": sim["policy"], "chaos": sim["chaos"],
        "summary": sim["summary"], "decisions": sim["decisions"],
    }
    return document, runner
