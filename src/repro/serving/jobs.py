"""First-class jobs: the resilient execution layer for long workloads.

A :class:`JobRunner` executes a matrix of jobs — modeled workload runs,
bench sweeps, fault campaigns — with the full service policy attached:

* **deadlines** — a per-job wall-clock budget; overrunning jobs stop
  cleanly between units (progress kept) instead of hanging a pipeline;
* **retries** — failed units re-execute up to ``max_retries`` times
  with deterministic seeded exponential backoff
  (:class:`~repro.serving.retry.RetryPolicy`); delays are charged to
  the job's *service time*, never slept on real walls;
* **circuit breakers / degradation** — each analytically-scheduled
  unit runs under a fresh :class:`~repro.serving.breaker.BreakerBoard`
  and :class:`~repro.serving.health.HealthMonitor`; a run job whose
  unit ends degraded (GPU_ONLY) re-lowers its *remaining* units as
  GPU-only block programs (§VII-D's fallback schedule);
* **checkpoint/resume** — every finished unit is recorded through a
  crash-safe :class:`~repro.serving.checkpoint.Checkpointer`; resuming
  replays only missing units and produces output byte-identical to an
  uninterrupted run (degradation carry-over is read from the recorded
  unit documents, not from live objects, precisely so that a resumed
  runner sees the same inputs a continuous one did).

Job spec grammar (the CLI's ``--jobs`` tokens)::

    run:Boot            model workload Boot (one unit)
    run:Boot,HELR       two units, degradation carries across them
    bench:Sort          baseline-metric unit per workload
    faults              full campaign matrix over the policy's seeds
    faults:analytic     analytic layer only
    faults:functional:  functional layer only
    faults:both:HELR    both layers, analytic campaign on HELR
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ParameterError, ReproError
from repro.serving.breaker import BreakerBoard
from repro.serving.checkpoint import Checkpointer, load_checkpoint, \
    matrix_digest
from repro.serving.health import HealthMonitor
from repro.serving.retry import RetryPolicy

#: Degraded-or-worse end states a later unit inherits from.
_DEGRADED_END_STATES = ("gpu-only", "failed")


@dataclass(frozen=True)
class ServePolicy:
    """Every knob of the serving layer, in one canonicalizable place."""

    seed: int = 0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    deadline_s: float | None = None
    kernel_timeout_s: float | None = None
    checkpoint_every: int = 1
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1e-3
    degraded_after: int = 1
    gpu_only_after: int = 3
    #: Campaign knobs (fault seeds for ``faults`` jobs; the fault plan
    #: attached to ``run``/``bench`` units when ``fault_seed`` is set).
    seeds: tuple = (0, 1, 2)
    fault_seed: int | None = None
    fault_scale: float = 1.0
    stuck_sites: tuple = ()
    #: Memory RAS knobs: either one being set attaches a
    #: :class:`~repro.dram.reliability.ReliabilityConfig` to run/bench
    #: units, so scrub and repair overhead lands on the served
    #: schedules (and, via the cost model, on admission capacity).
    scrub_interval_s: float | None = None
    retention_rate: float | None = None
    #: Serving output is deterministic by default: the one wall-clock
    #: field the functional campaign reports is omitted.
    record_wall: bool = False

    def fault_plan_digest(self) -> str | None:
        """Digest of the fault plan attached to run/bench units, if
        any — embedded in checkpoints so a resume refuses state
        recorded under a different plan."""
        if self.fault_seed is None:
            return None
        from repro.faults.plan import default_plan
        return default_plan(seed=self.fault_seed, scale=self.fault_scale,
                            stuck_sites=self.stuck_sites).digest()

    def ras_config(self):
        """The RAS configuration attached to run/bench units, or
        ``None`` when neither memory-RAS knob is set."""
        if self.scrub_interval_s is None and self.retention_rate is None:
            return None
        from repro.dram.reliability import ReliabilityConfig
        return ReliabilityConfig(seed=self.seed).with_overrides(
            retention_rate=self.retention_rate,
            scrub_interval_s=self.scrub_interval_s)

    def canonical(self) -> dict:
        return {
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "backoff_jitter": self.backoff_jitter,
            "deadline_s": self.deadline_s,
            "kernel_timeout_s": self.kernel_timeout_s,
            "checkpoint_every": self.checkpoint_every,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "degraded_after": self.degraded_after,
            "gpu_only_after": self.gpu_only_after,
            "seeds": list(self.seeds),
            "fault_seed": self.fault_seed,
            "fault_scale": self.fault_scale,
            "stuck_sites": list(self.stuck_sites),
            "scrub_interval_s": self.scrub_interval_s,
            "retention_rate": self.retention_rate,
            "record_wall": self.record_wall,
        }

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries,
                           base_s=self.backoff_base_s,
                           factor=self.backoff_factor,
                           jitter=self.backoff_jitter, seed=self.seed)

    def health_monitor(self, metrics=None) -> HealthMonitor:
        return HealthMonitor(degraded_after=self.degraded_after,
                             gpu_only_after=self.gpu_only_after,
                             metrics=metrics)

    def breaker_board(self, metrics=None) -> BreakerBoard:
        return BreakerBoard(threshold=self.breaker_threshold,
                            cooldown_s=self.breaker_cooldown_s,
                            metrics=metrics)


@dataclass(frozen=True)
class JobSpec:
    """One job: a kind plus the arguments that enumerate its units."""

    id: str
    kind: str                    # "run" | "bench" | "faults"
    workloads: tuple = ()        # run/bench units; faults analytic target
    layers: tuple = ()           # faults: ("functional", "analytic")
    #: The admission layer's re-lowering wire: a job dispatched in
    #: brownout GPU_ONLY mode executes without PIM offload from its
    #: first unit, exactly as if an earlier unit had degraded.
    degraded_start: bool = False

    def units(self, seeds) -> list:
        if self.kind == "faults":
            from repro.faults.campaign import campaign_units, unit_key
            return [unit_key(layer, seed) for layer, seed in campaign_units(
                seeds, functional="functional" in self.layers,
                analytic="analytic" in self.layers)]
        return list(self.workloads)

    def canonical(self) -> dict:
        return {"id": self.id, "kind": self.kind,
                "workloads": list(self.workloads),
                "layers": list(self.layers),
                "degraded_start": self.degraded_start}


def parse_job_spec(token: str, index: int) -> JobSpec:
    """A :class:`JobSpec` from one ``--jobs`` token (see module doc)."""
    from repro.workloads import applications as apps
    parts = token.split(":")
    kind = parts[0]
    if kind in ("run", "bench"):
        if len(parts) != 2 or not parts[1]:
            raise ParameterError(
                f"job spec {token!r}: expected {kind}:<workload>[,..]")
        workloads = tuple(parts[1].split(","))
        for name in workloads:
            if name not in apps.WORKLOADS:
                raise ParameterError(
                    f"job spec {token!r}: unknown workload {name!r}; "
                    f"choose from {sorted(apps.WORKLOADS)}")
        return JobSpec(id=f"{index}-{kind}", kind=kind, workloads=workloads)
    if kind == "faults":
        layer = parts[1] if len(parts) > 1 and parts[1] else "both"
        workload = parts[2] if len(parts) > 2 and parts[2] else "Boot"
        if layer not in ("both", "functional", "analytic"):
            raise ParameterError(
                f"job spec {token!r}: layer must be both/functional/"
                f"analytic")
        if workload not in apps.WORKLOADS:
            raise ParameterError(
                f"job spec {token!r}: unknown workload {workload!r}")
        layers = (("functional", "analytic") if layer == "both"
                  else (layer,))
        return JobSpec(id=f"{index}-faults", kind="faults",
                       workloads=(workload,), layers=layers)
    raise ParameterError(
        f"job spec {token!r}: unknown kind {kind!r} "
        f"(expected run/bench/faults)")


def parse_jobs(tokens) -> list:
    if not tokens:
        raise ParameterError("no jobs given")
    return [parse_job_spec(token, i) for i, token in enumerate(tokens)]


class _Interrupted(Exception):
    """Internal: the unit budget (``max_units``) ran out mid-matrix."""


@dataclass(frozen=True)
class _UnitTask:
    """Everything a worker process needs to execute one unit.

    Frozen and built only from picklable pieces (the policy and job
    spec are frozen dataclasses; gpu/pim/library are config objects),
    so it travels to pool workers under any start method.
    """

    policy: ServePolicy
    job: JobSpec
    unit: str
    key: str
    degraded: bool
    collect_metrics: bool
    gpu: object = None
    pim: object = None
    library: object = None


def _pool_attempt(task: _UnitTask):
    """Worker-side unit execution (the default ``pool_task_fn``): a
    throwaway runner's :meth:`JobRunner._attempt_task`.

    Deterministic: retries are seeded by the unit key and backoff is
    charged to service time, so a unit produces the same ``(doc,
    registry)`` in any worker — or inline in the parent after a
    worker crash.
    """
    runner = JobRunner([task.job], task.policy, gpu=task.gpu,
                       pim=task.pim, library=task.library)
    return runner._attempt_task(task)


class _WorkerTelemetry:
    """Per-worker attribution metrics.

    Kept in a registry *separate* from the serving metrics: worker
    pids, unit placement, and in-worker wall clocks are scheduling-
    dependent, and the main registry's digest must stay identical
    across worker counts.
    """

    def __init__(self, registry):
        self.units = registry.counter(
            "anaheim_worker_units_total",
            "Units committed, by pool worker",
            labelnames=("worker",))
        self.busy = registry.counter(
            "anaheim_worker_busy_seconds_total",
            "In-worker wall seconds spent executing units",
            labelnames=("worker",))
        self.crashes = registry.counter(
            "anaheim_worker_crashes_total",
            "Worker processes lost mid-unit (unit re-run inline)")


class _ServeMetrics:
    """Serving-layer metric families, declared once per runner."""

    def __init__(self, registry):
        from repro.obs.metrics import UNIT_SECONDS_BUCKETS
        self.units = registry.counter(
            "anaheim_serve_units_total",
            "Serve units finished, by job kind and outcome",
            labelnames=("kind", "status"))
        self.unit_seconds = registry.histogram(
            "anaheim_serve_unit_seconds",
            "Simulated seconds per serve unit (run/bench: schedule "
            "total_time; analytic faults: faulted timeline)",
            labelnames=("kind", "workload"),
            buckets=UNIT_SECONDS_BUCKETS)
        self.retries = registry.counter(
            "anaheim_serve_retries_total", "Unit retry attempts")
        self.backoff = registry.counter(
            "anaheim_serve_backoff_seconds_total",
            "Deterministic backoff charged to job service time")
        self.failures = registry.counter(
            "anaheim_serve_unit_failures_total",
            "Unit attempts that raised a ReproError")
        self.deadline_skips = registry.counter(
            "anaheim_serve_deadline_skips_total",
            "Units skipped because the job deadline had passed")
        self.restored = registry.counter(
            "anaheim_serve_units_restored_total",
            "Units restored from a checkpoint instead of re-executed")


def _unit_seconds(kind: str, doc: dict):
    """Simulated seconds represented by one unit doc, if any.

    Wall clocks never feed the latency histogram: run/bench units
    report the schedule's simulated ``total_time``; analytic fault
    units report the faulted timeline.  Functional fault units have no
    simulated clock (their wall time is optional and non-deterministic)
    so they only count, never time.
    """
    result = doc.get("result")
    if not isinstance(result, dict):
        return None
    if kind == "faults":
        return result.get("faulted_time_s")
    report = result.get("report")
    if isinstance(report, dict):
        return report.get("total_time")
    metrics = result.get("metrics")
    if isinstance(metrics, dict):
        return metrics.get("total_time")
    return None


class JobRunner:
    """Executes a job matrix under a :class:`ServePolicy`.

    ``max_units`` bounds how many units run *fresh* this invocation —
    the hook the smoke test and the resume tests use to simulate a
    mid-campaign kill (the checkpoint survives; a fresh runner with
    ``resume_path`` picks up where this one stopped).  ``clock`` is the
    wall-clock source for deadlines (injectable for tests).

    One matrix walk serves every worker count: fresh units dispatch
    in rounds of at most ``workers`` through a
    :class:`~repro.parallel.WorkerPool` (``threads`` is the per-worker
    kernel thread count), which runs a one-worker round inline.  The
    deadline and degradation carry-over are re-checked before every
    round, so at one worker before every unit.  Results are committed
    in matrix order, so every document, checkpoint, and metrics
    digest is byte-identical to ``workers=1``.  With a pool the runner
    owns ``worker_metrics``, a *separate* registry for per-worker
    attribution (``anaheim_worker_*``); ``pool_task_fn`` is the
    picklable worker entry point (the test seam; defaults to
    :func:`_pool_attempt`).
    """

    def __init__(self, jobs, policy: ServePolicy, gpu=None, pim=None,
                 library=None, checkpoint_path=None, resume_path=None,
                 checkpoint_keep: int | None = None,
                 max_units: int | None = None,
                 metrics=None, on_unit=None,
                 clock=time.monotonic,
                 workers: int = 1, threads: int = 1,
                 pool_task_fn=None):
        self.jobs = list(jobs)
        self.policy = policy
        self.gpu = gpu
        self.pim = pim
        self.library = library
        #: Serving metrics (all values derived from the *simulated*
        #: timeline and deterministic unit documents — never wall
        #: clocks — so seeded runs produce identical snapshots).
        self.metrics = metrics
        #: Progress hook: ``on_unit(job, unit, doc, fresh)`` fires
        #: after every unit lands (freshly executed or restored from a
        #: checkpoint) — the seam ``repro top`` renders from.
        self.on_unit = on_unit
        self.clock = clock
        self.max_units = max_units
        if workers < 1:
            raise ParameterError("worker count must be >= 1")
        self.workers = workers
        self.threads = threads
        self.pool_task_fn = (pool_task_fn if pool_task_fn is not None
                             else _pool_attempt)
        #: Per-worker progress (label -> units/busy_s/last_unit), the
        #: seam ``repro top`` renders worker rows from; both it and
        #: ``worker_metrics`` stay empty at one worker.
        self.worker_status: dict = {}
        self.worker_metrics = None
        self._wm = None
        if workers > 1:
            from repro.obs.metrics import MetricsRegistry
            self.worker_metrics = MetricsRegistry()
            self._wm = _WorkerTelemetry(self.worker_metrics)
        self._pool = None
        self._worker_labels: dict = {}
        self._m = _ServeMetrics(metrics) if metrics is not None else None
        self.digest = matrix_digest([j.canonical() for j in self.jobs],
                                    policy.canonical())
        fault_digest = policy.fault_plan_digest()
        completed = (load_checkpoint(resume_path, self.digest,
                                     expected_fault_digest=fault_digest)
                     if resume_path else {})
        self.checkpointer = Checkpointer(checkpoint_path, self.digest,
                                         every=policy.checkpoint_every,
                                         keep=checkpoint_keep,
                                         fault_plan_digest=fault_digest)
        self.checkpointer.units.update(completed)
        self.resumed_units = len(completed)
        self._fresh_units = 0

    # -- Unit execution ------------------------------------------------------

    def _paper_setup(self, workload_name: str):
        from repro.params import paper_params
        from repro.workloads import applications as apps
        params = paper_params()
        return apps.build(workload_name, params), params

    def _framework(self, degraded: bool):
        """A framework for one run/bench unit.

        ``degraded``: an earlier unit of this job ended GPU_ONLY, so
        this unit is *re-lowered* without PIM offload from the start
        (fresh health state would be meaningless — there is no PIM
        hardware left in the schedule to monitor).
        """
        from repro.core.framework import AnaheimFramework
        from repro.faults.plan import default_plan
        from repro.gpu.configs import A100_80GB
        from repro.pim.configs import A100_NEAR_BANK
        gpu = self.gpu if self.gpu is not None else A100_80GB
        pim = self.pim if self.pim is not None else A100_NEAR_BANK
        policy = self.policy
        plan = None
        if policy.fault_seed is not None:
            plan = default_plan(seed=policy.fault_seed,
                                scale=policy.fault_scale,
                                stuck_sites=policy.stuck_sites)
        ras = policy.ras_config()
        kwargs = dict(library=self.library) if self.library is not None \
            else {}
        if degraded:
            # GPU-only re-lowering has no PIM banks left to scrub, so
            # the RAS config is dropped along with the offload.
            return AnaheimFramework(gpu, None, fault_plan=plan,
                                    kernel_timeout=policy.kernel_timeout_s,
                                    metrics=self.metrics, **kwargs), None
        guarded = plan is not None or ras is not None
        health = policy.health_monitor(self.metrics) if guarded else None
        breakers = policy.breaker_board(self.metrics) if guarded else None
        return AnaheimFramework(gpu, pim, fault_plan=plan,
                                ras_config=ras,
                                health=health, breakers=breakers,
                                kernel_timeout=policy.kernel_timeout_s,
                                metrics=self.metrics, **kwargs), health

    def _run_unit(self, workload_name: str, degraded: bool,
                  metrics_only: bool) -> dict:
        from repro.obs.baseline import baseline_metrics
        from repro.obs.export import report_dict
        workload, params = self._paper_setup(workload_name)
        framework, health = self._framework(degraded)
        gpu = framework.gpu
        if not workload.memory.fits(gpu.dram_capacity):
            return {"workload": workload_name, "status": "oom",
                    "needs": workload.memory.describe(),
                    "end_state": "failed"}
        result = framework.run(workload.blocks, params.degree,
                               label=workload_name)
        report = result.report
        doc = {
            "workload": workload_name,
            "status": "ok",
            "lowering": result.options.describe(),
            "degraded_lowering": degraded,
            "end_state": (health.state.value if health is not None
                          else ("gpu-only" if degraded else "healthy")),
        }
        if metrics_only:
            doc["metrics"] = baseline_metrics(report)
        else:
            doc["report"] = report_dict(report)
        return doc

    def _faults_unit(self, job: JobSpec, unit: str) -> dict:
        from repro.faults.campaign import run_campaign_unit
        layer, seed_text = unit.split("/")
        policy = self.policy
        guarded = layer == "analytic"
        health = policy.health_monitor(self.metrics) if guarded else None
        breakers = policy.breaker_board(self.metrics) if guarded else None
        return run_campaign_unit(
            layer, int(seed_text), scale=policy.fault_scale,
            workload=job.workloads[0], stuck_sites=policy.stuck_sites,
            record_wall=policy.record_wall, gpu=self.gpu, pim=self.pim,
            health=health, breakers=breakers,
            kernel_timeout=policy.kernel_timeout_s,
            metrics=self.metrics)

    def _execute_unit(self, job: JobSpec, unit: str,
                      degraded: bool) -> dict:
        """One unit's result payload (overridable seam for tests)."""
        if job.kind == "faults":
            return self._faults_unit(job, unit)
        return self._run_unit(unit, degraded,
                              metrics_only=job.kind == "bench")

    # -- The retry loop ------------------------------------------------------

    def _attempt_unit(self, job: JobSpec, unit: str, key: str,
                      degraded: bool) -> dict:
        """Unit doc after bounded retries with seeded backoff."""
        retry = self.policy.retry_policy()
        backoffs: list = []
        attempt = 0
        while True:
            try:
                result = self._execute_unit(job, unit, degraded)
            except ReproError as exc:
                if self._m is not None:
                    self._m.failures.inc()
                if attempt < retry.max_retries:
                    delay = retry.delay(key, attempt)
                    backoffs.append(delay)
                    if self._m is not None:
                        self._m.retries.inc()
                        self._m.backoff.inc(delay)
                    attempt += 1
                    continue
                return {"status": "failed", "attempts": attempt + 1,
                        "backoff_s": backoffs,
                        "error": f"{exc.__class__.__name__}: {exc}"}
            status = result.get("status", "ok") if isinstance(
                result, dict) else "ok"
            return {"status": status, "attempts": attempt + 1,
                    "backoff_s": backoffs, "result": result}

    def _attempt_task(self, task: _UnitTask):
        """``(unit doc, registry or None)``: the retry loop run into a
        fresh per-unit registry, which the walk merges in matrix order.

        Every unit of every worker count records this way, so the
        lifetime registry always sums the same per-unit subtotals in
        the same order.  Float addition is not associative, so that
        grouping is what lets ``--workers N`` digest-match
        ``--workers 1`` exactly.
        """
        if not task.collect_metrics:
            return self._attempt_unit(task.job, task.unit, task.key,
                                      task.degraded), None
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        saved_metrics, saved_m = self.metrics, self._m
        self.metrics = registry
        self._m = _ServeMetrics(registry)
        try:
            doc = self._attempt_unit(task.job, task.unit, task.key,
                                     task.degraded)
        finally:
            self.metrics, self._m = saved_metrics, saved_m
        return doc, registry

    # -- Unit accounting -----------------------------------------------------

    def _observe_unit(self, job: JobSpec, unit: str, doc: dict) -> None:
        """Count one fresh unit and time it on the simulated clock."""
        if self._m is None:
            return
        self._m.units.inc(kind=job.kind, status=doc.get("status", "ok"))
        seconds = _unit_seconds(job.kind, doc)
        if seconds is not None:
            workload = unit if job.kind != "faults" else (
                (doc.get("result") or {}).get("workload", ""))
            self._m.unit_seconds.observe(seconds, kind=job.kind,
                                         workload=workload)

    def _notify(self, job: JobSpec, unit: str, doc: dict,
                fresh: bool) -> None:
        if self.on_unit is not None:
            self.on_unit(job, unit, doc, fresh)

    # -- The matrix ----------------------------------------------------------

    def _job_degraded(self, job: JobSpec, unit_docs: dict) -> bool:
        """Did an earlier unit of this job end degraded-or-worse?

        Read from recorded documents (never live monitors) so fresh and
        resumed runs see identical carry-over state.
        """
        if job.kind == "faults":
            return False
        if job.degraded_start:
            return True
        for doc in unit_docs.values():
            result = doc.get("result") or {}
            if result.get("end_state") in _DEGRADED_END_STATES:
                return True
        return False

    def _check_deadline(self, started: float) -> bool:
        """True iff the job that started at ``started`` has overrun its
        serve deadline.  Checked before every dispatch round; the
        units still pending are then skipped (:meth:`_skip_deadline`),
        never raised on."""
        deadline = self.policy.deadline_s
        return deadline is not None and self.clock() - started > deadline

    def _skip_deadline(self, job: JobSpec, unit: str,
                       unit_docs: dict) -> None:
        """Record ``unit`` as deadline-skipped and notify."""
        unit_docs[unit] = {"status": "deadline-skipped"}
        if self._m is not None:
            self._m.deadline_skips.inc()
        self._notify(job, unit, unit_docs[unit], fresh=False)

    def _assemble_job(self, job: JobSpec, unit_docs: dict,
                      status: str) -> dict:
        doc = {
            "id": job.id,
            "kind": job.kind,
            "status": status,
            "units": unit_docs,
            "service_time_s": sum(sum(d.get("backoff_s", []))
                                  for d in unit_docs.values()),
            "retries": sum(max(0, d.get("attempts", 1) - 1)
                           for d in unit_docs.values()),
        }
        if job.kind == "faults":
            from repro.faults.campaign import assemble_matrix
            results = {unit: d["result"] for unit, d in unit_docs.items()
                       if d.get("status") == "ok"}
            campaign = assemble_matrix(
                results, self.policy.seeds, scale=self.policy.fault_scale,
                stuck_sites=self.policy.stuck_sites)
            doc["campaign"] = campaign
            if status == "ok" and not campaign["gate"]["passed"]:
                doc["status"] = "failed"
        return doc

    # -- The worker pool -----------------------------------------------------

    def _worker_pool(self):
        from repro.parallel import WorkerPool, worker_warmup
        if self._pool is None:
            self._pool = WorkerPool(self.workers,
                                    initializer=worker_warmup,
                                    initargs=(self.threads,))
        return self._pool

    def _worker_label(self, pid: int) -> str:
        """Stable display label per worker pid, in commit order
        (``parent`` for crash-recovery units re-run inline)."""
        if pid < 0:
            return "parent"
        label = self._worker_labels.get(pid)
        if label is None:
            label = f"w{len(self._worker_labels)}"
            self._worker_labels[pid] = label
        return label

    def _account_worker(self, key: str, pid: int, wall_s: float) -> None:
        label = self._worker_label(pid)
        status = self.worker_status.setdefault(
            label, {"units": 0, "busy_s": 0.0, "last_unit": ""})
        status["units"] += 1
        status["busy_s"] += wall_s
        status["last_unit"] = key
        if self._wm is not None:
            self._wm.units.inc(worker=label)
            self._wm.busy.inc(wall_s, worker=label)

    def _unit_task(self, job: JobSpec, unit: str, key: str,
                   degraded: bool) -> _UnitTask:
        return _UnitTask(policy=self.policy, job=job, unit=unit, key=key,
                         degraded=degraded,
                         collect_metrics=self.metrics is not None,
                         gpu=self.gpu, pim=self.pim, library=self.library)

    def _run_job(self, job: JobSpec) -> dict:
        """The matrix walk, one for every worker count.

        Restored units are notified first; fresh units then dispatch
        in rounds of at most ``workers`` (at one worker inline through
        :meth:`_attempt_task`, otherwise through ``pool_task_fn`` in
        the pool).  Results are *committed*
        strictly in matrix order — checkpoint records, metric merges,
        and notifications — regardless of which worker finished
        first.  Degradation carry-over is speculative within a round:
        every unit dispatches with the flag known at dispatch time; if
        a committed unit flips the job degraded, the round's
        uncommitted results are discarded and redispatched re-lowered
        (the flag is monotone, so at most one redispatch).  A crashed
        worker costs one unit, re-run inline in the parent through the
        same function.  The deadline is checked before every round;
        past it, the pending units are skipped with progress kept.
        """
        unit_docs: dict = {}
        status = "ok"
        started = self.clock()
        units = job.units(self.policy.seeds)
        pending: list = []
        for unit in units:
            key = f"{job.id}:{unit}"
            stored = self.checkpointer.units.get(key)
            if stored is not None:
                unit_docs[unit] = stored
                if self._m is not None:
                    self._m.restored.inc()
                self._notify(job, unit, stored, fresh=False)
            else:
                pending.append((unit, key))
        interrupted = False
        if self.max_units is not None:
            budget = max(0, self.max_units - self._fresh_units)
            if len(pending) > budget:
                interrupted = True
                pending = pending[:budget]
        pooled = self.workers > 1
        fn = self.pool_task_fn if pooled else self._attempt_task
        while pending:
            if self._check_deadline(started):
                status = "deadline-exceeded"
                for unit, key in pending:
                    self._skip_deadline(job, unit, unit_docs)
                break
            degraded = self._job_degraded(job, unit_docs)
            batch = pending[:self.workers]
            tasks = [self._unit_task(job, unit, key, degraded)
                     for unit, key in batch]
            results = self._worker_pool().run(fn, tasks)
            committed = 0
            for (unit, key), task, res in zip(batch, tasks, results):
                if self._job_degraded(job, unit_docs) != task.degraded:
                    break
                if res.crashed:
                    if self._wm is not None:
                        self._wm.crashes.inc()
                    inline_start = time.perf_counter()
                    doc, registry = fn(task)
                    self._account_worker(
                        key, -1, time.perf_counter() - inline_start)
                else:
                    doc, registry = res.value
                    if pooled:
                        self._account_worker(key, res.worker, res.wall_s)
                if registry is not None and self.metrics is not None:
                    self.metrics.merge(registry)
                self._fresh_units += 1
                unit_docs[unit] = doc
                self.checkpointer.record(key, doc)
                self._observe_unit(job, unit, doc)
                self._notify(job, unit, doc, fresh=True)
                if doc["status"] != "ok":
                    status = "failed"
                committed += 1
            pending = pending[committed:]
        if interrupted:
            raise _Interrupted()
        ordered = {unit: unit_docs[unit] for unit in units
                   if unit in unit_docs}
        return self._assemble_job(job, ordered, status)

    def run(self) -> dict:
        """Execute the matrix; the serve document (JSON-safe, and —
        wall clocks aside — a pure function of jobs + policy)."""
        job_docs: list = []
        interrupted = False
        try:
            for job in self.jobs:
                job_docs.append(self._run_job(job))
        except _Interrupted:
            interrupted = True
            self.checkpointer.flush()
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        # NB: ``resumed_units`` is deliberately NOT part of the document
        # — a resumed run must be byte-identical to an uninterrupted
        # one, and only this field would differ.  It stays available as
        # an attribute for display.
        document = {
            "tool": "anaheim-repro",
            "kind": "serve",
            "version": 1,
            "matrix_digest": self.digest,
            "policy": self.policy.canonical(),
            "interrupted": interrupted,
            "jobs": job_docs,
            "ok": (not interrupted
                   and all(j["status"] == "ok" for j in job_docs)),
        }
        if not interrupted:
            self.checkpointer.flush()
        return document
