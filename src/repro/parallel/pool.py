"""Tier-1 parallelism: a deterministic process pool for work units.

Serve units and fault-campaign units are seeded, independent, and
checkpointable — exactly the shape of work Anaheim fans out across
thousands of DRAM banks (§IV).  :class:`WorkerPool` executes such
units across a :class:`~concurrent.futures.ProcessPoolExecutor` while
keeping every observable output **byte-identical** to a serial run:

* results are committed in **submission order** (keyed by unit index),
  never completion order, so assembled matrices, checkpoints, and
  merged metrics registries match the serial documents exactly;
* each worker runs a one-time warm-up initializer (params and twiddle
  tables built once per worker, not once per unit);
* a crashed worker process takes down *one unit*, not the run: the
  broken pool is rebuilt, the remaining tasks are resubmitted, and the
  crashed unit comes back marked ``crashed`` so the caller can feed it
  into its normal retry machinery in-process.

``workers <= 1`` bypasses the executor entirely and runs the units
inline, so a caller keeps one loop for every worker count and
``--workers 1`` starts no process.

Throughput accounting follows the repo convention of charging costs to
deterministic clocks: :func:`pool_timeline` replays a greedy
least-loaded assignment of per-unit costs onto ``workers`` lanes, so
the speedup recorded in ``BENCH_parallel.json`` is a pure function of
the unit costs (themselves simulated seconds) and reproduces exactly
under ``bench --check``.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class PoolResult:
    """One unit's outcome, yielded in submission order."""

    index: int
    value: object = None          # fn's return value (None if crashed)
    worker: int = -1              # worker pid (parent pid when serial)
    wall_s: float = 0.0           # in-worker wall clock for this unit
    crashed: bool = False         # the worker process died on this unit
    error: str = ""


def _mp_context():
    """Prefer ``fork`` (cheap, inherits warmed caches); fall back to
    the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _traced_call(fn, task):
    """Worker-side wrapper: run one unit and report who ran it."""
    import os
    start = time.perf_counter()
    value = fn(task)
    return value, os.getpid(), time.perf_counter() - start


class WorkerPool:
    """Ordered process-pool execution with crash containment.

    ``initializer(*initargs)`` runs once in every worker before its
    first unit (the warm-up hook).  ``fn`` and every task must be
    picklable (module-level functions; frozen dataclasses travel well).
    """

    def __init__(self, workers: int, initializer=None, initargs=()):
        if workers < 1:
            raise ParameterError("worker count must be >= 1")
        self.workers = workers
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._executor = None
        self.crashes = 0

    # -- Executor lifecycle --------------------------------------------------

    def _fresh_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_mp_context(),
            initializer=self.initializer, initargs=self.initargs)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = self._fresh_executor()
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.shutdown()
        return False

    # -- Ordered execution ---------------------------------------------------

    def run(self, fn, tasks) -> list:
        """Execute ``fn(task)`` for every task; :class:`PoolResult`
        list in task order.

        With one worker (or one task) the units run inline in the
        parent — no processes, no pickling, serial semantics exactly.
        A :class:`BrokenProcessPool` marks the *current* unit crashed,
        rebuilds the pool, and resubmits every unit after it; an
        ordinary exception from ``fn`` propagates, as it would have
        serially.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers <= 1 or len(tasks) == 1:
            return [self._run_inline(i, fn, task)
                    for i, task in enumerate(tasks)]
        results: list = [None] * len(tasks)

        def harvest(index: int, future) -> bool:
            if results[index] is None and future.done() \
                    and future.exception() is None:
                value, pid, wall_s = future.result()
                results[index] = PoolResult(index=index, value=value,
                                            worker=pid, wall_s=wall_s)
            return results[index] is not None

        pending = list(range(len(tasks)))
        while pending:
            executor = self._ensure_executor()
            futures: dict = {}
            try:
                for index in pending:
                    futures[index] = executor.submit(
                        _traced_call, fn, tasks[index])
                for index in pending:
                    futures[index].result()
                    harvest(index, futures[index])
                pending = []
            except BrokenProcessPool as exc:
                self.crashes += 1
                # Keep every unit that finished cleanly before the
                # break; blame the earliest unfinished one (we were
                # draining in order, so it was in flight on the dead
                # worker) and resubmit the rest to a rebuilt pool.
                for index, future in futures.items():
                    harvest(index, future)
                remaining = [i for i in pending if results[i] is None]
                crashed_at = remaining[0]
                results[crashed_at] = PoolResult(
                    index=crashed_at, crashed=True,
                    error=f"worker process died: {exc}")
                self.shutdown()
                pending = remaining[1:]
        return results

    def _run_inline(self, index: int, fn, task) -> PoolResult:
        import os
        start = time.perf_counter()
        value = fn(task)
        return PoolResult(index=index, value=value, worker=os.getpid(),
                          wall_s=time.perf_counter() - start)


# -- Deterministic pool timeline ------------------------------------------------


def pool_timeline(costs, workers: int) -> dict:
    """Greedy least-loaded assignment of unit ``costs`` onto
    ``workers`` lanes — the deterministic model of pool throughput.

    Units are assigned in order to the least-loaded lane (ties broken
    by lane index), mirroring how a process pool drains a queue of
    near-uniform units.  Returns the serial total, the parallel
    makespan, the speedup, and each lane's busy time — a pure function
    of ``(costs, workers)``, which is what lets ``BENCH_parallel.json``
    gate on ≥2x throughput without touching a wall clock.
    """
    if workers < 1:
        raise ParameterError("worker count must be >= 1")
    costs = [float(c) for c in costs]
    lanes = [0.0] * workers
    assignment = []
    for cost in costs:
        lane = min(range(workers), key=lambda w: (lanes[w], w))
        lanes[lane] += cost
        assignment.append(lane)
    serial_s = sum(costs)
    makespan_s = max(lanes) if costs else 0.0
    return {
        "units": len(costs),
        "workers": workers,
        "serial_s": serial_s,
        "makespan_s": makespan_s,
        "speedup": serial_s / makespan_s if makespan_s else 1.0,
        "lane_busy_s": lanes,
        "assignment": assignment,
    }
