"""Deterministic parallel execution engine.

Anaheim's premise is massive hardware parallelism — thousands of DRAM
banks and MMAC lanes operating on independent RNS limb planes (§IV).
This package is the host-side mirror of that structure, in two tiers:

* **Tier 1 — process pool** (:mod:`repro.parallel.pool`): serve units
  and fault-campaign units are seeded, independent, and checkpointable,
  so :class:`WorkerPool` fans them out across worker processes with
  per-worker warm-up and **ordered result commit** — every assembled
  matrix, checkpoint, and metrics digest is byte-identical to
  ``--workers 1``, which runs the same loop with every unit inline.

* **Tier 2 — thread pool** (:mod:`repro.parallel.threads`): the
  batched NTT butterflies and chunked BConv matmuls release the GIL
  inside NumPy, so independent limb planes are split into contiguous
  per-thread row blocks — bit-identical to the serial kernels for any
  thread count.

Crashes are contained, not fatal: a dead worker process costs one unit
(marked ``crashed`` and fed back into the caller's retry machinery),
and the pool rebuilds itself for the remaining units.
"""

from functools import partial

from repro.parallel.pool import PoolResult, WorkerPool, pool_timeline
from repro.parallel.threads import (block_count, get_threads, partition,
                                    run_blocks, set_threads, thread_scope)


def worker_warmup(thread_count: int = 1) -> None:
    """Per-worker initializer: set the kernel thread count and build
    the shared read-only context every unit would otherwise rebuild —
    paper parameters and the bench-scale NTT twiddle tables.  Pure
    precomputation (no RNG state is advanced), so warmed and cold
    workers produce identical unit results.
    """
    set_threads(thread_count)
    from repro.ckks.bench import BENCH_PARAMS
    from repro.ckks.rns import batch_ntt_context
    from repro.params import CkksParams, paper_params
    paper_params()
    params = CkksParams.create(**BENCH_PARAMS)
    batch_ntt_context(params.degree, tuple(params.moduli))


def _metered_unit(fn, collect_metrics: bool, task):
    """Run ``fn(*task)`` into a fresh per-unit registry (or none) and
    return both; module-level so a worker can unpickle it."""
    from repro.obs.metrics import MetricsRegistry
    registry = MetricsRegistry() if collect_metrics else None
    return fn(*task, metrics=registry), registry


def run_units(fn, tasks, *, workers: int, threads: int, metrics) -> list:
    """``fn(*task, metrics=...)`` for every task, results in task order.

    Units fan out across a warmed :class:`WorkerPool`; any
    ``workers <= 1``, zero included, runs them inline.  A unit whose
    worker crashed is re-run inline.  Each unit records into its own
    registry, merged into ``metrics`` in task order — the same
    float-summation grouping for any worker count, so the merged
    snapshot digest never depends on ``workers``.
    """
    tasks = list(tasks)
    unit = partial(_metered_unit, fn, metrics is not None)
    with WorkerPool(max(workers, 1), initializer=worker_warmup,
                    initargs=(threads,)) as pool:
        outcomes = pool.run(unit, tasks)
    results = []
    for task, outcome in zip(tasks, outcomes):
        result, registry = unit(task) if outcome.crashed else outcome.value
        if registry is not None:
            metrics.merge(registry)
        results.append(result)
    return results


__all__ = [
    "PoolResult", "WorkerPool", "pool_timeline", "run_units",
    "block_count", "get_threads", "partition", "run_blocks",
    "set_threads", "thread_scope", "worker_warmup",
]
