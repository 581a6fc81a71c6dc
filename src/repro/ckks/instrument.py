"""Opt-in counters for the batched CKKS kernel engine.

The executable CKKS layer is a library of free functions and cached
contexts, so it cannot thread a :class:`~repro.obs.tracer.Tracer`
through every call the way the performance models do.  Instead, a
module-level tracer can be attached around a region of interest
(:func:`repro.ckks.bench.engine_counters` does this around one warm
bootstrap for ``bench``, ``metrics`` and ``profile``) and the engine
reports what the work cost:

* ``ckks.batch_ntt.forward`` / ``ckks.batch_ntt.inverse`` — batched
  limb-plane transforms (each replaces ``L`` per-limb transforms).
* ``ckks.batch_ntt.limbs`` — limbs transformed in those calls.
* ``ckks.batch_ntt.threaded`` — transforms that split their limb
  planes across the :mod:`repro.parallel.threads` row-block pool.
* ``ckks.scratch.hit`` / ``ckks.scratch.miss`` — butterfly scratch
  slabs reused vs freshly allocated (per-thread, so a threaded run
  records one miss per worker thread per shape).
* ``ckks.diag_cache.hit`` / ``ckks.diag_cache.miss`` — encoded
  plaintext diagonals served from the :class:`LinearTransform` cache.
* ``ckks.monomial_cache.hit`` / ``ckks.monomial_cache.miss`` — cached
  ``X^k`` multiplier polynomials in the evaluator.
* ``ckks.bconv.batched`` / ``ckks.bconv.chunks`` — vectorized BConv
  calls and the chunked int64 reduction passes they needed.
* ``ckks.bconv.threaded`` — BConv matmuls split across row blocks.
* ``ckks.bconv_tables.hit`` / ``.miss`` / ``.evicted`` — the bounded
  basis-conversion constant cache (long serve runs over many leveled
  bases must not grow memory without bound).
* ``ckks.modmath.shoup`` / ``ckks.modmath.strict_fallback`` — limb
  rows multiplied through the lazy Shoup mul/shift/sub pipeline vs
  rows run on the exact ``%`` path, which happens only while lazy
  reduction is disabled via :func:`repro.ckks.modmath.lazy_scope`.
* ``ckks.ntt_tables.hit`` / ``.miss`` / ``.evicted`` — the bounded
  module-level twiddle-plane cache shared by every ``NttContext`` /
  ``BatchNttContext`` keyed on ``(degree, q)``.

When no tracer is attached every counting site is a single ``is None``
branch, keeping the default path free of overhead.  Counting is
thread-safe: the threaded limb-plane kernels bump counters from worker
threads, so each bump merges into the tracer under a module lock.
"""

from __future__ import annotations

import threading

_tracer = None
_lock = threading.Lock()


def set_tracer(tracer) -> None:
    """Attach a tracer collecting engine counters (``None`` detaches)."""
    global _tracer
    _tracer = tracer


def get_tracer():
    """The currently attached tracer, or ``None``."""
    return _tracer


def count(name: str, value: float = 1.0) -> None:
    """Bump a counter on the attached tracer, if any (atomically —
    the read-modify-write merge is serialized under a module lock so
    concurrent kernel threads never lose increments)."""
    if _tracer is not None:
        with _lock:
            if _tracer is not None:
                _tracer.count(name, value)
