"""Engine counters and same-run NTT ratios of the executable CKKS layer.

``anaheim-repro bench --workload functional`` gates two things here:

* :func:`engine_counters` — what one warm bootstrap asks of the kernel
  engine (NTT calls and limb rows, Shoup vs strict rows, BConv calls,
  cache hits).  These are machine-independent, so
  ``BENCH_functional.json`` pins them exactly.
* :func:`ntt_ratios` — the batched forward NTT against two reference
  arms timed in the same run.  Host speed cancels in a ratio, so each
  is checked against a constant floor (:data:`RATIO_FLOORS`) rather
  than pinned.

Absolute wall time of the bootstrap is measured by ``bench/run.py
--workload boot``, not here.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ckks import instrument, modmath
from repro.ckks.fixture import BENCH_PARAMS
from repro.ckks.ntt import NttContext
from repro.ckks.rns import batch_ntt_context
from repro.obs.tracer import Tracer
from repro.params import CkksParams

#: NTT transforms per timing trial; one transform of a (19, 128) limb
#: matrix is microseconds, far below timer resolution.
NTT_LOOPS = 200

#: Timing trials per arm; each arm takes the best (minimum), the
#: standard estimator of "how fast can this code run" under load.
NTT_TRIALS = 5

#: Limb rows multiplied on the lazy Shoup path vs the exact ``%`` path.
DISPATCH_COUNTERS = ("ckks.modmath.shoup", "ckks.modmath.strict_fallback")

#: Lowest acceptable value of each same-run ratio.
RATIO_FLOORS = {"ntt_batch_speedup": 3.0, "ntt_lazy_speedup": 1.5}


def engine_counters(fx, tracer=None) -> tuple:
    """``(counters, precision_max_err)`` of one warm bootstrap.

    Bootstraps ``fx.ct_low`` of a :func:`~repro.ckks.fixture.
    bootstrap_fixture` with ``tracer`` (a fresh
    :class:`~repro.obs.tracer.Tracer` by default) attached through
    :mod:`repro.ckks.instrument`.  The fixture's warmup has already
    filled every cache, so two calls return identical counters.  The
    tracer records only counters that fire; the per-path row counters
    (:data:`DISPATCH_COUNTERS`) are always reported, 0 when idle, so a
    baseline pins their zeros.
    """
    tracer = Tracer() if tracer is None else tracer
    previous = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        refreshed = fx.bts.bootstrap(fx.ct_low)
    finally:
        instrument.set_tracer(previous)
    counters = dict.fromkeys(DISPATCH_COUNTERS, 0.0)
    counters.update(tracer.counters)
    return dict(sorted(counters.items())), fx.decrypt_error(refreshed)


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(NTT_TRIALS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def ntt_ratios() -> dict:
    """Same-run speedups of the batched forward NTT over the full
    ``BENCH_PARAMS`` basis: against per-limb :class:`NttContext`
    transforms (``ntt_batch_speedup``) and against itself with the lazy
    Shoup kernels disabled (``ntt_lazy_speedup``)."""
    params = CkksParams.create(**BENCH_PARAMS)
    basis = tuple(params.moduli) + tuple(params.aux_moduli)
    rng = np.random.default_rng(7)
    limbs = np.stack([rng.integers(0, q, size=params.degree, dtype=np.int64)
                      for q in basis])
    batch_ctx = batch_ntt_context(params.degree, basis)
    per_limb = [NttContext(params.degree, q) for q in basis]

    def batched():
        for _ in range(NTT_LOOPS):
            batch_ctx.forward(limbs)

    def reference():
        for _ in range(NTT_LOOPS):
            for ctx, row in zip(per_limb, limbs):
                ctx.forward(row)

    def strict():
        with modmath.lazy_scope(False):
            batched()

    fast = _best_of(batched)
    return {"ntt_batch_speedup": _best_of(reference) / fast,
            "ntt_lazy_speedup": _best_of(strict) / fast}
