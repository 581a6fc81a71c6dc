"""Per-layer timing shims for the traced benchmark run.

A shim swaps one attribute -- a module-level function or a class
method -- for a wrapper that times every call, then swaps it back.
Each shim patches the attribute its caller actually resolves at call
time: ``repro.ckks.evaluator.key_switch`` (the name the evaluator
imported), not the definition in ``repro.ckks.keyswitch``.  So the
wrapper sees exactly the calls that layer makes, and the program under
test is unchanged: the untraced run installs nothing.

Two kinds of shim:

* ``SPAN`` -- a :class:`repro.obs.tracer.Tracer` span per call, kept in
  memory and exported as a Chrome trace when the run ends;
* ``LEAF`` -- functions called thousands of times per op (cost models,
  metric updates, NTTs, basis conversion) only add to a call count and
  a summed duration; a span object per call would cost about as much
  as the call itself.

Both kinds keep the same books: calls, inclusive seconds, and self
seconds (inclusive minus the time covered by shimmed calls nested
inside).  Self seconds of every layer plus the op's own remainder add
up to the op's wall time, which the traced run checks
(``trace.closure``).

A shim whose target no longer exists fails at install time, and a shim
its workload is predicted to hit but never does fails after the run,
so a refactor cannot turn a layer metric into a silent zero.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

from repro.ckks import instrument
from repro.obs.tracer import Tracer

SPAN = "span"
LEAF = "leaf"

CKKS = ("boot", "mlp")


@dataclass(frozen=True)
class Shim:
    """One patched attribute.

    ``target`` is ``"module:attribute.path"``.  ``hit`` names the
    workloads whose traced run must call it at least once.
    ``inclusive`` adds a ``<layer>.s`` metric next to ``.calls`` and
    ``.self_s``.  ``extra`` is ``(suffix, fn)``: ``fn(args, result)``
    returns an amount added to the ``<layer>.<suffix>`` counter.
    """

    layer: str
    target: str
    kind: str
    hit: tuple
    inclusive: bool = False
    extra: tuple = ()


def _limbs(args, result) -> int:
    """Limb rows of a batched NTT call's ``(..., L, N)`` input."""
    return math.prod(args[1].shape[:-1])


SHIMS = (
    # -- Executable CKKS engine ----------------------------------------------
    Shim("ckks.bootstrap.mod_raise", "repro.ckks.bootstrap:mod_raise",
         SPAN, ("boot",)),
    Shim("ckks.bootstrap.coeff_to_slot",
         "repro.ckks.bootstrap:Bootstrapper._coeff_to_slot", SPAN,
         ("boot",), inclusive=True),
    Shim("ckks.bootstrap.eval_mod",
         "repro.ckks.bootstrap:Bootstrapper._eval_mod", SPAN, ("boot",),
         inclusive=True),
    Shim("ckks.bootstrap.slot_to_coeff",
         "repro.ckks.bootstrap:Bootstrapper._slot_to_coeff", SPAN,
         ("boot",), inclusive=True),
    Shim("ckks.polyeval.evaluate",
         "repro.ckks.polyeval:ChebyshevEvaluator.evaluate", SPAN, CKKS,
         inclusive=True),
    Shim("ckks.linear_transform.apply",
         "repro.ckks.linear_transform:LinearTransform.apply", SPAN, CKKS,
         inclusive=True),
    Shim("ckks.encoder.encode", "repro.ckks.encoder:CkksEncoder.encode",
         SPAN, CKKS, inclusive=True),
    Shim("ckks.evaluator.multiply",
         "repro.ckks.evaluator:CkksEvaluator.multiply", SPAN, CKKS),
    Shim("ckks.evaluator.rescale",
         "repro.ckks.evaluator:CkksEvaluator.rescale", SPAN, CKKS),
    Shim("ckks.evaluator.rotate",
         "repro.ckks.evaluator:CkksEvaluator.rotate", SPAN, CKKS),
    Shim("ckks.evaluator.conjugate",
         "repro.ckks.evaluator:CkksEvaluator.conjugate", SPAN, ("boot",)),
    Shim("ckks.evaluator.mul_plain",
         "repro.ckks.evaluator:CkksEvaluator.mul_plain", SPAN, CKKS),
    Shim("ckks.keyswitch.key_switch", "repro.ckks.evaluator:key_switch",
         SPAN, CKKS, inclusive=True),
    Shim("ckks.keyswitch.mod_up", "repro.ckks.keyswitch:mod_up", SPAN,
         CKKS),
    Shim("ckks.keyswitch.mod_down", "repro.ckks.keyswitch:mod_down", SPAN,
         CKKS),
    Shim("ckks.automorphism.apply_automorphism",
         "repro.ckks.automorphism:apply_automorphism", SPAN, CKKS),
    Shim("ckks.keyswitch.basis_convert",
         "repro.ckks.keyswitch:basis_convert", LEAF, CKKS),
    Shim("ckks.ntt.forward", "repro.ckks.ntt:BatchNttContext.forward",
         LEAF, CKKS, extra=("limbs", _limbs)),
    Shim("ckks.ntt.inverse", "repro.ckks.ntt:BatchNttContext.inverse",
         LEAF, CKKS, extra=("limbs", _limbs)),
    # -- Analytic models -----------------------------------------------------
    Shim("workloads.applications.build",
         "repro.workloads.applications:build", SPAN, ("serve",)),
    Shim("core.framework.run", "repro.core.framework:AnaheimFramework.run",
         SPAN, ("sweep", "serve"), inclusive=True),
    Shim("core.fusion.lower", "repro.core.framework:lower", SPAN,
         ("sweep", "serve"), extra=("kernels", lambda a, r: len(r))),
    Shim("core.scheduler.run", "repro.core.scheduler:Scheduler.run", SPAN,
         ("sweep",), inclusive=True,
         extra=("transitions", lambda a, r: r.transitions)),
    Shim("core.scheduler.resilient_run",
         "repro.core.scheduler:ResilientScheduler.run", SPAN, ("serve",),
         inclusive=True, extra=("transitions", lambda a, r: r.transitions)),
    Shim("gpu.model.kernel_cost", "repro.gpu.model:GpuModel.kernel_cost",
         LEAF, ("sweep", "serve")),
    Shim("pim.executor.cost", "repro.pim.executor:PimExecutor.cost", LEAF,
         ("sweep", "serve")),
    # -- Serving stack -------------------------------------------------------
    Shim("obs.metrics.inc", "repro.obs.metrics:Counter.inc", LEAF,
         ("serve",)),
    Shim("obs.metrics.observe", "repro.obs.metrics:Histogram.observe",
         LEAF, ("serve",)),
    Shim("obs.metrics.set", "repro.obs.metrics:Gauge.set", LEAF,
         ("serve",)),
    Shim("faults.inject.kernel_fault",
         "repro.faults.inject:FaultInjector.kernel_fault", LEAF,
         ("serve",)),
    Shim("faults.ras.before_kernel",
         "repro.faults.ras:RasEngine.before_kernel", LEAF, ("serve",)),
    Shim("faults.ras.note_idle", "repro.faults.ras:RasEngine.note_idle",
         LEAF, ("serve",)),
    Shim("serving.admission.simulate_overload",
         "repro.serving.overload:simulate_overload", SPAN, ("serve",)),
    Shim("serving.jobs.execute_unit",
         "repro.serving.jobs:JobRunner._execute_unit", SPAN, ("serve",),
         inclusive=True),
)

#: ``ckks.instrument`` caches whose hit ratio the traced run reports.
CACHES = ("diag_cache", "bconv_tables", "ntt_tables", "monomial_cache",
          "scratch")

#: Limb rows through the lazy Shoup kernels vs the exact ``%`` path.
MODMATH_ROWS = ("shoup", "strict_fallback")

#: Simulated serve summary fields (exact, per round).
SERVE_SUMMARY = (("offered", "count"), ("admitted", "count"),
                 ("completed", "count"), ("shed_total", "count"),
                 ("goodput_qps", "1/s"))


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with units."""
    units = {}
    for shim in SHIMS:
        units[f"{shim.layer}.calls"] = "count"
        if shim.inclusive:
            units[f"{shim.layer}.s"] = "s"
        units[f"{shim.layer}.self_s"] = "s"
        if shim.extra:
            units[f"{shim.layer}.{shim.extra[0]}"] = "count"
    for cache in CACHES:
        units[f"ckks.{cache}.hit_ratio"] = "ratio"
    for kind in MODMATH_ROWS:
        units[f"ckks.modmath.{kind}"] = "count"
    units["ckks.precision_bits"] = "bits"
    for field, unit in SERVE_SUMMARY:
        units[f"serving.summary.{field}"] = unit
    units["serving.jobs.retries"] = "count"
    units["op.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    units["trace.closure"] = "ratio"
    return units


def _resolve(target: str):
    """``(owner, name, original)`` of a shim target; raises naming it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[name]
    except (ImportError, AttributeError, KeyError) as exc:
        raise ShimError(f"shim target {target} does not exist "
                        f"({exc.__class__.__name__}: {exc})") from None
    if not callable(original):
        raise ShimError(f"shim target {target} is not callable")
    return owner, name, original


class ShimError(RuntimeError):
    """A shim target does not exist or is not callable."""


class LayerRecorder:
    """Installs the shims and keeps per-layer books for traced ops.

    ``stats[layer]`` is ``[calls, inclusive_s, self_s]``.  The recorder
    is single-threaded by design: the benchmark pins the kernel thread
    pool to one thread, so every shimmed call nests on one stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.tracer = Tracer(clock=clock)
        self.stats = {}
        self.extras = {}
        self.hits = {shim.target: 0 for shim in SHIMS}
        self._clock = clock
        self._covered = []
        self._patches = []
        for shim in SHIMS:
            owner, name, original = _resolve(shim.target)
            self._patches.append((owner, name, original,
                                  self._wrap(shim, original)))

    def _account(self, layer: str, elapsed: float) -> None:
        covered = self._covered.pop()
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - covered
        if self._covered:
            self._covered[-1] += elapsed

    def _wrap(self, shim: Shim, original):
        clock = self._clock
        layer, target = shim.layer, shim.target
        extra_name = f"{layer}.{shim.extra[0]}" if shim.extra else None
        extra_fn = shim.extra[1] if shim.extra else None
        span = self.tracer.span if shim.kind == SPAN else None

        def wrapper(*args, **kwargs):
            self.hits[target] += 1
            self._covered.append(0.0)
            start = clock()
            try:
                if span is None:
                    result = original(*args, **kwargs)
                else:
                    with span(layer):
                        result = original(*args, **kwargs)
            finally:
                self._account(layer, clock() - start)
            if extra_fn is not None:
                self.extras[extra_name] = (self.extras.get(extra_name, 0)
                                           + extra_fn(args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def op(self, fn):
        """Run one traced op under the root ``op`` span; returns
        ``fn()``.  Shims and the engine counters are live only inside."""
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        previous = instrument.get_tracer()
        instrument.set_tracer(self.tracer)
        self._covered.append(0.0)
        start = self._clock()
        try:
            with self.tracer.span("op"):
                return fn()
        finally:
            self._account("op", self._clock() - start)
            instrument.set_tracer(previous)
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)

    def unhit(self, workload: str) -> list:
        """Targets ``workload`` must reach that its traced run never
        called."""
        return [shim.target for shim in SHIMS
                if workload in shim.hit and not self.hits[shim.target]]

    def self_seconds(self) -> float:
        """Self time summed over every layer and the op remainder."""
        return sum(stat[2] for stat in self.stats.values())

    def metrics(self, ops: int) -> dict:
        """Per-op layer metrics (counters divided by traced ops)."""
        out = {}
        for shim in SHIMS:
            calls, incl, own = self.stats.get(shim.layer, (0, 0.0, 0.0))
            out[f"{shim.layer}.calls"] = calls / ops
            if shim.inclusive:
                out[f"{shim.layer}.s"] = incl / ops
            out[f"{shim.layer}.self_s"] = own / ops
            if shim.extra:
                name = f"{shim.layer}.{shim.extra[0]}"
                out[name] = self.extras.get(name, 0) / ops
        counters = self.tracer.counters
        for cache in CACHES:
            hit = counters.get(f"ckks.{cache}.hit", 0.0)
            miss = counters.get(f"ckks.{cache}.miss", 0.0)
            out[f"ckks.{cache}.hit_ratio"] = (hit / (hit + miss)
                                              if hit + miss else 0.0)
        for kind in MODMATH_ROWS:
            out[f"ckks.modmath.{kind}"] = counters.get(
                f"ckks.modmath.{kind}", 0.0) / ops
        out["op.self_s"] = self.stats.get("op", (0, 0.0, 0.0))[2] / ops
        return out
