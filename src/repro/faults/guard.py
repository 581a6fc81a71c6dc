"""Verify -> retry -> fallback guard for the functional numeric layer.

A :class:`FaultSession` wraps every element-wise RNS kernel
(:mod:`repro.ckks.rns` calls :meth:`FaultSession.elementwise` right
after computing a result).  The session plays the PIM side of the
story: it injects faults per the plan (bit flips in the buffered
operands or on the MMAC lane outputs, stuck cells at a site), verifies
the result against the residue-checksum algebra of the op, retries the
kernel a bounded number of times on transient failure, and falls back
to a clean "GPU" re-execution when retries are exhausted or the site's
fault is persistent.  Sites that keep failing are quarantined: later
kernels mapped there skip the PIM path entirely.

With no session attached the hot path pays a single ``is None`` check
per kernel (the module-level ``ACTIVE`` slot), keeping the PR-2 fast
kernels at full speed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import FaultError
from repro.faults import checksum as cks
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultModel, FaultPlan

#: The active functional-layer session, or None (the fast path).
ACTIVE: "FaultSession | None" = None


class FaultSession:
    """Injection + verification state for one functional campaign."""

    def __init__(self, plan: FaultPlan, injector: FaultInjector | None = None):
        self.plan = plan
        self.injector = injector if injector is not None else FaultInjector(
            plan)
        self._op_index = 0

    @property
    def log(self):
        return self.injector.log

    # -- Checksum algebra per op --------------------------------------------

    def _expected(self, op: str, inputs, q_col: np.ndarray, scalars):
        if op == "add":
            return cks.checksum_add(cks.limb_checksum(inputs[0], q_col),
                                    cks.limb_checksum(inputs[1], q_col),
                                    q_col)
        if op == "sub":
            return cks.checksum_sub(cks.limb_checksum(inputs[0], q_col),
                                    cks.limb_checksum(inputs[1], q_col),
                                    q_col)
        if op == "neg":
            return cks.checksum_neg(cks.limb_checksum(inputs[0], q_col),
                                    q_col)
        if op == "mul":
            return cks.checksum_mul_pairs(inputs[0], inputs[1], q_col)
        if op == "scalar":
            return cks.checksum_scalar_mul(scalars,
                                           cks.limb_checksum(inputs[0],
                                                             q_col), q_col)
        raise FaultError(f"no checksum algebra for op {op!r}")

    # -- Injection per attempt ----------------------------------------------

    def _inject(self, out: np.ndarray, op: str, site: int):
        injector = self.injector
        if injector.is_stuck(site):
            detail = injector.stick_word(out, site)
            if detail is None:
                return None        # latent: stored bits equal the stuck value
            return injector.event(FaultModel.PIM_STUCK_AT, op,
                                  "functional", site=site, **detail)
        for model in (FaultModel.PIM_BITFLIP_BUFFER,
                      FaultModel.PIM_BITFLIP_MMAC):
            if injector.draw(model):
                detail = injector.flip_word(out, model)
                return injector.event(model, op, "functional", site=site,
                                      **detail)
        return None

    # -- The guard ----------------------------------------------------------

    def elementwise(self, op: str, inputs, out: np.ndarray,
                    q_col: np.ndarray, recompute, scalars=None) -> None:
        """Guard one element-wise kernel whose clean result is ``out``.

        ``recompute`` re-fills ``out`` with the clean result (the
        simulated re-execution); injection draws are fresh per attempt,
        so retried kernels can fault again.
        """
        plan = self.plan
        injector = self.injector
        site = injector.site_for(self._op_index)
        self._op_index += 1
        if injector.is_quarantined(site):
            # PIM site is out of rotation: the clean result stands in
            # for the rerouted GPU execution.
            injector.note_reroute()
            return
        expected = self._expected(op, inputs, q_col, scalars)
        event = None
        attempts = 0
        while True:
            injected = self._inject(out, op, site)
            if injected is not None:
                event = injected
            if not cks.mismatched_limbs(out, expected, q_col).any():
                if event is not None and event.recovery is None \
                        and not event.detected:
                    # A corruption that left every checksum intact would
                    # be a silent escape; single-word faults cannot, but
                    # account for the path anyway.
                    event.benign = True
                break
            # Mismatch: the fault (this attempt's or a persistent one)
            # is detected.
            if event is not None:
                event.detected = True
                event.attempts = attempts + 1
            attempts += 1
            if (attempts <= plan.max_attempts
                    and not injector.is_stuck(site)):
                recompute(out)
                if event is not None:
                    event.recovery = "retry"
                continue
            if not plan.allow_fallback:
                raise FaultError(
                    f"kernel {op!r} at site {site} failed "
                    f"{attempts} attempt(s) and fallback is disabled")
            recompute(out)
            if event is not None:
                event.recovery = "fallback"
            injector.record_site_failure(site)
            break


@contextmanager
def attach(sess: FaultSession):
    """Make ``sess`` the active session for the duration of a block."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = sess
    try:
        yield sess
    finally:
        ACTIVE = previous


def session(plan: FaultPlan, injector: FaultInjector | None = None):
    """Attach a functional fault session for the duration of a block."""
    return attach(FaultSession(plan, injector=injector))
