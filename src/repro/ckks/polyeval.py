"""Homomorphic polynomial evaluation in the Chebyshev basis.

Used by bootstrapping's EvalMod step (§II-C) and exposed as a public
"arbitrary polynomial evaluation" routine, one of the advanced features
the Anaheim high-level programming interface promises (§V-C).
"""

from __future__ import annotations

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.rns import basis_product
from repro.errors import ParameterError


def chebyshev_coefficients(fn, degree: int, interval: tuple) -> np.ndarray:
    """Chebyshev interpolation coefficients of ``fn`` on ``interval``.

    Returns ``c`` such that ``fn(x) ≈ Σ_k c_k T_k(t)`` with
    ``t = (2x - a - b) / (b - a)`` mapping the interval onto [-1, 1].
    """
    a, b = interval
    if not b > a:
        raise ParameterError("interval must be increasing")

    def scaled(t):
        return fn((b - a) * (np.asarray(t) + 1.0) / 2.0 + a)

    return np.polynomial.chebyshev.chebinterpolate(scaled, degree)


def chebyshev_reference(coeffs: np.ndarray, x: np.ndarray,
                        interval: tuple) -> np.ndarray:
    """Plain (unencrypted) evaluation of a Chebyshev expansion."""
    a, b = interval
    t = (2.0 * np.asarray(x) - a - b) / (b - a)
    return np.polynomial.chebyshev.chebval(t, coeffs)


#: Baby-step bound of the Paterson–Stockmeyer split: a leaf is a linear
#: combination of ``T_0..T_BABY_STEPS``, and every split point is a power
#: of two from ``BABY_STEPS`` up.
BABY_STEPS = 8

#: Coefficients below this magnitude are treated as exact zeros.
ZERO = 1e-14


def _basis_depth(k: int) -> int:
    """Levels ``T_k`` sits below ``T_1`` when built by index halving."""
    return (k - 1).bit_length()


def _split_point(degree: int) -> int:
    """Giant step ``m`` a degree-``degree`` node divides by (0: a leaf).

    ``m`` is the largest power of two below ``degree``, so the quotient
    has degree ``1..m`` and the remainder degree ``m - 1``.
    """
    if degree <= BABY_STEPS:
        return 0
    m = BABY_STEPS
    while 2 * m < degree:
        m *= 2
    return m


def _plan_depth(degree: int) -> int:
    """Levels a degree-``degree`` node's output sits below ``T_1``."""
    m = _split_point(degree)
    if not m:
        return 1 + _basis_depth(max(degree, 1))
    product = 1 + max(_plan_depth(degree - m), _basis_depth(m))
    return max(product, _plan_depth(m - 1))


def _chebyshev_divide(coeffs: np.ndarray, m: int) -> tuple:
    """Quotient and remainder of ``p = q·T_m + r`` in the Chebyshev basis.

    From ``T_m·T_j = (T_{m+j} + T_{m-j})/2``: ``q_0 = c_m``,
    ``q_j = 2c_{m+j}``, and ``r_{m-j} = c_{m-j} - c_{m+j}``.  Needs
    ``len(coeffs) <= 2m + 1``.
    """
    q = coeffs[m:].copy()
    q[1:] *= 2
    r = coeffs[:m].copy()
    r[m - (len(q) - 1):] -= coeffs[m + 1:][::-1]
    return q, r


class ChebyshevEvaluator:
    """Evaluates Chebyshev expansions on ciphertexts (Paterson–Stockmeyer).

    Baby steps ``T_1..T_8`` and giant steps ``T_16, T_32, ...`` are built
    by index halving (``T_{2k} = 2T_k^2 - 1``,
    ``T_{a+b} = 2T_aT_b - T_{a-b}``).  The expansion is then split
    recursively as ``p = q·T_m + r`` at the largest giant step ``m``
    below its degree, down to leaves of degree at most 8 that are plain
    linear combinations of the baby steps.  A degree-79 EvalMod sine
    costs 19 multiplications and 7 levels, against 59 and 8 for building
    every odd ``T_k``.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        #: Primes one rescale drops (two under double-prime scaling).
        self.steps = getattr(evaluator.params, "primes_per_level", 1)

    #: Levels the high-precision interval normalization consumes.
    NORMALIZE_DEPTH = 2

    def depth(self, degree: int, normalized: bool = True) -> int:
        """Multiplicative depth consumed for a degree-``degree`` expansion.

        Walks the same split plan :meth:`evaluate` runs.  ``normalized``
        adds the cost of the affine map onto [-1, 1]; pass ``False``
        when evaluating directly on the unit interval.
        """
        return _plan_depth(degree) + (self.NORMALIZE_DEPTH if normalized
                                      else 0)

    def _normalize(self, ct: Ciphertext, interval: tuple) -> Ciphertext:
        """Affine map of the slot values onto [-1, 1].

        Uses the precise scalar multiply: the factor ``2/(b-a)`` can be
        ~1e-6 in EvalMod, far below one prime's encoding precision.
        """
        ev = self.evaluator
        a, b = interval
        scaled = ev.mul_scalar_precise(ct, 2.0 / (b - a),
                                       depth=self.NORMALIZE_DEPTH)
        if abs(a + b) < 1e-300:
            return scaled
        return ev.add_scalar(scaled, -(a + b) / (b - a))

    def _basis(self, t1: Ciphertext, degree: int) -> dict:
        """Baby steps ``T_1..T_min(degree, 8)`` and the giant steps the
        split plan of a degree-``degree`` expansion divides by.

        Operand scales are re-aligned exactly (``adjust_scale_to``)
        before the ``T_{a+b} = 2·T_a·T_b - T_{a-b}`` subtraction, so the
        basis accumulates no scale-drift error even at high degree.
        """
        ev = self.evaluator
        basis = {1: t1}

        def build(k: int) -> Ciphertext:
            half = k // 2
            prod = ev.multiply(basis[half], basis[k - half])
            doubled = ev.add(prod, prod)
            if k % 2 == 0:
                return ev.add_scalar(doubled, -1.0)
            # Odd k = half + (half + 1): subtract T_1, aligned exactly.
            aligned = ev.drop_to_basis(
                t1, t1.basis[:doubled.level_count + self.steps])
            aligned = ev.adjust_scale_to(aligned, doubled.scale)
            return ev.sub(doubled, aligned)

        for k in range(2, min(degree, BABY_STEPS) + 1):
            basis[k] = build(k)
        k, top = BABY_STEPS, _split_point(degree)
        while k < top:
            k *= 2
            basis[k] = build(k)
        return basis

    def evaluate(self, ct: Ciphertext, coeffs: np.ndarray,
                 interval: tuple = (-1.0, 1.0)) -> Ciphertext:
        """Evaluate ``Σ_k coeffs[k]·T_k`` on the slot values of ``ct``."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        degree = len(coeffs) - 1
        while degree > 0 and abs(coeffs[degree]) < ZERO:
            degree -= 1
        # Keep T_1's slot, so a constant still rides on a ciphertext.
        coeffs = np.pad(coeffs[:degree + 1], (0, 1 if degree == 0 else 0))
        t1 = ct if interval == (-1.0, 1.0) else self._normalize(ct, interval)
        basis = self._basis(t1, degree)
        limbs = t1.level_count - self.steps * _plan_depth(degree)
        return self._node(basis, coeffs, t1.scale, limbs)

    def _node(self, basis: dict, coeffs: np.ndarray, scale: float,
              limbs: int) -> Ciphertext:
        """``Σ coeffs[k]·T_k`` at exactly ``scale`` on ``limbs`` limbs.

        Scales are chosen top-down: the quotient is evaluated at
        ``scale·q_drop/T_m.scale``, where ``q_drop`` is what the
        product's rescale divides out, so ``q·T_m`` lands exactly on
        the remainder's scale and no alignment level is spent.
        """
        ev = self.evaluator
        m = _split_point(len(coeffs) - 1)
        if not m:
            return self._leaf(basis, coeffs, scale, limbs)
        q, r = _chebyshev_divide(coeffs, m)
        giant = basis[m]
        above = limbs + self.steps
        q_drop = float(basis_product(giant.basis[limbs:above]))
        quotient = self._node(basis, q, scale * q_drop / giant.scale, above)
        prod = ev.multiply(quotient, giant)
        prod.scale = scale
        return ev.add(prod, self._node(basis, r, scale, limbs))

    def _leaf(self, basis: dict, coeffs: np.ndarray, scale: float,
              limbs: int) -> Ciphertext:
        """Drift-free linear combination of baby steps.

        Every term drops to one level above ``limbs`` and is multiplied
        by its coefficient encoded at a per-term scale that puts every
        product on the same scale ``q_drop·scale``; the sum is rescaled
        once, onto exactly ``scale``.
        """
        ev = self.evaluator
        above = limbs + self.steps
        q_drop = float(basis_product(basis[1].basis[limbs:above]))
        product_scale = q_drop * scale
        terms = [k for k in range(1, len(coeffs)) if abs(coeffs[k]) >= ZERO]
        acc = None
        for k in terms or [1]:
            term = ev.drop_to_basis(basis[k], basis[k].basis[:above])
            term = ev.mul_scalar(term, complex(coeffs[k]), rescale=False,
                                 scale=product_scale / term.scale)
            term.scale = product_scale
            acc = term if acc is None else ev.add(acc, term)
        acc = ev.rescale(acc)
        acc.scale = scale
        if abs(coeffs[0]) < ZERO:
            return acc
        return ev.add_scalar(acc, complex(coeffs[0]))
