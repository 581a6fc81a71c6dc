"""Galois automorphisms of the cyclotomic ring (HROT's permutation).

The automorphism ``φ_g : a(X) -> a(X^g)`` for odd ``g`` is a pure data
permutation in either domain (§II-B), the same for every limb and
depending only on the Galois element ``g``: coefficients move with sign
flips, evaluations move without them.  Rotation by ``r`` slots
corresponds to ``g = 5^r mod 2N``; complex conjugation corresponds to
``g = 2N - 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ckks.ntt import bit_reverse_indices
from repro.ckks.rns import RnsPolynomial, modulus_column
from repro.errors import ParameterError


def galois_element(rotation: int, degree: int) -> int:
    """Galois element ``5^rotation mod 2N`` for a slot rotation."""
    two_n = 2 * degree
    return pow(5, rotation % (degree // 2), two_n)


def conjugation_element(degree: int) -> int:
    """Galois element for complex conjugation."""
    return 2 * degree - 1


def _check_galois(galois: int) -> None:
    if galois % 2 == 0:
        raise ParameterError("Galois element must be odd")


@lru_cache(maxsize=None)
def _permutation(degree: int, galois: int):
    """(target indices, sign) for the coefficient permutation of φ_g.

    Coefficient ``i`` of the input lands at index ``i*g mod 2N``; if that
    index is ≥ N it wraps to ``i*g - N`` with a sign flip (because
    ``X^N = -1``).
    """
    _check_galois(galois)
    two_n = 2 * degree
    src = np.arange(degree, dtype=np.int64)
    dest = src * galois % two_n
    flip = dest >= degree
    dest = np.where(flip, dest - degree, dest)
    return dest, flip


@lru_cache(maxsize=None)
def _ntt_permutation(degree: int, galois: int) -> np.ndarray:
    """Source slot of every evaluation-domain output slot of φ_g.

    The forward NTT leaves ``a(ψ^(2·rev(k)+1))`` in slot ``k`` (``rev``
    the bit reversal), and ``φ_g(a)(ψ^e) = a(ψ^(e·g))``, so output slot
    ``k`` reads the slot holding exponent ``(2·rev(k)+1)·g mod 2N``.
    Every prime evaluates at the same exponents of its own 2N-th root
    ``ψ``, so one index array serves every limb.
    """
    _check_galois(galois)
    exponents = 2 * bit_reverse_indices(degree) + 1
    slot_of = np.empty(2 * degree, dtype=np.int64)
    slot_of[exponents] = np.arange(degree, dtype=np.int64)
    perm = slot_of[exponents * galois % (2 * degree)]
    perm.flags.writeable = False
    return perm


def apply_automorphism(poly: RnsPolynomial, galois: int) -> RnsPolynomial:
    """Apply ``φ_g`` to a polynomial, in whichever domain it is in.

    Evaluation-domain limbs are gathered through one cached index array;
    coefficient-domain limbs are scattered with sign flips.  The two
    paths agree bit for bit (``φ_g(a.to_ntt()) == φ_g(a).to_ntt()``),
    and neither runs an (I)NTT.
    """
    if poly.is_ntt:
        perm = _ntt_permutation(poly.degree, galois)
        return RnsPolynomial(poly.coeffs[:, perm], poly.basis, is_ntt=True)
    dest, flip = _permutation(poly.degree, galois)
    coeffs = poly.coeffs
    q_col = modulus_column(poly.basis)
    values = np.where(flip[None, :] & (coeffs != 0), q_col - coeffs, coeffs)
    out = np.empty_like(coeffs)
    out[:, dest] = values
    return RnsPolynomial(out, poly.basis, is_ntt=False)
