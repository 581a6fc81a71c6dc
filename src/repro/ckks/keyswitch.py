"""Basis conversion, ModUp/ModDown, rescaling, and key switching.

These are the paper's primary polynomial ops (§II-B): ``ModSwitch``
decomposes into INTT → BConv → NTT, with variants ``ModUp`` (extend a
decomposition digit from its group basis to the full PQ basis) and
``ModDown`` (divide by P and return to basis Q).  ``KeyMult`` is the
inner-product with the evaluation key digits that both HMULT and HROT
share (Fig. 1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ckks import instrument, modmath
from repro.ckks.rns import RnsPolynomial, basis_product, modulus_column
from repro.errors import ParameterError
from repro.parallel import threads as limb_threads

#: Bound on the basis-conversion constant cache.  Every (level, digit)
#: pair of a leveled computation wants its own table, but a long serve
#: run sweeping many parameter sets must not grow memory without bound
#: — the paper-scale working set is ~O(dnum · levels) ≈ tens of
#: entries, so 128 keeps every hot table resident while capping growth.
BCONV_CACHE_SIZE = 128

_bconv_cache: OrderedDict = OrderedDict()
_bconv_lock = threading.Lock()


def _bconv_tables(src_basis: tuple, dst_basis: tuple):
    """Precompute fast-basis-conversion constants (HPS / full-RNS [16]).

    Returns ``(q_hat_inv, q_hat_mod_dst, src_prod_mod_dst)`` where
    ``q_hat_inv[i] = (Q̂_i)^{-1} mod q_i`` and
    ``q_hat_mod_dst[i][j] = Q̂_i mod p_j`` with ``Q̂_i = Q_src / q_i``.

    Cached in a **bounded** LRU (:data:`BCONV_CACHE_SIZE` entries,
    thread-safe) instead of an unbounded ``lru_cache``; hits, misses,
    and evictions are reported through :mod:`repro.ckks.instrument`
    as ``ckks.bconv_tables.*``.
    """
    key = (src_basis, dst_basis)
    with _bconv_lock:
        tables = _bconv_cache.get(key)
        if tables is not None:
            _bconv_cache.move_to_end(key)
            instrument.count("ckks.bconv_tables.hit")
            return tables
    instrument.count("ckks.bconv_tables.miss")
    src_prod = basis_product(src_basis)
    q_hat_inv = np.empty(len(src_basis), dtype=np.int64)
    q_hat_mod = np.empty((len(src_basis), len(dst_basis)), dtype=np.int64)
    for i, q in enumerate(src_basis):
        q_hat = src_prod // q
        q_hat_inv[i] = modmath.mod_inverse(q_hat % q, q)
        for j, p in enumerate(dst_basis):
            q_hat_mod[i, j] = q_hat % p
    src_prod_mod = np.array([src_prod % p for p in dst_basis], dtype=np.int64)
    tables = (q_hat_inv, q_hat_mod, src_prod_mod)
    with _bconv_lock:
        _bconv_cache[key] = tables
        _bconv_cache.move_to_end(key)
        while len(_bconv_cache) > BCONV_CACHE_SIZE:
            _bconv_cache.popitem(last=False)
            instrument.count("ckks.bconv_tables.evicted")
    return tables


def bconv_cache_info() -> dict:
    """Size/bound of the basis-conversion table cache (tests use it)."""
    with _bconv_lock:
        return {"size": len(_bconv_cache), "maxsize": BCONV_CACHE_SIZE}


def clear_bconv_cache() -> None:
    with _bconv_lock:
        _bconv_cache.clear()


def basis_convert(poly: RnsPolynomial, dst_basis: tuple) -> RnsPolynomial:
    """Fast basis conversion (BConv) — coefficient domain only.

    Structurally a ``(|dst| × |src|) @ (|src| × N)`` matrix product, as
    the paper notes (§II-B).  A floating-point correction recovers the
    centered representative, so inputs with centered magnitude below
    ``Q_src / 2`` convert exactly.

    ``poly`` may stack several same-basis polynomials as ``(P, |src|,
    N)`` planes (:meth:`RnsPolynomial.stack`); the conversion is one
    call over all of them.  BConv acts on each coefficient column
    independently, so every plane comes out bit-identical to
    converting it alone.
    """
    if poly.is_ntt:
        raise ParameterError("BConv requires coefficient-domain input")
    src_basis = poly.basis
    dst_basis = tuple(dst_basis)
    q_hat_inv, q_hat_mod, src_prod_mod = _bconv_tables(src_basis, dst_basis)
    instrument.count("ckks.bconv.batched")
    # y_i = x_i * (Q̂_i)^{-1} mod q_i — one pass over the whole matrix.
    y = np.empty_like(poly.coeffs)
    modmath.mod_mul_into(poly.coeffs, q_hat_inv.reshape(-1, 1),
                         modulus_column(src_basis), y)
    # The uncorrected sum equals x + u * Q_src with u = round(sum y_i/q_i)
    # for centered x; subtract u * Q_src to recenter.  Summed limb by
    # limb to keep the float rounding identical to the reference.
    lead = y.shape[:-2]
    frac = np.zeros(lead + (poly.degree,), dtype=np.float64)
    for i, q in enumerate(src_basis):
        frac += y[..., i, :] / q
    u = np.round(frac).astype(np.int64)
    # acc[j] = Σ_i y_i · (Q̂_i mod p_j): a (|dst| × |src|) @ (|src| × N)
    # product per plane.  Every term is below max(q)·max(p) < 2^62, so
    # instead of reducing after each limb we accumulate `chunk` limbs at
    # a time in int64 and reduce once per chunk.  Destination rows are
    # mutually independent, so the product is split into contiguous row
    # blocks across the kernel thread pool; each block runs the exact
    # per-row operation sequence of the serial loop, keeping the result
    # bit-identical for any thread count.
    dst_col = modulus_column(dst_basis)
    max_term = (max(src_basis) - 1) * (max(dst_basis) - 1)
    headroom = (1 << 63) - 1 - (max(dst_basis) - 1)
    chunk = max(1, headroom // max_term)
    acc = np.zeros(lead + (len(dst_basis), poly.degree), dtype=np.int64)
    starts = range(0, len(src_basis), chunk)
    instrument.count("ckks.bconv.chunks", len(starts))

    def accumulate(lo: int, hi: int) -> None:
        rows = acc[..., lo:hi, :]
        col = dst_col[lo:hi]
        for start in starts:
            stop = start + chunk
            np.add(rows, q_hat_mod[start:stop, lo:hi].T
                   @ y[..., start:stop, :], out=rows)
            np.remainder(rows, col, out=rows)

    if limb_threads.run_blocks(len(dst_basis), accumulate) > 1:
        instrument.count("ckks.bconv.threaded")
    # u is a small non-negative integer (< |src|), so u·(Q_src mod p)
    # stays far below the int64 bound before its reduction.
    corr = np.multiply(u[..., None, :], src_prod_mod.reshape(-1, 1))
    np.remainder(corr, dst_col, out=corr)
    modmath.mod_sub_into(acc, corr, dst_col, out=acc)
    return RnsPolynomial(acc, dst_basis, is_ntt=False)


def _convert_stacked(polys: Sequence[RnsPolynomial], src_basis: tuple,
                     dst_basis: tuple) -> RnsPolynomial:
    """``src_basis`` rows of every poly → ``dst_basis``, in one pass.

    The rows are stacked as ``(P, |src|, N)`` planes, so the whole
    group runs one INTT, one BConv and (for NTT inputs) one NTT — the
    calls the paper fuses as BasicFuse (§V).  Returns the stacked
    result in the inputs' domain.
    """
    stacked = RnsPolynomial.stack(polys, src_basis)
    converted = basis_convert(stacked.from_ntt(), dst_basis)
    return converted.to_ntt() if stacked.is_ntt else converted


@dataclass(frozen=True)
class DigitDecomposition:
    """Gadget decomposition of basis Q into D groups of ≤ α primes."""

    moduli: tuple
    aux_moduli: tuple
    aux_count: int

    @property
    def dnum(self) -> int:
        return -(-len(self.moduli) // self.aux_count)

    def group(self, j: int) -> tuple:
        """Primes of decomposition digit j."""
        return self.moduli[j * self.aux_count:(j + 1) * self.aux_count]

    def groups(self):
        return [self.group(j) for j in range(self.dnum)]

    @property
    def full_basis(self) -> tuple:
        """Basis PQ ordered as Q-part then P-part."""
        return self.moduli + self.aux_moduli

    def gadget_values(self, j: int) -> list:
        """``g_j = P · Q̂_j · [Q̂_j^{-1}]_{Q_j}`` reduced mod each PQ prime."""
        q_prod = basis_product(self.moduli)
        p_prod = basis_product(self.aux_moduli)
        group_prod = basis_product(self.group(j))
        q_hat = q_prod // group_prod
        q_hat_inv = modmath.mod_inverse(q_hat % group_prod, group_prod)
        g = p_prod * q_hat * q_hat_inv
        return [g % q for q in self.full_basis]


def mod_up(poly: RnsPolynomial, group: tuple, target_basis: tuple,
           coeff: RnsPolynomial | None = None) -> RnsPolynomial:
    """ModUp: extend one decomposition digit to ``target_basis``.

    ``group`` are the digit's primes (a subset of both ``poly.basis``
    and ``target_basis``).  Input must be NTT-applied; output is
    NTT-applied over ``target_basis``.  Internally: INTT → BConv → NTT —
    exactly the paper's ModSwitch structure.

    ``coeff`` optionally supplies the coefficient-domain copy of
    ``poly`` so callers extending several digits (ModUp of every
    decomposition group) run the INTT once for all limbs instead of
    once per digit; limb-wise the transform is independent, so
    restricting before or after the INTT is bit-identical.
    """
    limbs = poly.restrict(group)
    if coeff is None:
        coeff_group = limbs.from_ntt()
    else:
        coeff_group = coeff.restrict(group)
    rest = tuple(q for q in target_basis if q not in group)
    extended = basis_convert(coeff_group, rest).to_ntt()
    combined = limbs.to_ntt().concat(extended)
    return combined.restrict(target_basis)


def mod_down(polys: Sequence[RnsPolynomial], moduli: tuple,
             aux_moduli: tuple) -> list:
    """ModDown: divide PQ-basis polynomials by P, returning basis Q.

    ``polys`` are NTT-applied polynomials over one PQ basis — a key
    switch passes its ``b`` and ``a`` accumulators together, so their P
    parts share one INTT → BConv → NTT pass.  Returns one polynomial
    per input, each bit-identical to converting it alone.  The final
    per-limb step ``x = P^{-1} · (a - b)`` is the PIM ``ModDownEp``
    instruction (Table II); it runs per polynomial, in input order.
    """
    p_in_q = _convert_stacked(polys, aux_moduli, moduli).planes()
    p_prod = basis_product(aux_moduli)
    inv_p = [modmath.mod_inverse(p_prod % q, q) for q in moduli]
    return [(poly.restrict(moduli) - part).scalar_mul(inv_p)
            for poly, part in zip(polys, p_in_q)]


def rescale_poly(polys: Sequence[RnsPolynomial]) -> list:
    """Divide each polynomial by the last prime of its basis and drop
    that limb.

    ``polys`` share one basis and domain (a ciphertext's ``b`` and
    ``a``); their last limbs share one INTT → BConv (→ NTT) pass.
    Returns one polynomial per input, each bit-identical to rescaling
    it alone; the subtract-and-scale step runs per polynomial, in input
    order.
    """
    first = polys[0]
    if first.limb_count < 2:
        raise ParameterError("cannot rescale a single-limb polynomial")
    last = first.basis[-1]
    kept = first.basis[:-1]
    last_in_kept = _convert_stacked(polys, (last,), kept).planes()
    inv = [modmath.mod_inverse(last % q, q) for q in kept]
    return [(poly.restrict(kept) - part).scalar_mul(inv)
            for poly, part in zip(polys, last_in_kept)]


def key_mult(digits: list, evk) -> tuple:
    """KeyMult: ``(Σ_j d̃_j · evk_j.b, Σ_j d̃_j · evk_j.a)`` over PQ.

    ``digits[j]`` is the ModUp-extended digit ``d̃_j`` (NTT, basis PQ);
    ``evk`` holds ``2·D`` polynomials (Table I).  On Anaheim this entire
    loop maps to PAccum⟨D⟩ PIM instructions (Alg. 1).
    """
    if len(digits) != len(evk.b_polys):
        raise ParameterError(
            f"{len(digits)} digits but evk has {len(evk.b_polys)}")
    evk.ensure_shoup()
    acc_b = digits[0] * evk.b_polys[0]
    acc_a = digits[0] * evk.a_polys[0]
    for j in range(1, len(digits)):
        acc_b = acc_b + digits[j] * evk.b_polys[j]
        acc_a = acc_a + digits[j] * evk.a_polys[j]
    return acc_b, acc_a


def decompose_digits(poly: RnsPolynomial, decomp: DigitDecomposition):
    """ModUp every decomposition digit of ``poly`` (possibly leveled).

    ``poly`` may live on any prefix of the full Q basis; empty digits
    (all of whose primes were already dropped) are skipped.  Returns
    ``(digits, digit_indices, target_basis)``.
    """
    current = poly.basis
    target = current + decomp.aux_moduli
    coeff = poly.from_ntt()    # shared INTT for every digit's ModUp
    digits = []
    indices = []
    for j in range(decomp.dnum):
        group = tuple(q for q in decomp.group(j) if q in current)
        if not group:
            continue
        digits.append(mod_up(poly, group, target, coeff=coeff))
        indices.append(j)
    return digits, indices, target


def key_switch(poly: RnsPolynomial, evk, decomp: DigitDecomposition) -> tuple:
    """Full key switch of ``poly`` (NTT): ModUp → KeyMult → ModDown.

    ``poly`` may be leveled (a prefix of the full Q basis); the evk —
    generated once over the full PQ basis — is restricted to the current
    basis.  Returns ``(b, a)`` over the current Q basis whose decryption
    adds ``poly · s_from`` under the target secret.
    """
    digits, indices, target = decompose_digits(poly, decomp)
    evk.ensure_shoup()
    acc_b = None
    acc_a = None
    for digit, j in zip(digits, indices):
        evk_b = evk.b_polys[j].restrict(target)
        evk_a = evk.a_polys[j].restrict(target)
        term_b = digit * evk_b
        term_a = digit * evk_a
        acc_b = term_b if acc_b is None else acc_b + term_b
        acc_a = term_a if acc_a is None else acc_a + term_a
    b, a = mod_down((acc_b, acc_a), poly.basis, decomp.aux_moduli)
    return b, a
