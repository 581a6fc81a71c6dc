"""Negacyclic number-theoretic transform (NTT) over ``Z_q[X]/(X^N+1)``.

The forward transform uses Cooley-Tukey butterflies (natural input order,
bit-reversed output) and the inverse uses Gentleman-Sande butterflies
(bit-reversed input, natural output), with the 2N-th root-of-unity powers
merged into the butterflies so no separate pre/post scaling by ``psi^i``
is needed (the Longa-Naehrig formulation).

Two butterfly kernels exist:

* :class:`NttContext` — the per-limb reference, reducing every butterfly
  with an exact ``%``.  It is deliberately kept divide-based: the
  property tests use it as the oracle for the fast path.
* :class:`BatchNttContext` — the hot path: all RNS limbs at once on
  stacked ``(L, N)`` twiddle planes.  Every limb (any prime below
  ``2^31``, the 31-bit base prime included) runs Shoup/Harvey
  lazy-reduction butterflies (mul/shift/sub, no hardware divide, values
  lazily in ``[0, 4q)``) and folds back to canonical ``[0, q)`` once
  after the last pass, so the output is bit-identical to the per-limb
  reference.  Under :func:`repro.ckks.modmath.lazy_scope` ``(False)``
  the same rows run the exact ``%`` butterflies instead.

Twiddle tables are built once per ``(degree, q)`` in a module-level LRU
(:func:`_twiddle_tables`), so fixtures and tests constructing many
per-limb oracles stop recomputing identical tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.ckks import instrument, modmath
from repro.errors import ParameterError
from repro.parallel import threads as limb_threads

#: Bound on the module-level (degree, q) twiddle-table cache.  A
#: paper-scale basis has ~70 primes and the tests sweep a few dozen
#: more; 512 keeps every table of a long run resident while capping
#: growth when serving sweeps many parameter sets.
TWIDDLE_CACHE_SIZE = 512

_twiddle_cache: OrderedDict = OrderedDict()
_twiddle_lock = threading.Lock()

_SHIFT = np.uint64(modmath.SHOUP_SHIFT)

#: Smallest prime whose lazy ``[0, 4q)`` operand can reach ``2^32``, the
#: Shoup multiplicand bound.  Row blocks holding such a prime fold that
#: operand to ``[0, 2q)`` before each twiddle multiply.
_WIDE_PRIME = 1 << (modmath.SHOUP_SHIFT - 2)


@lru_cache(maxsize=64)
def _bit_reverse_cached(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.flags.writeable = False
    return rev


def bit_reverse_indices(n: int) -> np.ndarray:
    """The bit-reversal permutation for length ``n`` (a power of 2).

    Cached per length (read-only array) — every :class:`NttContext` of
    the same degree shares one permutation table.
    """
    return _bit_reverse_cached(n)


@dataclass(frozen=True)
class TwiddleTables:
    """Immutable per-(degree, q) NTT constants shared across contexts."""

    psi: int
    psis: np.ndarray            # psi^bitrev(i), int64, read-only
    inv_psis: np.ndarray        # psi^{-bitrev(i)}, int64, read-only
    n_inv: int
    psis_shoup: np.ndarray      # floor(psis · 2^32 / q), uint64
    inv_psis_shoup: np.ndarray  # floor(inv_psis · 2^32 / q), uint64
    n_inv_shoup: int


def _twiddle_tables(degree: int, q: int) -> TwiddleTables:
    """Twiddle planes for one ``(degree, q)``, from the module LRU.

    Hits/misses/evictions are reported through
    :mod:`repro.ckks.instrument` as ``ckks.ntt_tables.*``.
    """
    key = (degree, q)
    with _twiddle_lock:
        entry = _twiddle_cache.get(key)
        if entry is not None:
            _twiddle_cache.move_to_end(key)
    if entry is not None:
        instrument.count("ckks.ntt_tables.hit")
        return entry
    instrument.count("ckks.ntt_tables.miss")
    psi = modmath.root_of_unity(2 * degree, q)
    rev = bit_reverse_indices(degree)
    psi_inv = modmath.mod_inverse(psi, q)
    plain = np.empty(degree, dtype=np.int64)
    plain_inv = np.empty(degree, dtype=np.int64)
    acc = 1
    acc_inv = 1
    for i in range(degree):
        plain[i] = acc
        plain_inv[i] = acc_inv
        acc = acc * psi % q
        acc_inv = acc_inv * psi_inv % q
    powers = plain[rev]
    inv_powers = plain_inv[rev]
    n_inv = modmath.mod_inverse(degree, q)
    psis_shoup = modmath.shoup_precompute(powers, q)
    inv_psis_shoup = modmath.shoup_precompute(inv_powers, q)
    for table in (powers, inv_powers, psis_shoup, inv_psis_shoup):
        table.flags.writeable = False
    entry = TwiddleTables(
        psi=psi, psis=powers, inv_psis=inv_powers, n_inv=n_inv,
        psis_shoup=psis_shoup, inv_psis_shoup=inv_psis_shoup,
        n_inv_shoup=modmath.shoup_precompute(n_inv, q))
    with _twiddle_lock:
        _twiddle_cache[key] = entry
        _twiddle_cache.move_to_end(key)
        while len(_twiddle_cache) > TWIDDLE_CACHE_SIZE:
            _twiddle_cache.popitem(last=False)
            instrument.count("ckks.ntt_tables.evicted")
    return entry


def twiddle_cache_info() -> dict:
    """Size/bound of the twiddle-table cache (tests use it)."""
    with _twiddle_lock:
        return {"size": len(_twiddle_cache), "maxsize": TWIDDLE_CACHE_SIZE}


def clear_twiddle_cache() -> None:
    with _twiddle_lock:
        _twiddle_cache.clear()


def _owned_copy(array) -> np.ndarray:
    """One fresh C-contiguous int64 copy of ``array``.

    The transforms run in place, so a private buffer is always needed —
    but ``ascontiguousarray(x).copy()`` copied *twice* whenever the
    input was non-contiguous or non-int64; ``np.array(copy=True)``
    allocates the contiguous destination and copies exactly once.
    """
    return np.array(array, dtype=np.int64, order="C", copy=True)


def _check_prime_width(q: int) -> None:
    """Reject primes the lazy ``[0, 2q)`` Shoup bound cannot hold for."""
    if q >= 1 << modmath.MAX_PRIME_BITS:
        raise ParameterError(
            f"prime {q} is not below 2^{modmath.MAX_PRIME_BITS}")


class NttContext:
    """Precomputed NTT tables for one prime ``q`` and ring degree ``N``.

    Requires ``q ≡ 1 (mod 2N)`` so that a primitive 2N-th root of unity
    ``psi`` exists — the same condition the paper exploits for its
    Montgomery reduction circuit (§VI-A).

    This class reduces with the exact ``%`` on every butterfly; it is
    the property-test oracle for :class:`BatchNttContext`'s lazy path.
    """

    def __init__(self, degree: int, q: int):
        if degree & (degree - 1) != 0:
            raise ParameterError("ring degree must be a power of two")
        _check_prime_width(q)
        if (q - 1) % (2 * degree) != 0:
            raise ParameterError(f"prime {q} is not NTT-friendly for N={degree}")
        self.degree = degree
        self.q = q
        tables = _twiddle_tables(degree, q)
        self.psi = tables.psi
        self.psis = tables.psis             # psi^bitrev(i)
        self.inv_psis = tables.inv_psis     # psi^{-bitrev(i)}
        self.n_inv = tables.n_inv
        self.psis_shoup = tables.psis_shoup
        self.inv_psis_shoup = tables.inv_psis_shoup
        self.n_inv_shoup = tables.n_inv_shoup

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT along the last axis (values in ``[0, q)``)."""
        n = self.degree
        if coeffs.shape[-1] != n:
            raise ParameterError("last axis must equal the ring degree")
        a = _owned_copy(coeffs)
        q = self.q
        t = n
        m = 1
        while m < n:
            t //= 2
            b = a.reshape(a.shape[:-1] + (m, 2, t))
            s = self.psis[m:2 * m].reshape((m, 1))
            u = b[..., 0, :].copy()
            v = b[..., 1, :] * s % q
            b[..., 0, :] = modmath.mod_add(u, v, q)
            b[..., 1, :] = modmath.mod_sub(u, v, q)
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT along the last axis."""
        n = self.degree
        if values.shape[-1] != n:
            raise ParameterError("last axis must equal the ring degree")
        a = _owned_copy(values)
        q = self.q
        t = 1
        m = n
        while m > 1:
            h = m // 2
            b = a.reshape(a.shape[:-1] + (h, 2, t))
            s = self.inv_psis[h:2 * h].reshape((h, 1))
            u = b[..., 0, :].copy()
            v = b[..., 1, :].copy()
            b[..., 0, :] = modmath.mod_add(u, v, q)
            b[..., 1, :] = modmath.mod_sub(u, v, q) * s % q
            t *= 2
            m = h
        return a * self.n_inv % q


# ---------------------------------------------------------------------------
# Butterfly op builders.
#
# The batched transform compiles each (shape, row block, path) into
# a flat list of zero-argument closures over pre-sliced views — the hot
# loop then only dispatches ufuncs, with no per-pass reshaping/slicing.
#
# Lazy kernels *stage* each pass: the strided even/odd butterfly lanes
# of the work buffer are copied into contiguous uint64 scratch, all
# arithmetic runs at full vector speed against twiddles pre-expanded to
# one value per lane, and two strided writes put the results back.  Only
# the four copies touch gappy memory — at the late passes (pair stride
# 1–4) that is the difference between one long inner loop and thousands
# of length-1 loops.  Every conditional correction is the branchless
# unsigned fold ``r = min(r, r − k·q)`` (the subtraction wraps past
# 2^64 when r < k·q, so ``min`` picks the unfolded value).
# ---------------------------------------------------------------------------


def _forward_lazy_ops(x, y, xs, ys, t1, s_p, ssh_p, q, two_q,
                      xs_v, ys_v, t1_v, wide) -> list:
    """Harvey CT butterfly: entry ``x, y ∈ [0, 4q)``, exit ``∈ [0, 4q)``.

    ``x`` is folded to ``[0, 2q)``, ``v = y·s`` Shoup-reduced to
    ``[0, 2q)`` (valid for ``y < 2^32``), then ``x' = x + v`` and
    ``y' = x − v + 2q``.  ``y < 4q ≤ 2^32`` holds for primes below
    ``2^30``; for ``wide`` blocks ``y`` is folded to ``[0, 2q)`` first.
    """
    ops = [
        lambda: np.copyto(xs_v, x),
        lambda: np.copyto(ys_v, y),
        lambda: np.subtract(xs, two_q, out=t1),
        lambda: np.minimum(xs, t1, out=xs),
    ]
    if wide:
        ops += [
            lambda: np.subtract(ys, two_q, out=t1),
            lambda: np.minimum(ys, t1, out=ys),
        ]
    return ops + [
        lambda: np.multiply(ys, ssh_p, out=t1),
        lambda: np.right_shift(t1, _SHIFT, out=t1),
        lambda: np.multiply(t1, q, out=t1),
        lambda: np.multiply(ys, s_p, out=ys),
        lambda: np.subtract(ys, t1, out=ys),
        lambda: np.subtract(xs, ys, out=t1),
        lambda: np.add(t1, two_q, out=t1),
        lambda: np.copyto(y, t1_v),
        lambda: np.add(xs, ys, out=xs),
        lambda: np.copyto(x, xs_v),
    ]


def _inverse_lazy_ops(x, y, xs, ys, t1, t2, s_p, ssh_p, q, two_q,
                      xs_v, ys_v, wide) -> list:
    """Harvey GS butterfly: entry ``x, y ∈ [0, 2q)``, exit ``∈ [0, 2q)``.

    ``x' = x + y`` folded once; ``y' = (x − y + 2q)·s`` Shoup-reduced
    (valid for a multiplicand below ``2^32``: ``x − y + 2q < 4q ≤
    2^32`` for primes below ``2^30``; ``wide`` blocks fold it to
    ``[0, 2q)`` first).
    """
    ops = [
        lambda: np.copyto(xs_v, x),
        lambda: np.copyto(ys_v, y),
        lambda: np.subtract(xs, ys, out=t1),
        lambda: np.add(t1, two_q, out=t1),
        lambda: np.add(xs, ys, out=xs),
        lambda: np.subtract(xs, two_q, out=t2),
        lambda: np.minimum(xs, t2, out=xs),
        lambda: np.copyto(x, xs_v),
    ]
    if wide:
        ops += [
            lambda: np.subtract(t1, two_q, out=t2),
            lambda: np.minimum(t1, t2, out=t1),
        ]
    return ops + [
        lambda: np.multiply(t1, ssh_p, out=t2),
        lambda: np.right_shift(t2, _SHIFT, out=t2),
        lambda: np.multiply(t2, q, out=t2),
        lambda: np.multiply(t1, s_p, out=ys),
        lambda: np.subtract(ys, t2, out=ys),
        lambda: np.copyto(y, ys_v),
    ]


def _strict_add_sub_ops(x, y, u, v, q, mask) -> list:
    """``x = (u + v) mod q`` and ``y = (u − v) mod q`` by masked
    conditional corrections.

    The strict arm is the reference the lazy path's speedup is measured
    against, so it keeps this masked sequence rather than the
    branchless folds of :func:`repro.ckks.modmath.mod_add_into`.
    """
    return [
        lambda: np.add(u, v, out=x),
        lambda: np.greater_equal(x, q, out=mask),
        lambda: np.subtract(x, q, out=x, where=mask),
        lambda: np.subtract(u, v, out=y),
        lambda: np.less(y, 0, out=mask),
        lambda: np.add(y, q, out=y, where=mask),
    ]


def _strict_ct_ops(x, y, s, q, u, v, mask) -> list:
    """Exact-``%`` CT butterfly — identical math to the per-limb oracle."""
    return [
        lambda: np.copyto(u, x),
        lambda: np.multiply(y, s, out=v),
        lambda: np.remainder(v, q, out=v),
    ] + _strict_add_sub_ops(x, y, u, v, q, mask)


def _strict_gs_ops(x, y, s, q, u, v, mask) -> list:
    """Exact-``%`` GS butterfly — identical math to the per-limb oracle."""
    return [
        lambda: np.copyto(u, x),
        lambda: np.copyto(v, y),
    ] + _strict_add_sub_ops(x, y, u, v, q, mask) + [
        lambda: np.multiply(y, s, out=y),
        lambda: np.remainder(y, q, out=y),
    ]


def _forward_fold_ops(rows, scr, q, two_q) -> list:
    """``[0, 4q) → [0, q)`` after the last forward pass (two folds)."""
    return [
        lambda: np.subtract(rows, two_q, out=scr),
        lambda: np.minimum(rows, scr, out=rows),
        lambda: np.subtract(rows, q, out=scr),
        lambda: np.minimum(rows, scr, out=rows),
    ]


def _ninv_lazy_ops(rows, scr, s, s_sh, q) -> list:
    """Final ``N^{-1}`` scaling of lazy rows in ``[0, 2q)`` → ``[0, q)``."""
    return [
        lambda: np.multiply(rows, s_sh, out=scr),
        lambda: np.right_shift(scr, _SHIFT, out=scr),
        lambda: np.multiply(scr, q, out=scr),
        lambda: np.multiply(rows, s, out=rows),
        lambda: np.subtract(rows, scr, out=rows),
        lambda: np.subtract(rows, q, out=scr),
        lambda: np.minimum(rows, scr, out=rows),
    ]


def _ninv_strict_ops(rows, s, q) -> list:
    return [
        lambda: np.multiply(rows, s, out=rows),
        lambda: np.remainder(rows, q, out=rows),
    ]


class BatchNttContext:
    """Stacked NTT tables for a whole RNS basis.

    The per-prime :class:`NttContext` twiddle tables are stacked into
    ``(L, N)`` limb planes, with the per-limb modulus broadcast as an
    ``(L, 1)`` column, so *one* vectorized butterfly pass transforms all
    limbs of a polynomial — replacing the Python loop over primes.

    Every limb row uses the Shoup/Harvey lazy-reduction butterfly: the
    twiddle multiply is the precomputed quotient pipeline ``hi = (x·s')
    >> 32; r = x·s − hi·q`` (no division), values stay lazily above
    ``q`` across passes, and a single fold after the last pass replaces
    the per-butterfly ``%``.  Row blocks holding a prime of ``2^30`` or
    more (the 31-bit base prime) add one fold of the multiplicand per
    butterfly so it stays below ``2^32``; narrower blocks skip it.
    Under ``modmath.lazy_scope(False)`` every row runs the exact ``%``
    butterfly instead.  Both paths land on the canonical ``[0, q)``
    residues, so results are bit-identical to running
    :class:`NttContext` limb by limb for every basis and any thread
    count (the property tests assert this).

    Each distinct (transform, shape, row block, path) combination is
    compiled once into an execution *plan* — a flat list of ufunc
    closures over pre-sliced views of the thread's work buffers — so
    the per-call hot loop does no reshaping, slicing, or Python-level
    bookkeeping.

    Inputs may stack several polynomials over the basis as ``(..., L,
    N)`` planes; the engine's rescale and ModDown pass a ciphertext's
    ``b`` and ``a`` through one call this way, halving their calls.
    A row block's lane-expanded twiddles and moduli are built once and
    shared by its plans of every leading shape, so a stacked plan adds
    only its own work and staging buffers.
    """

    #: Bound on cached execution plans per context.
    PLAN_CACHE_SIZE = 128

    def __init__(self, degree: int, basis: tuple, contexts=None):
        basis = tuple(basis)
        if not basis:
            raise ParameterError("batched NTT needs at least one prime")
        for q in basis:
            _check_prime_width(q)
        if contexts is None:
            contexts = [NttContext(degree, q) for q in basis]
        self.degree = degree
        self.basis = basis
        limbs = len(basis)
        self.q_col = np.array(basis, dtype=np.int64).reshape(limbs, 1)
        self.two_q_col = self.q_col * 2
        self.psis = np.stack([c.psis for c in contexts])          # (L, N)
        self.inv_psis = np.stack([c.inv_psis for c in contexts])  # (L, N)
        self.psis_shoup = np.stack([c.psis_shoup for c in contexts])
        self.inv_psis_shoup = np.stack([c.inv_psis_shoup for c in contexts])
        self.n_inv_col = np.array([c.n_inv for c in contexts],
                                  dtype=np.int64).reshape(limbs, 1)
        self.n_inv_shoup_col = np.array(
            [c.n_inv_shoup for c in contexts],
            dtype=np.uint64).reshape(limbs, 1)
        self._scratch: dict = {}
        self._scratch_lock = threading.Lock()
        self._plans: OrderedDict = OrderedDict()
        self._lanes: dict = {}

    def _buffers(self, shape: tuple):
        """``(work, staging)`` buffers of a ``(..., Lb, N)`` row block,
        reused across calls.

        ``work`` (int64, ``shape``) holds the block while its passes
        run; ``staging`` is four contiguous uint64 lane buffers of
        ``(..., Lb, N/2)``.  Keyed per **thread** as well as per shape:
        the threaded path runs one butterfly block per pool thread, and
        the buffers are written concurrently — a shared set would race.
        A thread runs one transform at a time, so its forward and
        inverse plans of one shape share the set; pool threads are
        long-lived, so it is reused across calls just like the serial
        path's.
        """
        key = (threading.get_ident(), shape)
        with self._scratch_lock:
            buffers = self._scratch.get(key)
            if buffers is None:
                instrument.count("ckks.scratch.miss")
            else:
                instrument.count("ckks.scratch.hit")
        if buffers is None:
            half = shape[:-1] + (self.degree // 2,)
            buffers = (np.empty(shape, dtype=np.int64),
                       np.empty((4,) + half, dtype=np.uint64))
            with self._scratch_lock:
                self._scratch[key] = buffers
        return buffers

    def _prepare(self, array: np.ndarray, kind: str) -> tuple:
        """``(owned copy, lazy)`` of one call's input, with the call,
        limb-row and per-path row counters bumped once."""
        limbs = len(self.basis)
        if array.ndim < 2 or array.shape[-1] != self.degree:
            raise ParameterError("last axis must equal the ring degree")
        if array.shape[-2] != limbs:
            raise ParameterError(
                f"second-to-last axis has {array.shape[-2]} limbs; "
                f"basis has {limbs}")
        instrument.count(f"ckks.batch_ntt.{kind}")
        if array.ndim == 2:
            planes = 1
        else:
            planes = int(np.prod(array.shape[:-2], dtype=np.int64) or 1)
        instrument.count("ckks.batch_ntt.limbs", limbs * planes)
        lazy = modmath.lazy_enabled()
        instrument.count("ckks.modmath.shoup" if lazy
                         else "ckks.modmath.strict_fallback", limbs * planes)
        return _owned_copy(array), lazy

    def _plan(self, kind: str, shape: tuple, rlo: int, lazy: bool,
              buffers: tuple) -> list:
        key = (threading.get_ident(), kind, shape, rlo, lazy)
        with self._scratch_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        if plan is None:
            plan = self._build_plan(kind, shape, rlo, lazy, buffers)
            with self._scratch_lock:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self.PLAN_CACHE_SIZE:
                    self._plans.popitem(last=False)
        return plan

    def _build_plan(self, kind: str, shape: tuple, rlo: int, lazy: bool,
                    buffers: tuple) -> list:
        """Compile one transform into a closure list.

        ``shape`` is the row block's ``(..., Lb, N)`` shape, ``rlo`` its
        first absolute limb row, ``lazy`` the butterfly path, and
        ``buffers`` the :meth:`_buffers` set for its shape — the same
        objects on every later call (``_buffers`` never replaces an
        entry), so the compiled views stay valid.
        """
        n = self.degree
        w, staging = buffers
        rows = slice(rlo, rlo + shape[-2])
        forward = kind == "forward"
        stages = []
        if forward:
            t, m = n, 1
            while m < n:
                t //= 2
                stages.append((m, t))
                m *= 2
        else:
            t, m = 1, n
            while m > 1:
                m //= 2
                stages.append((m, t))
                t *= 2
        if lazy:
            return self._lazy_ops(w, staging, forward, rows, stages)
        return self._strict_ops(w, staging, forward, rows, stages)

    def _lane_table(self, key: tuple, build):
        """A read-only lane table of one row block, built once.

        Shared by the plans of every thread and leading shape: each
        ``(Lb, N/2)`` table broadcasts over any stack of limb planes,
        so a stacked plan adds only its own work and staging buffers.
        """
        with self._scratch_lock:
            table = self._lanes.get(key)
        if table is None:
            table = build()
            for plane in table:
                plane.flags.writeable = False
            with self._scratch_lock:
                table = self._lanes.setdefault(key, table)
        return table

    def _lazy_ops(self, w: np.ndarray, staging: np.ndarray, forward: bool,
                  rows: slice, stages: list) -> list:
        """Harvey butterfly passes plus the canonicalizing epilogue."""
        wu = w.view(np.uint64)
        lead, limbs = w.shape[:-2], w.shape[-2]
        half_n = self.degree // 2
        q_u = self.q_col[rows].view(np.uint64)
        two_q_u = self.two_q_col[rows].view(np.uint64)
        # The moduli and twiddles expanded to one value per lane: a
        # same-shape ufunc operand takes numpy's contiguous fast path,
        # where an (Lb, 1) column or an (Lb, m, 1) twiddle block would
        # go through the slower broadcasting iterator on every pass.
        q_lane, two_q_lane = self._lane_table(
            ("moduli", rows.start, rows.stop),
            lambda: (np.repeat(q_u, half_n, axis=1),
                     np.repeat(two_q_u, half_n, axis=1)))
        psis_u = (self.psis if forward else self.inv_psis)[rows].view(
            np.uint64)
        shoup = (self.psis_shoup if forward else self.inv_psis_shoup)[rows]
        # Each of the m twiddles of a pass repeats across its t-run.
        twiddles = self._lane_table(
            (forward, rows.start, rows.stop),
            lambda: [np.repeat(table[:, m:2 * m], t, axis=1)
                     for m, t in stages for table in (psis_u, shoup)])
        wide = max(self.basis[rows]) >= _WIDE_PRIME
        # Contiguous uint64 staging shared by all passes (each pass
        # moves limbs·N/2 lane values); its first two buffers double as
        # the epilogue's full-width scratch.
        xs, ys, t1, t2 = staging
        ops: list = []
        for i, (m, t) in enumerate(stages):
            bu = wu.reshape(lead + (limbs, m, 2, t))
            lane = lead + (limbs, m, t)
            common = dict(
                x=bu[..., 0, :], y=bu[..., 1, :], xs=xs, ys=ys, t1=t1,
                s_p=twiddles[2 * i], ssh_p=twiddles[2 * i + 1], q=q_lane,
                two_q=two_q_lane, xs_v=xs.reshape(lane),
                ys_v=ys.reshape(lane), wide=wide)
            if forward:
                ops += _forward_lazy_ops(t1_v=t1.reshape(lane), **common)
            else:
                ops += _inverse_lazy_ops(t2=t2, **common)
        # Epilogue: fold to canonical [0, q); the inverse additionally
        # scales every row by N^{-1}.
        scr = staging[:2].reshape(w.shape)
        if forward:
            return ops + _forward_fold_ops(wu, scr, q_u, two_q_u)
        return ops + _ninv_lazy_ops(
            wu, scr, self.n_inv_col[rows].view(np.uint64),
            self.n_inv_shoup_col[rows], q_u)

    def _strict_ops(self, w: np.ndarray, staging: np.ndarray,
                    forward: bool, rows: slice, stages: list) -> list:
        """Exact-``%`` butterfly passes (the ``lazy_scope(False)`` arm),
        staging their operands in the lane buffers."""
        lead, limbs = w.shape[:-2], w.shape[-2]
        u_buf, v_buf = staging[0].view(np.int64), staging[1].view(np.int64)
        mask_buf = np.empty(staging.shape[1:], dtype=bool)
        psis = (self.psis if forward else self.inv_psis)[rows]
        q3 = self.q_col[rows].reshape(limbs, 1, 1)
        build = _strict_ct_ops if forward else _strict_gs_ops
        ops: list = []
        for m, t in stages:
            b = w.reshape(lead + (limbs, m, 2, t))
            s3 = lead + (limbs, m, t)
            ops += build(x=b[..., 0, :], y=b[..., 1, :],
                         s=psis[:, m:2 * m].reshape(limbs, m, 1), q=q3,
                         u=u_buf.reshape(s3), v=v_buf.reshape(s3),
                         mask=mask_buf.reshape(s3))
        if not forward:
            ops += _ninv_strict_ops(w, self.n_inv_col[rows],
                                    self.q_col[rows])
        return ops

    def _run(self, a: np.ndarray, kind: str, rlo: int, rhi: int,
             lazy: bool) -> None:
        """Transform limb rows ``[rlo, rhi)`` of ``a`` in place."""
        rows = a[..., rlo:rhi, :]
        buffers = self._buffers(rows.shape)
        ops = self._plan(kind, rows.shape, rlo, lazy, buffers)
        w = buffers[0]
        np.copyto(w, rows)
        for op in ops:
            op()
        np.copyto(rows, w)

    def _transform(self, values: np.ndarray, kind: str) -> np.ndarray:
        a, lazy = self._prepare(values, kind)

        def work(lo: int, hi: int) -> None:
            self._run(a, kind, lo, hi, lazy)
        if limb_threads.run_blocks(len(self.basis), work) > 1:
            instrument.count("ckks.batch_ntt.threaded")
        return a

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT of every limb plane (axes ``(..., L, N)``).

        Leading axes stack polynomials over this basis (a ciphertext's
        ``b`` and ``a`` as ``(2, L, N)``), so one call transforms all
        of them.  At any rank the limb rows split into contiguous
        blocks across the shared thread pool: each block copies its
        rows of every plane into its thread's work buffer, so a
        non-contiguous block view costs one copy in and one out.
        """
        return self._transform(coeffs, "forward")

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT of every limb plane."""
        return self._transform(values, "inverse")


def negacyclic_convolution(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Schoolbook negacyclic convolution — O(N^2) reference for tests."""
    n = a.shape[-1]
    out = np.zeros(n, dtype=np.int64)
    a = a.astype(object)
    b = b.astype(object)
    result = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                result[k - n] -= term
            else:
                result[k] += term
    for k in range(n):
        out[k] = result[k] % q
    return out
