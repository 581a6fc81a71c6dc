"""Modular arithmetic primitives for RNS-CKKS.

All bulk operations work on ``numpy.int64`` arrays holding residues in
``[0, q)`` for word-sized primes ``q``.  The paper (§VI-A) uses 28-bit
primes satisfying ``q ≡ 1 (mod 2N)`` — the NTT-friendliness condition —
so products of two residues fit comfortably in a signed 64-bit integer
(``2^28 * 2^28 = 2^56 < 2^63``).  We allow primes up to 31 bits, which
keeps the same safety margin, and validate that bound at prime
generation time and at NTT context construction.  The lazy Shoup/Harvey
kernels below cover that whole range, so no prime width needs a
separate code path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.ckks import instrument
from repro.errors import ParameterError

#: Largest prime bit width for which ``int64`` products cannot overflow.
MAX_PRIME_BITS = 31

#: Shift of the Shoup precomputed quotient: ``s' = floor(s·2^32 / q)``.
SHOUP_SHIFT = 32

_SHIFT_U64 = np.uint64(SHOUP_SHIFT)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are sufficient for all n < 3.3 * 10^24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_primes(count: int, n_degree: int, bits: int = 28) -> list[int]:
    """Generate ``count`` distinct NTT-friendly primes ``q ≡ 1 (mod 2N)``.

    Primes are chosen just below ``2**bits``, descending, mirroring the
    paper's choice of primes smaller than ``2^28`` (Table IV).
    """
    if bits > MAX_PRIME_BITS:
        raise ParameterError(
            f"prime width {bits} exceeds int64-safe bound {MAX_PRIME_BITS}")
    if bits < 2:
        raise ParameterError("prime width must be at least 2 bits")
    step = 2 * n_degree
    primes: list[int] = []
    # Largest candidate of the form k * 2N + 1 below 2**bits.
    candidate = ((1 << bits) - 2) // step * step + 1
    while len(primes) < count and candidate > step:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ParameterError(
            f"could not find {count} primes ≡ 1 mod {step} below 2^{bits}")
    return primes


def generate_scale_primes(count: int, n_degree: int, bits: int = 28) -> list[int]:
    """Generate primes alternating just above/below ``2**bits``.

    Rescaling divides the scale by the dropped prime, so primes close to
    the scaling factor keep the scale stable across levels (standard
    RNS-CKKS practice).  The first prime returned is the largest; callers
    typically use it as the base prime ``q_0``.
    """
    if bits >= MAX_PRIME_BITS:
        raise ParameterError(
            f"scale prime width {bits} must leave headroom below "
            f"{MAX_PRIME_BITS} bits")
    step = 2 * n_degree
    target = 1 << bits
    primes: list[int] = []
    lo = target // step * step + 1
    hi = lo + step
    while len(primes) < count:
        if hi < (1 << MAX_PRIME_BITS) and is_prime(hi):
            primes.append(hi)
            if len(primes) == count:
                break
        if lo > step and is_prime(lo):
            primes.append(lo)
        lo -= step
        hi += step
        if hi >= (1 << (MAX_PRIME_BITS + 1)):
            raise ParameterError("ran out of scale prime candidates")
    return primes


def primitive_root(q: int) -> int:
    """Find the smallest primitive root modulo prime ``q``."""
    factors = _factorize(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for {q}")


def root_of_unity(order: int, q: int) -> int:
    """Return a primitive ``order``-th root of unity modulo prime ``q``."""
    if (q - 1) % order != 0:
        raise ParameterError(f"{order} does not divide {q}-1")
    g = primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # pow(g, (q-1)/order) always has order dividing `order`; verify exact.
    if pow(root, order // 2, q) == 1:
        raise ParameterError(f"root has smaller order than {order}")
    return root


def _factorize(n: int) -> set[int]:
    """Return the set of prime factors of ``n`` (trial division)."""
    factors: set[int] = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.add(n)
    return factors


def mod_inverse(a: int, q: int) -> int:
    """Modular inverse of ``a`` modulo ``q`` (q prime or a coprime)."""
    return pow(a, -1, q)


# ---------------------------------------------------------------------------
# Vectorized residue arithmetic.  Inputs are int64 arrays with values in
# [0, q); outputs satisfy the same invariant.
# ---------------------------------------------------------------------------

def mod_add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a + b) mod q``."""
    c = a + b
    return np.where(c >= q, c - q, c)


def mod_sub(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a - b) mod q``."""
    c = a - b
    return np.where(c < 0, c + q, c)


def mod_neg(a: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(-a) mod q``."""
    return np.where(a == 0, a, q - a)


def mod_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a * b) mod q`` — safe for primes ≤ 31 bits."""
    return a * b % q


def mod_mul_scalar(a: np.ndarray, c: int, q: int) -> np.ndarray:
    """Element-wise ``(a * c) mod q`` for a scalar constant ``c``."""
    return a * (c % q) % q


def mod_mac(a: np.ndarray, b: np.ndarray, acc: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a * b + acc) mod q``.

    ``a·b mod q`` and ``acc`` both lie in ``[0, q)``, so their sum is
    below ``2q`` and one conditional subtraction replaces the second
    ``%`` pass.
    """
    c = a * b % q + acc
    return np.where(c >= q, c - q, c)


# ---------------------------------------------------------------------------
# Allocation-free (``out=``-style) variants.  Same semantics as the pure
# functions above on canonical operands, computed straight into ``out``
# with no mask and no ``np.where``.  Each correction is the branchless
# unsigned fold ``r = min(r, r ∓ q)`` on ``uint64`` views: when no
# correction is due, ``r ∓ q`` wraps past 2^64 (or lands above ``r``),
# so ``min`` keeps ``r``.  Residues never exceed ``2^62``, so the
# int64/uint64 reinterpretation is value-preserving.  ``a``, ``b`` and
# ``out`` may be int64 or uint64 arrays and ``out`` may alias an
# operand.  ``q`` may be a scalar or any array broadcastable against
# ``out`` (e.g. the ``(L, 1)`` per-limb modulus column of an RNS
# matrix), which is what lets one call process every limb of a
# polynomial at once.
# ---------------------------------------------------------------------------

def _u64(x):
    """``uint64`` view of an array, or a ``uint64`` scalar."""
    if isinstance(x, np.ndarray):
        return x.view(np.uint64)
    return np.uint64(x)


def mod_add_into(a, b, q, out: np.ndarray) -> np.ndarray:
    """``out[:] = (a + b) mod q``: ``a + b`` folded by ``min(r, r − q)``."""
    r = _u64(out)
    np.add(_u64(a), _u64(b), out=r)
    np.minimum(r, r - _u64(q), out=r)
    return out


def mod_sub_into(a, b, q, out: np.ndarray) -> np.ndarray:
    """``out[:] = (a − b) mod q``: the wrapped ``a − b`` folded by
    ``min(r, r + q)``."""
    r = _u64(out)
    np.subtract(_u64(a), _u64(b), out=r)
    np.minimum(r, r + _u64(q), out=r)
    return out


def mod_neg_into(a, q, out: np.ndarray) -> np.ndarray:
    """``out[:] = (-a) mod q``: ``q − a`` folded by ``min(r, r − q)``
    (only ``a = 0`` gives ``r = q``, which folds to 0)."""
    r = _u64(out)
    qu = _u64(q)
    np.subtract(qu, _u64(a), out=r)
    np.minimum(r, r - qu, out=r)
    return out


def mod_mul_into(a, b, q, out: np.ndarray) -> np.ndarray:
    """``out[:] = (a * b) mod q`` — operands must be residues in [0, q)."""
    np.multiply(a, b, out=out)
    np.remainder(out, q, out=out)
    return out


# ---------------------------------------------------------------------------
# Lazy-reduction Shoup/Harvey kernels.
#
# For every prime ``q < 2^31`` the hardware-divide ``%`` in the hot
# kernels is replaced by Shoup's precomputed-quotient multiply: with
# ``s' = floor(s · 2^32 / q)`` precomputed once per constant operand
# ``s``,
#
#     hi = (x · s') >> 32;   r = x·s − hi·q
#
# satisfies ``r ≡ x·s (mod q)`` and ``r ∈ [0, 2q)`` for any ``x < 2^32``
# — a mul/shift/mul/sub pipeline with no division, exactly the datapath
# of Anaheim's MMAC multiplier units (§IV).  Values are kept *lazily* in
# ``[0, 2q)`` or ``[0, 4q)`` between butterfly passes; one conditional
# subtraction per pass replaces the per-butterfly ``%``, and
# :func:`reduce_final_into` folds back to ``[0, q)`` at the end, so
# results are bit-identical to the strict path.  Every multiplicand is
# kept below ``2q < 2^32`` (the butterflies fold a ``[0, 4q)`` operand
# once before multiplying when ``4q`` may exceed ``2^32``), so
# ``x·s' < 2^64`` and ``x·s < 2^63``.  All kernels operate on ``uint64``
# views of the ``int64`` residue buffers (values never exceed ``2^62``,
# so the reinterpretation is value-preserving).
#
# The exact ``%`` kernels above remain the differential oracle: the
# whole engine runs on them under ``lazy_scope(False)``.
# ---------------------------------------------------------------------------

_lazy_enabled = True
_lazy_lock = threading.Lock()


def lazy_enabled() -> bool:
    """Whether the lazy Shoup kernels are active (process-wide)."""
    return _lazy_enabled


def set_lazy_enabled(flag: bool) -> None:
    """Enable/disable the lazy kernels (``False`` forces the ``%`` path
    everywhere — the benchmark and the property tests use this to pit
    the two paths against each other on identical inputs)."""
    global _lazy_enabled
    with _lazy_lock:
        _lazy_enabled = bool(flag)


@contextmanager
def lazy_scope(flag: bool):
    """Temporarily force the lazy kernels on or off."""
    previous = lazy_enabled()
    set_lazy_enabled(flag)
    try:
        yield
    finally:
        set_lazy_enabled(previous)


def shoup_precompute(s, q):
    """Shoup dual ``floor(s · 2^32 / q)`` of residues ``s ∈ [0, q)``.

    Scalar ints return a Python int; arrays return ``uint64`` (``q`` may
    be an ``(L, 1)`` modulus column broadcast against an ``(L, N)``
    residue matrix).  Valid for any ``q < 2^31`` (``s << 32 < 2^63``).
    """
    if isinstance(s, (int, np.integer)):
        return (int(s) << SHOUP_SHIFT) // int(q)
    s = np.asarray(s).astype(np.uint64)
    q = np.asarray(q).astype(np.uint64)
    return (s << _SHIFT_U64) // q


def shoup_mul(x, s, s_shoup, q) -> np.ndarray:
    """Lazy product ``x·s mod q`` in ``[0, 2q)`` (pure; int64 result).

    Requires ``q < 2^31``, ``s ∈ [0, q)``, ``x < 2^32``.
    """
    x = np.asarray(x).astype(np.uint64)
    s = np.asarray(s).astype(np.uint64)
    s_shoup = np.asarray(s_shoup).astype(np.uint64)
    q = np.asarray(q).astype(np.uint64)
    hi = (x * s_shoup) >> _SHIFT_U64
    return (x * s - hi * q).astype(np.int64)


def shoup_mul_into(x, s, s_shoup, q, out: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """``out[:] = x·s − ((x·s') >> 32)·q ∈ [0, 2q)`` — all ``uint64``.

    ``hi`` is caller scratch of ``out``'s shape.  ``out`` may alias
    ``x`` (``x`` is fully consumed before ``out`` is first written).
    """
    np.multiply(x, s_shoup, out=hi)
    np.right_shift(hi, _SHIFT_U64, out=hi)
    np.multiply(hi, q, out=hi)
    np.multiply(x, s, out=out)
    np.subtract(out, hi, out=out)
    return out


def reduce_final(a, q) -> np.ndarray:
    """Map lazy values in ``[0, 2q)`` back to canonical ``[0, q)``."""
    return np.where(a >= q, a - q, a)


def reduce_final_into(a, q) -> np.ndarray:
    """In-place ``[0, 2q) → [0, q)``: the fold ``min(a, a − q)``."""
    r = _u64(a)
    np.minimum(r, r - _u64(q), out=r)
    return a


def shoup_mod_mul_into(x, s, s_shoup, q_col, out: np.ndarray) -> np.ndarray:
    """``out[:] = (x * s) mod q`` per limb row, divide-free.

    ``x``/``s`` are ``(L, N)`` int64 residue matrices over the basis of
    modulus column ``q_col``, with ``s_shoup`` the precomputed
    ``uint64`` dual of ``s``.  Canonical inputs (``x < q < 2^31``) keep
    one Shoup pass valid for every row.  Output is canonical ``[0, q)``
    — bit-identical to :func:`mod_mul_into`.
    """
    instrument.count("ckks.modmath.shoup", len(q_col))
    ou = out.view(np.uint64)
    qu = q_col.view(np.uint64)
    shoup_mul_into(x.view(np.uint64), s.view(np.uint64), s_shoup, qu,
                   out=ou, hi=np.empty(ou.shape, dtype=np.uint64))
    reduce_final_into(ou, qu)
    return out


def barrett_precompute(q: int, width: int = 64) -> int:
    """Precompute the Barrett constant ``floor(2^width / q)``."""
    return (1 << width) // q


class MontgomeryContext:
    """Montgomery-form modular multiplication for a single prime.

    The paper's MMAC units implement Montgomery reduction exploiting
    ``q ≡ 1 (mod 2N)`` (§VI-A) with operands truncated to 28 bits.  This
    class is the functional reference for that circuit: values are kept
    in Montgomery form ``a·R mod q`` with ``R = 2^r_bits``, and
    :meth:`mul` performs the textbook REDC.  The default radix of 2^28
    keeps every intermediate below 2^57, safely inside ``int64``.
    """

    def __init__(self, q: int, r_bits: int = 28):
        if q % 2 == 0:
            raise ParameterError("Montgomery modulus must be odd")
        if q >= (1 << r_bits):
            raise ParameterError("modulus exceeds Montgomery radix")
        if 2 * r_bits + 1 >= 63:
            raise ParameterError("Montgomery radix too wide for int64 REDC")
        self.q = q
        self.r_bits = r_bits
        self.r = 1 << r_bits
        self.r_mask = self.r - 1
        self.r_mod_q = self.r % q
        self.r2_mod_q = self.r_mod_q * self.r_mod_q % q
        # q' such that q * q' ≡ -1 (mod R)
        self.q_inv_neg = (-mod_inverse(q, self.r)) % self.r

    def to_mont(self, a: np.ndarray) -> np.ndarray:
        """Convert residues into Montgomery form."""
        return self.mul(a, np.int64(self.r2_mod_q))

    def from_mont(self, a: np.ndarray) -> np.ndarray:
        """Convert Montgomery-form values back to plain residues."""
        return self._redc(a.astype(np.int64))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Montgomery product ``a * b * R^{-1} mod q`` (vectorized REDC)."""
        return self._redc(a * b)

    def _redc(self, t: np.ndarray) -> np.ndarray:
        # m = (t mod R) * q' mod R; u = (t + m*q) / R
        m = (t & self.r_mask) * self.q_inv_neg & self.r_mask
        u = (t + m * self.q) >> self.r_bits
        return np.where(u >= self.q, u - self.q, u)
