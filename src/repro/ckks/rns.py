"""RNS polynomial representation.

A polynomial ``a ∈ R_Q`` is stored as an ``(L, N)`` ``int64`` matrix of
residues — one row (limb) per prime of the RNS basis, exactly the view
the paper uses (§II-A).  Polynomials can live in coefficient or NTT
(evaluation) form; most CKKS ops keep them NTT-applied.

Several polynomials over one basis can be stacked as ``(P, L, N)``
planes (:meth:`RnsPolynomial.stack`), so a domain change or basis
conversion of all of them is one batched call — how rescale and
ModDown pass a ciphertext's ``b`` and ``a`` through INTT → BConv → NTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.ckks import modmath
from repro.ckks.ntt import BatchNttContext, NttContext
from repro.errors import ParameterError
from repro.faults import guard as _fault_guard


@lru_cache(maxsize=None)
def ntt_context(degree: int, q: int) -> NttContext:
    """Shared, cached NTT tables per (degree, prime)."""
    return NttContext(degree, q)


@lru_cache(maxsize=None)
def batch_ntt_context(degree: int, basis: tuple) -> BatchNttContext:
    """Shared, cached batched NTT engine per (degree, basis).

    Built from the cached per-prime contexts so both paths share the
    exact same twiddle tables.
    """
    return BatchNttContext(
        degree, basis, contexts=[ntt_context(degree, q) for q in basis])


@lru_cache(maxsize=None)
def modulus_column(basis: tuple) -> np.ndarray:
    """``(L, 1)`` int64 column of the basis primes for broadcasting."""
    return np.array(basis, dtype=np.int64).reshape(len(basis), 1)


#: Bound on the cached ``(source, target)`` row selectors of
#: :meth:`RnsPolynomial.restrict`.  A leveled run restricts between a
#: few dozen basis pairs (each level's prefix, digit groups, P and Q
#: parts); 256 keeps them all resident while capping growth.
ROW_SELECTOR_CACHE_SIZE = 256


@lru_cache(maxsize=ROW_SELECTOR_CACHE_SIZE)
def row_selector(src_basis: tuple, dst_basis: tuple):
    """Rows of ``src_basis`` holding ``dst_basis``'s primes, in order.

    A ``slice`` when they are contiguous (restricting is then a view
    plus one copy), else a read-only index array (a fancy index, which
    copies once by itself).  Raises :class:`ParameterError` naming a
    prime ``src_basis`` lacks.
    """
    index = {q: i for i, q in enumerate(src_basis)}
    try:
        rows = [index[q] for q in dst_basis]
    except KeyError as exc:
        raise ParameterError(f"prime {exc} not in source basis") from exc
    start = rows[0] if rows else 0
    if rows == list(range(start, start + len(rows))):
        return slice(start, start + len(rows))
    rows = np.array(rows, dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _take_rows(array: np.ndarray, rows) -> np.ndarray:
    """One fresh copy of the limb rows ``rows`` of ``(..., L, N)`` planes."""
    picked = array[..., rows, :]
    return picked.copy() if isinstance(rows, slice) else picked


def basis_product(basis: tuple) -> int:
    """Product of all primes in a basis (an exact Python int)."""
    prod = 1
    for q in basis:
        prod *= q
    return prod


@dataclass
class RnsPolynomial:
    """A polynomial in RNS form over an explicit prime basis.

    ``coeffs`` has shape ``(len(basis), degree)``; ``coeffs[i]`` is the
    limb modulo ``basis[i]``.  ``is_ntt`` tracks whether limbs hold
    evaluation-domain values.

    Leading axes ``(P, L, N)`` stack ``P`` polynomials over the same
    basis as planes.  Domain changes, :meth:`restrict` and BConv treat
    every plane alike in one call; element-wise arithmetic and CRT
    reconstruction are for single ``(L, N)`` polynomials (split a
    stack with :meth:`planes`).
    """

    coeffs: np.ndarray
    basis: tuple
    is_ntt: bool = False
    #: Cached Shoup dual ``floor(coeffs · 2^32 / q)`` (uint64), computed
    #: by :meth:`ensure_shoup` for constant operands that are multiplied
    #: many times (plaintext diagonals, monomials, key limbs).  Never
    #: recomputed on mutation — only set on polynomials used as
    #: immutable cached constants.
    shoup: np.ndarray | None = field(default=None, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.coeffs.ndim < 2:
            raise ParameterError("RNS coefficients must be at least 2-D")
        if self.coeffs.shape[-2] != len(self.basis):
            raise ParameterError(
                f"{self.coeffs.shape[-2]} limbs but {len(self.basis)} primes")
        if self.coeffs.dtype != np.int64:
            self.coeffs = self.coeffs.astype(np.int64)

    # -- Constructors --------------------------------------------------------

    @staticmethod
    def zero(degree: int, basis: tuple, is_ntt: bool = True) -> "RnsPolynomial":
        """The zero polynomial (zero in both domains)."""
        return RnsPolynomial(
            np.zeros((len(basis), degree), dtype=np.int64), basis, is_ntt)

    @staticmethod
    def from_int_coeffs(values, basis: tuple) -> "RnsPolynomial":
        """Reduce arbitrary (possibly signed / big) integer coefficients.

        ``values`` may be a Python-int sequence or an object-dtype array;
        residues are taken per prime, so values larger than 63 bits are
        handled exactly.
        """
        arr = np.asarray(values, dtype=object)
        limbs = np.empty((len(basis), arr.shape[0]), dtype=np.int64)
        for i, q in enumerate(basis):
            limbs[i] = (arr % q).astype(np.int64)
        return RnsPolynomial(limbs, tuple(basis), is_ntt=False)

    @staticmethod
    def random_uniform(degree: int, basis: tuple,
                       rng: np.random.Generator,
                       is_ntt: bool = True) -> "RnsPolynomial":
        """Uniformly random polynomial (fresh randomness per limb)."""
        limbs = np.empty((len(basis), degree), dtype=np.int64)
        for i, q in enumerate(basis):
            limbs[i] = rng.integers(0, q, size=degree, dtype=np.int64)
        return RnsPolynomial(limbs, tuple(basis), is_ntt)

    @staticmethod
    def stack(polys: Sequence["RnsPolynomial"],
              basis: tuple | None = None) -> "RnsPolynomial":
        """``(P, L, N)`` planes of ``polys``, restricted to ``basis``.

        Every polynomial must share one basis and domain.  ``basis``
        (default: theirs) selects limb rows as :meth:`restrict` does,
        straight into the stacked array.
        """
        first = polys[0]
        for poly in polys[1:]:
            first._check_compatible(poly)
        basis = first.basis if basis is None else tuple(basis)
        rows = row_selector(first.basis, basis)
        out = np.empty((len(polys), len(basis), first.degree),
                       dtype=np.int64)
        for plane, poly in zip(out, polys):
            plane[...] = poly.coeffs[rows]
        return RnsPolynomial(out, basis, first.is_ntt)

    def planes(self) -> list:
        """The stacked polynomials of ``(P, L, N)`` planes (views)."""
        return [RnsPolynomial(plane, self.basis, self.is_ntt)
                for plane in self.coeffs]

    # -- Domain changes -------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def limb_count(self) -> int:
        return self.coeffs.shape[-2]

    def to_ntt(self) -> "RnsPolynomial":
        """Return the NTT-applied copy (no-op if already applied).

        All limbs are transformed in one batched butterfly pass
        (bit-identical to looping :class:`NttContext` over the primes).
        """
        if self.is_ntt:
            return self.copy()
        out = batch_ntt_context(self.degree, self.basis).forward(self.coeffs)
        return RnsPolynomial(out, self.basis, is_ntt=True)

    def from_ntt(self) -> "RnsPolynomial":
        """Return the coefficient-domain copy (no-op if already there)."""
        if not self.is_ntt:
            return self.copy()
        out = batch_ntt_context(self.degree, self.basis).inverse(self.coeffs)
        return RnsPolynomial(out, self.basis, is_ntt=False)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.coeffs.copy(), self.basis, self.is_ntt,
                             self.shoup)

    def ensure_shoup(self) -> "RnsPolynomial":
        """Precompute and cache the Shoup dual of every limb.

        Residue rows whose prime exceeds the lazy bound get a dual too
        (it is computable for any ``q < 2^31``) — the per-limb dispatch
        simply never reads those rows.  Returns ``self`` for chaining.
        """
        if self.shoup is None:
            self.shoup = modmath.shoup_precompute(
                self.coeffs, modulus_column(self.basis))
        return self

    # -- Element-wise arithmetic ----------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ParameterError("RNS bases differ")
        if self.is_ntt != other.is_ntt:
            raise ParameterError("operands are in different domains")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        q_col = modulus_column(self.basis)
        out = np.empty_like(self.coeffs)
        modmath.mod_add_into(self.coeffs, other.coeffs, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "add", (self.coeffs, other.coeffs), out, q_col,
                lambda buf: modmath.mod_add_into(
                    self.coeffs, other.coeffs, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        q_col = modulus_column(self.basis)
        out = np.empty_like(self.coeffs)
        modmath.mod_sub_into(self.coeffs, other.coeffs, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "sub", (self.coeffs, other.coeffs), out, q_col,
                lambda buf: modmath.mod_sub_into(
                    self.coeffs, other.coeffs, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        q_col = modulus_column(self.basis)
        out = np.empty_like(self.coeffs)
        modmath.mod_neg_into(self.coeffs, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "neg", (self.coeffs,), out, q_col,
                lambda buf: modmath.mod_neg_into(self.coeffs, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Polynomial product — requires both operands NTT-applied."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ParameterError("polynomial mult requires NTT form")
        q_col = modulus_column(self.basis)
        out = np.empty_like(self.coeffs)
        # A precomputed Shoup dual on either operand turns the per-limb
        # ``%`` into the divide-free mul/shift/sub pipeline on every row
        # (any prime below 2^31) — bit-identical either way.
        const, plain = None, None
        if modmath.lazy_enabled():
            if other.shoup is not None:
                const, plain = other, self
            elif self.shoup is not None:
                const, plain = self, other
        if const is not None:
            modmath.shoup_mod_mul_into(plain.coeffs, const.coeffs,
                                       const.shoup, q_col, out)
        else:
            modmath.mod_mul_into(self.coeffs, other.coeffs, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "mul", (self.coeffs, other.coeffs), out, q_col,
                lambda buf: modmath.mod_mul_into(
                    self.coeffs, other.coeffs, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def scalar_mul(self, constants) -> "RnsPolynomial":
        """Multiply by per-limb scalar constants (or one shared int)."""
        if isinstance(constants, int):
            constants = [constants] * self.limb_count
        if len(constants) != self.limb_count:
            raise ParameterError("need one constant per limb")
        q_col = modulus_column(self.basis)
        col = np.array([int(c) % q for c, q in zip(constants, self.basis)],
                       dtype=np.int64).reshape(-1, 1)
        out = np.empty_like(self.coeffs)
        modmath.mod_mul_into(self.coeffs, col, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "scalar", (self.coeffs,), out, q_col,
                lambda buf: modmath.mod_mul_into(self.coeffs, col, q_col,
                                                 buf),
                scalars=col)
        return RnsPolynomial(out, self.basis, self.is_ntt)

    # -- Basis manipulation -----------------------------------------------------

    def restrict(self, basis: tuple) -> "RnsPolynomial":
        """Keep only the limbs whose primes appear in ``basis`` (in order).

        The result owns its rows: each is copied exactly once.
        """
        basis = tuple(basis)
        rows = row_selector(self.basis, basis)
        dual = None if self.shoup is None else _take_rows(self.shoup, rows)
        return RnsPolynomial(_take_rows(self.coeffs, rows), basis,
                             self.is_ntt, dual)

    def concat(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Stack limbs of two polynomials over disjoint bases."""
        if self.is_ntt != other.is_ntt:
            raise ParameterError("operands are in different domains")
        if set(self.basis) & set(other.basis):
            raise ParameterError("bases overlap")
        return RnsPolynomial(
            np.vstack([self.coeffs, other.coeffs]),
            self.basis + other.basis, self.is_ntt)

    # -- Exact reconstruction ----------------------------------------------------

    def to_int_coeffs(self, centered: bool = True) -> np.ndarray:
        """CRT-recompose to exact big-int coefficients (object dtype).

        With ``centered`` the result lies in ``(-Q/2, Q/2]``, the signed
        representative used when decoding.
        """
        poly = self.from_ntt()
        big_q = basis_product(self.basis)
        out = np.zeros(self.degree, dtype=object)
        for i, q in enumerate(self.basis):
            q_hat = big_q // q
            q_hat_inv = modmath.mod_inverse(q_hat % q, q)
            weight = q_hat * q_hat_inv
            out = (out + poly.coeffs[i].astype(object) * weight) % big_q
        if centered:
            out = np.where(out > big_q // 2, out - big_q, out)
        return out
