"""Homomorphic linear transforms: baseline, hoisting, MinKS, and BSGS.

Implements the diagonal-packing method (§III-B): for a matrix ``M`` on
the slot vector, ``y = Σ_i d_i ⊙ (u ≪ i)`` where ``d_i`` is the i-th
generalized diagonal of ``M``.  Four evaluation strategies:

* ``baseline`` — K independent HROT + PMULT evaluations (Fig. 1 left).
* ``hoisting`` — the paper's reordered flow (Fig. 5): one shared ModUp,
  per-rotation KeyMult with modified evks [8], PMULT with preprocessed
  plaintexts in the extended modulus, AutAccum, and a single ModDown.
* ``minks`` — minimum key-switching [32], [46]: one evk reused
  iteratively (requires consecutive diagonal indices).
* ``bsgs`` — baby-step giant-step split (used "whenever applicable").

All strategies compute identical results up to CKKS noise, which the
test suite verifies — the paper's claim that the optimizations "do not
damage the precision" (§V-B).
"""

from __future__ import annotations

import numpy as np

from repro.ckks import automorphism, instrument
from repro.ckks.cipher import Ciphertext
from repro.ckks.keys import EvaluationKey, KeyGenerator
from repro.ckks.keyswitch import decompose_digits, key_mult, mod_down
from repro.errors import EvalKeyError, ParameterError


def matrix_diagonals(matrix: np.ndarray, tolerance: float = 1e-12) -> dict:
    """Extract the nonzero generalized diagonals of a slot matrix.

    ``d_i[t] = M[t, (t+i) mod n]``; diagonals with max magnitude below
    ``tolerance`` are dropped.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ParameterError("matrix must be square")
    diagonals = {}
    rows = np.arange(n)
    for shift in range(n):
        diag = matrix[rows, (rows + shift) % n]
        if np.abs(diag).max() > tolerance:
            diagonals[shift] = diag
    return diagonals


class LinearTransform:
    """A homomorphic linear transform bound to an evaluator.

    ``diagonals`` maps rotation distance -> length-``N/2`` complex
    diagonal vector.  The required rotation keys depend on the strategy:
    :meth:`required_rotations` reports them so callers can generate the
    right key set (MinKS needs 4× fewer evks — Fig. 1 table).
    """

    def __init__(self, evaluator, diagonals: dict):
        self.evaluator = evaluator
        n = evaluator.params.slot_count
        self.diagonals = {}
        for shift, diag in diagonals.items():
            diag = np.asarray(diag, dtype=np.complex128)
            if diag.size != n:
                raise ParameterError(
                    f"diagonal {shift} has {diag.size} slots; expected {n}")
            self.diagonals[int(shift) % n] = diag
        #: Encoded plaintext diagonals keyed by (shift, roll, basis,
        #: scale) — the diagonals are fixed at construction, so repeated
        #: apply() calls reuse the encodings instead of re-running
        #: encoder.encode (the dominant cost of small transforms).
        self._plaintext_cache: dict = {}

    @classmethod
    def from_matrix(cls, evaluator, matrix: np.ndarray) -> "LinearTransform":
        return cls(evaluator, matrix_diagonals(matrix))

    # -- Key requirements ---------------------------------------------------

    def required_rotations(self, method: str = "hoisting") -> list:
        shifts = sorted(s for s in self.diagonals if s != 0)
        if method in ("baseline", "hoisting"):
            return shifts
        if method == "minks":
            return [1] if shifts else []
        if method == "bsgs":
            baby, giant = self._bsgs_split()
            needed = set()
            for shift in shifts:
                needed.add(shift % baby)
                needed.add(shift - shift % baby)
            needed.discard(0)
            return sorted(needed)
        raise ParameterError(f"unknown method {method!r}")

    def _bsgs_split(self) -> tuple:
        count = max(len(self.diagonals), 1)
        baby = max(1, int(round(np.sqrt(count))))
        giant = -(-count // baby)
        return baby, giant

    # -- Evaluation strategies -----------------------------------------------

    def apply(self, ct: Ciphertext, method: str = "hoisting") -> Ciphertext:
        if method == "baseline":
            return self._apply_baseline(ct)
        if method == "hoisting":
            return self._apply_hoisting(ct)
        if method == "minks":
            return self._apply_minks(ct)
        if method == "bsgs":
            return self._apply_bsgs(ct)
        raise ParameterError(f"unknown method {method!r}")

    def _encode_diag(self, diag: np.ndarray, basis: tuple):
        return self.evaluator.encoder.encode(diag, basis=basis)

    def _cached_diag(self, shift: int, roll: int, basis: tuple):
        """Encoded ``np.roll(diagonals[shift], roll)`` — cached.

        Every strategy encodes deterministic transforms of the stored
        diagonals, so (shift, roll, basis, scale) identifies the
        plaintext exactly.  Consumers never mutate plaintext polynomials
        (all RNS ops allocate fresh outputs), so sharing is safe.
        """
        scale = self.evaluator.params.scale
        key = (shift, roll, basis, scale)
        plaintext = self._plaintext_cache.get(key)
        if plaintext is None:
            instrument.count("ckks.diag_cache.miss")
            diag = self.diagonals[shift]
            if roll:
                diag = np.roll(diag, roll)
            plaintext = self._encode_diag(diag, basis)
            # Diagonal plaintexts are reused across every apply(); attach
            # the Shoup dual once so each ct*pt multiply is divide-free.
            plaintext.poly.ensure_shoup()
            self._plaintext_cache[key] = plaintext
        else:
            instrument.count("ckks.diag_cache.hit")
        return plaintext

    def _apply_baseline(self, ct: Ciphertext) -> Ciphertext:
        """K HROTs, each a full ModUp→KeyMult→ModDown, then PMULT+add."""
        ev = self.evaluator
        acc = None
        for shift in sorted(self.diagonals):
            rotated = ev.rotate(ct, shift) if shift else ct
            p = self._cached_diag(shift, 0, rotated.basis)
            term = ev.mul_plain(rotated, p, rescale=False)
            acc = term if acc is None else ev.add(acc, term)
        return ev.rescale(acc)

    def _apply_minks(self, ct: Ciphertext) -> Ciphertext:
        """Iterative rotation reusing the single distance-1 evk.

        MinKS walks rotation-by-rotation; gaps between the diagonal
        indices are simply skipped (still only evk_1 is consumed).
        """
        ev = self.evaluator
        shifts = sorted(self.diagonals)
        acc = None
        state = ct
        position = 0
        for shift in shifts:
            while position < shift:
                state = ev.rotate(state, 1)
                position += 1
            p = self._cached_diag(shift, 0, state.basis)
            term = ev.mul_plain(state, p, rescale=False)
            acc = term if acc is None else ev.add(acc, term)
        return ev.rescale(acc)

    def _apply_bsgs(self, ct: Ciphertext) -> Ciphertext:
        """Baby-step giant-step: ≈2√K rotations instead of K."""
        ev = self.evaluator
        baby, _ = self._bsgs_split()
        baby_rotated = {0: ct}
        for shift in sorted(self.diagonals):
            k = shift % baby
            if k not in baby_rotated:
                baby_rotated[k] = ev.rotate(ct, k)
        outer: dict = {}
        for shift in self.diagonals:
            k = shift % baby
            g = shift - k
            # Pre-rotate the diagonal right by g so the giant rotation
            # can be applied after the inner accumulation.
            p = self._cached_diag(shift, g, baby_rotated[k].basis)
            term = ev.mul_plain(baby_rotated[k], p, rescale=False)
            outer[g] = term if g not in outer else ev.add(outer[g], term)
        acc = None
        for g, inner in sorted(outer.items()):
            inner = ev.rescale(inner)
            rotated = ev.rotate(inner, g) if g else inner
            acc = rotated if acc is None else ev.add(acc, rotated)
        return acc

    def _apply_hoisting(self, ct: Ciphertext) -> Ciphertext:
        """The paper's reordered hoisted flow (Fig. 5).

        ModUp(a) once; per rotation: KeyMult with the hoisting evk
        (which targets φ_r^{-1}(s) so the automorphism commutes past
        it), PMULT with the right-rotated plaintext p̂ in the extended
        modulus, then automorphism + accumulation (AutAccum); ModDown
        once at the end.
        """
        ev = self.evaluator
        degree = ev.params.degree
        digits, indices, target = decompose_digits(ct.a, ev.decomp)
        acc_b_pq = None    # extended-modulus accumulators
        acc_a_pq = None
        acc_b_q = None     # message-part accumulator, basis Q
        acc_a_q = None
        for shift in sorted(self.diagonals):
            # p ≫ R preprocessing (§V-B): the diagonal is pre-rotated by
            # its own shift before encoding.
            if shift == 0:
                p = self._cached_diag(0, 0, ct.basis)
                term_b = ct.b * p.poly
                term_a = ct.a * p.poly
                acc_b_q = term_b if acc_b_q is None else acc_b_q + term_b
                acc_a_q = term_a if acc_a_q is None else acc_a_q + term_a
                continue
            evk = self._hoisting_key(shift)
            galois = automorphism.galois_element(shift, degree)
            kb, ka = self._key_mult_restricted(digits, indices, target, evk)
            p_ext = self._cached_diag(shift, shift, target)  # extended modulus
            p_q = self._cached_diag(shift, shift, ct.basis)
            term_b = automorphism.apply_automorphism(kb * p_ext.poly, galois)
            term_a = automorphism.apply_automorphism(ka * p_ext.poly, galois)
            msg_b = automorphism.apply_automorphism(ct.b * p_q.poly, galois)
            acc_b_pq = term_b if acc_b_pq is None else acc_b_pq + term_b
            acc_a_pq = term_a if acc_a_pq is None else acc_a_pq + term_a
            acc_b_q = msg_b if acc_b_q is None else acc_b_q + msg_b
        p_scale = self.evaluator.params.scale
        out_scale = ct.scale * p_scale
        if acc_b_pq is not None:
            down_b, down_a = mod_down((acc_b_pq, acc_a_pq), ct.basis,
                                      ev.decomp.aux_moduli)
            acc_b_q = down_b if acc_b_q is None else acc_b_q + down_b
            acc_a_q = down_a if acc_a_q is None else acc_a_q + down_a
        result = Ciphertext(b=acc_b_q, a=acc_a_q, scale=out_scale)
        return ev.rescale(result)

    def _key_mult_restricted(self, digits, indices, target, evk):
        evk.ensure_shoup()
        acc_b = None
        acc_a = None
        for digit, j in zip(digits, indices):
            term_b = digit * evk.b_polys[j].restrict(target)
            term_a = digit * evk.a_polys[j].restrict(target)
            acc_b = term_b if acc_b is None else acc_b + term_b
            acc_a = term_a if acc_a is None else acc_a + term_a
        return acc_b, acc_a

    def _hoisting_key(self, shift: int) -> EvaluationKey:
        keys = self.evaluator.keys
        hoisting = getattr(keys, "hoisting_rotations", None)
        if not hoisting or shift not in hoisting:
            raise EvalKeyError(
                f"no hoisting rotation key for distance {shift}; generate "
                "with generate_hoisting_keys()")
        return hoisting[shift]


def generate_hoisting_keys(keygen: KeyGenerator, secret, distances) -> dict:
    """Generate the modified evks hoisting needs ([8], §V-B).

    A hoisting key for distance ``r`` switches *from* ``s`` *to*
    ``φ_r^{-1}(s)``: applying ``φ_r`` to the KeyMult output then yields a
    ciphertext under ``s`` carrying ``φ_r(a)·φ_r(s)``, letting the
    automorphism move after KeyMult, PMULT, and accumulation.
    """
    degree = keygen.params.degree
    slot_count = degree // 2
    out = {}
    for distance in distances:
        inverse = automorphism.galois_element(
            (-distance) % slot_count, degree)
        target_secret = automorphism.apply_automorphism(
            secret.poly, inverse)
        out[distance] = _switching_key_to_target(
            keygen, source_poly=secret.poly, target_poly=target_secret)
    return out


def _switching_key_to_target(keygen: KeyGenerator, source_poly,
                             target_poly) -> EvaluationKey:
    """Switching key encoding ``source`` decryptable under ``target``."""
    basis = keygen.full_basis
    src = source_poly.restrict(basis)
    tgt = target_poly.restrict(basis)
    b_polys = []
    a_polys = []
    for j in range(keygen.decomp.dnum):
        gadget = keygen.decomp.gadget_values(j)
        a_j = keygen.uniform(basis)
        e_j = keygen.gaussian_error(basis)
        b_j = -(a_j * tgt) + e_j + src.scalar_mul(gadget)
        b_polys.append(b_j)
        a_polys.append(a_j)
    return EvaluationKey(b_polys=b_polys, a_polys=a_polys)
