"""Homomorphic evaluation of the basic CKKS functions (§II-A).

Implements HADD, HSUB, PMULT, HMULT, HROT and conjugation along with
encryption, decryption, rescaling, and level management.  HMULT and HROT
follow the §II-B structure: decompose → ModUp → KeyMult → ModDown (plus
automorphism for HROT).
"""

from __future__ import annotations

import numpy as np

from repro.ckks import automorphism, instrument
from repro.ckks.cipher import (Ciphertext, Plaintext, check_same_basis,
                               check_same_scale)
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyGenerator, KeySet
from repro.ckks.keyswitch import (DigitDecomposition, key_switch,
                                  rescale_poly)
from repro.ckks.rns import RnsPolynomial
from repro.errors import LevelError, ParameterError


class CkksEvaluator:
    """Stateful evaluator bound to a parameter set and a key set."""

    def __init__(self, params, keys: KeySet, seed: int = 7):
        self.params = params
        self.keys = keys
        self.encoder = CkksEncoder(params)
        self.rng = np.random.default_rng(seed)
        self.decomp = DigitDecomposition(
            moduli=tuple(params.moduli),
            aux_moduli=tuple(params.aux_moduli),
            aux_count=params.aux_count)
        #: NTT-applied monomial multipliers keyed by (power, basis) —
        #: mul_by_i alone is called once per bootstrap stage, and the
        #: monomial only depends on the power and the basis.
        self._monomial_cache: dict = {}

    # -- Encryption --------------------------------------------------------

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption of an encoded message."""
        basis = plaintext.basis
        pk = self.keys.public
        v_coeffs = self.rng.integers(-1, 2, self.params.degree)
        v = RnsPolynomial.from_int_coeffs(
            [int(x) for x in v_coeffs], basis).to_ntt()
        e0 = self._error(basis)
        e1 = self._error(basis)
        b = pk.b.restrict(basis) * v + e0 + plaintext.poly
        a = pk.a.restrict(basis) * v + e1
        return Ciphertext(b=b, a=a, scale=plaintext.scale)

    def encrypt_message(self, message, scale: float | None = None) -> Ciphertext:
        return self.encrypt(self.encoder.encode(message, scale=scale))

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        s = self.keys.secret.restricted(ciphertext.basis)
        poly = ciphertext.b + ciphertext.a * s
        return Plaintext(poly=poly, scale=ciphertext.scale)

    def decrypt_message(self, ciphertext: Ciphertext,
                        slots: int | None = None) -> np.ndarray:
        return self.encoder.decode(self.decrypt(ciphertext), slots=slots)

    def _error(self, basis: tuple) -> RnsPolynomial:
        values = np.round(self.rng.normal(
            0.0, self.params.error_std, self.params.degree)).astype(np.int64)
        return RnsPolynomial.from_int_coeffs(
            [int(v) for v in values], basis).to_ntt()

    # -- Level / scale management -------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop one multiplicative level.

        Removes ``params.primes_per_level`` primes — one for classic
        RNS-CKKS, two under double-prime scaling ([1], [45]).
        """
        steps = getattr(self.params, "primes_per_level", 1)
        if ct.level_count < steps + 1:
            raise LevelError("no level left to rescale")
        b, a, scale = ct.b, ct.a, ct.scale
        for _ in range(steps):
            scale /= b.basis[-1]
            b = rescale_poly(b)
            a = rescale_poly(a)
        return Ciphertext(b=b, a=a, scale=scale)

    def drop_to_basis(self, ct: Ciphertext, basis: tuple) -> Ciphertext:
        """Discard limbs so the ciphertext lives on ``basis`` (a prefix)."""
        if tuple(ct.basis[:len(basis)]) != tuple(basis):
            raise ParameterError("target basis is not a prefix of current")
        return Ciphertext(b=ct.b.restrict(basis), a=ct.a.restrict(basis),
                          scale=ct.scale)

    def match_levels(self, x: Ciphertext, y: Ciphertext):
        """Drop limbs of the deeper operand so both share a basis."""
        n = min(x.level_count, y.level_count)
        basis = x.basis[:n]
        if y.basis[:n] != basis:
            raise ParameterError("operand bases disagree on shared prefix")
        return self.drop_to_basis(x, basis), self.drop_to_basis(y, basis)

    # -- Element-wise functions (HADD / PMULT family) -------------------------

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        """HADD — element-wise message addition."""
        x, y = self.match_levels(x, y)
        check_same_scale(x, y)
        return Ciphertext(b=x.b + y.b, a=x.a + y.a, scale=x.scale)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        x, y = self.match_levels(x, y)
        check_same_scale(x, y)
        return Ciphertext(b=x.b - y.b, a=x.a - y.a, scale=x.scale)

    def negate(self, x: Ciphertext) -> Ciphertext:
        return Ciphertext(b=-x.b, a=-x.a, scale=x.scale)

    def add_plain(self, x: Ciphertext, p: Plaintext) -> Ciphertext:
        check_same_scale(x, p)
        poly = p.poly.restrict(x.basis)
        return Ciphertext(b=x.b + poly, a=x.a.copy(), scale=x.scale)

    def mul_plain(self, x: Ciphertext, p: Plaintext,
                  rescale: bool = True) -> Ciphertext:
        """PMULT — multiply by an encoded plaintext."""
        poly = p.poly.restrict(x.basis)
        out = Ciphertext(b=x.b * poly, a=x.a * poly,
                         scale=x.scale * p.scale)
        return self.rescale(out) if rescale else out

    def mul_scalar(self, x: Ciphertext, value: complex,
                   rescale: bool = True,
                   scale: float | None = None) -> Ciphertext:
        """Multiply every slot by one scalar (encoded as a constant).

        A real constant ``v`` at encoding scale Δ is the constant
        polynomial ``round(v·Δ)``, the same integer at every NTT point,
        so it multiplies the limbs directly; complex-typed constants go
        through the encoder.  ``scale`` overrides the encoding scale —
        useful for equalizing operand scales in deep circuits.
        """
        if np.iscomplexobj(value):
            p = self._encode_constant(value, x.basis, scale)
            return self.mul_plain(x, p, rescale=rescale)
        scale = float(self.params.scale if scale is None else scale)
        k = _scaled_integer(value, scale)
        out = Ciphertext(b=x.b.scalar_mul(k), a=x.a.scalar_mul(k),
                         scale=x.scale * scale)
        return self.rescale(out) if rescale else out

    def mul_scalar_precise(self, x: Ciphertext, value: complex,
                           depth: int = 2) -> Ciphertext:
        """Multiply by a scalar with extra precision and zero scale drift.

        The constant is encoded at the exact product of the next
        ``depth`` primes to be dropped, then rescaled ``depth`` times:
        the result scale equals ``x.scale`` exactly, and tiny constants
        (e.g. ``1/radius`` in EvalMod) keep ~``depth × prime_bits`` bits
        of precision instead of one prime's worth.
        """
        steps = getattr(self.params, "primes_per_level", 1)
        n_primes = depth * steps
        if x.level_count <= n_primes:
            raise LevelError(f"need {depth} spare levels for precise mul")
        scale = 1.0
        for q in x.basis[-n_primes:]:
            scale *= q
        out = self.mul_scalar(x, value, rescale=False, scale=scale)
        for _ in range(depth):
            out = self.rescale(out)
        return out

    def adjust_scale_to(self, x: Ciphertext, target_scale: float) -> Ciphertext:
        """Bring ``x`` exactly to ``target_scale``, consuming one level.

        Multiplies by 1 encoded at ``q_last·target/current`` and
        rescales; used to re-align operands whose scales drifted apart
        along different multiplication paths (e.g. Chebyshev basis
        polynomials of different depth).
        """
        steps = getattr(self.params, "primes_per_level", 1)
        if x.level_count < steps + 1:
            raise LevelError("need a spare level to adjust the scale")
        dropped = 1.0
        for q in x.basis[-steps:]:
            dropped *= q
        enc_scale = dropped * target_scale / x.scale
        out = self.mul_scalar(x, 1.0, rescale=False, scale=enc_scale)
        out = self.rescale(out)
        out.scale = float(target_scale)
        return out

    def add_scalar(self, x: Ciphertext, value: complex) -> Ciphertext:
        """Add one scalar to every slot (no level consumed).

        A real constant adds ``round(value·scale)`` at every NTT point;
        complex-typed constants go through the encoder.
        """
        if np.iscomplexobj(value):
            p = self._encode_constant(value, x.basis, x.scale)
            return self.add_plain(x, p)
        k = _scaled_integer(value, x.scale)
        column = np.array([k % q for q in x.basis], dtype=np.int64)
        const = RnsPolynomial(np.repeat(column[:, None], x.b.degree, axis=1),
                              x.basis, is_ntt=True)
        return Ciphertext(b=x.b + const, a=x.a.copy(), scale=x.scale)

    def _encode_constant(self, value: complex, basis: tuple,
                         scale: float | None) -> Plaintext:
        message = np.full(self.params.degree // 2, value, dtype=np.complex128)
        return self.encoder.encode(message, basis=basis, scale=scale)

    def mul_monomial(self, x: Ciphertext, power: int) -> Ciphertext:
        """Multiply by the exact monomial ``X^power`` (scale-free).

        ``X^{N/2}`` multiplies every slot by ``i`` — used to recombine
        the real/imaginary halves during bootstrapping.
        """
        degree = self.params.degree
        power = power % (2 * degree)
        key = (power, x.basis)
        mono = self._monomial_cache.get(key)
        if mono is None:
            instrument.count("ckks.monomial_cache.miss")
            coeffs = [0] * degree
            if power < degree:
                coeffs[power] = 1
            else:
                coeffs[power - degree] = -1
            mono = RnsPolynomial.from_int_coeffs(coeffs, x.basis).to_ntt()
            # Cached monomials are constant multipliers; the Shoup dual
            # makes every reuse a divide-free mul/shift/sub.
            mono.ensure_shoup()
            self._monomial_cache[key] = mono
        else:
            instrument.count("ckks.monomial_cache.hit")
        return Ciphertext(b=x.b * mono, a=x.a * mono, scale=x.scale)

    def mul_by_i(self, x: Ciphertext) -> Ciphertext:
        """Multiply every slot by the imaginary unit (exact, scale-free)."""
        return self.mul_monomial(x, self.params.degree // 2)

    # -- Key-switching functions (HMULT / HROT family) --------------------------

    def multiply(self, x: Ciphertext, y: Ciphertext,
                 rescale: bool = True) -> Ciphertext:
        """HMULT — element-wise message multiplication with relinearization."""
        if self.keys.relin is None:
            raise ParameterError("key set lacks a relinearization key")
        x, y = self.match_levels(x, y)
        d0 = x.b * y.b                       # Tensor instruction (Table II)
        d1 = x.a * y.b + x.b * y.a
        d2 = x.a * y.a
        ks_b, ks_a = key_switch(d2, self.keys.relin, self.decomp)
        out = Ciphertext(b=d0 + ks_b, a=d1 + ks_a, scale=x.scale * y.scale)
        return self.rescale(out) if rescale else out

    def square(self, x: Ciphertext, rescale: bool = True) -> Ciphertext:
        """Squaring via the TensorSq pattern."""
        if self.keys.relin is None:
            raise ParameterError("key set lacks a relinearization key")
        d0 = x.b * x.b
        d1 = (x.a * x.b).scalar_mul(2)
        d2 = x.a * x.a
        ks_b, ks_a = key_switch(d2, self.keys.relin, self.decomp)
        out = Ciphertext(b=d0 + ks_b, a=d1 + ks_a, scale=x.scale * x.scale)
        return self.rescale(out) if rescale else out

    def rotate(self, x: Ciphertext, distance: int) -> Ciphertext:
        """HROT — cyclic rotation of the slot vector by ``distance``."""
        distance = distance % (self.params.degree // 2)
        if distance == 0:
            return x.copy()
        evk = self.keys.rotation_key(distance)
        galois = automorphism.galois_element(distance, self.params.degree)
        rotated_b = automorphism.apply_automorphism(x.b, galois)
        rotated_a = automorphism.apply_automorphism(x.a, galois)
        ks_b, ks_a = key_switch(rotated_a, evk, self.decomp)
        return Ciphertext(b=rotated_b + ks_b, a=ks_a, scale=x.scale)

    def conjugate(self, x: Ciphertext) -> Ciphertext:
        """Complex conjugation of every slot."""
        if self.keys.conjugation is None:
            raise ParameterError("key set lacks a conjugation key")
        galois = automorphism.conjugation_element(self.params.degree)
        conj_b = automorphism.apply_automorphism(x.b, galois)
        conj_a = automorphism.apply_automorphism(x.a, galois)
        ks_b, ks_a = key_switch(conj_a, self.keys.conjugation, self.decomp)
        return Ciphertext(b=conj_b + ks_b, a=ks_a, scale=x.scale)


def _scaled_integer(value: float, scale: float) -> int:
    """``round(value·scale)``, computed exactly on the two floats."""
    num, den = float(value).as_integer_ratio()
    scale_num, scale_den = float(scale).as_integer_ratio()
    num, den = num * scale_num, den * scale_den
    return (2 * num + den) // (2 * den)


def make_context(params, rotations=(), include_conjugation: bool = False,
                 sparse_secret: bool = False, seed: int = 2025,
                 hoisting_rotations=()):
    """Convenience: generate keys and build an evaluator in one call."""
    keygen = KeyGenerator(params, seed=seed)
    keys = keygen.generate(rotations=rotations,
                           include_conjugation=include_conjugation,
                           sparse_secret=sparse_secret,
                           hoisting_rotations=hoisting_rotations)
    return CkksEvaluator(params, keys, seed=seed + 1)
