"""Tests for Galois automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import modmath
from repro.ckks.automorphism import (apply_automorphism, conjugation_element,
                                     galois_element)
from repro.ckks.rns import RnsPolynomial
from repro.errors import ParameterError

N = 64
BASIS = tuple(modmath.generate_primes(2, N, bits=26))


#: NTT-friendly up to N = 2^11 (so for every smaller degree too), with
#: 26-, 28- and 31-bit primes; the 31-bit one is above 2^30.
MIXED_BASIS = (tuple(modmath.generate_primes(2, 2048, bits=26))
               + tuple(modmath.generate_primes(2, 2048, bits=28))
               + tuple(modmath.generate_primes(1, 2048, bits=31)))


def _random_poly(seed):
    rng = np.random.default_rng(seed)
    return RnsPolynomial.random_uniform(N, BASIS, rng, is_ntt=False)


class TestGaloisElements:
    def test_rotation_elements_are_powers_of_five(self):
        assert galois_element(0, N) == 1
        assert galois_element(1, N) == 5
        assert galois_element(2, N) == 25 % (2 * N)

    def test_rotation_wraps_mod_half_slots(self):
        assert galois_element(N // 2, N) == galois_element(0, N)

    def test_conjugation_element(self):
        assert conjugation_element(N) == 2 * N - 1


class TestApplyAutomorphism:
    def test_identity(self):
        p = _random_poly(0)
        out = apply_automorphism(p, 1)
        assert np.array_equal(out.coeffs, p.coeffs)

    def test_composition(self):
        p = _random_poly(1)
        g1 = galois_element(1, N)
        g2 = galois_element(2, N)
        sequential = apply_automorphism(apply_automorphism(p, g1), g2)
        combined = apply_automorphism(p, g1 * g2 % (2 * N))
        assert np.array_equal(sequential.coeffs, combined.coeffs)

    def test_inverse_restores(self):
        p = _random_poly(2)
        g = galois_element(3, N)
        g_inv = pow(g, -1, 2 * N)
        restored = apply_automorphism(apply_automorphism(p, g), g_inv)
        assert np.array_equal(restored.coeffs, p.coeffs)

    def test_sign_flip_on_wrap(self):
        # φ_g(X) = X^g; for coefficient index i with i*g >= N (mod 2N)
        # the coefficient lands negated.
        coeffs = np.zeros((1, N), dtype=np.int64)
        coeffs[0, N - 1] = 1  # X^{N-1}
        p = RnsPolynomial(coeffs, BASIS[:1], is_ntt=False)
        out = apply_automorphism(p, 5)
        # (N-1)*5 mod 2N for N=64: 315 mod 128 = 59 < N, no flip here;
        # verify against a direct evaluation instead.
        idx = (N - 1) * 5 % (2 * N)
        q = BASIS[0]
        if idx >= N:
            assert out.coeffs[0, idx - N] == q - 1
        else:
            assert out.coeffs[0, idx] == 1

    def test_even_galois_rejected(self):
        p = _random_poly(3)
        for poly in (p, p.to_ntt()):
            with pytest.raises(ParameterError):
                apply_automorphism(poly, 2)

    def test_preserves_domain_flag(self):
        p = _random_poly(4).to_ntt()
        out = apply_automorphism(p, 5)
        assert out.is_ntt

    def test_ntt_domain_consistency(self):
        """Automorphism commutes with the (I)NTT round-trip."""
        p = _random_poly(5)
        via_coeff = apply_automorphism(p, 5).to_ntt()
        via_ntt = apply_automorphism(p.to_ntt(), 5)
        assert np.array_equal(via_coeff.coeffs, via_ntt.coeffs)

    def test_slot_rotation_semantics(self, small_context, rng, small_params):
        """φ_{5^r} rotates the decoded slot vector left by r."""
        from repro.ckks.cipher import Plaintext
        n = small_params.slot_count
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        enc = small_context.encoder
        pt = enc.encode(u)
        g = galois_element(3, small_params.degree)
        rotated = Plaintext(poly=apply_automorphism(pt.poly, g),
                            scale=pt.scale)
        got = enc.decode(rotated)
        assert np.abs(got - np.roll(u, -3)).max() < 1e-5


@st.composite
def ntt_cases(draw):
    """(polynomial, Galois element) over degrees 2^4–2^11 and a random
    limb subset of the mixed basis."""
    degree = 1 << draw(st.integers(4, 11))
    basis = tuple(draw(st.lists(st.sampled_from(MIXED_BASIS), min_size=1,
                                max_size=len(MIXED_BASIS), unique=True)))
    galois = draw(st.one_of(
        st.integers(0, degree).map(lambda r: galois_element(r, degree)),
        st.just(conjugation_element(degree))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return RnsPolynomial.random_uniform(degree, basis, rng,
                                        is_ntt=False), galois


class TestNttDomainPermutation:
    """The evaluation-domain gather against the coefficient-domain
    oracle: ``φ_g(p.to_ntt()) == φ_g(p).to_ntt()``, bit for bit."""

    @given(ntt_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_coefficient_oracle(self, case):
        p, g = case
        ntt = p.to_ntt()
        got = apply_automorphism(ntt, g)
        want = apply_automorphism(ntt.from_ntt(), g).to_ntt()
        assert got.is_ntt and got.basis == p.basis
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_does_not_alias_its_input(self):
        p = _random_poly(6).to_ntt()
        before = p.coeffs.copy()
        out = apply_automorphism(p, 5)
        out.coeffs[:] = 0
        assert np.array_equal(p.coeffs, before)
