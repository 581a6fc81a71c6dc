"""Tests for CKKS bootstrapping at reduced ring degree."""

import numpy as np
import pytest

from repro.ckks.bootstrap import (Bootstrapper, mod_raise,
                                  special_fft_matrix)
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator
from repro.errors import LevelError, ParameterError
from repro.params import CkksParams


@pytest.fixture(scope="module")
def boot_setup():
    params = CkksParams.create(degree=2 ** 7, level_count=15, aux_count=4,
                               prime_bits=28, base_prime_bits=31)
    keygen = KeyGenerator(params, seed=11)
    keys = keygen.generate(sparse_secret=True)
    ev = CkksEvaluator(params, keys)
    bts = Bootstrapper(ev, keygen)
    return params, ev, bts


class TestSpecialFft:
    def test_matrix_matches_encoder_embedding(self):
        from repro.ckks.encoder import embed
        degree = 64
        n = degree // 2
        e0 = special_fft_matrix(degree)
        rng = np.random.default_rng(0)
        c = np.zeros(degree)
        c[:n] = rng.normal(size=n)
        assert np.allclose(embed(c, degree), e0 @ c[:n], atol=1e-9)

    def test_second_half_contributes_i_times_e0(self):
        from repro.ckks.encoder import embed
        degree = 64
        n = degree // 2
        e0 = special_fft_matrix(degree)
        rng = np.random.default_rng(1)
        c = np.zeros(degree)
        c[n:] = rng.normal(size=n)
        assert np.allclose(embed(c, degree), 1j * (e0 @ c[n:]), atol=1e-9)

    def test_invertible(self):
        e0 = special_fft_matrix(64)
        assert np.linalg.cond(e0) < 1e3


class TestModRaise:
    def test_requires_single_limb(self, boot_setup):
        params, ev, _ = boot_setup
        ct = ev.encrypt_message(np.ones(params.slot_count))
        with pytest.raises(ParameterError):
            mod_raise(ct, tuple(params.moduli))

    def test_raised_decrypts_to_message_plus_q0_multiple(self, boot_setup):
        params, ev, _ = boot_setup
        rng = np.random.default_rng(2)
        m = 0.3 * rng.normal(size=params.slot_count)
        ct = ev.drop_to_basis(ev.encrypt_message(m), tuple(params.moduli[:1]))
        raised = mod_raise(ct, tuple(params.moduli))
        coeffs = ev.decrypt(raised).poly.to_int_coeffs().astype(np.float64)
        q0 = params.moduli[0]
        residue = coeffs - q0 * np.round(coeffs / q0)
        # The residue mod q0 is the plaintext (plus noise), and I is small.
        assert np.abs(coeffs / q0).max() < 16
        expect = ev.decrypt(ct).poly.to_int_coeffs().astype(np.float64)
        expect = expect - q0 * np.round(expect / q0)
        assert np.abs(residue - expect).max() < 2


class TestBootstrap:
    def test_end_to_end_precision(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(9)
        m = 0.3 * (rng.normal(size=params.slot_count)
                   + 1j * rng.normal(size=params.slot_count))
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        dec = ev.decrypt_message(out)
        assert np.abs(dec - m).max() < 5e-3

    def test_restores_levels(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(10)
        m = 0.2 * rng.normal(size=params.slot_count)
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        assert out.level_count >= 2
        assert out.level_count == params.level_count - bts.depth()

    def test_output_supports_multiplication(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(11)
        m = 0.3 * rng.normal(size=params.slot_count)
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        squared = ev.multiply(out, out)
        got = ev.decrypt_message(squared).real
        assert np.abs(got - m * m).max() < 5e-3

    def test_insufficient_levels_raises(self):
        params = CkksParams.create(degree=2 ** 7, level_count=6, aux_count=2,
                                   prime_bits=28, base_prime_bits=31)
        keygen = KeyGenerator(params, seed=1)
        keys = keygen.generate(sparse_secret=True)
        ev = CkksEvaluator(params, keys)
        bts = Bootstrapper(ev, keygen)
        m = np.ones(params.slot_count) * 0.1
        ct = ev.drop_to_basis(ev.encrypt_message(m), tuple(params.moduli[:1]))
        with pytest.raises(LevelError):
            bts.bootstrap(ct)

    def test_depth_matches_config(self, boot_setup):
        _, _, bts = boot_setup
        # CtS + StC + normalize(2) + the degree-79 split plan
        assert bts.depth() == 2 + 2 + 7
