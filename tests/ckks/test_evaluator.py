"""End-to-end tests of the homomorphic basic functions (§II-A)."""

import numpy as np
import pytest

from repro.errors import EvalKeyError, LevelError, ScaleMismatchError

TOL = 2e-3


def _msg(rng, n, magnitude=1.0):
    return magnitude * (rng.normal(size=n) + 1j * rng.normal(size=n))


class TestEncryptDecrypt:
    def test_roundtrip(self, small_context, message):
        ct = small_context.encrypt_message(message)
        assert np.abs(small_context.decrypt_message(ct) - message).max() < TOL

    def test_fresh_noise_is_small(self, small_context, message):
        ct = small_context.encrypt_message(message)
        err = np.abs(small_context.decrypt_message(ct) - message).max()
        assert err < 1e-3

    def test_two_encryptions_differ(self, small_context, message):
        c1 = small_context.encrypt_message(message)
        c2 = small_context.encrypt_message(message)
        assert not np.array_equal(c1.a.coeffs, c2.a.coeffs)


class TestAdditive:
    def test_hadd(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        v = _msg(rng, small_params.slot_count)
        out = small_context.add(small_context.encrypt_message(u),
                                small_context.encrypt_message(v))
        assert np.abs(small_context.decrypt_message(out) - (u + v)).max() < TOL

    def test_hsub(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        v = _msg(rng, small_params.slot_count)
        out = small_context.sub(small_context.encrypt_message(u),
                                small_context.encrypt_message(v))
        assert np.abs(small_context.decrypt_message(out) - (u - v)).max() < TOL

    def test_negate(self, small_context, message):
        out = small_context.negate(small_context.encrypt_message(message))
        assert np.abs(small_context.decrypt_message(out) + message).max() < TOL

    def test_add_plain(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        v = _msg(rng, small_params.slot_count)
        ct = small_context.encrypt_message(u)
        pt = small_context.encoder.encode(v)
        out = small_context.add_plain(ct, pt)
        assert np.abs(small_context.decrypt_message(out) - (u + v)).max() < TOL

    def test_add_scalar(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.add_scalar(ct, 2.5 - 1j)
        expect = message + (2.5 - 1j)
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL

    def test_scale_mismatch_rejected(self, small_context, message):
        c1 = small_context.encrypt_message(message)
        c2 = small_context.encrypt_message(message, scale=2.0 ** 20)
        with pytest.raises(ScaleMismatchError):
            small_context.add(c1, c2)


class TestMultiplicative:
    def test_pmult(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        v = _msg(rng, small_params.slot_count)
        ct = small_context.encrypt_message(u)
        pt = small_context.encoder.encode(v)
        out = small_context.mul_plain(ct, pt)
        assert out.level_count == ct.level_count - 1
        assert np.abs(small_context.decrypt_message(out) - u * v).max() < TOL

    def test_hmult(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        v = _msg(rng, small_params.slot_count)
        out = small_context.multiply(small_context.encrypt_message(u),
                                     small_context.encrypt_message(v))
        assert np.abs(small_context.decrypt_message(out) - u * v).max() < TOL

    def test_square(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        out = small_context.square(small_context.encrypt_message(u))
        assert np.abs(small_context.decrypt_message(out) - u * u).max() < TOL

    def test_mul_scalar(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.mul_scalar(ct, 0.5j)
        expect = 0.5j * message
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL

    def test_mul_scalar_precise_keeps_scale(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.mul_scalar_precise(ct, 1e-6, depth=2)
        assert out.scale == pytest.approx(ct.scale, rel=1e-12)
        expect = 1e-6 * message
        got = small_context.decrypt_message(out)
        assert np.abs(got - expect).max() < 1e-6

    def test_depth_chain(self, deep_context, rng, deep_params):
        u = _msg(rng, deep_params.slot_count, magnitude=0.9)
        ct = deep_context.encrypt_message(u)
        expect = u
        for _ in range(3):
            ct = deep_context.multiply(ct, ct)
            expect = expect * expect
        got = deep_context.decrypt_message(ct)
        assert np.abs(got - expect).max() < 5e-2

    def test_level_exhaustion(self, small_context, message):
        ct = small_context.encrypt_message(message)
        ct = small_context.drop_to_basis(ct, ct.basis[:1])
        with pytest.raises(LevelError):
            small_context.rescale(ct)


class TestScalarConstants:
    """Real constants multiply/add the limbs directly; complex-typed ones
    go through the encoder.  Both paths must decrypt alike."""

    VALUES = (0.75, -3.0, 1e-3, 2.5 - 1j)

    @pytest.mark.parametrize("scale", [None, 2.0 ** 30])
    @pytest.mark.parametrize("value", VALUES)
    def test_mul_scalar_paths_agree(self, small_context, message, value,
                                    scale):
        ct = small_context.encrypt_message(message)
        exact, encoded = (small_context.decrypt_message(
            small_context.mul_scalar(ct, v, scale=scale))
            for v in (value, complex(value)))
        assert np.abs(exact - encoded).max() < 1e-6
        assert np.abs(exact - value * message).max() < TOL

    @pytest.mark.parametrize("value", VALUES)
    def test_add_scalar_paths_agree(self, small_context, message, value):
        ct = small_context.encrypt_message(message)
        exact, encoded = (small_context.decrypt_message(
            small_context.add_scalar(ct, v))
            for v in (value, complex(value)))
        assert np.abs(exact - encoded).max() < 1e-6
        assert np.abs(exact - (message + value)).max() < TOL

    @pytest.mark.parametrize("value", [1e-6, -2.5e-7])
    def test_precise_paths_agree(self, small_context, message, value):
        # The constant is encoded at two primes' product, about 2^56.
        ct = small_context.encrypt_message(message)
        exact, encoded = (small_context.decrypt_message(
            small_context.mul_scalar_precise(ct, v, depth=2))
            for v in (value, complex(value)))
        assert np.abs(exact - encoded).max() < 1e-9
        assert np.abs(exact - value * message).max() < 1e-6

    def test_real_constants_skip_the_encoder(self, small_context, message,
                                             monkeypatch):
        ct = small_context.encrypt_message(message)
        calls = []
        encode = small_context.encoder.encode
        monkeypatch.setattr(small_context.encoder, "encode",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        ct = small_context.add_scalar(small_context.mul_scalar(ct, 0.5), -1)
        ct = small_context.adjust_scale_to(ct, ct.scale * 1.001)
        assert not calls
        small_context.mul_scalar(ct, 0.5 + 0j)
        assert len(calls) == 1


class TestRotation:
    @pytest.mark.parametrize("distance", [1, 2, 3, 5, 8, 16])
    def test_hrot(self, small_context, rng, small_params, distance):
        u = _msg(rng, small_params.slot_count)
        ct = small_context.encrypt_message(u)
        out = small_context.rotate(ct, distance)
        expect = np.roll(u, -distance)
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL

    def test_rotation_composition(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        ct = small_context.encrypt_message(u)
        out = small_context.rotate(small_context.rotate(ct, 1), 2)
        expect = np.roll(u, -3)
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL

    def test_zero_rotation_is_identity(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.rotate(ct, 0)
        assert np.array_equal(out.b.coeffs, ct.b.coeffs)

    def test_missing_key_rejected(self, small_context, message):
        ct = small_context.encrypt_message(message)
        with pytest.raises(EvalKeyError):
            small_context.rotate(ct, 7)

    def test_conjugate(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.conjugate(ct)
        expect = np.conj(message)
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL

    def test_mul_by_i(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.mul_by_i(ct)
        assert np.abs(small_context.decrypt_message(out) - 1j * message
                      ).max() < TOL

    def test_rotate_at_reduced_level(self, small_context, rng, small_params):
        u = _msg(rng, small_params.slot_count)
        ct = small_context.encrypt_message(u)
        ct = small_context.rescale(small_context.mul_scalar(
            ct, 1.0, rescale=False))
        out = small_context.rotate(ct, 2)
        expect = np.roll(u, -2)
        assert np.abs(small_context.decrypt_message(out) - expect).max() < TOL


class TestLevelManagement:
    def test_rescale_tracks_scale(self, small_context, message):
        ct = small_context.encrypt_message(message)
        raw = small_context.mul_scalar(ct, 1.0, rescale=False)
        dropped_prime = raw.basis[-1]
        out = small_context.rescale(raw)
        assert out.scale == pytest.approx(raw.scale / dropped_prime)

    def test_match_levels(self, small_context, message):
        deep = small_context.encrypt_message(message)
        shallow = small_context.drop_to_basis(deep, deep.basis[:3])
        a, b = small_context.match_levels(deep, shallow)
        assert a.level_count == b.level_count == 3

    def test_adjust_scale_to(self, small_context, message):
        ct = small_context.encrypt_message(message)
        out = small_context.adjust_scale_to(ct, ct.scale * 1.001)
        assert out.scale == pytest.approx(ct.scale * 1.001)
        got = small_context.decrypt_message(out)
        assert np.abs(got - message).max() < TOL
