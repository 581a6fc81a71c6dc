"""Tests for homomorphic Chebyshev polynomial evaluation."""

import numpy as np
import pytest

from repro.ckks.polyeval import (ChebyshevEvaluator, chebyshev_coefficients,
                                 chebyshev_reference)


class TestCoefficients:
    def test_interpolation_quality(self):
        coeffs = chebyshev_coefficients(np.exp, 12, (-1, 1))
        x = np.linspace(-1, 1, 101)
        err = np.abs(chebyshev_reference(coeffs, x, (-1, 1)) - np.exp(x))
        assert err.max() < 1e-10

    def test_scaled_interval(self):
        coeffs = chebyshev_coefficients(np.sin, 25, (-4, 4))
        x = np.linspace(-4, 4, 101)
        err = np.abs(chebyshev_reference(coeffs, x, (-4, 4)) - np.sin(x))
        assert err.max() < 1e-8

    def test_bad_interval_rejected(self):
        from repro.errors import ParameterError
        with pytest.raises(ParameterError):
            chebyshev_coefficients(np.exp, 5, (1, -1))


class TestHomomorphicEvaluation:
    def test_depth_accounting(self, deep_context):
        che = ChebyshevEvaluator(deep_context)
        assert che.depth(1, normalized=False) == 1
        assert che.depth(4, normalized=False) == 3
        assert che.depth(31, normalized=False) == 6
        assert che.depth(31, normalized=True) == 8

    def test_linear_polynomial(self, deep_context, rng, deep_params):
        che = ChebyshevEvaluator(deep_context)
        x = rng.uniform(-1, 1, deep_params.slot_count)
        ct = deep_context.encrypt_message(x)
        out = che.evaluate(ct, [0.5, 2.0])  # 0.5 + 2*T_1
        got = deep_context.decrypt_message(out).real
        assert np.abs(got - (0.5 + 2 * x)).max() < 5e-3

    def test_exp_on_unit_interval(self, deep_context, rng, deep_params):
        che = ChebyshevEvaluator(deep_context)
        x = rng.uniform(-0.95, 0.95, deep_params.slot_count)
        ct = deep_context.encrypt_message(x)
        coeffs = chebyshev_coefficients(np.exp, 15, (-1, 1))
        got = deep_context.decrypt_message(che.evaluate(ct, coeffs)).real
        assert np.abs(got - np.exp(x)).max() < 5e-3

    def test_sin_on_wide_interval(self, deep_context, rng, deep_params):
        che = ChebyshevEvaluator(deep_context)
        x = rng.uniform(-3.8, 3.8, deep_params.slot_count)
        ct = deep_context.encrypt_message(x)
        coeffs = chebyshev_coefficients(np.sin, 23, (-4, 4))
        got = deep_context.decrypt_message(
            che.evaluate(ct, coeffs, (-4, 4))).real
        assert np.abs(got - np.sin(x)).max() < 5e-3

    def test_constant_polynomial(self, deep_context, rng, deep_params):
        che = ChebyshevEvaluator(deep_context)
        ct = deep_context.encrypt_message(
            rng.normal(size=deep_params.slot_count))
        out = che.evaluate(ct, [3.25])
        got = deep_context.decrypt_message(out)
        assert np.abs(got - 3.25).max() < 5e-3

    def test_output_level_matches_depth(self, deep_context, rng, deep_params):
        che = ChebyshevEvaluator(deep_context)
        ct = deep_context.encrypt_message(
            rng.uniform(-1, 1, deep_params.slot_count))
        coeffs = chebyshev_coefficients(np.exp, 15, (-1, 1))
        out = che.evaluate(ct, coeffs)
        consumed = ct.level_count - out.level_count
        assert consumed == che.depth(15, normalized=False)
