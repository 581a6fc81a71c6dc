"""Tests for encrypted neural-network inference (§V-C DNN support)."""

import numpy as np
import pytest

from repro.ckks import instrument
from repro.ckks.evaluator import make_context
from repro.ckks.keys import KeyGenerator
from repro.ckks.nn import Activation, DenseLayer, EncryptedMlp
from repro.errors import ParameterError
from repro.obs.tracer import Tracer
from repro.params import toy_params

BLOCK = 8


@pytest.fixture(scope="module")
def setup():
    params = toy_params(degree=2 ** 9, level_count=10, aux_count=3)
    ctx = make_context(params)
    rng = np.random.default_rng(7)
    mlp = EncryptedMlp(
        evaluator=ctx,
        layers=[
            DenseLayer(weights=0.4 * rng.normal(size=(6, 4)),
                       bias=0.1 * rng.normal(size=6)),
            Activation(kind="square", degree=2, interval=(-3, 3)),
            DenseLayer(weights=0.3 * rng.normal(size=(2, 6)),
                       bias=0.1 * rng.normal(size=2)),
        ],
        block=BLOCK)
    keygen = KeyGenerator(params, seed=2025)
    for r in mlp.required_rotations():
        if r not in ctx.keys.rotations:
            ctx.keys.rotations[r] = keygen.rotation_key(ctx.keys.secret, r)
    return ctx, mlp, rng


class TestConstruction:
    def test_layer_validation(self):
        with pytest.raises(ParameterError):
            DenseLayer(weights=np.ones((2, 3)), bias=np.ones(3))
        with pytest.raises(ParameterError):
            DenseLayer(weights=np.ones(3), bias=np.ones(1))

    def test_block_must_fit_layers(self, setup):
        ctx, _, rng = setup
        with pytest.raises(ParameterError):
            EncryptedMlp(evaluator=ctx,
                         layers=[DenseLayer(weights=np.ones((16, 16)),
                                            bias=np.zeros(16))],
                         block=8)

    def test_layer_arrays_are_read_only_copies(self):
        weights, bias = np.ones((2, 3)), np.zeros(2)
        layer = DenseLayer(weights=weights, bias=bias)
        weights[0, 0] = 5.0
        assert layer.weights[0, 0] == 1.0
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 2.0
        with pytest.raises(ValueError):
            layer.bias[0] = 2.0

    def test_unknown_activation(self):
        with pytest.raises(ParameterError):
            Activation(kind="relu").target()

    def test_depth_accounting(self, setup):
        _, mlp, _ = setup
        # dense(1) + square activation + dense(1)
        assert mlp.depth() >= 3


class TestPacking:
    def test_pack_unpack_roundtrip(self, setup):
        ctx, mlp, rng = setup
        batch = rng.normal(size=(5, 4))
        slots = mlp.pack(batch)
        back = mlp.unpack(slots, samples=5, features=4)
        assert np.allclose(back, batch)

    def test_pack_overflow_rejected(self, setup):
        ctx, mlp, rng = setup
        too_many = ctx.params.slot_count // BLOCK + 1
        with pytest.raises(ParameterError):
            mlp.pack(rng.normal(size=(too_many, 4)))


class TestInference:
    def test_matches_cleartext_forward_pass(self, setup):
        ctx, mlp, rng = setup
        samples = 16
        batch = 0.5 * rng.normal(size=(samples, 4))
        packed = mlp.pack(batch)
        ct = ctx.encrypt_message(packed)
        out = mlp.infer(ct)
        got = mlp.unpack(ctx.decrypt_message(out).real, samples, 2)
        expect = mlp.reference(batch)
        assert np.abs(got - expect).max() < 2e-2

    def test_whole_batch_in_one_ciphertext(self, setup):
        ctx, mlp, rng = setup
        # Different samples produce different outputs from one ct.
        batch = np.zeros((2, 4))
        batch[0] = 0.5
        batch[1] = -0.5
        ct = ctx.encrypt_message(mlp.pack(batch))
        got = mlp.unpack(ctx.decrypt_message(mlp.infer(ct)).real, 2, 2)
        expect = mlp.reference(batch)
        assert np.abs(got - expect).max() < 2e-2
        assert not np.allclose(got[0], got[1])

    def test_tanh_activation_network(self, setup):
        ctx, _, rng = setup
        mlp = EncryptedMlp(
            evaluator=ctx,
            layers=[DenseLayer(weights=0.5 * np.eye(4), bias=np.zeros(4)),
                    Activation(kind="tanh", degree=7, interval=(-2, 2))],
            block=BLOCK)
        keygen = KeyGenerator(ctx.params, seed=2025)
        for r in mlp.required_rotations():
            if r not in ctx.keys.rotations:
                ctx.keys.rotations[r] = keygen.rotation_key(
                    ctx.keys.secret, r)
        batch = rng.uniform(-1.5, 1.5, size=(4, 4))
        ct = ctx.encrypt_message(mlp.pack(batch))
        got = mlp.unpack(ctx.decrypt_message(mlp.infer(ct)).real, 4, 4)
        assert np.abs(got - np.tanh(0.5 * batch)).max() < 2e-2

    def test_warm_inference_encodes_no_diagonals(self, setup):
        ctx, mlp, rng = setup
        ct = ctx.encrypt_message(mlp.pack(0.5 * rng.normal(size=(4, 4))))
        mlp.infer(ct)
        tracer = Tracer()
        old = instrument.get_tracer()
        instrument.set_tracer(tracer)
        try:
            warm = mlp.infer(ct)
        finally:
            instrument.set_tracer(old)
        assert tracer.counters.get("ckks.diag_cache.miss", 0) == 0
        assert tracer.counters["ckks.diag_cache.hit"] > 0
        # A freshly planned network (cold caches) computes the same limbs.
        cold = EncryptedMlp(evaluator=ctx, layers=mlp.layers,
                            block=BLOCK).infer(ct)
        assert np.array_equal(warm.b.coeffs, cold.b.coeffs)
        assert np.array_equal(warm.a.coeffs, cold.a.coeffs)
        assert warm.scale == cold.scale
