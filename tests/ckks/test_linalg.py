"""Tests for encrypted linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.evaluator import make_context
from repro.ckks.linalg import (EncryptedLinalg, embed_operator,
                               replicated_diagonals,
                               rotations_for_block_sum)
from repro.ckks.linear_transform import LinearTransform, matrix_diagonals
from repro.errors import ParameterError
from repro.params import toy_params

BLOCK = 8


@pytest.fixture(scope="module")
def ctx():
    params = toy_params(degree=2 ** 9, level_count=7, aux_count=3)
    rotations = rotations_for_block_sum(BLOCK)
    rotations += [(-c) % params.slot_count for c in (1, 2, 4)]
    return make_context(params, rotations=sorted(set(rotations)))


@pytest.fixture()
def la(ctx):
    return EncryptedLinalg(ctx)


def _vec(rng, ctx):
    return rng.normal(size=ctx.params.slot_count)


class TestHelpers:
    def test_rotations_for_block_sum(self):
        assert rotations_for_block_sum(8) == [1, 2, 4]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            rotations_for_block_sum(6)

    def test_embed_operator_tiles(self):
        m = np.arange(4).reshape(2, 2) + 1.0
        out = embed_operator(m, 8)
        assert np.allclose(out[:2, :2], m)
        assert np.allclose(out[2:4, 2:4], m)
        assert np.allclose(out[0, 2:], 0)

    def test_embed_operator_corner_only(self):
        m = np.ones((2, 3))
        out = embed_operator(m, 8, replicate=False)
        assert np.allclose(out[:2, :3], 1.0)
        assert out.sum() == 6

    def test_embed_too_large_rejected(self):
        with pytest.raises(ParameterError):
            embed_operator(np.ones((16, 16)), 8)


class TestBlockOps:
    def test_mask(self, ctx, la):
        rng = np.random.default_rng(0)
        u = _vec(rng, ctx)
        ct = la.mask(ctx.encrypt_message(u), range(0, ctx.params.slot_count,
                                                   BLOCK))
        got = ctx.decrypt_message(ct).real
        assert np.abs(got[::BLOCK] - u[::BLOCK]).max() < 1e-3
        mask_out = np.delete(got.reshape(-1, BLOCK), 0, axis=1)
        assert np.abs(mask_out).max() < 1e-3

    def test_block_sum(self, ctx, la):
        rng = np.random.default_rng(1)
        u = _vec(rng, ctx)
        ct = la.block_sum(ctx.encrypt_message(u), BLOCK)
        got = ctx.decrypt_message(ct).real
        expect = u.reshape(-1, BLOCK).sum(axis=1)
        assert np.abs(got[::BLOCK] - expect).max() < 1e-3

    def test_replicate(self, ctx, la):
        rng = np.random.default_rng(2)
        leads = np.zeros(ctx.params.slot_count)
        leads[::BLOCK] = rng.normal(size=ctx.params.slot_count // BLOCK)
        ct = la.replicate(ctx.encrypt_message(leads), BLOCK)
        got = ctx.decrypt_message(ct).real
        expect = np.repeat(leads[::BLOCK], BLOCK)
        assert np.abs(got - expect).max() < 1e-3


class TestProducts:
    def test_inner_product_per_block(self, ctx, la):
        rng = np.random.default_rng(3)
        u, v = _vec(rng, ctx), _vec(rng, ctx)
        ct = la.inner_product(ctx.encrypt_message(u),
                              ctx.encrypt_message(v), block=BLOCK)
        got = ctx.decrypt_message(ct).real
        expect = (u * v).reshape(-1, BLOCK).sum(axis=1)
        assert np.abs(got[::BLOCK] - expect).max() < 5e-3
        off_lead = np.delete(got.reshape(-1, BLOCK), 0, axis=1)
        assert np.abs(off_lead).max() < 5e-3

    def test_plain_inner_product_tiled_weights(self, ctx, la):
        rng = np.random.default_rng(4)
        u = _vec(rng, ctx)
        w = rng.normal(size=BLOCK)
        ct = la.plain_inner_product(ctx.encrypt_message(u), w, block=BLOCK)
        got = ctx.decrypt_message(ct).real
        expect = (u.reshape(-1, BLOCK) * w).sum(axis=1)
        assert np.abs(got[::BLOCK] - expect).max() < 5e-3

    def test_plain_inner_product_bad_weights(self, ctx, la):
        rng = np.random.default_rng(5)
        ct = ctx.encrypt_message(_vec(rng, ctx))
        with pytest.raises(ParameterError):
            la.plain_inner_product(ct, np.ones(3), block=BLOCK)

    def test_matvec_small_operator(self, ctx):
        rng = np.random.default_rng(6)
        operator = 0.3 * rng.normal(size=(4, 4))
        matrix = embed_operator(operator, ctx.params.slot_count)
        transform = LinearTransform.from_matrix(ctx, matrix)
        from repro.ckks.keys import KeyGenerator
        keygen = KeyGenerator(ctx.params, seed=2025)
        for r in transform.required_rotations("bsgs"):
            if r not in ctx.keys.rotations:
                ctx.keys.rotations[r] = keygen.rotation_key(
                    ctx.keys.secret, r)
        u = np.zeros(ctx.params.slot_count)
        u[:4] = rng.normal(size=4)
        got = ctx.decrypt_message(
            transform.apply(ctx.encrypt_message(u), "bsgs")).real
        assert np.abs(got[:4] - operator @ u[:4]).max() < 5e-3


class TestReplicatedDiagonals:
    """The block-level extractor against the dense slots x slots scan."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           case=st.sampled_from([(4, (4, 4)), (8, (6, 4)), (8, (2, 6)),
                                 (32, (10, 32)), (32, (6, 4))]),
           slots=st.sampled_from([32, 64, 128]))
    def test_matches_dense_scan(self, data, case, slots):
        block, (rows, cols) = case
        elements = st.one_of(
            st.just(0.0), st.just(5e-13), st.just(-5e-13),
            st.floats(-2.0, 2.0, allow_nan=False, width=32))
        weights = np.array(data.draw(st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)), dtype=np.float64)
        zero_rows = data.draw(st.sets(st.integers(0, rows - 1)))
        zero_cols = data.draw(st.sets(st.integers(0, cols - 1)))
        weights[sorted(zero_rows), :] = 0.0
        weights[:, sorted(zero_cols)] = 0.0
        padded = np.zeros((block, block))
        padded[:rows, :cols] = weights
        expect = matrix_diagonals(embed_operator(padded, slots))
        got = replicated_diagonals(padded, slots)
        assert sorted(got) == sorted(expect)
        for shift, diag in expect.items():
            assert np.array_equal(got[shift], diag)

    def test_entry_below_tolerance_is_dropped(self):
        padded = np.zeros((8, 8))
        padded[0, 0] = 1.0
        padded[0, 3] = 1e-13
        padded[5, 2] = 1e-13
        got = replicated_diagonals(padded, 64)
        assert list(got) == [0]
        assert set(matrix_diagonals(embed_operator(padded, 64))) == {0}

    def test_whole_slot_block_wraps(self):
        # block == slots: shifts s and s - slots name the same diagonal.
        rng = np.random.default_rng(8)
        padded = rng.normal(size=(16, 16))
        got = replicated_diagonals(padded, 16)
        expect = matrix_diagonals(padded)
        assert sorted(got) == sorted(expect)
        for shift, diag in expect.items():
            assert np.array_equal(got[shift], diag)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            replicated_diagonals(np.ones((4, 6)), 32)
        with pytest.raises(ParameterError):
            replicated_diagonals(np.ones((6, 6)), 32)
        with pytest.raises(ParameterError):
            replicated_diagonals(np.ones((64, 64)), 32)
