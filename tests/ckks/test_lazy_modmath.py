"""Shoup/Harvey lazy-reduction kernels vs. the exact ``%`` oracle.

The lazy numeric layer (``repro.ckks.modmath`` Shoup kernels and the
Harvey butterflies inside ``BatchNttContext``) must be *bit-identical*
to the divide-based reference for every limb — including the 31-bit
primes, whose butterflies fold the Shoup multiplicand once more —
because all pinned digests and baseline counters assume canonical
``[0, q)`` residues.
These properties pin the kernels against big-int arithmetic and the
batched NTT against the per-limb ``NttContext`` oracle across random
NTT-friendly primes spanning 20–31 bits and degrees 16–256.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import instrument, modmath
from repro.ckks.ntt import BatchNttContext, NttContext
from repro.ckks.rns import RnsPolynomial, modulus_column
from repro.errors import ParameterError
from repro.obs.tracer import Tracer

DEGREES = (16, 32, 64, 128, 256)

#: Spans the fold boundary: 20–30-bit primes are below 2^30, so their
#: ``[0, 4q)`` butterfly operands already fit the 2^32 Shoup bound;
#: 31-bit primes are ≥ 2^30 and their row blocks fold that operand to
#: ``[0, 2q)`` before each twiddle multiply.
PRIME_BITS = (20, 22, 24, 26, 28, 29, 30, 31)


def ntt_prime(degree: int, bits: int) -> int:
    return modmath.generate_primes(1, degree, bits=bits)[0]


def traced(fn):
    """Counters recorded while ``fn()`` runs under a fresh tracer."""
    tracer = Tracer()
    old = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        fn()
    finally:
        instrument.set_tracer(old)
    return tracer.counters


def random_limbs(basis, degree, rng, lead=()):
    limbs = np.empty(lead + (len(basis), degree), dtype=np.int64)
    for i, q in enumerate(basis):
        limbs[..., i, :] = rng.integers(0, q, size=lead + (degree,),
                                        dtype=np.int64)
    return limbs


def reference_forward(basis, coeffs):
    out = np.empty_like(coeffs)
    for i, q in enumerate(basis):
        out[..., i, :] = NttContext(coeffs.shape[-1], q).forward(
            coeffs[..., i, :])
    return out


def reference_inverse(basis, values):
    out = np.empty_like(values)
    for i, q in enumerate(basis):
        out[..., i, :] = NttContext(values.shape[-1], q).inverse(
            values[..., i, :])
    return out


class TestShoupKernels:
    @given(st.sampled_from((20, 22, 24, 26, 28, 29, 30, 31)),
           st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_shoup_mul_matches_bigint_oracle(self, bits, seed):
        """Lazy product lands in [0, 2q) and is ≡ x·s (mod q)."""
        q = ntt_prime(64, bits)
        rng = np.random.default_rng(seed)
        # x may be any lazy intermediate in [0, 4q) below 2^32 — the
        # widest range a Harvey butterfly ever feeds a Shoup multiply
        # (31-bit rows fold theirs below 2q < 2^32 first).
        x = rng.integers(0, min(4 * q, 2**32), size=64, dtype=np.int64)
        s = int(rng.integers(0, q))
        s_shoup = modmath.shoup_precompute(s, q)
        out = modmath.shoup_mul(x, s, s_shoup, q)
        assert np.all(out >= 0) and np.all(out < 2 * q)
        expected = (x.astype(object) * s) % q
        assert np.array_equal(out % q, expected.astype(np.int64))

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_shoup_precompute_array_matches_scalar(self, seed):
        q = ntt_prime(64, 28)
        rng = np.random.default_rng(seed)
        s = rng.integers(0, q, size=(1, 64), dtype=np.int64)
        dual = modmath.shoup_precompute(s, np.int64(q))
        expected = [(int(v) << modmath.SHOUP_SHIFT) // q for v in s[0]]
        assert dual.dtype == np.uint64
        assert list(dual[0].astype(int)) == expected

    def test_reduce_final_into_matches_pure(self):
        q = ntt_prime(16, 20)
        a = np.arange(0, 2 * q, q // 7, dtype=np.int64)
        expected = modmath.reduce_final(a, q)
        assert np.array_equal(
            modmath.reduce_final_into(a.copy(), q), expected)


class TestWidePrimes:
    def test_primes_from_2_31_are_rejected(self):
        q = 2147483713            # 2^31 + 65, ≡ 1 mod 32
        assert modmath.is_prime(q) and (q - 1) % 32 == 0
        with pytest.raises(ParameterError, match="below 2"):
            NttContext(16, q)
        with pytest.raises(ParameterError, match="below 2"):
            BatchNttContext(16, (ntt_prime(16, 28), q))

    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_31_bit_rows_take_the_shoup_path_exactly(self, seed):
        q = ntt_prime(64, 31)
        basis = (ntt_prime(64, 28), q)
        rng = np.random.default_rng(seed)
        x = random_limbs(basis, 64, rng)
        s = random_limbs(basis, 64, rng)
        x[1, :3] = s[1, :3] = q - 1
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        counters = traced(lambda: modmath.shoup_mod_mul_into(
            x, s, dual, q_col, out))
        assert np.array_equal(out, modmath.mod_mul(x, s, q_col))
        assert counters["ckks.modmath.shoup"] == 2
        assert "ckks.modmath.strict_fallback" not in counters

    @pytest.mark.parametrize("degree", (16, 128, 256))
    @pytest.mark.parametrize("fill", ("zero", "one", "q-1"))
    def test_extreme_values_match_oracle(self, degree, fill):
        """Constant rows of 0, 1 and q−1 on a (31-bit, 28-bit) basis,
        the 31-bit prime being the largest NTT prime below 2^31."""
        basis = (ntt_prime(degree, 31), ntt_prime(degree, 28))
        value = {"zero": lambda q: 0, "one": lambda q: 1,
                 "q-1": lambda q: q - 1}[fill]
        a = np.stack([np.full(degree, value(q), dtype=np.int64)
                      for q in basis])
        ctx = BatchNttContext(degree, basis)
        assert np.array_equal(ctx.forward(a), reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(a), reference_inverse(basis, a))


class TestShoupModMul:
    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_matches_mod_mul_on_mixed_basis(self, seed):
        basis = tuple(ntt_prime(128, b) for b in (20, 24, 28, 31, 30, 26))
        rng = np.random.default_rng(seed)
        x = random_limbs(basis, 128, rng)
        s = random_limbs(basis, 128, rng)
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        modmath.shoup_mod_mul_into(x, s, dual, q_col, out)
        assert np.array_equal(out, modmath.mod_mul(x, s, q_col))

    def test_counts_dispatch_per_limb_row(self):
        basis = tuple(ntt_prime(64, b) for b in (28, 28, 31, 30))
        rng = np.random.default_rng(3)
        x = random_limbs(basis, 64, rng)
        s = random_limbs(basis, 64, rng)
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        counters = traced(lambda: modmath.shoup_mod_mul_into(
            x, s, dual, q_col, out))
        # (28, 28, 31, 30): the 31-bit row takes the Shoup path too.
        assert counters["ckks.modmath.shoup"] == 4
        assert counters.get("ckks.modmath.strict_fallback", 0) == 0


class TestLazyNttBitIdentity:
    @given(st.sampled_from(DEGREES), st.sampled_from(PRIME_BITS),
           st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_single_prime_forward_inverse(self, degree, bits, seed):
        """Harvey batched passes ≡ the %-based per-limb oracle."""
        basis = (ntt_prime(degree, bits),)
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, degree, rng)
        ctx = BatchNttContext(degree, basis)
        fwd = ctx.forward(a)
        assert np.array_equal(fwd, reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(fwd), a)
        assert np.array_equal(ctx.inverse(fwd),
                              reference_inverse(basis, fwd))

    @given(st.sampled_from((16, 64, 256)), st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_mixed_basis_spanning_dispatch_boundary(self, degree, seed):
        basis = tuple(ntt_prime(degree, b) for b in (20, 28, 29, 30, 31))
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, degree, rng, lead=(2,))
        ctx = BatchNttContext(degree, basis)
        fwd = ctx.forward(a)
        assert np.array_equal(fwd, reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(fwd), a)

    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_lazy_scope_off_is_identical(self, seed):
        """Disabling lazy kernels must not change a single bit."""
        basis = tuple(ntt_prime(64, b) for b in (20, 28, 31))
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, 64, rng)
        ctx = BatchNttContext(64, basis)
        lazy_fwd = ctx.forward(a)
        with modmath.lazy_scope(False):
            strict_fwd = ctx.forward(a)
            strict_inv = ctx.inverse(lazy_fwd)
        assert np.array_equal(lazy_fwd, strict_fwd)
        assert np.array_equal(strict_inv, ctx.inverse(lazy_fwd))
        assert np.array_equal(strict_inv, a)

    def test_lazy_scope_off_counts_every_row_as_strict(self):
        basis = tuple(ntt_prime(64, b) for b in (20, 28, 31))
        a = random_limbs(basis, 64, np.random.default_rng(1), lead=(2,))
        ctx = BatchNttContext(64, basis)
        with modmath.lazy_scope(False):
            counters = traced(lambda: ctx.inverse(ctx.forward(a)))
        assert counters["ckks.modmath.strict_fallback"] == 2 * 2 * 3
        assert "ckks.modmath.shoup" not in counters
        lazy = traced(lambda: ctx.forward(a))
        assert lazy["ckks.modmath.shoup"] == 2 * 3
        assert "ckks.modmath.strict_fallback" not in lazy

    def test_lazy_scope_restores_on_exception(self):
        assert modmath.lazy_enabled()
        with pytest.raises(RuntimeError):
            with modmath.lazy_scope(False):
                assert not modmath.lazy_enabled()
                raise RuntimeError("boom")
        assert modmath.lazy_enabled()


class TestRnsShoupDuals:
    BASIS = tuple(ntt_prime(64, b) for b in (28, 26, 31, 30))

    def _random_poly(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = random_limbs(self.BASIS, 64, rng)
        return RnsPolynomial(coeffs=coeffs, basis=self.BASIS, is_ntt=True)

    def test_ensure_shoup_mul_is_bit_identical(self):
        a = self._random_poly(0)
        b = self._random_poly(1)
        plain = (a * b).coeffs
        b.ensure_shoup()
        assert b.shoup is not None
        assert np.array_equal((a * b).coeffs, plain)
        assert np.array_equal((b * a).coeffs, plain)

    def test_ensure_shoup_is_idempotent(self):
        a = self._random_poly(2)
        a.ensure_shoup()
        dual = a.shoup
        assert a.ensure_shoup() is a
        assert a.shoup is dual

    def test_restrict_propagates_dual(self):
        a = self._random_poly(3)
        assert a.restrict(self.BASIS[:2]).shoup is None
        a.ensure_shoup()
        sub = a.restrict(self.BASIS[:2])
        assert sub.shoup is not None
        assert np.array_equal(sub.shoup, a.shoup[:2])

    def test_mul_with_lazy_disabled_matches(self):
        a = self._random_poly(4)
        b = self._random_poly(5)
        b.ensure_shoup()
        lazy = (a * b).coeffs
        with modmath.lazy_scope(False):
            strict = (a * b).coeffs
        assert np.array_equal(lazy, strict)
