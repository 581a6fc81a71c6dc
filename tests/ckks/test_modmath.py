"""Unit and property tests for modular arithmetic primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import modmath
from repro.errors import ParameterError


class TestPrimeGeneration:
    def test_primes_are_prime_and_ntt_friendly(self):
        primes = modmath.generate_primes(5, 1024, bits=28)
        assert len(primes) == len(set(primes)) == 5
        for q in primes:
            assert modmath.is_prime(q)
            assert q % 2048 == 1
            assert q < 2 ** 28

    def test_primes_descend_from_bound(self):
        primes = modmath.generate_primes(3, 64, bits=20)
        assert primes == sorted(primes, reverse=True)

    def test_scale_primes_bracket_target(self):
        primes = modmath.generate_scale_primes(6, 256, bits=25)
        target = 2 ** 25
        assert any(p > target for p in primes)
        assert any(p < target for p in primes)
        for p in primes:
            assert abs(p - target) / target < 0.01
            assert p % 512 == 1

    def test_too_wide_prime_rejected(self):
        with pytest.raises(ParameterError):
            modmath.generate_primes(1, 64, bits=40)

    def test_is_prime_basics(self):
        assert modmath.is_prime(2)
        assert modmath.is_prime(97)
        assert not modmath.is_prime(1)
        assert not modmath.is_prime(91)        # 7 * 13
        assert not modmath.is_prime(3215031751)  # strong pseudoprime base 2..7


class TestRoots:
    def test_root_of_unity_order(self):
        q = modmath.generate_primes(1, 512, bits=28)[0]
        w = modmath.root_of_unity(1024, q)
        assert pow(w, 1024, q) == 1
        assert pow(w, 512, q) != 1

    def test_primitive_root(self):
        g = modmath.primitive_root(257)
        seen = {pow(g, k, 257) for k in range(256)}
        assert len(seen) == 256

    def test_mod_inverse(self):
        q = 998244353
        for a in (1, 2, 12345, q - 1):
            assert a * modmath.mod_inverse(a, q) % q == 1


@st.composite
def residue_arrays(draw):
    q = draw(st.sampled_from(modmath.generate_primes(4, 64, bits=28)))
    size = draw(st.integers(1, 64))
    values = draw(st.lists(st.integers(0, q - 1),
                           min_size=size, max_size=size))
    return q, np.array(values, dtype=np.int64)


class TestVectorOps:
    @given(residue_arrays())
    @settings(max_examples=50, deadline=None)
    def test_add_sub_roundtrip(self, data):
        q, a = data
        b = (a * 7 + 13) % q
        assert np.array_equal(
            modmath.mod_sub(modmath.mod_add(a, b, q), b, q), a)

    @given(residue_arrays())
    @settings(max_examples=50, deadline=None)
    def test_neg_is_additive_inverse(self, data):
        q, a = data
        total = modmath.mod_add(a, modmath.mod_neg(a, q), q)
        assert np.all(total == 0)

    @given(residue_arrays())
    @settings(max_examples=50, deadline=None)
    def test_mul_matches_python_ints(self, data):
        q, a = data
        b = (a * 31 + 5) % q
        got = modmath.mod_mul(a, b, q)
        expect = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert got.tolist() == expect

    def test_mac(self):
        q = 97
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([4, 5, 6], dtype=np.int64)
        c = np.array([90, 90, 90], dtype=np.int64)
        assert modmath.mod_mac(a, b, c, q).tolist() == [
            (4 + 90) % 97, (10 + 90) % 97, (18 + 90) % 97]


#: The widest primes the int64 safety argument admits.
BOUNDARY_PRIME = modmath.generate_primes(1, 64, bits=31)[0]


class TestOverflowBoundary:
    """31-bit primes with maximal residues — the int64 safety margin.

    Products reach ``(q-1)^2 < 2^62`` and sums reach ``2q - 2 < 2^32``;
    every primitive must stay exact against Python big-int arithmetic.
    """

    q = BOUNDARY_PRIME
    a = np.array([BOUNDARY_PRIME - 1, BOUNDARY_PRIME - 2, 1, 0],
                 dtype=np.int64)
    b = np.array([BOUNDARY_PRIME - 1, BOUNDARY_PRIME - 1, BOUNDARY_PRIME - 2,
                  BOUNDARY_PRIME - 1], dtype=np.int64)

    def expect(self, fn):
        return [fn(int(x), int(y)) % self.q for x, y in zip(self.a, self.b)]

    def test_prime_is_31_bits(self):
        assert 2 ** 30 < self.q < 2 ** 31

    def test_add_at_boundary(self):
        got = modmath.mod_add(self.a, self.b, self.q)
        assert got.tolist() == self.expect(lambda x, y: x + y)

    def test_sub_at_boundary(self):
        got = modmath.mod_sub(self.a, self.b, self.q)
        assert got.tolist() == self.expect(lambda x, y: x - y)

    def test_mul_at_boundary(self):
        got = modmath.mod_mul(self.a, self.b, self.q)
        assert got.tolist() == self.expect(lambda x, y: x * y)

    def test_mac_at_boundary(self):
        acc = np.full(4, self.q - 1, dtype=np.int64)
        got = modmath.mod_mac(self.a, self.b, acc, self.q)
        expect = [(int(x) * int(y) + self.q - 1) % self.q
                  for x, y in zip(self.a, self.b)]
        assert got.tolist() == expect

    def test_mac_single_reduction_stays_in_range(self):
        # a·b mod q and acc are both q-1: the sum 2q-2 must fold back
        # with one conditional subtraction, never a second % pass.
        a = np.array([1], dtype=np.int64)
        b = np.array([self.q - 1], dtype=np.int64)
        acc = np.array([self.q - 1], dtype=np.int64)
        assert modmath.mod_mac(a, b, acc, self.q).tolist() == [self.q - 2]


class TestIntoVariants:
    """The allocation-free kernels match the pure functions exactly."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.bases = (modmath.generate_primes(1, 64, bits=20)[0],
                      modmath.generate_primes(1, 64, bits=28)[0],
                      BOUNDARY_PRIME)

    def pair(self, q, shape=(64,)):
        a = self.rng.integers(0, q, size=shape, dtype=np.int64)
        b = self.rng.integers(0, q, size=shape, dtype=np.int64)
        return a, b

    def test_scalar_modulus_matches_pure(self):
        for q in self.bases:
            a, b = self.pair(q)
            out = np.empty_like(a)
            assert np.array_equal(
                modmath.mod_add_into(a, b, q, out), modmath.mod_add(a, b, q))
            assert np.array_equal(
                modmath.mod_sub_into(a, b, q, out), modmath.mod_sub(a, b, q))
            assert np.array_equal(
                modmath.mod_mul_into(a, b, q, out), modmath.mod_mul(a, b, q))
            assert np.array_equal(
                modmath.mod_neg_into(a, q, out), modmath.mod_neg(a, q))

    def test_column_modulus_broadcast(self):
        """(L, 1) per-limb moduli — the batched engine's layout."""
        q_col = np.array(self.bases, dtype=np.int64).reshape(-1, 1)
        a = np.stack([self.rng.integers(0, q, size=64, dtype=np.int64)
                      for q in self.bases])
        b = np.stack([self.rng.integers(0, q, size=64, dtype=np.int64)
                      for q in self.bases])
        out = np.empty_like(a)
        modmath.mod_add_into(a, b, q_col, out)
        for i, q in enumerate(self.bases):
            assert np.array_equal(out[i], modmath.mod_add(a[i], b[i], q))
        modmath.mod_sub_into(a, b, q_col, out)
        for i, q in enumerate(self.bases):
            assert np.array_equal(out[i], modmath.mod_sub(a[i], b[i], q))
        modmath.mod_mul_into(a, b, q_col, out)
        for i, q in enumerate(self.bases):
            assert np.array_equal(out[i], modmath.mod_mul(a[i], b[i], q))

    def test_aliasing_out_with_operand(self):
        q = self.bases[1]
        a, b = self.pair(q)
        expect = modmath.mod_add(a, b, q)
        got = modmath.mod_add_into(a, b, q, out=a)
        assert got is a
        assert np.array_equal(a, expect)
        a2 = self.rng.integers(0, q, size=64, dtype=np.int64)
        expect_neg = modmath.mod_neg(a2, q)
        modmath.mod_neg_into(a2, q, out=a2)
        assert np.array_equal(a2, expect_neg)

    def test_out_buffer_reuse(self):
        q = BOUNDARY_PRIME
        a, b = self.pair(q)
        out = np.empty_like(a)
        modmath.mod_add_into(a, b, q, out)
        assert np.array_equal(out, modmath.mod_add(a, b, q))
        modmath.mod_sub_into(a, b, q, out)
        assert np.array_equal(out, modmath.mod_sub(a, b, q))

    def test_boundary_values_into(self):
        q = BOUNDARY_PRIME
        a = np.full(8, q - 1, dtype=np.int64)
        b = np.full(8, q - 1, dtype=np.int64)
        out = np.empty_like(a)
        assert modmath.mod_add_into(a, b, q, out).tolist() == [q - 2] * 8
        assert modmath.mod_mul_into(a, b, q, out).tolist() == [1] * 8


#: 20-, 28- and 31-bit primes: the fold must hold up to the widest
#: prime the int64 argument admits.
FOLD_PRIMES = (modmath.generate_primes(1, 64, bits=20)[0],
               modmath.generate_primes(1, 64, bits=28)[0],
               BOUNDARY_PRIME)


@st.composite
def fold_operands(draw):
    """Canonical ``(L, n)`` operands over a prime column, biased to the
    ``0`` / ``q − 1`` edges where a correction is (or just is not) due."""
    primes = draw(st.lists(st.sampled_from(FOLD_PRIMES), min_size=1,
                           max_size=3))
    width = draw(st.integers(1, 16))

    def row(q):
        values = st.one_of(st.integers(0, q - 1),
                           st.sampled_from((0, 1, q - 2, q - 1)))
        return draw(st.lists(values, min_size=width, max_size=width))

    a = np.array([row(q) for q in primes], dtype=np.int64)
    b = np.array([row(q) for q in primes], dtype=np.int64)
    return np.array(primes, dtype=np.int64).reshape(-1, 1), a, b


def _reference(fn, a, b, q_col):
    return np.stack([fn(a[i], b[i], int(q)) for i, q in
                     enumerate(q_col[:, 0])])


class TestFoldKernels:
    """The branchless ``min(r, r ∓ q)`` kernels against the pure
    ``np.where`` functions, bit for bit."""

    KERNELS = ((modmath.mod_add_into, modmath.mod_add),
               (modmath.mod_sub_into, modmath.mod_sub))

    @given(fold_operands(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_add_sub_match_pure(self, data, column):
        q_col, a, b = data
        for into, pure in self.KERNELS:
            expect = _reference(pure, a, b, q_col)
            if column:
                got = into(a, b, q_col, np.empty_like(a))
            else:
                # A scalar modulus, one limb row at a time.
                got = np.stack([into(a[i], b[i], int(q),
                                     np.empty_like(a[i]))
                                for i, q in enumerate(q_col[:, 0])])
            assert got.dtype == np.int64
            assert np.array_equal(got, expect)

    @given(fold_operands())
    @settings(max_examples=40, deadline=None)
    def test_uint64_views_match_int64(self, data):
        q_col, a, b = data
        for into, pure in self.KERNELS:
            out = np.empty(a.shape, dtype=np.uint64)
            got = into(a.view(np.uint64), b.view(np.uint64),
                       q_col.view(np.uint64), out)
            assert got is out
            assert np.array_equal(got.view(np.int64),
                                  _reference(pure, a, b, q_col))

    @given(fold_operands())
    @settings(max_examples=40, deadline=None)
    def test_out_aliases_either_operand(self, data):
        q_col, a, b = data
        for into, pure in self.KERNELS:
            expect = _reference(pure, a, b, q_col)
            left, right = a.copy(), b.copy()
            assert into(left, b, q_col, out=left) is left
            assert np.array_equal(left, expect)
            assert into(a, right, q_col, out=right) is right
            assert np.array_equal(right, expect)

    @given(fold_operands())
    @settings(max_examples=40, deadline=None)
    def test_neg_matches_pure(self, data):
        q_col, a, _ = data
        expect = np.stack([modmath.mod_neg(a[i], int(q))
                           for i, q in enumerate(q_col[:, 0])])
        assert np.array_equal(
            modmath.mod_neg_into(a, q_col, np.empty_like(a)), expect)

    @given(fold_operands(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_reduce_final_matches_pure(self, data, as_uint64):
        # a + b of canonical operands spans the lazy range [0, 2q − 1).
        q_col, a, b = data
        lazy = a + b
        expect = np.stack([modmath.reduce_final(lazy[i], int(q))
                           for i, q in enumerate(q_col[:, 0])])
        buf = lazy.view(np.uint64) if as_uint64 else lazy
        assert modmath.reduce_final_into(buf, q_col) is buf
        assert np.array_equal(lazy, expect)

    def test_31_bit_boundary(self):
        q = BOUNDARY_PRIME
        top = np.full(4, q - 1, dtype=np.int64)
        zero = np.zeros(4, dtype=np.int64)
        out = np.empty_like(top)
        assert modmath.mod_add_into(top, top, q, out).tolist() == [q - 2] * 4
        assert modmath.mod_sub_into(zero, top, q, out).tolist() == [1] * 4
        assert modmath.mod_sub_into(top, zero, q, out).tolist() == [q - 1] * 4
        assert modmath.mod_neg_into(zero, q, out).tolist() == [0] * 4
        lazy = np.array([0, q - 1, q, 2 * q - 2], dtype=np.int64)
        assert modmath.reduce_final_into(lazy, q).tolist() == [
            0, q - 1, 0, q - 2]


class TestMontgomery:
    def test_roundtrip_and_mul(self):
        q = modmath.generate_primes(1, 128, bits=28)[0]
        ctx = modmath.MontgomeryContext(q)
        rng = np.random.default_rng(0)
        a = rng.integers(0, q, 200, dtype=np.int64)
        b = rng.integers(0, q, 200, dtype=np.int64)
        assert np.array_equal(ctx.from_mont(ctx.to_mont(a)), a)
        got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)))
        assert np.array_equal(got, a * b % q)

    def test_rejects_wide_modulus(self):
        with pytest.raises(ParameterError):
            modmath.MontgomeryContext((1 << 29) + 3, r_bits=28)

    def test_rejects_even_modulus(self):
        with pytest.raises(ParameterError):
            modmath.MontgomeryContext(2 ** 20)

    @given(st.integers(0, 2 ** 28 - 1), st.integers(0, 2 ** 28 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mul_property(self, x, y):
        q = 268369921  # 2^28 - 65536 + 1... a fixed NTT-friendly prime
        if not modmath.is_prime(q):
            q = modmath.generate_primes(1, 64, bits=28)[0]
        x %= q
        y %= q
        ctx = modmath.MontgomeryContext(q)
        a = np.array([x], dtype=np.int64)
        b = np.array([y], dtype=np.int64)
        got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)))[0]
        assert got == x * y % q
