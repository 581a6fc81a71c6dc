"""Tests for basis conversion, ModUp/ModDown, rescaling, key switching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import modmath
from repro.ckks.keyswitch import (DigitDecomposition, basis_convert, mod_down,
                                  mod_up, rescale_poly)
from repro.ckks.rns import RnsPolynomial, basis_product, row_selector
from repro.errors import ParameterError

N = 64
SRC = tuple(modmath.generate_primes(3, N, bits=26))
DST = tuple(modmath.generate_primes(6, N, bits=28))[3:]


class TestBasisConvert:
    def test_exact_for_centered_values(self):
        rng = np.random.default_rng(0)
        values = [int(v) for v in rng.integers(-10 ** 9, 10 ** 9, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        converted = basis_convert(poly, DST)
        assert [int(v) for v in converted.to_int_coeffs()] == values

    def test_exact_near_half_product(self):
        bound = basis_product(SRC) // 2
        values = [bound // 3, -(bound // 3)] + [0] * (N - 2)
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        converted = basis_convert(poly, DST)
        assert [int(v) for v in converted.to_int_coeffs()] == values

    def test_requires_coefficient_domain(self):
        poly = RnsPolynomial.zero(N, SRC, is_ntt=True)
        with pytest.raises(ParameterError):
            basis_convert(poly, DST)


class TestRescale:
    def test_divides_by_last_prime(self):
        rng = np.random.default_rng(1)
        last = SRC[-1]
        values = [int(v) * last for v in rng.integers(-1000, 1000, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        out, = rescale_poly([poly])
        assert out.basis == SRC[:-1]
        expect = [v // last for v in values]
        assert [int(v) for v in out.to_int_coeffs()] == expect

    def test_rounding_error_bounded(self):
        rng = np.random.default_rng(2)
        values = [int(v) for v in rng.integers(-10 ** 12, 10 ** 12, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        out, = rescale_poly([poly])
        last = SRC[-1]
        for got, original in zip(out.to_int_coeffs(), values):
            assert abs(int(got) - original / last) <= 1.0

    def test_single_limb_rejected(self):
        poly = RnsPolynomial.zero(N, SRC[:1], is_ntt=False)
        with pytest.raises(ParameterError):
            rescale_poly([poly])


@pytest.fixture(scope="module")
def decomp():
    moduli = tuple(modmath.generate_primes(6, N, bits=26))
    aux = tuple(modmath.generate_primes(8, N, bits=28))[6:]
    return DigitDecomposition(moduli=moduli, aux_moduli=aux, aux_count=2)


class TestDigitDecomposition:
    def test_dnum(self, decomp):
        assert decomp.dnum == 3
        assert decomp.group(0) == decomp.moduli[:2]
        assert decomp.group(2) == decomp.moduli[4:6]

    def test_gadget_congruences(self, decomp):
        p_prod = basis_product(decomp.aux_moduli)
        for j in range(decomp.dnum):
            gadget = decomp.gadget_values(j)
            for idx, q in enumerate(decomp.full_basis):
                if q in decomp.group(j):
                    assert gadget[idx] == p_prod % q
                elif q in decomp.moduli:
                    assert gadget[idx] == 0
                else:  # aux primes: P ≡ 0
                    assert gadget[idx] == 0


class TestModUpDown:
    def test_mod_up_preserves_digit_values(self, decomp):
        rng = np.random.default_rng(3)
        values = [int(v) for v in rng.integers(-10 ** 6, 10 ** 6, N)]
        poly = RnsPolynomial.from_int_coeffs(values, decomp.moduli).to_ntt()
        group = decomp.group(0)
        target = decomp.full_basis
        extended = mod_up(poly, group, target)
        assert extended.basis == target
        # The digit is the centered representative mod the group product.
        group_prod = basis_product(group)
        digit = [((v + group_prod // 2) % group_prod) - group_prod // 2
                 for v in values]
        assert [int(v) for v in extended.to_int_coeffs()] == digit

    def test_mod_down_divides_by_p(self, decomp):
        rng = np.random.default_rng(4)
        p_prod = basis_product(decomp.aux_moduli)
        base = [int(v) for v in rng.integers(-1000, 1000, N)]
        values = [v * p_prod for v in base]
        poly = RnsPolynomial.from_int_coeffs(
            values, decomp.full_basis).to_ntt()
        out, = mod_down([poly], decomp.moduli, decomp.aux_moduli)
        assert out.basis == decomp.moduli
        assert [int(v) for v in out.to_int_coeffs()] == base

    def test_mod_down_rounds_small_remainder(self, decomp):
        p_prod = basis_product(decomp.aux_moduli)
        values = [5 * p_prod + 17] + [0] * (N - 1)
        poly = RnsPolynomial.from_int_coeffs(
            values, decomp.full_basis).to_ntt()
        out, = mod_down([poly], decomp.moduli, decomp.aux_moduli)
        assert abs(int(out.to_int_coeffs()[0]) - 5) <= 1


# -- Stacked b/a transforms vs one call per component ----------------------
#
# Rescale and ModDown pass every polynomial of a call through one
# stacked INTT → BConv → NTT.  The oracle below is the unstacked path:
# each component alone, on 2-D (L, N) matrices.

#: Distinct NTT-friendly primes per width; every drawn basis holds a
#: 31-bit prime, whose lazy butterflies take the wide-prime fold.
PRIME_POOL = {bits: tuple(modmath.generate_primes(4, N, bits=bits))
              for bits in (24, 28, 30, 31)}
POOL = tuple(q for primes in PRIME_POOL.values() for q in primes)


@st.composite
def bases(draw, min_size=2, max_size=6):
    """A random basis of distinct pool primes with a 31-bit one in it."""
    wide = draw(st.sampled_from(PRIME_POOL[31]))
    rest = draw(st.lists(st.sampled_from(POOL), min_size=min_size - 1,
                         max_size=max_size - 1, unique=True)
                .filter(lambda primes: wide not in primes))
    return tuple(draw(st.permutations([wide] + rest)))


def random_polys(basis, count, seed, is_ntt):
    rng = np.random.default_rng(seed)
    return [RnsPolynomial.random_uniform(N, basis, rng, is_ntt=is_ntt)
            for _ in range(count)]


def reference_rescale(poly):
    """One component alone: the last limb through INTT → BConv → NTT."""
    kept = poly.basis[:-1]
    last = poly.restrict(poly.basis[-1:]).from_ntt()
    in_kept = basis_convert(last, kept)
    if poly.is_ntt:
        in_kept = in_kept.to_ntt()
    inv = [modmath.mod_inverse(poly.basis[-1] % q, q) for q in kept]
    return (poly.restrict(kept) - in_kept).scalar_mul(inv)


def reference_mod_down(poly, moduli, aux):
    p_in_q = basis_convert(poly.restrict(aux).from_ntt(), moduli).to_ntt()
    p_prod = basis_product(aux)
    inv_p = [modmath.mod_inverse(p_prod % q, q) for q in moduli]
    return (poly.restrict(moduli) - p_in_q).scalar_mul(inv_p)


def assert_same(got, want):
    assert got.basis == want.basis
    assert got.is_ntt == want.is_ntt
    assert got.coeffs.shape == want.coeffs.shape
    assert np.array_equal(got.coeffs, want.coeffs)


class TestStackedTransforms:
    @given(bases(), st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_rescale_matches_per_component(self, basis, planes, is_ntt, seed):
        polys = random_polys(basis, planes, seed, is_ntt)
        got = rescale_poly(polys)
        assert len(got) == planes
        for out, poly in zip(got, polys):
            assert_same(out, reference_rescale(poly))

    @given(bases(min_size=3), st.integers(1, 2), st.integers(1, 3),
           st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_mod_down_matches_per_component(self, basis, aux_count, planes,
                                            seed):
        moduli, aux = basis[:-aux_count], basis[-aux_count:]
        polys = random_polys(basis, planes, seed, is_ntt=True)
        got = mod_down(polys, moduli, aux)
        assert len(got) == planes
        for out, poly in zip(got, polys):
            assert_same(out, reference_mod_down(poly, moduli, aux))

    @given(bases(min_size=3), st.integers(1, 3), st.integers(0, 2 ** 32),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_basis_convert_matches_per_plane(self, basis, planes, seed,
                                             data):
        split = data.draw(st.integers(1, len(basis) - 1))
        src, dst = basis[:split], basis[split:]
        polys = random_polys(src, planes, seed, is_ntt=False)
        got = basis_convert(RnsPolynomial.stack(polys), dst)
        assert got.coeffs.shape == (planes, len(dst), N)
        for out, poly in zip(got.planes(), polys):
            assert_same(out, basis_convert(poly, dst))

    def test_stacked_domain_round_trip(self):
        polys = random_polys(SRC, 3, 5, is_ntt=False)
        stacked = RnsPolynomial.stack(polys).to_ntt()
        for plane, poly in zip(stacked.planes(), polys):
            assert_same(plane, poly.to_ntt())
        back = stacked.from_ntt()
        for plane, poly in zip(back.planes(), polys):
            assert_same(plane, poly)

    def test_mixed_bases_rejected(self):
        a = RnsPolynomial.zero(N, SRC)
        b = RnsPolynomial.zero(N, SRC[:2] + DST[:1])
        with pytest.raises(ParameterError):
            rescale_poly([a, b])

    def test_mixed_domains_rejected(self):
        a = RnsPolynomial.zero(N, SRC, is_ntt=True)
        b = RnsPolynomial.zero(N, SRC, is_ntt=False)
        with pytest.raises(ParameterError):
            rescale_poly([a, b])


class TestRestrict:
    BASIS = SRC + DST

    def poly(self, shoup=False):
        poly = random_polys(self.BASIS, 1, 11, is_ntt=True)[0]
        return poly.ensure_shoup() if shoup else poly

    @pytest.mark.parametrize("target", [
        SRC,                                 # prefix: a slice
        DST[1:],                             # suffix: a slice
        (SRC[0], SRC[2], DST[1]),            # gather
        (DST[2], SRC[1], SRC[0]),            # reordered
    ])
    @pytest.mark.parametrize("shoup", [False, True])
    def test_rows_follow_target_order(self, target, shoup):
        poly = self.poly(shoup)
        out = poly.restrict(target)
        rows = [self.BASIS.index(q) for q in target]
        assert out.basis == target
        assert out.is_ntt
        assert np.array_equal(out.coeffs, poly.coeffs[rows])
        assert not np.shares_memory(out.coeffs, poly.coeffs)
        if shoup:
            assert np.array_equal(out.shoup, poly.shoup[rows])
            assert not np.shares_memory(out.shoup, poly.shoup)
        else:
            assert out.shoup is None

    def test_selector_is_a_slice_when_contiguous(self):
        assert row_selector(self.BASIS, SRC[1:]) == slice(1, len(SRC))
        gather = row_selector(self.BASIS, (SRC[0], SRC[2]))
        assert list(gather) == [0, 2]

    def test_missing_prime_rejected(self):
        with pytest.raises(ParameterError):
            self.poly().restrict(SRC + (7,))

    def test_stacked_planes_restrict_together(self):
        polys = random_polys(self.BASIS, 2, 12, is_ntt=True)
        target = (DST[0], SRC[1])
        stacked = RnsPolynomial.stack(polys, target)
        for plane, poly in zip(stacked.planes(), polys):
            assert_same(plane, poly.restrict(target))
        out = RnsPolynomial.stack(polys).restrict(target)
        assert np.array_equal(out.coeffs, stacked.coeffs)
