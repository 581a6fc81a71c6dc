"""Tier-2 threading: row-block partitioning and kernel bit-identity.

The contract under test is determinism by construction: the partition
is a pure function of ``(rows, blocks)``, every block runs the exact
serial per-row operation sequence, so a threaded NTT or BConv pass is
bit-identical to the serial one for any thread count.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import instrument, modmath
from repro.ckks.keyswitch import basis_convert
from repro.ckks.ntt import BatchNttContext
from repro.ckks.rns import RnsPolynomial
from repro.errors import ParameterError
from repro.parallel import (block_count, get_threads, partition,
                            run_blocks, set_threads, thread_scope)
from repro.parallel.threads import MIN_ROWS_PER_BLOCK

DEGREE = 128

BASIS = tuple(modmath.generate_primes(1, DEGREE, bits=bits)[0]
              for bits in (20, 24, 28, 31, 30, 26))


class _CounterTracer:
    def __init__(self):
        self.counters = {}

    def count(self, name, value=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value


@contextmanager
def tracing():
    """Attach a throwaway engine tracer; yields its counter dict."""
    tracer = _CounterTracer()
    old = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        yield tracer.counters
    finally:
        instrument.set_tracer(old)


def random_limbs(basis, degree, rng, lead=()):
    limbs = np.empty(lead + (len(basis), degree), dtype=np.int64)
    for i, q in enumerate(basis):
        limbs[..., i, :] = rng.integers(0, q, size=lead + (degree,),
                                        dtype=np.int64)
    return limbs


class TestPartition:
    @given(rows=st.integers(1, 500), blocks=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_covers_rows_exactly_once(self, rows, blocks):
        spans = partition(rows, blocks)
        assert spans[0][0] == 0 and spans[-1][1] == rows
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo            # contiguous, disjoint
        assert all(hi > lo for lo, hi in spans)
        assert len(spans) <= min(blocks, rows)

    def test_pure_function_of_inputs(self):
        assert partition(10, 3) == partition(10, 3)
        assert partition(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert partition(4, 99) == [(0, 1), (1, 2), (2, 3), (3, 4)]


class TestThreadSetting:
    def test_set_threads_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            set_threads(0)

    def test_thread_scope_restores_on_exit_and_error(self):
        before = get_threads()
        with thread_scope(3):
            assert get_threads() == 3
        assert get_threads() == before
        with pytest.raises(RuntimeError):
            with thread_scope(2):
                raise RuntimeError("boom")
        assert get_threads() == before

    def test_block_count_serial_when_off_or_small(self):
        with thread_scope(1):
            assert block_count(100) == 1
        with thread_scope(4):
            assert block_count(2 * MIN_ROWS_PER_BLOCK - 1) == 1
            assert block_count(2 * MIN_ROWS_PER_BLOCK) == 2
            assert block_count(100) == 4
            # never more blocks than rows can pay for
            assert block_count(5) == min(4, 5 // MIN_ROWS_PER_BLOCK)


class TestRunBlocks:
    def test_serial_path_single_call(self):
        calls = []
        with thread_scope(1):
            used = run_blocks(10, lambda lo, hi: calls.append((lo, hi)))
        assert used == 1
        assert calls == [(0, 10)]

    def test_threaded_matches_serial_output(self):
        out_serial = np.zeros(12)
        out_threaded = np.zeros(12)

        def make_work(out):
            def work(lo, hi):
                for i in range(lo, hi):
                    out[i] = i * i + 1
            return work

        with thread_scope(1):
            run_blocks(12, make_work(out_serial))
        with thread_scope(3):
            used = run_blocks(12, make_work(out_threaded))
        assert used == 3
        assert np.array_equal(out_serial, out_threaded)

    def test_exceptions_propagate(self):
        def work(lo, hi):
            raise ValueError("block failure")

        with thread_scope(2):
            with pytest.raises(ValueError):
                run_blocks(10, work)


class TestThreadedNtt:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_forward_inverse_bit_identical(self, threads):
        rng = np.random.default_rng(7)
        a = random_limbs(BASIS, DEGREE, rng)
        ctx = BatchNttContext(DEGREE, BASIS)
        with thread_scope(1):
            fwd_serial = ctx.forward(a)
            inv_serial = ctx.inverse(fwd_serial)
        with thread_scope(threads):
            fwd = ctx.forward(a)
            inv = ctx.inverse(fwd)
        assert np.array_equal(fwd, fwd_serial)
        assert np.array_equal(inv, inv_serial)
        assert np.array_equal(inv, a)

    def test_threaded_counter_fires(self):
        rng = np.random.default_rng(8)
        a = random_limbs(BASIS, DEGREE, rng)
        ctx = BatchNttContext(DEGREE, BASIS)
        with tracing() as counts:
            with thread_scope(3):
                ctx.forward(a)
        assert counts.get("ckks.batch_ntt.threaded", 0) >= 1
        with tracing() as counts:
            with thread_scope(1):
                ctx.forward(a)
        assert "ckks.batch_ntt.threaded" not in counts

    @pytest.mark.parametrize("threads", [2, 3])
    def test_leading_axes_thread_bit_identical(self, threads):
        rng = np.random.default_rng(9)
        a = random_limbs(BASIS, DEGREE, rng, lead=(3,))
        ctx = BatchNttContext(DEGREE, BASIS)
        with thread_scope(1):
            fwd_serial = ctx.forward(a)
            inv_serial = ctx.inverse(fwd_serial)
        with tracing() as counts:
            with thread_scope(threads):
                fwd = ctx.forward(a)
                inv = ctx.inverse(fwd)
        assert np.array_equal(fwd, fwd_serial)
        assert np.array_equal(inv, inv_serial)
        assert np.array_equal(inv, a)
        assert counts.get("ckks.batch_ntt.threaded", 0) == 2


class TestThreadedBconv:
    def test_bit_identical_to_serial(self):
        rng = np.random.default_rng(11)
        src, dst = BASIS[:4], BASIS[4:]
        poly = RnsPolynomial(random_limbs(src, DEGREE, rng), src,
                             is_ntt=False)
        with thread_scope(1):
            want = basis_convert(poly, dst)
        with thread_scope(3):
            got = basis_convert(poly, dst)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.basis == want.basis

    def test_stacked_planes_bit_identical_to_serial(self):
        rng = np.random.default_rng(12)
        src, dst = BASIS[:2], BASIS[2:]
        poly = RnsPolynomial(random_limbs(src, DEGREE, rng, lead=(2,)), src,
                             is_ntt=False)
        with thread_scope(1):
            want = basis_convert(poly, dst)
        with tracing() as counts:
            with thread_scope(3):
                got = basis_convert(poly, dst)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert counts.get("ckks.bconv.threaded", 0) == 1
