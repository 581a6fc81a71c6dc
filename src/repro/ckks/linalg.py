"""Encrypted linear algebra on top of the basic CKKS functions.

The Anaheim programming interface promises "optimized routines for
advanced features, such as linear algebra, arbitrary polynomial
evaluation, and DNN support" (§V-C).  This module provides the linear
algebra: packed-vector utilities (block sums, replication, masking),
inner products, and the diagonals of block-diagonal operators that
:class:`~repro.ckks.linear_transform.LinearTransform` multiplies by.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.errors import ParameterError


def rotations_for_block_sum(block: int) -> list:
    """Rotation distances the rotate-and-sum over ``block`` slots needs."""
    if block & (block - 1) != 0:
        raise ParameterError("block size must be a power of two")
    return [1 << k for k in range(int(math.log2(block)))]


def rotations_for_replicate(block: int, total: int) -> list:
    """Rotation distances replication needs (negative = right shifts)."""
    if total % block != 0:
        raise ParameterError("total slots must be a multiple of the block")
    copies = total // block
    return [-(block << k) % total
            for k in range(int(math.ceil(math.log2(max(copies, 2)))))]


class EncryptedLinalg:
    """Vector/matrix routines bound to an evaluator.

    Rotation keys are the caller's responsibility; the helpers above
    report which distances each routine uses so key sets can be planned
    statically (as the Anaheim framework does).
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator

    @property
    def slot_count(self) -> int:
        return self.evaluator.params.slot_count

    # -- Masking and data movement ---------------------------------------------

    def mask(self, ct: Ciphertext, positions) -> Ciphertext:
        """Keep only the given slot positions (multiplies by a 0/1 mask)."""
        mask = np.zeros(self.slot_count)
        mask[list(positions)] = 1.0
        plain = self.evaluator.encoder.encode(mask, basis=ct.basis)
        return self.evaluator.mul_plain(ct, plain)

    def block_sum(self, ct: Ciphertext, block: int) -> Ciphertext:
        """Sum each aligned ``block``-slot group into its leading slot.

        After this, slot ``b*block`` holds the sum of slots
        ``[b*block, (b+1)*block)``; other slots hold partial sums.
        """
        out = ct
        for shift in rotations_for_block_sum(block):
            out = self.evaluator.add(out, self.evaluator.rotate(out, shift))
        return out

    def replicate(self, ct: Ciphertext, block: int) -> Ciphertext:
        """Broadcast each block's leading slot across the whole vector.

        Expects a ciphertext whose only nonzero slots are at multiples
        of ``block`` (e.g. a masked :meth:`block_sum` result); fills
        every slot of each block with its leading value.
        """
        out = ct
        copies = 1
        while copies < block:
            out = self.evaluator.add(
                out, self.evaluator.rotate(out, -copies))
            copies *= 2
        return out

    # -- Products ------------------------------------------------------------------

    def inner_product(self, x: Ciphertext, y: Ciphertext,
                      block: int | None = None,
                      mask_result: bool = True) -> Ciphertext:
        """⟨x, y⟩ per ``block``-slot group (whole vector by default).

        The result lands in each block's leading slot; with
        ``mask_result`` the partial sums elsewhere are zeroed, at the
        cost of one level.
        """
        if block is None:
            block = self.slot_count
        prod = self.evaluator.multiply(x, y)
        total = self.block_sum(prod, block)
        if not mask_result:
            return total
        return self.mask(total, range(0, self.slot_count, block))

    def plain_inner_product(self, x: Ciphertext, weights,
                            block: int | None = None,
                            mask_result: bool = True) -> Ciphertext:
        """⟨x, w⟩ with cleartext weights, per block."""
        if block is None:
            block = self.slot_count
        weights = np.asarray(weights, dtype=np.complex128)
        if weights.size == block:
            weights = np.tile(weights, self.slot_count // block)
        if weights.size != self.slot_count:
            raise ParameterError(
                f"weights must have {block} or {self.slot_count} entries")
        plain = self.evaluator.encoder.encode(weights, basis=x.basis)
        prod = self.evaluator.mul_plain(x, plain)
        total = self.block_sum(prod, block)
        if not mask_result:
            return total
        return self.mask(total, range(0, self.slot_count, block))


def embed_operator(matrix: np.ndarray, slots: int,
                   replicate: bool = True) -> np.ndarray:
    """Embed a small (m x n) operator into the full slot space.

    With ``replicate`` the operator tiles block-diagonally (apply the
    same operator to every packed sample); otherwise it occupies the
    top-left corner only.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    m, n = matrix.shape
    block = max(m, n)
    if block > slots:
        raise ParameterError("operator larger than the slot space")
    out = np.zeros((slots, slots), dtype=np.complex128)
    if replicate:
        for base in range(0, slots - block + 1, block):
            out[base:base + m, base:base + n] = matrix
    else:
        out[:m, :n] = matrix
    return out


def replicated_diagonals(matrix: np.ndarray, slots: int) -> dict:
    """The nonzero diagonals of a square operator tiled over ``slots``.

    Equal — same keys, bit-identical arrays — to
    ``matrix_diagonals(embed_operator(matrix, slots))``, but read from
    the ``block x block`` matrix alone: only the ``2*block - 1`` shifts
    that stay inside a block can be nonzero, and every block repeats
    the first one's diagonal, so the ``slots x slots`` operator is
    never built.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    block = matrix.shape[0]
    if matrix.shape != (block, block):
        raise ParameterError("operator must be square")
    if block > slots or slots % block != 0:
        raise ParameterError("block must divide the slot space")
    rows = np.arange(block)
    diagonals = {}
    for shift in sorted({s % slots for s in range(1 - block, block)}):
        # Row i of a block meets column (i + shift) mod slots of the
        # same block exactly when that offset lands inside the block.
        cols = (rows + shift) % slots
        inside = cols < block
        diag = np.zeros(block, dtype=np.complex128)
        diag[inside] = matrix[rows[inside], cols[inside]]
        if np.abs(diag).max() > 1e-12:    # matrix_diagonals' default
            diagonals[shift] = np.tile(diag, slots // block)
    return diagonals
