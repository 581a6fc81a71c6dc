"""High-level block IR: the unit the Anaheim framework reasons about.

A *block* is one logical step of an FHE op sequence (Fig. 1 / Fig. 5):
ModUp, KeyMult, PMULT pairs, AutAccum, ModDown, Tensor, rescale, and so
on.  Workload builders (:mod:`repro.workloads`) emit block lists; the
lowering pass (:mod:`repro.core.fusion`) turns blocks into GPU/PIM
kernel traces according to the active optimization level.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Block:
    """One logical FHE step.

    ``kind`` selects the lowering rule; ``limbs`` is the number of
    Q-basis limbs the step operates on (the extended modulus adds
    ``aux`` more where relevant).  Remaining knobs parameterize the
    specific kinds (see :mod:`repro.core.fusion` for the lowering of
    each).  Blocks are frozen: workloads repeat one block object many
    times, and the lowering reuses its kernels for every repeat.
    """

    kind: str
    limbs: int
    aux: int = 0
    dnum: int = 1
    count: int = 1          # fan-in K for accumulations / pair counts
    polys: int = 1
    streaming: bool = False
    note: str = ""
    attrs: dict = field(default_factory=dict)

    def key(self) -> tuple:
        """The block's value as a hashable tuple, ``attrs`` read by value.

        Blocks with equal keys lower to the same kernels.
        """
        return (self.kind, self.limbs, self.aux, self.dnum, self.count,
                self.polys, self.streaming, self.note,
                tuple(sorted(self.attrs.items())) if self.attrs else ())


# -- Builders for the § II-B primary op sequences ------------------------------


def mod_up(limbs: int, aux: int, dnum: int, polys: int = 1) -> Block:
    """ModUp: INTT -> D x BConv -> NTT, extending to the PQ basis."""
    return Block(kind="modup", limbs=limbs, aux=aux, dnum=dnum, polys=polys)


def key_mult(limbs: int, aux: int, dnum: int) -> Block:
    """KeyMult: inner product of the digit vector with one evk."""
    return Block(kind="keymult", limbs=limbs, aux=aux, dnum=dnum,
                 streaming=True)


def pmult_pair(limbs: int, accumulate: bool = False) -> Block:
    """PMULT of a ciphertext pair by a (streamed) plaintext."""
    kind = "pmac_pair" if accumulate else "pmult_pair"
    return Block(kind=kind, limbs=limbs, streaming=True)


def mac_pair(limbs: int) -> Block:
    """Constant mult-and-add on a ciphertext pair (the HROT MAC step)."""
    return Block(kind="mac_pair", limbs=limbs)


def automorphism_pair(limbs: int) -> Block:
    return Block(kind="automorphism_pair", limbs=limbs)


def aut_accum(limbs: int, count: int) -> Block:
    """K automorphism+accumulate steps (fusible into one AutAccum)."""
    return Block(kind="aut_accum", limbs=limbs, count=count)


def mod_down(limbs: int, aux: int) -> Block:
    """ModDown of a ciphertext pair from PQ back to Q."""
    return Block(kind="moddown_pair", limbs=limbs, aux=aux)


def rescale_pair(limbs: int) -> Block:
    return Block(kind="rescale_pair", limbs=limbs)


def tensor(limbs: int) -> Block:
    """The HMULT tensor product (d0, d1, d2)."""
    return Block(kind="tensor", limbs=limbs)


def hadd(limbs: int) -> Block:
    return Block(kind="hadd", limbs=limbs)


def caccum(limbs: int, count: int) -> Block:
    """Constant-coefficient accumulation over K pairs (CAccum⟨K⟩)."""
    return Block(kind="caccum", limbs=limbs, count=count)


def elementwise(name: str, limbs: int, reads: int, writes: int,
                ops: float = 1.0, streaming_reads: int = 0,
                instruction: str | None = None, fan_in: int = 1) -> Block:
    """Escape hatch for irregular element-wise steps."""
    return Block(kind="ew", limbs=limbs, attrs={
        "name": name, "reads": reads, "writes": writes, "ops": ops,
        "streaming_reads": streaming_reads, "instruction": instruction,
        "fan_in": fan_in})


def raw_ntt(limbs: int, inverse: bool = False) -> Block:
    return Block(kind="intt" if inverse else "ntt", limbs=limbs)


def raw_bconv(in_limbs: int, out_limbs: int) -> Block:
    return Block(kind="bconv", limbs=in_limbs,
                 attrs={"out_limbs": out_limbs})
