"""Lowering of block IR into kernel traces, with kernel fusion.

Implements the paper's three fusion levels (§VII-D, Fig. 10) plus PIM
offloading (§V):

* **Base** — Cheddar-style baseline: constant-polynomial element-wise
  ops are already embedded into the (I)NTT kernels; everything else is
  one kernel per logical op.
* **+BasicFuse** — compound kernels: KeyMult chains fuse into
  PAccum⟨D⟩, constant accumulations into CAccum⟨K⟩, Tensor products
  into single Tensor kernels.
* **+ExtraFuse** — GPU-only extra fusion (e.g. ModDown fusion from
  [38]) applied when PIM is absent; with Anaheim the same ops are
  handled by PIM instead.
* **+AutFuse** — automorphism+accumulate merges into one AutAccum
  kernel (§V-B).

With ``offload=True``, element-wise kernels carrying a PIM instruction
become :class:`PimKernel` records and the producing ModUp NTT kernels
gain coherence write-back traffic (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.blocks import Block
from repro.core.trace import GpuKernel, OpCategory, PimKernel, Trace
from repro.errors import ParameterError
from repro.gpu import kernels as gk


@dataclass(frozen=True)
class LoweringOptions:
    """Optimization level of the software framework."""

    basic_fuse: bool = True
    aut_fuse: bool = True
    extra_fuse: bool = False
    offload: bool = False
    column_partitioned: bool = True

    def describe(self) -> str:
        parts = []
        if self.basic_fuse:
            parts.append("BasicFuse")
        if self.aut_fuse:
            parts.append("AutFuse")
        if self.extra_fuse:
            parts.append("ExtraFuse")
        if self.offload:
            parts.append("PIM" + ("" if self.column_partitioned else " w/o CP"))
        return "+".join(parts) if parts else "Base"


#: The GPU-only comparison points of Fig. 10.
GPU_BASE = LoweringOptions(basic_fuse=False, aut_fuse=False)
GPU_BASIC_FUSE = LoweringOptions(basic_fuse=True, aut_fuse=False)
GPU_EXTRA_FUSE = LoweringOptions(basic_fuse=True, aut_fuse=False,
                                 extra_fuse=True)
GPU_ALL_FUSE = LoweringOptions(basic_fuse=True, aut_fuse=True,
                               extra_fuse=True)
#: The Anaheim points of Fig. 10.
PIM_BASE = LoweringOptions(basic_fuse=False, aut_fuse=False, offload=True)
PIM_BASIC_FUSE = LoweringOptions(basic_fuse=True, aut_fuse=False,
                                 offload=True)
PIM_FULL = LoweringOptions(basic_fuse=True, aut_fuse=True, offload=True)
PIM_NO_CP = LoweringOptions(basic_fuse=True, aut_fuse=True, offload=True,
                            column_partitioned=False)


class Lowering:
    """Lowers block lists for one parameter set and option level."""

    def __init__(self, degree: int, options: LoweringOptions, tracer=None):
        self.degree = degree
        self.options = options
        self.tracer = tracer

    # -- Entry point -----------------------------------------------------------

    def lower(self, blocks, label: str = "") -> Trace:
        trace = Trace(label=label)
        tracer = self.tracer
        for block in blocks:
            handler = getattr(self, f"_lower_{block.kind}", None)
            if handler is None:
                raise ParameterError(f"unknown block kind {block.kind!r}")
            if tracer is None:
                trace.extend(handler(block))
                continue
            with tracer.span(f"lower.{block.kind}", limbs=block.limbs):
                trace.extend(handler(block))
        return trace

    # -- Element-wise emission (GPU kernel or PIM instruction) ------------------

    def _ew(self, name: str, limbs: int, reads: int, writes: int,
            ops: float = 1.0, streaming_reads: int = 0,
            instruction: str | None = None, fan_in: int = 1):
        """Emit one element-wise step on the active device."""
        if self.options.offload and instruction is not None:
            return [PimKernel(
                name=name, instruction=instruction, limbs=limbs,
                degree=self.degree, fan_in=fan_in,
                column_partitioned=self.options.column_partitioned)]
        return [gk.elementwise_kernel(
            name, limbs, self.degree, reads=reads, writes=writes,
            ops_per_element=ops, streaming_reads=streaming_reads)]

    # -- Block lowerings ---------------------------------------------------------

    def _lower_ntt(self, b: Block):
        return [gk.ntt_kernel(b.limbs, self.degree)]

    def _lower_intt(self, b: Block):
        return [gk.ntt_kernel(b.limbs, self.degree, inverse=True)]

    def _lower_bconv(self, b: Block):
        return [gk.bconv_kernel(b.limbs, b.attrs["out_limbs"], self.degree)]

    def _lower_modup(self, b: Block):
        """INTT(L) -> D x BConv -> D x NTT, per input polynomial."""
        ext_new = b.limbs + b.aux - min(b.aux, b.limbs)  # freshly made limbs
        out = []
        for _ in range(b.polys):
            out.append(gk.ntt_kernel(b.limbs, self.degree, inverse=True,
                                     name="modup.intt"))
            for _ in range(b.dnum):
                group = -(-b.limbs // b.dnum)
                out.append(gk.bconv_kernel(group, ext_new, self.degree,
                                           name="modup.bconv"))
                ntt = gk.ntt_kernel(ext_new, self.degree, name="modup.ntt")
                out.append(ntt)
            if self.options.offload:
                # The digits feed the PIM block; the L2 copies must be
                # written back to DRAM first (§V-C coherence).
                out.append(gk.writeback_kernel(
                    b.dnum * (b.limbs + b.aux), self.degree,
                    name="modup.writeback"))
        return out

    def _lower_keymult(self, b: Block):
        ext = b.limbs + b.aux
        if self.options.basic_fuse:
            return self._ew("keymult.paccum", ext,
                            reads=3 * b.dnum, writes=2, ops=2 * b.dnum,
                            streaming_reads=2 * b.dnum,
                            instruction="PAccum", fan_in=b.dnum)
        out = []
        for j in range(b.dnum):
            out += self._ew(f"keymult.mul{j}", ext, reads=2, writes=1,
                            streaming_reads=1, instruction="Mult")
            out += self._ew(f"keymult.mul{j}b", ext, reads=2, writes=1,
                            streaming_reads=1, instruction="Mult")
        for j in range(b.dnum - 1):
            out += self._ew(f"keymult.add{j}", ext, reads=2, writes=1,
                            instruction="Add")
            out += self._ew(f"keymult.add{j}b", ext, reads=2, writes=1,
                            instruction="Add")
        return out

    def _lower_pmult_pair(self, b: Block):
        if self.options.basic_fuse:
            return self._ew("pmult", b.limbs, reads=3, writes=2, ops=1.0,
                            streaming_reads=1, instruction="PMult")
        return (self._ew("pmult.b", b.limbs, reads=2, writes=1,
                         streaming_reads=1, instruction="Mult")
                + self._ew("pmult.a", b.limbs, reads=2, writes=1,
                           streaming_reads=1, instruction="Mult"))

    def _lower_pmac_pair(self, b: Block):
        if self.options.basic_fuse:
            return self._ew("pmac", b.limbs, reads=5, writes=2, ops=1.0,
                            streaming_reads=1, instruction="PMAC")
        out = self._lower_pmult_pair(b)
        out += self._ew("pmac.addb", b.limbs, reads=2, writes=1,
                        instruction="Add")
        out += self._ew("pmac.adda", b.limbs, reads=2, writes=1,
                        instruction="Add")
        return out

    def _lower_mac_pair(self, b: Block):
        if self.options.basic_fuse:
            return self._ew("mac", b.limbs, reads=4, writes=2, ops=1.0,
                            instruction="CMAC")
        return (self._ew("mac.b", b.limbs, reads=2, writes=1,
                         instruction="CMAC")
                + self._ew("mac.a", b.limbs, reads=2, writes=1,
                           instruction="CMAC"))

    def _lower_hadd(self, b: Block):
        return self._ew("hadd", 2 * b.limbs, reads=2, writes=1,
                        instruction="Add")

    def _lower_tensor(self, b: Block):
        if self.options.basic_fuse:
            return self._ew("tensor", b.limbs, reads=4, writes=3, ops=2.0,
                            instruction="Tensor")
        out = []
        for name in ("d0", "d2", "d1x", "d1y"):
            out += self._ew(f"tensor.{name}", b.limbs, reads=2, writes=1,
                            instruction="Mult")
        out += self._ew("tensor.d1add", b.limbs, reads=2, writes=1,
                        instruction="Add")
        return out

    def _lower_caccum(self, b: Block):
        if self.options.basic_fuse:
            return self._ew("caccum", b.limbs, reads=2 * b.count, writes=2,
                            ops=float(b.count), streaming_reads=0,
                            instruction="CAccum", fan_in=b.count)
        out = []
        for i in range(b.count):
            out += self._ew(f"caccum.mul{i}", 2 * b.limbs, reads=1, writes=1,
                            instruction="CMult")
            out += self._ew(f"caccum.add{i}", 2 * b.limbs, reads=2, writes=1,
                            instruction="Add")
        return out

    def _lower_automorphism_pair(self, b: Block):
        return [gk.automorphism_kernel(b.limbs, self.degree, polys=2)]

    def _lower_aut_accum(self, b: Block):
        if self.options.aut_fuse:
            # One fused kernel: reads the 2K term polys once, writes the
            # accumulated pair (adds ride along for free).
            kernel = gk.automorphism_kernel(b.limbs, self.degree,
                                            polys=2 * b.count,
                                            name="autaccum")
            kernel = replace(
                kernel, bytes_written=2 * b.limbs * self.degree * 4.0)
            return [kernel]
        out = []
        for i in range(b.count):
            out.append(gk.automorphism_kernel(b.limbs, self.degree, polys=2,
                                              name=f"aut{i}"))
            if i > 0:
                # Separate accumulation kernels (GPU element-wise).
                out += [gk.elementwise_kernel(
                    f"accum{i}", 2 * b.limbs, self.degree, reads=2, writes=1)]
        return out

    def _lower_moddown_pair(self, b: Block):
        out = []
        for _ in range(2):
            out.append(gk.ntt_kernel(b.aux, self.degree, inverse=True,
                                     name="moddown.intt"))
            out.append(gk.bconv_kernel(b.aux, b.limbs, self.degree,
                                       name="moddown.bconv"))
            out.append(gk.ntt_kernel(b.limbs, self.degree,
                                     name="moddown.ntt"))
        fused_ep = (self.options.extra_fuse or self.options.offload
                    or self.options.basic_fuse)
        if fused_ep:
            out += self._ew("moddown.ep", 2 * b.limbs, reads=2, writes=1,
                            ops=2.0, instruction="ModDownEp")
        else:
            out += self._ew("moddown.sub", 2 * b.limbs, reads=2, writes=1,
                            instruction="Sub")
            out += self._ew("moddown.cmult", 2 * b.limbs, reads=1, writes=1,
                            instruction="CMult")
        return out

    def _lower_rescale_pair(self, b: Block):
        # The element-wise correction is embedded into the NTT kernels
        # (the Base fusion every configuration already includes, §VII-D).
        out = []
        for _ in range(2):
            out.append(gk.ntt_kernel(1, self.degree, inverse=True,
                                     name="rescale.intt"))
            out.append(gk.ntt_kernel(b.limbs - 1, self.degree,
                                     name="rescale.ntt"))
        return out

    def _lower_ew(self, b: Block):
        a = b.attrs
        return self._ew(a["name"], b.limbs, reads=a["reads"],
                        writes=a["writes"], ops=a["ops"],
                        streaming_reads=a["streaming_reads"],
                        instruction=a["instruction"], fan_in=a["fan_in"])


def lower(blocks, degree: int, options: LoweringOptions,
          label: str = "", tracer=None) -> Trace:
    """Convenience wrapper: lower a block list into a kernel trace."""
    return Lowering(degree, options, tracer=tracer).lower(blocks, label=label)
