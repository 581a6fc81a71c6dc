"""Analytic all-bank PIM execution model (Alg. 1 generalized).

For every PIM instruction the execution loop is the one Alg. 1 shows
for PAccum⟨4⟩: iterate over the bank's chunks in granularity
``G = floor(B / buffer_polys)``; per iteration, activate one row per
PolyGroup phase and stream ``polys x G`` chunks through the MMAC lanes
(one chunk per PIM clock).  Because all banks operate in lockstep
(§VI), the ACT/PRE turnarounds are fully exposed for near-bank PIM,
while custom-HBM units — each serving several banks — overlap one
bank's row turnaround with another bank's streaming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.trace import PimKernel
from repro.errors import ParameterError
from repro.faults.plan import FaultModel
from repro.pim import isa
from repro.pim.configs import PimConfig, PimVariant


@dataclass(frozen=True)
class PimCost:
    """Time/energy and DRAM-command accounting for one PIM kernel."""

    time: float
    energy: float
    activations: int        # row ACT/PRE pairs, summed over all banks
    chunk_accesses: int     # column accesses, summed over all banks
    internal_bytes: float   # bytes moved inside the DRAM devices

    def __add__(self, other: "PimCost") -> "PimCost":
        return PimCost(
            time=self.time + other.time,
            energy=self.energy + other.energy,
            activations=self.activations + other.activations,
            chunk_accesses=self.chunk_accesses + other.chunk_accesses,
            internal_bytes=self.internal_bytes + other.internal_bytes,
        )

    def truncated(self, time: float) -> "PimCost":
        """The pro-rata share of this execution killed at ``time``."""
        fraction = time / self.time
        return PimCost(
            time=time,
            energy=self.energy * fraction,
            activations=int(self.activations * fraction),
            chunk_accesses=int(self.chunk_accesses * fraction),
            internal_bytes=self.internal_bytes * fraction,
        )


ZERO_COST = PimCost(0.0, 0.0, 0, 0, 0.0)


class PimExecutor:
    """Costs :class:`PimKernel` descriptors against a :class:`PimConfig`."""

    def __init__(self, config: PimConfig, metrics=None):
        self.config = config
        self.metrics = metrics
        if metrics is not None:
            self._m_instructions = metrics.counter(
                "anaheim_pim_instructions_total",
                "PIM kernel costings by ISA instruction",
                labelnames=("instruction",))
            self._m_activations = metrics.counter(
                "anaheim_pim_activations_total",
                "Row ACT/PRE pairs summed over all banks")
            self._m_internal = metrics.counter(
                "anaheim_pim_internal_bytes_total",
                "Bytes moved inside the DRAM devices")

    def supports(self, instruction: str, fan_in: int = 1) -> bool:
        """Whether the data buffer is large enough (Fig. 9: small B
        cannot run some compound instructions)."""
        inst = isa.instruction(instruction)
        return self.config.buffer_entries >= inst.min_buffer(fan_in)

    def chunk_granularity(self, instruction: str, fan_in: int = 1) -> int:
        """G — chunks of each polynomial buffered per loop iteration.

        Bounded by the data buffer (``B / buffer_polys``, Alg. 1) *and*
        by row capacity: one row must hold G chunks of every polynomial
        in the widest PolyGroup (Fig. 7's column partitioning).
        """
        inst = isa.instruction(instruction)
        g = self.config.buffer_entries // inst.buffer_polys(fan_in)
        if g < 1:
            raise ParameterError(
                f"{instruction}<{fan_in}> needs B >= "
                f"{inst.min_buffer(fan_in)}; have {self.config.buffer_entries}")
        row_cap = (self.config.geometry.chunks_per_row
                   // inst.widest_group(fan_in))
        return max(1, min(g, row_cap))

    # -- Fault effects on the command stream --------------------------------

    @staticmethod
    def apply_fault(cost: PimCost, fault) -> PimCost:
        """Cost of one execution under an instruction-stream fault.

        A *dropped* compound instruction never issues: the slot costs
        nothing, but the destination rows keep their stale contents
        (caught downstream by the residue checksum).  A *duplicated*
        instruction executes twice, paying double the commands and
        energy — harmless for pure instructions, corrupting for the
        accumulating ones.
        """
        if fault is FaultModel.PIM_INSTR_DROP:
            return ZERO_COST
        if fault is FaultModel.PIM_INSTR_DUP:
            return cost + cost
        return cost

    # -- Core timing --------------------------------------------------------

    def cost(self, kernel: PimKernel, fault=None) -> PimCost:
        cfg = self.config
        inst = isa.instruction(kernel.instruction)
        fan_in = kernel.fan_in
        g = self.chunk_granularity(kernel.instruction, fan_in)
        geom = cfg.geometry
        chunks = geom.chunks_per_bank(kernel.degree)
        iterations = math.ceil(chunks / g)
        polys = inst.total_polys(fan_in)
        if kernel.column_partitioned:
            act_pairs = inst.row_groups(fan_in)
        else:
            act_pairs = inst.naive_row_groups(fan_in)

        stream_cycles_per_limb = (polys * chunks * cfg.banks_per_unit
                                  * cfg.cycles_per_chunk)
        stream_time = stream_cycles_per_limb / cfg.clock_hz
        # All banks served by one unit activate their rows in lockstep
        # (independent row buffers), so the turnaround count does not
        # grow with banks_per_unit — custom-HBM streams 8x the chunks
        # per activation pair, which is why it "better hides the
        # overhead for accessing DRAM banks" (§VII-B).
        act_time = iterations * act_pairs * cfg.timing.row_turnaround
        limb_time = stream_time + act_time

        rounds = math.ceil(kernel.limbs / geom.die_groups)
        time = rounds * limb_time

        # -- Command and energy accounting over every involved bank.
        limbs = kernel.limbs
        banks = geom.banks_per_group
        total_acts = limbs * banks * iterations * act_pairs
        total_chunks = limbs * banks * polys * chunks
        internal_bytes = total_chunks * cfg.chunk_bytes
        ops = limbs * kernel.degree * inst.ops_per_element * (
            fan_in if inst.compound else 1)
        energy = (total_acts * cfg.energy.act_energy
                  + internal_bytes * 8.0 * cfg.access_pj_per_bit() * 1e-12
                  + ops * cfg.mmac_pj_per_op * 1e-12)
        if self.metrics is not None:
            self._m_instructions.inc(instruction=kernel.instruction)
            self._m_activations.inc(total_acts)
            self._m_internal.inc(internal_bytes)
        return self.apply_fault(
            PimCost(time=time, energy=energy, activations=total_acts,
                    chunk_accesses=total_chunks,
                    internal_bytes=internal_bytes), fault)

    def verify_cost(self, kernel: PimKernel) -> float:
        """Modeled residue-checksum verification time for one kernel.

        The checksum lanes reduce each output chunk as it streams out of
        the MMAC array, so verification costs a small fixed fraction of
        the kernel's own streaming time (no extra row activations)."""
        return self.cost(kernel).time * 0.02

    def trace_cost(self, kernels) -> PimCost:
        total = ZERO_COST
        for kernel in kernels:
            total = total + self.cost(kernel)
        return total
