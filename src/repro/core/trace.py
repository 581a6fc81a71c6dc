"""Kernel-level intermediate representation of FHE execution.

The Anaheim software framework translates programmer-level FHE code into
GPU kernels, API calls, and PIM kernels (Fig. 4a).  This module defines
the IR those passes manipulate:

* :class:`GpuKernel` — a device kernel with exact modular-op and byte
  counts, categorized per the paper's breakdown ((I)NTT, BConv,
  element-wise, automorphism).
* :class:`PimKernel` — a batch of PIM instructions (Table II) executed
  all-bank over a set of limbs.
* :class:`Trace` — an ordered kernel list plus helpers the fusion,
  reordering, and offload passes use.

Kernels are frozen values: the lowering shares one kernel object among
every repeat of a block, and the scheduler prices each distinct kernel
once per run, so a kernel must never change after it is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class OpCategory(enum.Enum):
    """Execution-time breakdown categories used throughout Figs. 2-10."""

    NTT = "ntt"                    # forward and inverse NTT
    BCONV = "bconv"                # basis conversion matrix products
    ELEMENTWISE = "elementwise"    # modular add/mult/MAC and friends
    AUTOMORPHISM = "automorphism"  # coefficient permutations
    TRANSFER = "transfer"          # host/device or writeback traffic


#: Category labels for reports, matching the paper's figure legends.
CATEGORY_LABELS = {
    OpCategory.NTT: "(I)NTT",
    OpCategory.BCONV: "BConv",
    OpCategory.ELEMENTWISE: "Element-wise",
    OpCategory.AUTOMORPHISM: "Automorphism",
    OpCategory.TRANSFER: "Transfer",
}


@dataclass(frozen=True)
class GpuKernel:
    """One GPU kernel launch with analytic cost inputs.

    ``mod_ops`` counts modular multiplications (the dominant op; each
    expands to several integer instructions on a GPU — §III-A D2).
    ``bytes_read``/``bytes_written`` are the kernel's *memory footprint*;
    ``streaming_bytes`` is the subset guaranteed to miss cache (one-use
    data such as evks and plaintexts — §V-D).
    """

    name: str
    category: OpCategory
    mod_ops: float
    bytes_read: float
    bytes_written: float
    streaming_bytes: float = 0.0
    #: Free-form markers used by the optimization passes, e.g.
    #: "fusible", "evk-load", "pim-offloadable", "writeback".
    tags: frozenset = frozenset()

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    def tagged(self, *tags: str) -> "GpuKernel":
        return replace(self, tags=self.tags | frozenset(tags))

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


@dataclass(frozen=True)
class PimKernel:
    """A PIM kernel: one Table II instruction over many limb-vectors.

    ``instruction`` names the PIM ISA entry; ``limbs`` is how many
    N-element limbs each operand contributes; ``fan_in`` is K for
    compound instructions (PAccum⟨K⟩ / CAccum⟨K⟩).  The PIM executor
    (:mod:`repro.pim.executor`) turns this into DRAM command counts.
    """

    name: str
    instruction: str
    limbs: int
    degree: int
    fan_in: int = 1
    #: Set False for the w/o-CP ablation (Fig. 10) — the executor then
    #: charges one row activation per polynomial access group.
    column_partitioned: bool = True
    tags: frozenset = frozenset()

    @property
    def category(self) -> OpCategory:
        return OpCategory.ELEMENTWISE

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


@dataclass
class Trace:
    """An ordered sequence of kernels plus workload metadata."""

    kernels: list = field(default_factory=list)
    label: str = ""

    def append(self, kernel) -> None:
        self.kernels.append(kernel)

    def extend(self, kernels) -> None:
        self.kernels.extend(kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def gpu_kernels(self):
        return [k for k in self.kernels if isinstance(k, GpuKernel)]

    def pim_kernels(self):
        return [k for k in self.kernels if isinstance(k, PimKernel)]

    def by_category(self) -> dict:
        """Group kernels by their breakdown category."""
        groups: dict = {}
        for kernel in self.kernels:
            groups.setdefault(kernel.category, []).append(kernel)
        return groups

    def count(self, category: OpCategory) -> int:
        return sum(1 for k in self.kernels if k.category == category)

    def total_mod_ops(self) -> float:
        return sum(k.mod_ops for k in self.gpu_kernels())

    def total_gpu_bytes(self) -> float:
        return sum(k.total_bytes for k in self.gpu_kernels())

    def repeated(self, times: int, label: str | None = None) -> "Trace":
        """A trace that executes this one ``times`` times."""
        out = Trace(label=label or f"{self.label} x{times}")
        for _ in range(times):
            out.extend(self.kernels)
        return out

    def concat(self, other: "Trace", label: str | None = None) -> "Trace":
        out = Trace(label=label or self.label)
        out.extend(self.kernels)
        out.extend(other.kernels)
        return out
