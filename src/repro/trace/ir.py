"""A PTX-flavoured SSA mini-IR.

Paper Fig. 4 compares the PTX that nvcc generates for the Alpaka and the
native CUDA DAXPY kernels and finds them identical up to register names
and one cache modifier.  This module holds the instruction stream the
PTX printer (:mod:`repro.trace.ptx`) writes, formatted like PTX so the
comparison in :mod:`repro.trace.compare` reads like the paper's figure.

Register classes follow PTX conventions: ``%r`` (32-bit int), ``%rd``
(64-bit int/address), ``%fd`` (64-bit float), ``%p`` (predicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import TraceError

__all__ = ["Instruction", "IRBuilder"]

#: PTX register-class prefixes.
_VALID_CLASSES = ("r", "rd", "f", "fd", "p")


@dataclass(frozen=True)
class Instruction:
    """One IR instruction.

    ``op`` is the full dotted PTX opcode (``"fma.rn.f64"``), ``dst`` the
    destination register (or None for stores/branches), ``srcs`` the
    operand registers/immediates in order.  A label is the pseudo-op
    ``"label"`` with its name as the one source, rendered ``BB1:``.
    """

    op: str
    dst: Optional[str]
    srcs: Tuple[str, ...]
    predicate: Optional[str] = None  # e.g. "%p1" for "@%p1 bra ..."

    def to_text(self) -> str:
        if self.op == "label":
            return f"{self.srcs[0]}:"
        pred = f"@{self.predicate} " if self.predicate else ""
        if self.op.startswith("st.") and len(self.srcs) == 2:
            # st.global.f64 [%rd7], %fd4;
            body = f"{self.op} [{self.srcs[0]}], {self.srcs[1]};"
        elif self.op.startswith("ld.") and self.dst is not None:
            body = f"{self.op} {self.dst}, [{self.srcs[0]}];"
        elif self.op == "bra":
            body = f"bra {self.srcs[0]};"
        elif self.dst is None:
            body = f"{self.op} {', '.join(self.srcs)};"
        else:
            ops = ", ".join((self.dst,) + self.srcs)
            body = f"{self.op} {ops};"
        return pred + body


class IRBuilder:
    """Accumulates instructions and allocates SSA registers."""

    def __init__(self, name: str = "kernel"):
        self.name = name
        self.instructions: List[Instruction] = []
        self._counters: Dict[str, int] = {c: 0 for c in _VALID_CLASSES}
        self._labels = 0

    # -- registers -------------------------------------------------------

    def new_reg(self, cls: str) -> str:
        if cls not in _VALID_CLASSES:
            raise TraceError(f"unknown register class {cls!r}")
        self._counters[cls] += 1
        return f"%{cls}{self._counters[cls]}"

    def new_label(self) -> str:
        self._labels += 1
        return f"BB{self._labels}"

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        op: str,
        dst: Optional[str],
        *srcs: str,
        predicate: Optional[str] = None,
    ) -> Optional[str]:
        self.instructions.append(
            Instruction(op, dst, tuple(str(s) for s in srcs), predicate)
        )
        return dst

    def emit_label(self, label: str) -> None:
        self.instructions.append(Instruction("label", None, (label,)))

    # -- output ---------------------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(
            ins.to_text() if ins.op == "label" else "    " + ins.to_text()
            for ins in self.instructions
        )

    def opcode_stream(self) -> List[str]:
        """Just the opcodes, labels excluded — the coarse signature."""
        return [i.op for i in self.instructions if i.op != "label"]

    def __len__(self) -> int:
        return len(self.instructions)
