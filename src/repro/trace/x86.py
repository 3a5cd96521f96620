"""x86/SSE2 listings — the CPU half of the paper's Fig. 4.

Sec. 4.1: a one-element-per-thread kernel compiles to scalar SSE2
(``movsd``/``mulsd``/``addsd``); the element level ("a primitive inner
loop over a fixed number of elements") recovers the packed forms
(``movupd``/``mulpd``/``addpd``).  Both listings print the compile
tracer's lane dataflow.  The tracer collapses a grid-strided span loop
into one ``SpanLoad``/``SpanStore`` per array, printed as ``movupd``
pairs with each scalar broadcast by one hoisted ``movddup``.  The
dialect is just enough to *count and classify* instructions.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.errors import TraceError
from ..core.workdiv import WorkDivMembers

__all__ = [
    "AsmListing",
    "trace_cpu_kernel_scalar",
    "trace_cpu_kernel_spans",
    "classify_fp_instructions",
]

#: SSE2 register width in doubles.
SSE2_LANES = 2

_PTR_REGS = ("%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9")

#: ufunc -> SSE2 mnemonic stem (``mul`` -> ``mulsd``/``mulpd``).
_FP_OPS = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
           np.true_divide: "div"}

#: Bounds-guard comparison -> the jump that leaves the guarded body.
_EXIT_JUMP = {"lt": "jge", "le": "jg"}


class AsmListing:
    """An x86 listing: one instruction per line, labels end in ``:``."""

    def __init__(self, name: str = "kernel"):
        self.name = name
        self.instructions: List[str] = []

    def emit(self, text: str) -> None:
        self.instructions.append(text)

    def to_text(self) -> str:
        return "\n".join(
            i if i.endswith(":") else "    " + i for i in self.instructions
        )

    def mnemonics(self) -> List[str]:
        return [
            i.split()[0] for i in self.instructions if not i.endswith(":")
        ]


class _X86:
    """Prints one trace as x86 (the printer protocol of
    :func:`~repro.trace.listing.print_listing`).

    A value is a register name (``%r1N`` or ``%xmmN``), a list of xmm
    registers (a span, :data:`SSE2_LANES` doubles each) or a literal.
    """

    def __init__(self, kernel, scalars, bound: bool):
        self.out = AsmListing(getattr(kernel, "__name__",
                                      type(kernel).__name__))
        #: Argument position -> pointer register.
        self.pointers = {}
        self.values, self.consts, self.broadcasts = {}, {}, {}
        self.xmm = self.gp = 0
        self.exit = None
        #: The register of ``scalars[0]`` when it is the symbolic bound.
        self.bound = self._new_gp() if bound else None
        if bound:
            self.out.emit(f"mov <n>, {self.bound}")
        for s in scalars[1:]:
            self._xmm(s)

    def _new_xmm(self) -> str:
        self.xmm += 1
        return f"%xmm{(self.xmm - 1) % 16}"

    def _new_gp(self) -> str:
        self.gp += 1
        return f"%r1{(self.gp - 1) % 6}"

    # -- printer protocol -----------------------------------------------

    def guard(self, op, lane, bound) -> None:
        idx, limit = self._gp(lane), self._gp(bound)
        self.exit = ".L1"
        self.out.emit(f"cmp {limit}, {idx}")
        self.out.emit(f"{_EXIT_JUMP[op]} {self.exit}")

    def effect(self, st) -> None:
        kind = type(st).__name__
        if kind == "Store":
            value = self._xmm(self._value(st.value))
            self.out.emit(f"movsd {value}, {self._element(st)}")
        elif kind == "SpanStore":
            base = self.pointers[st.pos]
            regs = self._lanes(self._value(st.value), self._extent(st))
            for k, reg in enumerate(regs):
                self.out.emit(f"movupd {reg}, {16 * k}({base})")
        else:
            raise TraceError(f"no x86 form for {kind}")

    def finish(self) -> AsmListing:
        if self.exit is not None:
            self.out.emit(f"{self.exit}:")
        return self.out

    # -- values ---------------------------------------------------------

    def _value(self, node):
        """The printed value of ``node`` (once per node)."""
        kind = type(node).__name__
        if kind == "Const":
            return node.value
        if kind == "Arg" and node.pos == 0 and self.bound:
            return self.bound
        if node not in self.values:
            if kind == "LaneIndex":
                reg = self._new_gp()
                name = node.kind.replace("grid_thread", "thread_linear")
                self.out.emit(f"mov <{name}>, {reg}")
            elif kind == "Load":
                src = self._element(node)
                reg = self._new_xmm()
                self.out.emit(f"movsd {src}, {reg}")
            elif kind == "SpanLoad":
                base, reg = self.pointers[node.pos], []
                for k in range(self._extent(node) // SSE2_LANES):
                    reg.append(self._new_xmm())
                    self.out.emit(f"movupd {16 * k}({base}), {reg[-1]}")
            elif kind == "Ufunc" and node.fn in _FP_OPS:
                reg = self._fp(_FP_OPS[node.fn], *map(self._value, node.args))
            else:
                raise TraceError(f"no x86 form for {kind}")
            self.values[node] = reg
        return self.values[node]

    def _fp(self, stem: str, a, b):
        """``a stem b``: scalar SSE2, or packed across a span."""
        if not isinstance(a, list) and not isinstance(b, list):
            a, b = self._xmm(a), self._xmm(b)
            dst = self._new_xmm()
            self.out.emit(f"movapd {a}, {dst}")
            self.out.emit(f"{stem}sd {b}, {dst}")
            return dst
        if not isinstance(a, list) and stem in ("add", "mul"):
            a, b = b, a  # commutative: operate on the span in place
        count = SSE2_LANES * len(a if isinstance(a, list) else b)
        out = []
        for x, y in zip(self._lanes(a, count), self._lanes(b, count)):
            out.append(self._new_xmm())
            self.out.emit(f"movapd {x}, {out[-1]}")
            self.out.emit(f"{stem}pd {y}, {out[-1]}")
        return out

    def _gp(self, node) -> str:
        value = self._value(node)
        if isinstance(value, (int, np.integer)):
            return f"${int(value)}"
        if isinstance(value, str) and not value.startswith("%xmm"):
            return value
        raise TraceError("x86 listings index with integer registers only")

    def _xmm(self, value) -> str:
        if isinstance(value, (int, float, np.number)):
            if float(value) not in self.consts:
                self.consts[float(value)] = reg = self._new_xmm()
                self.out.emit(f"movsd ${float(value)}, {reg}")
            return self.consts[float(value)]
        if isinstance(value, str) and value.startswith("%xmm"):
            return value
        raise TraceError(f"x86 listings do double arithmetic, not {value!r}")

    def _lanes(self, value, count: int) -> List[str]:
        """``value`` as packed registers holding ``count`` doubles; a
        scalar is broadcast by one ``movddup``, hoisted and reused."""
        if isinstance(value, list):
            if len(value) * SSE2_LANES != count:
                raise TraceError("span length mismatch in vector op")
            return value
        src = self._xmm(value)
        if src not in self.broadcasts:
            self.broadcasts[src] = self._new_xmm()
            self.out.emit(f"movddup {src}, {self.broadcasts[src]}")
        return [self.broadcasts[src]] * (count // SSE2_LANES)

    def _element(self, access) -> str:
        if len(access.index) != 1:
            raise TraceError("x86 listings index 1-d arrays only")
        idx, base = self._gp(access.index[0]), self.pointers[access.pos]
        if idx.startswith("$"):
            return f"{8 * int(idx[1:])}({base})"
        return f"({base},{idx},8)"

    def _extent(self, span) -> int:
        if type(span.extent).__name__ != "Const":
            raise TraceError("span listings need a concrete extent")
        count = int(span.extent.value)
        if count <= 0 or count % SSE2_LANES:
            raise TraceError(
                f"span of {count} doubles does not fill SSE2 lanes"
            )
        return count


def _print(kernel, array_names, scalars, bound: bool, work_div):
    from .listing import print_listing

    if len(array_names) > len(_PTR_REGS):
        raise TraceError("out of pointer argument registers")
    printer = _X86(kernel, scalars, bound)
    params = [None if bound else scalars[0], *scalars[1:]]
    printer.pointers = dict(enumerate(_PTR_REGS, len(params)))
    params += [np.dtype(np.float64)] * len(array_names)
    return print_listing(printer, kernel, params, work_div, printer.out.name)


def trace_cpu_kernel_scalar(kernel, array_names: Sequence[str], *scalars):
    """Print a one-element-per-thread kernel body as scalar SSE2.

    ``scalars`` are the leading non-array kernel arguments after the
    accelerator (e.g. ``n, alpha`` for DAXPY): ``n`` is traced as the
    symbolic bound register, the others are literals loaded up front.
    ``array_names`` name the double-pointer arguments that follow.
    """
    return _print(kernel, array_names, scalars, True,
                  WorkDivMembers.make(1, 1, 1))


def trace_cpu_kernel_spans(kernel, array_names: Sequence[str], *scalars,
                           span: int = 4):
    """Print an element-span kernel as packed SSE2.

    Each thread owns ``span`` elements; the tracer collapses the
    grid-strided loop over the concrete extent ``scalars[0]`` — the
    paper's "primitive inner loop over a fixed number of elements".
    """
    return _print(kernel, array_names, scalars, False,
                  WorkDivMembers.make(1, 1, span))


def classify_fp_instructions(ctx: AsmListing) -> dict:
    """Count packed vs scalar floating-point instructions — the metric
    the paper's Fig. 4 discussion turns on."""
    packed = scalar = 0
    for m in ctx.mnemonics():
        # movapd is a register copy used by both paths; it classifies
        # neither way.
        if m in ("movupd", "mulpd", "addpd", "subpd", "divpd", "movddup"):
            packed += 1
        elif m in ("movsd", "mulsd", "addsd", "subsd", "divsd"):
            scalar += 1
    return {"packed": packed, "scalar": scalar}
