"""PTX listings — the GPU half of the paper's Fig. 4.

nvcc's PTX for the Alpaka and the native CUDA DAXPY is identical up to
register names and one non-coherent load.  The reproduction traces each
kernel once with the compile tracer (through :mod:`repro.trace.listing`)
and prints its lane dataflow into an :class:`~repro.trace.ir.IRBuilder`:
parameters first, in spec order; lane indices read ``%ctaid/%ntid/%tid``
(the global thread index is one ``mad.lo.s32``); the ``if i < n:``
bounds guard is the negated ``setp`` plus ``@%p bra`` to the exit;
``add(mul(a, b), c)`` contracts to ``fma.rn``, as nvcc does;
``mul.wide`` is emitted once per (index, itemsize) and ``cvta`` once per
pointer, so a store reuses its load's address; pointers declared
``const_array`` (``const __restrict__``) load through ``ld.global.nc``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence, Tuple, Union

import numpy as np

from ..core.errors import TraceError
from ..core.index import Grid, Threads, get_idx
from ..core.workdiv import WorkDivMembers
from .ir import IRBuilder

__all__ = ["ArgSpec", "trace_alpaka_kernel", "trace_cuda_kernel"]

#: ("int", name) | ("float", name) | ("array", name) | ("const_array", name),
#: each optionally with a third element: the element dtype of an array
#: parameter (default float64) — e.g. ("array", "counts", np.int32).
#: The dtype scales the byte-offset computation and selects the
#: ``ld``/``st`` type suffix.
ArgSpec = Union[Tuple[str, str], Tuple[str, str, object]]

_AXES = ("x", "y", "z")

#: PTX type -> virtual register class.
_REG_CLASS = {"f64": "fd", "f32": "f", "s32": "r", "u32": "r",
              "s64": "rd", "u64": "rd"}

#: Bounds-guard comparison -> the negated condition that exits.
_NEGATED = {"lt": "ge", "le": "gt"}

#: ufunc -> (integer opcode, floating-point opcode).
_ARITH = {
    np.add: ("add", "add"),
    np.subtract: ("sub", "sub"),
    np.multiply: ("mul.lo", "mul"),
    np.true_divide: (None, "div.rn"),
    np.negative: ("neg", "neg"),
}


def _ptx_type(dtype) -> str:
    dt = np.dtype(dtype)
    t = {"f": "f", "i": "s", "u": "u"}.get(dt.kind, "?") + str(8 * dt.itemsize)
    if t not in _REG_CLASS:
        raise TraceError(f"no PTX type for dtype {dt}")
    return t


def _is(node, kind: str) -> bool:
    # By class name: the IR classes live in repro.compile, which
    # ``import repro`` must not load.
    return type(node).__name__ == kind


class _Ptx:
    """Prints one trace as PTX (the printer protocol of
    :func:`~repro.trace.listing.print_listing`)."""

    def __init__(self, name: str, specs: Sequence[ArgSpec], dim: int):
        self.b = IRBuilder(name)
        self.dim = dim
        #: Per argument: (register, type) of a scalar, or (register,
        #: element type, dtype, non-coherent) of a pointer.
        self.params = []
        for kind, pname, *dtype in specs:
            if kind in ("int", "float"):
                t = "s32" if kind == "int" else "f64"
                self.params.append((self.b.new_reg(_REG_CLASS[t]), t))
            elif kind in ("array", "const_array"):
                dtype = np.dtype(dtype[0] if dtype else np.float64)
                self.params.append((self.b.new_reg("rd"), _ptx_type(dtype),
                                    dtype, kind == "const_array"))
            else:
                raise TraceError(
                    f"unknown arg spec kind {kind!r} for {pname!r}"
                )
        self.values = {}
        self.cache = {}
        self.exit = None

    # -- printer protocol -----------------------------------------------

    def guard(self, op, lane, bound) -> None:
        (lhs, rhs), t = self._operands((lane, bound))
        pred = self.b.new_reg("p")
        self.b.emit(f"setp.{_NEGATED[op]}.{t}", pred, lhs, rhs)
        self.exit = self.exit or self.b.new_label()
        self.b.emit("bra", None, self.exit, predicate=pred)

    def effect(self, effect) -> None:
        if _is(effect, "Barrier"):
            self.b.emit("bar.sync", None, "0")
        elif _is(effect, "SharedLoad"):
            self._value(effect)
        elif _is(effect, "Store") or _is(effect, "SharedStore"):
            space, state, t, dtype, _ = self._space(effect)
            (value,), _ = self._operands((effect.value,), t)
            addr = self._address(space, effect.index, dtype.itemsize)
            self.b.emit(f"st.{state}.{t}", None, addr, value)
        else:
            raise TraceError(f"no PTX form for {type(effect).__name__}")

    def finish(self) -> IRBuilder:
        if self.exit is not None:
            self.b.emit_label(self.exit)
        return self.b

    # -- values ---------------------------------------------------------

    def _emit(self, op: str, t: str, *srcs) -> str:
        dst = self.b.new_reg(_REG_CLASS[t])
        self.b.emit(op, dst, *srcs)
        return dst

    def _once(self, key, op: str, cls: str, *srcs) -> str:
        """The register of ``op srcs``, emitted once per ``key``."""
        if key not in self.cache:
            self.cache[key] = self.b.new_reg(cls)
            self.b.emit(op, self.cache[key], *srcs)
        return self.cache[key]

    def _value(self, node) -> Tuple[str, str]:
        """(register, type) of a non-literal ``node``, printed once."""
        if node not in self.values:
            if _is(node, "Arg"):
                value = self.params[node.pos][:2]
            elif _is(node, "LaneIndex"):
                value = self._lane(node), "s32"
            elif _is(node, "Load") or _is(node, "SharedLoad"):
                space, state, t, dtype, nc = self._space(node)
                addr = self._address(space, node.index, dtype.itemsize)
                nc = ".nc" if nc else ""
                value = self._emit(f"ld.{state}{nc}.{t}", t, addr), t
            elif _is(node, "Ufunc"):
                value = self._ufunc(node)
            else:
                raise TraceError(f"no PTX form for {type(node).__name__}")
            self.values[node] = value
        return self.values[node]

    def _type(self, nodes) -> str:
        """The type of an operation on ``nodes``: its first non-literal
        operand's, else that of its first literal."""
        for n in nodes:
            if not _is(n, "Const"):
                return self._value(n)[1]
        return "f64" if isinstance(nodes[0].value, float) else "s32"

    def _operands(self, nodes, t=None):
        """Registers of ``nodes`` in type ``t`` (default: their
        :meth:`_type`).  Literals are moved in as that type."""
        t = t or self._type(nodes)
        typed = [self._value(n) for n in nodes if not _is(n, "Const")]
        if any(have != t for _, have in typed):
            raise TraceError(
                f"mixed {t}/{'/'.join(have for _, have in typed)} operands "
                f"need a cvt the listing does not print"
            )
        regs = iter(reg for reg, _ in typed)
        return [self._literal(n.value, t) if _is(n, "Const") else next(regs)
                for n in nodes], t

    def _literal(self, value, t: str) -> str:
        if t == "f64":
            imm = f"0d{np.float64(value).view(np.uint64):016X}"
        elif t == "f32":
            imm = f"0f{np.float32(value).view(np.uint32):08X}"
        else:
            imm = str(int(value))
        return self._emit(f"mov.{t.replace('s', 'u')}", t, imm)

    def _lane(self, node) -> str:
        axis = _AXES[self.dim - 1 - node.axis]

        def sreg(name):
            name = f"%{name}.{axis}"
            return self._once(("sreg", name), "mov.u32", "r", name)

        if node.kind == "block":
            return sreg("ctaid")
        if node.kind == "thread":
            return sreg("tid")
        ctaid, ntid, tid = sreg("ctaid"), sreg("ntid"), sreg("tid")
        return self._emit("mad.lo.s32", "s32", ntid, ctaid, tid)

    def _ufunc(self, node) -> Tuple[str, str]:
        if node.fn is np.add:
            for prod, addend in (node.args, node.args[::-1]):
                operands = (*getattr(prod, "args", ()), addend)
                if (_is(prod, "Ufunc") and prod.fn is np.multiply
                        and self._type(operands)[0] == "f"):
                    srcs, t = self._operands(operands)
                    return self._emit(f"fma.rn.{t}", t, *srcs), t
        srcs, t = self._operands(node.args)
        op = _ARITH.get(node.fn, (None, None))[t[0] == "f"]
        if op is None:
            name = getattr(node.fn, "__name__", repr(node.fn))
            raise TraceError(f"no PTX form for {name} on {t}")
        return self._emit(f"{op}.{t}", t, *srcs), t

    # -- addressing -----------------------------------------------------

    def _space(self, access):
        """(space, state space, type, dtype, non-coherent) of a load or
        store: a pointer's argument position, or a shared array."""
        if hasattr(access, "name"):
            t = _ptx_type(access.dtype)
            return access.name, "shared", t, access.dtype, False
        return (access.pos, "global") + self.params[access.pos][1:]

    def _address(self, space, index, itemsize: int) -> str:
        if len(index) != 1:
            raise TraceError("PTX listings index 1-d arrays only")
        (idx,) = index
        if _is(idx, "Const"):  # a literal index is an immediate offset
            off = str(int(idx.value) * itemsize)
        else:
            (reg,), _ = self._operands((idx,), "s32")
            off = self._once(("off", idx, itemsize), "mul.wide.s32", "rd",
                             reg, str(itemsize))
        op, src = (("mov.u64", f"%{space}") if isinstance(space, str) else
                   ("cvta.to.global.u64", self.params[space][0]))
        base = self._once(("base", space), op, "rd", src)
        return self._once(("addr", space, off), "add.s64", "rd", base, off)


def trace_alpaka_kernel(
    kernel,
    arg_specs: Sequence[ArgSpec],
    *,
    dim: int = 1,
    name: str = "alpaka_kernel",
) -> IRBuilder:
    """Print an alpaka kernel as PTX.

    ``arg_specs`` describes the kernel parameters after the accelerator,
    in order.  The listing's work division is one thread, so
    ``get_work_div`` extents print as immediates.  Raises
    :class:`~repro.core.errors.TraceError` naming the reason when the
    tracer cannot represent the kernel.
    """
    from .listing import print_listing

    if not 1 <= dim <= 3:
        raise TraceError(f"PTX listings have 1..3 dimensions, got {dim}")
    printer = _Ptx(name, arg_specs, dim)
    params = [p[2] if len(p) == 4 else None for p in printer.params]
    work_div = WorkDivMembers.make(1, 1, 1, dim=dim)
    return print_listing(printer, kernel, params, work_div, name)


def trace_cuda_kernel(
    kernel,
    arg_specs: Sequence[ArgSpec],
    *,
    name: str = "cuda_kernel",
) -> IRBuilder:
    """Print a native CUDA-style kernel ``kernel(cu, *args)`` as PTX.

    ``cu.global_thread_idx_x()`` is CUDA C's ``blockDim.x * blockIdx.x +
    threadIdx.x``: the tracer's grid-thread lane.
    """

    def run(acc, *args):
        lane = get_idx(acc, Grid, Threads)[0]
        kernel(SimpleNamespace(global_thread_idx_x=lambda: lane), *args)

    return trace_alpaka_kernel(run, arg_specs, name=name)
