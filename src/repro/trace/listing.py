"""Listing traces: the compile tracer, run for printing instead of replay.

Records the lane dataflow (:mod:`repro.compile.exprs`) from parameter
descriptions, plus — for printing only — block-shared loads/stores and
barriers, in program order.  :class:`~repro.compile.tracer.CompileAcc`
itself still falls back on those, so the ``compiled`` schedule is
unaffected.  Imports :mod:`repro.compile`: import this module lazily.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..compile.exprs import Arg, Expr
from ..compile.tracer import (
    CompileAcc,
    CompileFallback,
    SymArrayArg,
    SymValue,
    TraceState,
    run_trace,
)
from ..core.errors import TraceError

__all__ = ["SharedLoad", "SharedStore", "Barrier", "ListingAcc",
           "print_listing"]


class _Record:
    """Positional constructor over ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values):
            setattr(self, field, value)


class SharedLoad(_Record, Expr):
    """``name[index]`` of a block-shared array: a value, and an effect
    so it prints in program order relative to barriers."""

    __slots__ = ("name", "dtype", "index", "mask_count")


class SharedStore(_Record):
    """``name[index] = value`` on a block-shared array."""

    __slots__ = ("name", "dtype", "index", "value", "mask_count")


class Barrier(_Record):
    """A block barrier (``sync_block_threads``)."""

    __slots__ = ("mask_count",)


class _SharedArray:
    """A 1-d block-shared array whose accesses are recorded effects."""

    def __init__(self, st: TraceState, name: str, dtype):
        self.st, self.name, self.dtype = st, name, np.dtype(dtype)

    def __getitem__(self, idx) -> SymValue:
        index = (SymValue._coerce(self.st, idx).expr,)
        node = SharedLoad(self.name, self.dtype, index, len(self.st.masks))
        self.st.add_store(node)
        return SymValue(self.st, node, lane=True)

    def __setitem__(self, idx, value) -> None:
        index = (SymValue._coerce(self.st, idx).expr,)
        value = SymValue._coerce(self.st, value).expr
        self.st.add_store(SharedStore(self.name, self.dtype, index, value,
                                      len(self.st.masks)))


class ListingAcc(CompileAcc):
    """A :class:`CompileAcc` that records shared memory and barriers
    instead of falling back on them."""

    def __init__(self, st: TraceState):
        super().__init__(st, props=None)
        self._shared = {}

    def shared_mem(self, name, shape, dtype=np.float64):
        return self._shared.setdefault(
            name, _SharedArray(self.st, name, dtype))

    def sync_block_threads(self) -> None:
        self.st.add_store(Barrier(len(self.st.masks)))


def print_listing(printer, kernel, params: Sequence, work_div, name: str):
    """Trace ``kernel`` once and walk the trace through ``printer``.

    ``params`` describes the arguments after the accelerator: a numpy
    dtype is an array, ``None`` a scalar of unknown value, anything else
    a concrete scalar.  ``printer`` gets ``guard(op, lane, bound)`` per
    bounds guard before the first effect under it, ``effect(e)`` per
    store-list entry in program order, then ``finish()``, whose result
    is returned.  Fallbacks surface as :class:`TraceError`.
    """
    st = TraceState(work_div)
    args = tuple(
        SymArrayArg(st, pos, np.empty(0, p)) if isinstance(p, np.dtype)
        else SymValue(st, Arg(pos)) if p is None else p
        for pos, p in enumerate(params)
    )
    try:
        result = run_trace(kernel, ListingAcc(st), args)
    except CompileFallback as exc:
        raise TraceError(
            f"cannot list {name}: {exc.reason}: {exc.detail}"
        ) from exc
    if result.guards:
        raise TraceError(
            f"cannot list {name}: a listing prints one path, and the "
            f"kernel branches on a parameter or loaded value"
        )
    done = 0
    for effect in result.stores:
        for mask in result.masks[done:effect.mask_count]:
            printer.guard(*mask)
        done = effect.mask_count
        printer.effect(effect)
    for mask in result.masks[done:]:
        printer.guard(*mask)
    return printer.finish()
