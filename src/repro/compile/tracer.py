"""The compile tracer: run a kernel once with batched symbolic threads.

A :class:`CompileAcc` stands in for the accelerator while the kernel
executes a single time.  Index queries (the ``get_idx`` hook
``trace_get_idx``) return :class:`SymValue` operands carrying a
:class:`~repro.compile.exprs.LaneIndex` expression instead of a number;
arithmetic, comparisons and numpy ufuncs on them grow a dataflow graph;
array accesses record :class:`Load`/:class:`Store` nodes.  The recorded
trace replays the *whole grid* as fused numpy operations (and
:mod:`repro.trace` prints it as the Fig. 4 listings).

What is representable, and what falls back:

* straight-line code — always;
* **thread-uniform branches** (``if alpha != 0:``): the predicate is
  evaluated concretely against the live arguments and recorded as a
  guard; replay re-checks it and re-traces on a flip;
* the **canonical bounds guard** ``if i < n:`` (a thread-derived
  integer strictly/weakly below a uniform bound) — lowered to a lane
  mask applied to every subsequent store.  Only this comparison shape
  is maskable; any other lane-dependent truth test (``min``/``max``
  idioms, inverted guards, data-dependent branches) raises
  :class:`CompileFallback` so the launch transparently falls back to
  interpretation;
* **grid-strided element spans** (:func:`repro.core.element.
  grid_strided_spans`): the per-thread clipped spans of all threads
  tile ``[0, extent)`` exactly once, so the whole loop collapses into
  one :class:`SpanLoad`/:class:`SpanStore` over the flat extent;
* barriers, atomics, shared memory, per-thread RNG, lane-dependent
  ``int()``/``range()`` and loads that alias an earlier store under a
  different index — classified fallbacks, never silent wrong answers.

:class:`CompileFallback` derives from ``BaseException`` on purpose: a
kernel's own ``except Exception`` must not swallow the classifier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.index import Origin, Unit
from ..math.ops import DEFAULT_MATH
from .exprs import (
    Arg,
    Const,
    Expr,
    LaneIndex,
    Load,
    SpanLoad,
    SpanStore,
    Store,
    Ufunc,
)

__all__ = [
    "CompileFallback",
    "CompileAcc",
    "SymValue",
    "TraceState",
    "trace_kernel",
    "run_trace",
    "TraceResult",
    "MAX_TRACE_NODES",
    "MAX_MASK_GUARDS",
]

#: Upper bound on expression nodes per trace; a kernel unrolling past
#: this (large concrete loops) falls back rather than compiling into a
#: graph slower to evaluate than interpretation.
MAX_TRACE_NODES = 20000

#: Upper bound on stacked bounds-guard masks; a symbolic ``while`` loop
#: re-testing its lane condition hits this cap instead of spinning.
MAX_MASK_GUARDS = 8


class CompileFallback(BaseException):
    """Trace abandoned for a classified reason.

    ``reason`` is a short slug (the metrics/flight label); ``detail``
    the human explanation logged once per (kernel, reason).
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail or reason


class TraceState:
    """Shared mutable state of one kernel trace."""

    def __init__(self, work_div):
        self.work_div = work_div
        self.nodes = 0
        #: Canonical bounds guards, in trace order: (op, lane, bound).
        self.masks: List[Tuple[str, Expr, Expr]] = []
        #: Uniform guards: (expr, expected concrete value).
        self.guards: List[Tuple[Expr, object]] = []
        #: Recorded stores, in program order.
        self.stores: list = []
        #: (pos, index-node ids) -> SymValue last stored there, for
        #: exact read-after-write forwarding.
        self.forwarded = {}
        #: Array positions written so far (alias analysis is identity
        #: of index expressions; anything else is a fallback).
        self.stored_positions = set()

    def count(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > MAX_TRACE_NODES:
            raise CompileFallback(
                "trace-too-large",
                f"trace exceeded {MAX_TRACE_NODES} expression nodes "
                f"(a concretely unrolled loop?)",
            )

    def add_mask(self, op: str, lane: Expr, bound: Expr) -> None:
        if len(self.masks) >= MAX_MASK_GUARDS:
            raise CompileFallback(
                "divergent-control-flow",
                f"more than {MAX_MASK_GUARDS} lane-dependent bounds "
                f"guards (symbolic loop condition?)",
            )
        self.masks.append((op, lane, bound))

    def add_uniform_guard(self, expr: Expr, expected) -> None:
        self.guards.append((expr, expected))

    def add_store(self, store) -> None:
        self.stores.append(store)


def _sample(fn, values):
    """Concrete sample value of a uniform op, or None if unavailable."""
    if any(v is None for v in values):
        return None
    try:
        with np.errstate(all="ignore"):
            return fn(*values)
    except Exception:
        return None


class SymValue:
    """A traced operand: one value per thread of the grid.

    ``lane=False`` marks a *uniform* value (same in every thread); its
    ``value`` is the concrete sample computed from the live arguments,
    which is what uniform branches and ``int()`` conversions consume.
    """

    __slots__ = ("st", "expr", "value", "lane", "cmp")

    def __init__(self, st: TraceState, expr: Expr, value=None,
                 lane: bool = False, cmp: Optional[tuple] = None):
        self.st = st
        self.expr = expr
        self.value = value
        self.lane = lane
        self.cmp = cmp

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _coerce(st: TraceState, other) -> "SymValue":
        """``other`` as a traced operand: scalars become :class:`Const`."""
        if isinstance(other, SymValue):
            return other
        if isinstance(other, (bool, int, float, np.bool_, np.integer,
                              np.floating)):
            st.count()
            return SymValue(st, Const(other), value=other, lane=False)
        raise CompileFallback(
            "unsupported-op",
            f"operand of unsupported type {type(other).__name__!r} in "
            f"traced arithmetic or store",
        )

    def _apply(self, fn, *operands, cmp=None) -> "SymValue":
        syms = [self._coerce(self.st, o) for o in operands]
        self.st.count()
        expr = Ufunc(fn, tuple(s.expr for s in syms))
        lane = any(s.lane for s in syms)
        value = None if lane else _sample(fn, [s.value for s in syms])
        return SymValue(self.st, expr, value=value, lane=lane, cmp=cmp)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return self._apply(np.add, self, other)

    def __radd__(self, other):
        return self._apply(np.add, other, self)

    def __sub__(self, other):
        return self._apply(np.subtract, self, other)

    def __rsub__(self, other):
        return self._apply(np.subtract, other, self)

    def __mul__(self, other):
        return self._apply(np.multiply, self, other)

    def __rmul__(self, other):
        return self._apply(np.multiply, other, self)

    def __truediv__(self, other):
        return self._apply(np.true_divide, self, other)

    def __rtruediv__(self, other):
        return self._apply(np.true_divide, other, self)

    def __floordiv__(self, other):
        return self._apply(np.floor_divide, self, other)

    def __rfloordiv__(self, other):
        return self._apply(np.floor_divide, other, self)

    def __mod__(self, other):
        return self._apply(np.mod, self, other)

    def __rmod__(self, other):
        return self._apply(np.mod, other, self)

    def __pow__(self, other):
        return self._apply(np.power, self, other)

    def __rpow__(self, other):
        return self._apply(np.power, other, self)

    def __neg__(self):
        return self._apply(np.negative, self)

    def __pos__(self):
        return self

    def __abs__(self):
        return self._apply(np.abs, self)

    # -- bitwise / logical ---------------------------------------------

    def __and__(self, other):
        return self._apply(np.bitwise_and, self, other)

    __rand__ = __and__

    def __or__(self, other):
        return self._apply(np.bitwise_or, self, other)

    __ror__ = __or__

    def __xor__(self, other):
        return self._apply(np.bitwise_xor, self, other)

    __rxor__ = __xor__

    def __invert__(self):
        return self._apply(np.invert, self)

    def __lshift__(self, other):
        return self._apply(np.left_shift, self, other)

    def __rshift__(self, other):
        return self._apply(np.right_shift, self, other)

    # -- comparisons ----------------------------------------------------

    def _compare(self, fn, op, other):
        o = self._coerce(self.st, other)
        return self._apply(fn, self, o, cmp=(op, self, o))

    def __lt__(self, other):
        return self._compare(np.less, "lt", other)

    def __le__(self, other):
        return self._compare(np.less_equal, "le", other)

    def __gt__(self, other):
        return self._compare(np.greater, "gt", other)

    def __ge__(self, other):
        return self._compare(np.greater_equal, "ge", other)

    def __eq__(self, other):  # noqa: D105
        return self._compare(np.equal, "eq", other)

    def __ne__(self, other):
        return self._compare(np.not_equal, "ne", other)

    __hash__ = object.__hash__

    # -- truthiness & conversions --------------------------------------

    def __bool__(self) -> bool:
        if not self.lane:
            # Thread-uniform branch: take the concrete path and guard
            # the predicate so a flipped argument re-traces.
            val = bool(self.value)
            self.st.add_uniform_guard(self.expr, val)
            return val
        cmp = self.cmp
        if cmp is not None:
            op, lhs, rhs = cmp
            if op in ("lt", "le") and lhs.lane and not rhs.lane:
                # The canonical bounds guard `if i < n:` — the taken
                # path is traced with the mask applied to every
                # subsequent store.  No other comparison shape is
                # maskable: builtin min()/max() evaluate the uniform
                # operand on the *left*, which lands here as
                # uniform-vs-lane and must divert, not mask.
                self.st.add_mask(op, lhs.expr, rhs.expr)
                return True
        raise CompileFallback(
            "divergent-control-flow",
            "lane-dependent branch is not the canonical `if i < n:` "
            "bounds guard",
        )

    def _concrete(self, kind):
        if self.lane:
            raise CompileFallback(
                "divergent-control-flow",
                f"lane-dependent value used as a concrete {kind} "
                f"(range()/len()/index arithmetic on thread indices?)",
            )
        if self.value is None:  # pragma: no cover - uniforms are sampled
            raise CompileFallback(
                "unsupported-op", f"uniform {kind} without a sample value"
            )
        return self.value

    def __index__(self) -> int:
        v = int(self._concrete("integer"))
        self.st.add_uniform_guard(self.expr, v)
        return v

    __int__ = __index__

    def __float__(self) -> float:
        v = float(self._concrete("float"))
        self.st.add_uniform_guard(self.expr, v)
        return v

    # -- numpy interception --------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            raise CompileFallback(
                "unsupported-op",
                f"numpy ufunc method {ufunc.__name__}.{method} on traced "
                f"values",
            )
        kwargs.pop("out", None)
        if kwargs:
            raise CompileFallback(
                "unsupported-op",
                f"numpy ufunc {ufunc.__name__} with keyword arguments on "
                f"traced values",
            )
        return self._apply(ufunc, *inputs)

    def __repr__(self):
        kind = "lane" if self.lane else f"uniform={self.value!r}"
        return f"SymValue({kind})"


class _SymSpan:
    """The collapsed grid-strided element span ``[0, extent)``.

    Deliberately attribute-free beyond identity: kernels that poke at
    ``span.start`` (e.g. iota-style index generation) raise
    ``AttributeError`` and fall back to interpretation.
    """

    __slots__ = ("extent",)

    def __init__(self, extent: SymValue):
        self.extent = extent


class SymArrayArg:
    """A global-memory array argument during tracing.

    Metadata (`dtype`, `ndim`, `shape`) is concrete — the compile cache
    keys on it — while element accesses grow the dataflow.
    """

    __slots__ = ("st", "pos", "arr")

    def __init__(self, st: TraceState, pos: int, arr: np.ndarray):
        self.st = st
        self.pos = pos
        self.arr = arr

    @property
    def dtype(self):
        return self.arr.dtype

    @property
    def ndim(self):
        return self.arr.ndim

    @property
    def shape(self):
        return self.arr.shape

    def __len__(self):
        return len(self.arr)

    def _index_exprs(self, idx) -> Tuple[Tuple[Expr, ...], bool, tuple]:
        """(index exprs, any-lane?, concrete sample index or None)."""
        items = idx if isinstance(idx, tuple) else (idx,)
        exprs = []
        lane = False
        sample: Optional[list] = []
        for it in items:
            if isinstance(it, SymValue):
                exprs.append(it.expr)
                lane = lane or it.lane
                if sample is not None and not it.lane:
                    sample.append(it.value)
                else:
                    sample = None
            elif isinstance(it, (int, np.integer)):
                self.st.count()
                exprs.append(Const(int(it)))
                if sample is not None:
                    sample.append(int(it))
            else:
                raise CompileFallback(
                    "unsupported-op",
                    f"array indexed with {type(it).__name__!r} while "
                    f"tracing (slices and boolean masks do not compile)",
                )
        return tuple(exprs), lane, (None if lane or sample is None
                                    else tuple(sample))

    def _forward_key(self, exprs: Tuple[Expr, ...]):
        return (self.pos,) + tuple(id(e) for e in exprs)

    def __getitem__(self, idx):
        if isinstance(idx, _SymSpan):
            key = ("span", self.pos, id(idx.extent.expr))
            fwd = self.st.forwarded.get(key)
            if fwd is not None:
                return fwd
            if self.pos in self.st.stored_positions:
                raise CompileFallback(
                    "load-after-store",
                    "span load from an array already written under a "
                    "different index",
                )
            self.st.count()
            return SymValue(
                self.st, SpanLoad(self.pos, idx.extent.expr), lane=True
            )
        exprs, lane, sample = self._index_exprs(idx)
        key = self._forward_key(exprs)
        fwd = self.st.forwarded.get(key)
        if fwd is not None:
            return fwd
        if self.pos in self.st.stored_positions:
            raise CompileFallback(
                "load-after-store",
                "load from an array already written under a different "
                "index (cannot prove the accesses disjoint)",
            )
        self.st.count()
        node = Load(self.pos, exprs)
        if not lane:
            value = None
            if sample is not None:
                try:
                    value = self.arr[
                        sample[0] if len(sample) == 1 else sample
                    ]
                except Exception:
                    value = None
            return SymValue(self.st, node, value=value, lane=False)
        return SymValue(self.st, node, lane=True)

    def __setitem__(self, idx, value) -> None:
        val = SymValue._coerce(self.st, value)
        if isinstance(idx, _SymSpan):
            self.st.count()
            self.st.add_store(SpanStore(
                self.pos, idx.extent.expr, val.expr, len(self.st.masks)
            ))
            self.st.stored_positions.add(self.pos)
            self.st.forwarded[("span", self.pos, id(idx.extent.expr))] = val
            return
        exprs, _lane, _sample = self._index_exprs(idx)
        self.st.count()
        self.st.add_store(Store(self.pos, exprs, val.expr, len(self.st.masks)))
        self.st.stored_positions.add(self.pos)
        self.st.forwarded[self._forward_key(exprs)] = val

    def __repr__(self):
        return f"SymArrayArg(arg{self.pos}, {self.arr.dtype}, " \
               f"shape={self.arr.shape})"


class _CompileVec:
    """Vec look-alike over symbolic per-axis components."""

    def __init__(self, components):
        self._c = list(components)

    def __getitem__(self, i):
        return self._c[i]

    def __iter__(self):
        return iter(self._c)

    def __len__(self):
        return len(self._c)

    @property
    def dim(self):
        return len(self._c)


class CompileAcc:
    """The accelerator stand-in a kernel sees while being compile-traced.

    Geometry queries answer *concretely* (the work division is part of
    the plan identity, so extents are compile-time constants); index
    queries answer symbolically.  Synchronisation, shared memory,
    atomics and RNG are classified fallbacks — per-thread interpretation
    remains their only sound execution.
    """

    def __init__(self, st: TraceState, props):
        self.st = st
        self.props = props
        self.math = DEFAULT_MATH
        self._idx_cache = {}

    # -- geometry (concrete) -------------------------------------------

    @property
    def work_div(self):
        return self.st.work_div

    @property
    def warp_size(self) -> int:
        return self.props.warp_size

    # -- index queries (symbolic) --------------------------------------

    def trace_get_idx(self, origin: Origin, unit: Unit) -> _CompileVec:
        key = (origin, unit)
        vec = self._idx_cache.get(key)
        if vec is None:
            vec = self._compute_idx(origin, unit)
            self._idx_cache[key] = vec
        return vec

    def _lane(self, kind: str, axis: int) -> SymValue:
        key = ("lane", kind, axis)
        sym = self._idx_cache.get(key)
        if sym is None:
            self.st.count()
            sym = SymValue(self.st, LaneIndex(kind, axis), lane=True)
            self._idx_cache[key] = sym
        return sym

    def _compute_idx(self, origin: Origin, unit: Unit) -> _CompileVec:
        wd = self.st.work_div
        dim = wd.dim
        comps = []
        for axis in range(dim):
            if origin is Origin.GRID and unit is Unit.BLOCKS:
                comps.append(self._lane("block", axis))
            elif origin is Origin.BLOCK and unit is Unit.THREADS:
                comps.append(self._lane("thread", axis))
            elif origin is Origin.GRID and unit is Unit.THREADS:
                comps.append(self._lane("grid_thread", axis))
            elif origin is Origin.GRID and unit is Unit.ELEMS:
                gt = self._lane("grid_thread", axis)
                comps.append(gt * int(wd.thread_elem_extent[axis]))
            elif origin is Origin.BLOCK and unit is Unit.ELEMS:
                t = self._lane("thread", axis)
                comps.append(t * int(wd.thread_elem_extent[axis]))
            else:
                raise CompileFallback(
                    "unsupported-op",
                    f"index query {origin}/{unit} while compile-tracing",
                )
        return _CompileVec(comps)

    # -- element spans --------------------------------------------------

    def trace_elem_spans(self, extent):
        """Hook consumed by :func:`repro.core.element.grid_strided_spans`:
        the per-thread clipped spans of the whole grid tile
        ``[0, extent)`` exactly once, so the loop collapses to a single
        symbolic span."""
        if isinstance(extent, SymValue):
            if extent.lane:
                raise CompileFallback(
                    "divergent-control-flow",
                    "grid-strided span extent is lane-dependent",
                )
            ext = extent
        else:
            self.st.count()
            ext = SymValue(
                self.st, Const(int(extent)), value=int(extent), lane=False
            )
        yield _SymSpan(ext)

    # -- classified fallbacks ------------------------------------------

    def sync_block_threads(self) -> None:
        raise CompileFallback(
            "barrier", "kernel uses sync_block_threads (block barrier)"
        )

    def shared_mem(self, name, shape, dtype=np.float64):
        raise CompileFallback(
            "shared-memory", f"kernel allocates shared memory {name!r}"
        )

    def shared_var(self, name, dtype=np.float64):
        raise CompileFallback(
            "shared-memory", f"kernel allocates shared variable {name!r}"
        )

    def shared_mem_dyn(self, dtype=np.float64):
        raise CompileFallback(
            "shared-memory", "kernel uses dynamic shared memory"
        )

    def rng(self, seed):
        raise CompileFallback(
            "rng", "kernel draws from a per-thread random stream"
        )

    def _atomic(self, name):
        raise CompileFallback(
            "atomics",
            f"kernel performs {name} (atomics may contend across threads)",
        )

    def atomic_add(self, arr, idx, value):
        self._atomic("atomic_add")

    def atomic_sub(self, arr, idx, value):
        self._atomic("atomic_sub")

    def atomic_min(self, arr, idx, value):
        self._atomic("atomic_min")

    def atomic_max(self, arr, idx, value):
        self._atomic("atomic_max")

    def atomic_exch(self, arr, idx, value):
        self._atomic("atomic_exch")

    def atomic_cas(self, arr, idx, compare, value):
        self._atomic("atomic_cas")

    def atomic_inc(self, arr, idx, limit):
        self._atomic("atomic_inc")

    def atomic_dec(self, arr, idx, limit):
        self._atomic("atomic_dec")

    def atomic_and(self, arr, idx, value):
        self._atomic("atomic_and")

    def atomic_or(self, arr, idx, value):
        self._atomic("atomic_or")

    def atomic_xor(self, arr, idx, value):
        self._atomic("atomic_xor")

    # Lane-dependent scalar queries: sound only per-thread.

    @property
    def block_thread_linear_idx(self):
        raise CompileFallback(
            "divergent-control-flow",
            "kernel reads the concrete in-block linear thread index",
        )

    @property
    def warp_idx(self):
        raise CompileFallback(
            "divergent-control-flow", "kernel reads its warp index"
        )

    @property
    def lane_idx(self):
        raise CompileFallback(
            "divergent-control-flow", "kernel reads its warp lane index"
        )


class TraceResult:
    """Outcome of one successful compile trace."""

    __slots__ = ("stores", "masks", "guards", "nodes")

    def __init__(self, stores, masks, guards, nodes: int):
        self.stores = stores
        self.masks = masks
        self.guards = guards
        self.nodes = nodes


def _make_sym_args(st: TraceState, args: tuple):
    sym = []
    for pos, a in enumerate(args):
        if isinstance(a, np.ndarray):
            sym.append(SymArrayArg(st, pos, a))
        elif isinstance(a, (bool, int, float, np.bool_, np.integer,
                            np.floating)):
            st.count()
            sym.append(SymValue(st, Arg(pos), value=a, lane=False))
        else:
            raise CompileFallback(
                "unsupported-arg",
                f"argument {pos} has uncompilable type "
                f"{type(a).__name__!r}",
            )
    return tuple(sym)


def trace_kernel(kernel, work_div, props, args: tuple) -> TraceResult:
    """Trace ``kernel`` once over batched thread coordinates.

    Raises :class:`CompileFallback` (classified) when the kernel is not
    representable; any *other* exception escaping the kernel body is
    classified as ``unsupported-op`` — the traced operand types simply
    do not support whatever the kernel attempted, and interpretation
    (where the same code runs on real numbers) remains authoritative.
    """
    st = TraceState(work_div)
    return run_trace(kernel, CompileAcc(st, props), _make_sym_args(st, args))


def run_trace(kernel, acc: CompileAcc, sym_args: tuple) -> TraceResult:
    """Run ``kernel`` once under ``acc`` (a :class:`CompileAcc`, or the
    listing subclass of :mod:`repro.trace`) and collect the trace."""
    st = acc.st
    try:
        kernel(acc, *sym_args)
    except CompileFallback:
        raise
    except Exception as exc:
        raise CompileFallback(
            "unsupported-op",
            f"kernel body raised {type(exc).__name__} under the compile "
            f"tracer: {exc}",
        ) from exc
    return TraceResult(
        stores=tuple(st.stores),
        masks=tuple(st.masks),
        guards=tuple(st.guards),
        nodes=st.nodes,
    )
