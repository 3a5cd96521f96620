"""Lane-expression IR for trace-compiled kernels.

This module records a *dataflow* over batched thread coordinates: one
expression node per operation the kernel performed while being traced,
evaluated later over every lane (thread) of the grid at once with numpy
array operations, and printed by :mod:`repro.trace` as the Fig. 4
listings.

The node set is deliberately tiny:

* :class:`Const` / :class:`Arg` — uniform scalars (literals and scalar
  kernel arguments, re-read from the live argument tuple on replay);
* :class:`LaneIndex` — a per-thread coordinate (global thread index,
  block index or in-block thread index along one axis);
* :class:`Ufunc` — any numpy universal function applied to evaluated
  operands.  The node stores the *actual ufunc object* the kernel
  invoked, so replay performs bit-for-bit the operation interpretation
  would have performed (``np.sqrt`` compiles to ``np.sqrt``);
* :class:`Load` / :class:`SpanLoad` — global-memory reads, by lane
  index expression or as the whole grid-strided element span.

Evaluation (:func:`eval_expr`) is memoised per (node, selection) and
restricted to the *active lanes* of the enclosing store: the canonical
``if i < n:`` bounds guard becomes a selection, not control flow.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Const",
    "Arg",
    "LaneIndex",
    "Ufunc",
    "Load",
    "SpanLoad",
    "Store",
    "SpanStore",
    "LaneGeometry",
    "EvalEnv",
    "eval_expr",
    "describe_expr",
]


class Expr:
    """Base class of all lane-expression nodes."""

    __slots__ = ()


class Const(Expr):
    """A literal scalar captured at trace time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Arg(Expr):
    """A uniform scalar kernel argument, read from the live argument
    tuple at every replay (so ``alpha`` may change without re-tracing)."""

    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos = pos


class LaneIndex(Expr):
    """A per-thread coordinate along one axis.

    ``kind``: ``"grid_thread"`` (global thread index), ``"block"``
    (block index in grid) or ``"thread"`` (thread index in block).
    Axis 0 is the slowest dimension (library convention).
    """

    __slots__ = ("kind", "axis")

    def __init__(self, kind: str, axis: int):
        self.kind = kind
        self.axis = axis


class Ufunc(Expr):
    """``fn(*args)`` where ``fn`` is the very callable the traced kernel
    invoked (a numpy/scipy ufunc or an operator's ufunc equivalent)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: Tuple[Expr, ...]):
        self.fn = fn
        self.args = args


class Load(Expr):
    """``array_arg[pos][index...]`` — a global-memory gather."""

    __slots__ = ("pos", "index")

    def __init__(self, pos: int, index: Tuple[Expr, ...]):
        self.pos = pos
        self.index = index


class SpanLoad(Expr):
    """The whole grid-strided element span ``array_arg[pos][0:extent]``
    (the union over threads and iterations of their clipped spans)."""

    __slots__ = ("pos", "extent")

    def __init__(self, pos: int, extent: Expr):
        self.pos = pos
        self.extent = extent


class Store:
    """One recorded global-memory write (not an Expr: stores are the
    trace's roots, applied in order during the commit phase)."""

    __slots__ = ("pos", "index", "value", "mask_count")

    def __init__(
        self, pos: int, index: Tuple[Expr, ...], value: Expr, mask_count: int
    ):
        self.pos = pos
        self.index = index
        self.value = value
        self.mask_count = mask_count


class SpanStore:
    """One recorded whole-span write ``array_arg[pos][0:extent] = value``."""

    __slots__ = ("pos", "extent", "value", "mask_count")

    def __init__(self, pos: int, extent: Expr, value: Expr, mask_count: int):
        self.pos = pos
        self.extent = extent
        self.value = value
        self.mask_count = mask_count


# ---------------------------------------------------------------------------
# Lane geometry
# ---------------------------------------------------------------------------


class LaneGeometry:
    """Per-axis coordinate arrays for every thread of one work division.

    Lane ``l`` is the C-order global thread: block ``l // tpb`` (linear,
    C order over the grid-block extent), thread ``l % tpb`` (linear, C
    order over the block-thread extent).  Arrays are built lazily and
    cached — they depend only on the work division, never on arguments.
    """

    def __init__(self, work_div):
        self.work_div = work_div
        self.lanes = int(work_div.block_count) * int(
            work_div.block_thread_count
        )
        self._cache = {}

    def axis_array(self, kind: str, axis: int) -> np.ndarray:
        key = (kind, axis)
        arr = self._cache.get(key)
        if arr is not None:
            return arr
        wd = self.work_div
        tpb = int(wd.block_thread_count)
        lane = np.arange(self.lanes, dtype=np.int64)
        block_lin = lane // tpb
        thread_lin = lane % tpb
        if kind == "block":
            arr = self._delin(block_lin, tuple(wd.grid_block_extent), axis)
        elif kind == "thread":
            arr = self._delin(thread_lin, tuple(wd.block_thread_extent), axis)
        elif kind == "grid_thread":
            b = self._delin(block_lin, tuple(wd.grid_block_extent), axis)
            t = self._delin(thread_lin, tuple(wd.block_thread_extent), axis)
            arr = b * int(wd.block_thread_extent[axis]) + t
        else:  # pragma: no cover - tracer only emits the kinds above
            raise ValueError(f"unknown lane-index kind {kind!r}")
        self._cache[key] = arr
        return arr

    @staticmethod
    def _delin(lin: np.ndarray, extent: Tuple[int, ...], axis: int) -> np.ndarray:
        """C-order component ``axis`` of linear indices over ``extent``."""
        trailing = 1
        for e in extent[axis + 1 :]:
            trailing *= int(e)
        return (lin // trailing) % int(extent[axis])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalEnv:
    """One replay's evaluation context: live args + lane selection.

    ``sel`` is ``None`` (all lanes), a ``slice`` (the contiguous-prefix
    fast path of the bounds guard) or a boolean lane mask.  ``sel_key``
    distinguishes memo entries of the same node under different
    selections.
    """

    __slots__ = ("args", "geom", "sel", "sel_key", "memo", "identity_id")

    def __init__(self, args, geom: LaneGeometry, sel=None, sel_key=0,
                 memo=None, identity_id: Optional[int] = None):
        self.args = args
        self.geom = geom
        self.sel = sel
        self.sel_key = sel_key
        self.memo = {} if memo is None else memo
        #: id() of the lane expression known to evaluate to
        #: ``arange(lanes)`` — loads/stores indexed by exactly that
        #: node use a slice view instead of a gather when ``sel`` is a
        #: prefix slice.
        self.identity_id = identity_id


def eval_expr(node: Expr, env: EvalEnv):
    """Evaluate ``node`` over the active lanes of ``env`` (memoised).

    The memo keys on the node *object* (identity hash — ``Expr`` nodes
    never compare equal structurally), which also keeps every evaluated
    node alive for the memo's lifetime, so a recycled ``id()`` can never
    alias two nodes.
    """
    key = (node, env.sel_key)
    memo = env.memo
    if key in memo:
        return memo[key]
    val = _eval(node, env)
    memo[key] = val
    return val


def _restrict(arr: np.ndarray, env: EvalEnv):
    if env.sel is None:
        return arr
    return arr[env.sel]


def _eval(node: Expr, env: EvalEnv):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Arg):
        return env.args[node.pos]
    if isinstance(node, LaneIndex):
        return _restrict(env.geom.axis_array(node.kind, node.axis), env)
    if isinstance(node, Ufunc):
        vals = [eval_expr(a, env) for a in node.args]
        return node.fn(*vals)
    if isinstance(node, SpanLoad):
        n = int(eval_expr(node.extent, EvalEnv(
            env.args, env.geom, sel=None, sel_key=-1, memo=env.memo
        )))
        return env.args[node.pos][:n]
    if isinstance(node, Load):
        arr = env.args[node.pos]
        if (
            len(node.index) == 1
            and isinstance(env.sel, slice)
            and id(node.index[0]) == env.identity_id
        ):
            # Identity index under a prefix mask: the gather is a view.
            return arr[env.sel]
        idx = tuple(eval_expr(i, env) for i in node.index)
        if len(idx) == 1:
            return arr[idx[0]]
        return arr[idx]
    raise TypeError(f"cannot evaluate {node!r}")  # pragma: no cover


def describe_expr(node) -> str:
    """Compact human-readable rendering (tests and debug dumps)."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Arg):
        return f"arg{node.pos}"
    if isinstance(node, LaneIndex):
        return f"{node.kind}[{node.axis}]"
    if isinstance(node, Ufunc):
        name = getattr(node.fn, "__name__", str(node.fn))
        return f"{name}({', '.join(describe_expr(a) for a in node.args)})"
    if isinstance(node, Load):
        idx = ", ".join(describe_expr(i) for i in node.index)
        return f"load(arg{node.pos}[{idx}])"
    if isinstance(node, SpanLoad):
        return f"span(arg{node.pos}[:{describe_expr(node.extent)}])"
    if isinstance(node, Store):
        idx = ", ".join(describe_expr(i) for i in node.index)
        return f"arg{node.pos}[{idx}] = {describe_expr(node.value)}"
    if isinstance(node, SpanStore):
        return (
            f"arg{node.pos}[:{describe_expr(node.extent)}] = "
            f"{describe_expr(node.value)}"
        )
    return repr(node)
