"""Compiled replay: execute a recorded trace as fused numpy ops.

One :class:`CompiledReplay` holds the trace of one (kernel, work
division, argument-shape) configuration and runs the *whole grid* in a
handful of array operations:

1. **guards** — every thread-uniform predicate the trace branched on is
   re-evaluated against the live arguments; a flip means the kernel
   would take a different path now, so the caller re-traces (a cheap,
   counted event — never a wrong answer);
2. **masks** — the canonical ``if i < n:`` bounds guards become lane
   selections.  When the guarded index is the flat global thread index
   itself the selection is a contiguous **prefix slice** and every load
   and store under it is a view, not a gather — AXPY replays as
   ``y[:n] = a * x[:n] + y[:n]``;
3. **compute, then commit** — all store values and targets are
   evaluated before the first byte of global memory changes.  A replay
   that fails mid-compute (shape surprise, out-of-bounds gather) leaves
   the arguments untouched and falls back to interpretation, where the
   same kernel produces the authoritative result or error.

Replays are cached per argument signature on the plan
(``LaunchPlan._compiled``); negative results (classified fallbacks) are
cached too, so an uncompilable kernel pays the trace attempt once, not
per launch.  ``REPRO_COMPILE_CROSSCHECK=1`` makes every compiled launch
also run interpreted and compares the store targets bit-for-bit.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import CompileCrossCheckError, KernelError
from . import metrics
from .exprs import (
    Const,
    EvalEnv,
    Expr,
    LaneGeometry,
    LaneIndex,
    SpanStore,
    Ufunc,
    eval_expr,
)
from .tracer import CompileFallback, TraceResult, trace_kernel

__all__ = [
    "CompiledReplay",
    "execute_compiled",
    "replay_for",
    "crosscheck_active",
    "CROSSCHECK_ENV",
    "kernel_name",
]

#: Environment variable: any truthy value makes every compiled launch
#: also run interpreted and assert bit-identity of all store targets.
CROSSCHECK_ENV = "REPRO_COMPILE_CROSSCHECK"

_FALSEY = ("", "0", "false", "no", "off")


def crosscheck_active() -> bool:
    """Is compiled-vs-interpreted cross-checking requested?"""
    return os.environ.get(CROSSCHECK_ENV, "").strip().lower() not in _FALSEY


def kernel_name(kernel) -> str:
    return getattr(kernel, "__name__", type(kernel).__name__)


def _signature(args: tuple) -> tuple:
    """Hashable shape of an argument tuple.

    Arrays key on (dtype, shape): the trace embeds concrete metadata
    wherever the kernel observed it.  Scalars key on their exact type —
    a ``np.float32`` argument promotes ufunc results differently from a
    Python float, and bit-identity is the contract.
    """
    sig = []
    for a in args:
        if isinstance(a, np.ndarray):
            sig.append(("nd", a.dtype.str, a.shape))
        else:
            sig.append(("s", type(a)))
    return tuple(sig)


def _is_static(node: Expr) -> bool:
    """True when ``node`` depends only on geometry and literals (its
    value can never change between replays of the same plan)."""
    if isinstance(node, (Const, LaneIndex)):
        return True
    if isinstance(node, Ufunc):
        return all(_is_static(a) for a in node.args)
    return False


class CompiledReplay:
    """One compiled (kernel, work division, arg-shape) configuration."""

    def __init__(self, plan, trace: TraceResult, sig: tuple):
        self.plan = plan
        self.trace = trace
        self.sig = sig
        self.geom = LaneGeometry(plan.work_div)
        self.store_positions = tuple(sorted(
            {s.pos for s in trace.stores}
        ))
        #: mask index -> True/False identity verdict for masks whose
        #: lane side is pure geometry (decided once, not per replay).
        self._static_identity: Dict[int, bool] = {}
        self._lock = threading.Lock()

    # -- guards ---------------------------------------------------------

    def guards_hold(self, args: tuple) -> bool:
        """Do the live arguments still take the traced path?"""
        if not self.trace.guards:
            return True
        memo: dict = {}
        env = EvalEnv(args, self.geom, sel=None, sel_key=0, memo=memo)
        try:
            for expr, expected in self.trace.guards:
                val = eval_expr(expr, env)
                if isinstance(expected, bool):
                    if bool(val) != expected:
                        return False
                elif not (val == expected):
                    return False
        except Exception:
            return False
        return True

    # -- masks ----------------------------------------------------------

    def _identity(self, k: int, lane: Expr, lane_vals: np.ndarray) -> bool:
        """Is mask ``k``'s lane side the flat lane index itself?"""
        static = _is_static(lane)
        if static:
            with self._lock:
                cached = self._static_identity.get(k)
            if cached is not None:
                return cached
        lanes = self.geom.lanes
        ident = (
            lane_vals.shape == (lanes,)
            and lanes > 0
            and int(lane_vals[0]) == 0
            and int(lane_vals[-1]) == lanes - 1
            and bool(
                np.array_equal(lane_vals, np.arange(lanes, dtype=lane_vals.dtype))
            )
        )
        if static:
            with self._lock:
                self._static_identity[k] = ident
        return ident

    def _selections(self, args: tuple, memo: dict) -> List[tuple]:
        """Per-mask-level lane selection: ``levels[k]`` applies to a
        store recorded under the first ``k`` masks.  Each entry is
        ``(sel, sel_key, identity_id)``."""
        geom = self.geom
        levels: List[tuple] = [(None, 0, None)]
        cur = None  # slice | bool ndarray | None
        for k, (op, lane, bound) in enumerate(self.trace.masks):
            env = EvalEnv(args, geom, sel=None, sel_key=0, memo=memo)
            lane_vals = np.asarray(eval_expr(lane, env))
            bval = eval_expr(bound, env)
            if lane_vals.shape != (geom.lanes,):
                lane_vals = np.broadcast_to(lane_vals, (geom.lanes,))
            identity_id: Optional[int] = None
            bscalar = np.asarray(bval)
            if (
                cur is None
                and bscalar.ndim == 0
                and float(bscalar) == int(bscalar)
                and self._identity(k, lane, lane_vals)
            ):
                n = int(bscalar) + (1 if op == "le" else 0)
                cur = slice(0, max(0, min(geom.lanes, n)))
                identity_id = id(lane)
            else:
                cond = lane_vals < bval if op == "lt" else lane_vals <= bval
                if isinstance(cur, slice):
                    prev = np.zeros(geom.lanes, dtype=bool)
                    prev[cur] = True
                    cur = prev & cond
                elif cur is None:
                    cur = cond
                else:
                    cur = cur & cond
            levels.append((cur, k + 1, identity_id))
        return levels

    # -- compute + commit -----------------------------------------------

    def run(self, args: tuple) -> None:
        """Replay the whole grid onto ``args`` (compute, then commit).

        Raises :class:`~repro.compile.tracer.CompileFallback` — with
        the arguments untouched — when evaluation fails; raises
        :class:`~repro.core.errors.KernelError` only for a failure
        *after* mutation began (which the pre-commit shape checks make
        unreachable in practice).
        """
        trace = self.trace
        geom = self.geom
        multi = len(trace.stores) > 1
        try:
            memo: dict = {}
            levels = self._selections(args, memo)
            uenv = EvalEnv(args, geom, sel=None, sel_key=0, memo=memo)
            ops: List[tuple] = []
            for store in trace.stores:
                sel, sel_key, ident = levels[store.mask_count]
                env = EvalEnv(
                    args, geom, sel=sel, sel_key=sel_key, memo=memo,
                    identity_id=ident,
                )
                arr = args[store.pos]
                if isinstance(store, SpanStore):
                    n = int(eval_expr(store.extent, uenv))
                    if store.mask_count:
                        raise CompileFallback(
                            "span-shape",
                            "grid-strided span store under a lane mask",
                        )
                    vals = eval_expr(store.value, uenv)
                    np.broadcast_shapes((n,), np.shape(vals))
                    ops.append(("span", arr, n, vals))
                    continue
                vals = eval_expr(store.value, env)
                if (
                    isinstance(sel, slice)
                    and len(store.index) == 1
                    and id(store.index[0]) == ident
                ):
                    np.broadcast_shapes(
                        ((sel.stop or 0) - (sel.start or 0),), np.shape(vals)
                    )
                    ops.append(("slice", arr, sel, vals))
                else:
                    idx = tuple(eval_expr(i, env) for i in store.index)
                    target = idx[0] if len(idx) == 1 else idx
                    tshape = (
                        np.shape(idx[0]) if len(idx) == 1
                        else np.broadcast_shapes(*(np.shape(i) for i in idx))
                    )
                    np.broadcast_shapes(tshape, np.shape(vals))
                    ops.append(("scatter", arr, target, vals))
            if multi:
                # Two stores may alias: a value that is a *view* of an
                # argument array must be materialised before any commit
                # mutates what it views.
                ops = [
                    (kind, arr, tgt,
                     vals.copy()
                     if isinstance(vals, np.ndarray) and vals.base is not None
                     else vals)
                    for kind, arr, tgt, vals in ops
                ]
        except CompileFallback:
            raise
        except Exception as exc:
            raise CompileFallback(
                "replay-error",
                f"compiled replay failed during evaluation "
                f"({type(exc).__name__}: {exc}); interpretation is "
                f"authoritative",
            ) from exc

        # Commit: plain assignments only.  Nothing below re-evaluates.
        for kind, arr, tgt, vals in ops:
            try:
                if kind == "span":
                    arr[:tgt] = vals
                elif kind == "slice":
                    arr[tgt] = vals
                else:
                    arr[tgt] = vals
            except Exception as exc:  # pragma: no cover - pre-checked
                raise KernelError(
                    "compiled replay failed mid-commit; buffer state may "
                    "be partial"
                ) from exc


# ---------------------------------------------------------------------------
# Plan-level cache + execution
# ---------------------------------------------------------------------------


def replay_for(plan, task, args: tuple) -> Tuple[CompiledReplay, bool]:
    """The cached-or-traced replay for ``args``' shape on ``plan``.

    Returns ``(replay, fresh)`` — ``fresh`` means the trace was just
    recorded against these very arguments, so its guards hold by
    construction.  Raises :class:`CompileFallback` when the kernel does
    not compile for this shape (the verdict is cached; later launches
    pay a dict lookup, not a trace attempt).
    """
    cache: Dict = plan._compiled
    sig = _signature(args)
    entry = cache.get(sig)
    kname = kernel_name(plan.kernel)
    if entry is None:
        metrics.note("traces", kname)
        try:
            trace = trace_kernel(plan.kernel, plan.work_div, plan.props, args)
        except CompileFallback as cf:
            cache[sig] = ("fallback", cf.reason, cf.detail)
            raise
        replay = CompiledReplay(plan, trace, sig)
        cache[sig] = replay
        return replay, True
    if isinstance(entry, tuple):
        raise CompileFallback(entry[1], entry[2])
    metrics.note("cache_hits", kname)
    return entry, False


def _retrace(plan, task, args: tuple) -> CompiledReplay:
    kname = kernel_name(plan.kernel)
    metrics.note("retraces", kname)
    plan._compiled.pop(_signature(args), None)
    replay, _fresh = replay_for(plan, task, args)
    return replay


def execute_compiled(plan, grid, task, interpret=None) -> None:
    """Run one launch through the compiled path.

    ``interpret`` (when cross-checking) is a zero-argument callable
    that dispatches the same launch through the interpreting scheduler.
    Raises :class:`CompileFallback` when the launch must fall back —
    always *before* any argument byte changed.
    """
    args = grid.args
    replay, fresh = replay_for(plan, task, args)
    if not fresh and not replay.guards_hold(args):
        # A uniform predicate flipped (e.g. alpha became 0): the traced
        # path is stale for these arguments.  Re-trace against them.
        replay = _retrace(plan, task, args)
    kname = kernel_name(plan.kernel)
    try:
        if interpret is not None and crosscheck_active():
            _run_crosschecked(replay, args, interpret, kname)
        else:
            replay.run(args)
    except CompileFallback as cf:
        # Cache the verdict so warm launches skip straight to
        # interpretation instead of re-failing the replay.
        plan._compiled[replay.sig] = ("fallback", cf.reason, cf.detail)
        raise
    metrics.note("compiled_launches", kname)


def _run_crosschecked(replay: CompiledReplay, args: tuple, interpret,
                      kname: str) -> None:
    """Run compiled AND interpreted; assert store targets bit-identical.

    The compiled replay runs first (two-phase, so a fallback leaves the
    arguments clean); its results are snapshotted, the inputs restored,
    and the interpreting scheduler re-runs the launch for real.  The
    buffers end up holding the interpreted result — which the check
    just proved identical.
    """
    positions = replay.store_positions
    before = {p: np.array(args[p], copy=True) for p in positions}
    replay.run(args)
    compiled = {p: np.array(args[p], copy=True) for p in positions}
    for p in positions:
        args[p][...] = before[p]
    interpret()
    for p in positions:
        got = np.asarray(args[p])
        want = compiled[p]
        if got.tobytes() != want.tobytes():
            diff = int(np.count_nonzero(
                got.view(np.uint8) != want.view(np.uint8)
            )) if got.shape == want.shape else -1
            raise CompileCrossCheckError(
                f"compiled and interpreted execution of {kname!r} "
                f"disagree on argument {p} "
                f"({'shape mismatch' if diff < 0 else f'{diff} differing bytes'})"
            )
    metrics.note("crosschecks", kname)
