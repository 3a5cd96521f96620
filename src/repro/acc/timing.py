"""Timing: the shared warmup/repeat measurement loop and the
modeled-time hook for kernel execution.

:func:`measure` is the *one* warmup-then-repeat timing loop of the
library.  The benchmark harness (:func:`repro.bench.measure_wall`) and
the work-division autotuner (:mod:`repro.tuning.measure`) both delegate
here, so "how we time things" — warmup first, best-of-N, monotonic
clock — is defined exactly once.

:func:`advance_modeled_time` is the simulated-clock hook: the
reproduction runs every kernel *functionally* on the host, and for the
performance figures it additionally advances the device's simulated
clock by the time the launch would have taken on the modeled machine —
but only when the kernel opts in by describing itself: a kernel class
may implement::

    def characteristics(self, work_div, *args) -> KernelCharacteristics

Kernels without the method cost no simulated time (their correctness is
still fully exercised).  This is the documented substitution for the
paper's wall-clock measurements on K20/K80/Xeon/Opteron hardware; see
DESIGN.md.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from ..core.errors import ModelError
from ..core.vec import Vec
from ..dev.device import Device
from ..mem.buf import Buffer
from ..mem.view import ViewSubView

__all__ = [
    "measure",
    "advance_modeled_time",
    "arg_signature",
    "MODELED_TIME_CACHE_MAXSIZE",
]

#: Serialises insertions into (and evictions from) the per-plan memos.
_memo_lock = threading.Lock()


def measure(
    fn: Callable[[], None],
    *,
    warmup: int = 1,
    repeat: int = 3,
) -> float:
    """Best-of-``repeat`` wall seconds of ``fn`` after ``warmup`` calls.

    Minimum (not mean) is the right statistic for timing comparisons:
    noise is strictly additive, so the fastest observation is the
    closest to the true cost.  ``warmup`` calls run first and are not
    timed (plan caches fill, pools spin up, branch predictors settle).
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: Bound on memoised modeled-time entries per launch plan (one entry
#: per argument signature; oldest evicted first).
MODELED_TIME_CACHE_MAXSIZE = 16

#: Scalar argument types whose value can key the modeled-time memo.
_SCALARS = (int, float, complex, str, bytes, type(None), np.generic)

_MISS = object()


def arg_signature(args: tuple):
    """What ``characteristics()`` may read of ``args``, as a hashable
    key that keeps no argument alive: scalar values (with their type),
    ``Vec`` values, and the extent and dtype of buffers, views and
    arrays.  None when an argument is none of these (the launch is then
    modeled uncached)."""
    sig = []
    for a in args:
        if isinstance(a, (Buffer, ViewSubView)):
            sig.append(("buf", a.extent, a.dtype))
        elif isinstance(a, np.ndarray):
            sig.append(("arr", a.shape, a.dtype))
        elif isinstance(a, (_SCALARS, Vec)):
            sig.append((type(a), a))
        else:
            return None
    return tuple(sig)


def _modeled_seconds(describe, task, device, plan):
    """The modeled seconds of one launch under ``plan``, or None when
    the kernel's ``characteristics()`` declines to describe it."""
    from ..perfmodel.roofline import predict_time

    wd = plan.work_div
    chars = describe(wd, *task.args)
    if chars is None:
        return None
    predicted = predict_time(
        device.spec,
        plan.acc_type.kind,
        wd,
        chars,
        parallel_scope=getattr(task.acc_type, "parallel_scope", "none"),
    )
    seconds = predicted.seconds
    if seconds < 0:
        raise ModelError(f"negative modeled time from {task.kernel!r}")
    return seconds


def advance_modeled_time(task, device: Device, plan) -> float:
    """Advance ``device``'s simulated clock for one launch of ``task``
    under ``plan`` (its :class:`~repro.runtime.plan.LaunchPlan`);
    returns the modeled seconds (0.0 when the kernel does not describe
    itself).

    The launch is modeled with the plan's *resolved* work division, so
    tasks carrying a deferred :class:`~repro.core.workdiv.AutoWorkDiv`
    are modeled with the concrete division they actually executed
    under.  The prediction is a pure function of the plan and
    :func:`arg_signature`, so it is memoised on the plan: a warm launch
    with a known signature reads its seconds instead of re-running
    ``characteristics()`` and the roofline model.  Arguments without a
    signature are modeled uncached.
    """
    describe = getattr(task.kernel, "characteristics", None)
    if describe is None:
        return 0.0
    key = arg_signature(task.args)
    if key is None:
        seconds = _modeled_seconds(describe, task, device, plan)
    else:
        memo = plan._modeled
        seconds = memo.get(key, _MISS)
        if seconds is _MISS:
            seconds = _modeled_seconds(describe, task, device, plan)
            with _memo_lock:
                while len(memo) >= MODELED_TIME_CACHE_MAXSIZE:
                    memo.pop(next(iter(memo)))
                memo[key] = seconds
    if seconds is None:
        return 0.0
    device.advance_sim_time(seconds)
    return seconds
