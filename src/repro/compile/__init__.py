"""repro.compile — the trace-driven vectorizer.

The paper's central claim is zero-overhead abstraction: an alpaka
kernel compiles to the same machine code a native kernel would
(Fig. 4).  This reproduction's interpreter runs every thread of every
block in Python bytecode — faithful, observable, and orders of
magnitude from that claim.  :mod:`repro.compile` closes part of the
gap without leaving pure numpy:

* :mod:`~repro.compile.tracer` runs the kernel **once** per
  (kernel, work-division, argument-shape) configuration with batched
  symbolic thread coordinates (reusing the ``trace_get_idx`` hook the
  PTX tracer introduced) and records a lane dataflow;
* :mod:`~repro.compile.exprs` is that dataflow's IR and evaluator;
* :mod:`~repro.compile.replay` replays the whole grid as fused numpy
  array operations — AXPY becomes ``y[:n] = a * x[:n] + y[:n]`` — with
  the closure cached on the :class:`~repro.runtime.plan.LaunchPlan`;
* kernels the vectorizer cannot soundly represent (divergent control
  flow, barriers, atomics, shared memory, per-thread RNG) fall back to
  interpretation transparently, with the reason classified, logged
  once, counted (:mod:`~repro.compile.metrics`) and flight-recorded.

Select it like any other block schedule: ``REPRO_SCHEDULER=compiled``,
``tune_schedule=True``, or the fleet's evolve genome.  Set
``REPRO_COMPILE_CROSSCHECK=1`` to make every compiled launch also run
interpreted and assert bit-identity.
"""

from __future__ import annotations

from .exprs import describe_expr
from .metrics import compile_stats
from .replay import (
    CROSSCHECK_ENV,
    CompiledReplay,
    crosscheck_active,
    execute_compiled,
    replay_for,
)
from .tracer import CompileAcc, CompileFallback, trace_kernel

__all__ = [
    "CompileAcc",
    "CompileFallback",
    "CompiledReplay",
    "trace_kernel",
    "replay_for",
    "execute_compiled",
    "crosscheck_active",
    "CROSSCHECK_ENV",
    "compile_stats",
    "describe_expr",
]
