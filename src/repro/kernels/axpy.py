"""DAXPY kernels (paper Sec. 4.1, Fig. 4).

``Y <- alpha * X + Y``.  Three single-source renditions:

* :class:`AxpyKernel` — the alpaka kernel of the paper's conceptual
  comparison: one element per thread, in-bounds guard, written so the
  traced instruction stream matches the native CUDA one.
* :func:`axpy_cuda_native` — the native CUDA kernel (written against the
  CUDA-C index surface of :func:`repro.trace.trace_cuda_kernel`,
  trace-only).
* :class:`AxpyElementsKernel` — the element-level version: each thread
  owns a span and updates it with one vector operation; the form the
  paper's Sec. 4.1 discusses for CPU SIMD (packed ``movupd``/``mulpd``
  vs scalar ``movsd``/``mulsd``).
"""

from __future__ import annotations

import numpy as np

from ..core.element import grid_strided_spans
from ..core.index import Grid, Threads, get_idx
from ..core.kernel import fn_acc
from ..hardware.cache import AccessPattern
from ..perfmodel.kernel_model import KernelCharacteristics

__all__ = [
    "AxpyKernel",
    "AxpyElementsKernel",
    "axpy_cuda_native",
    "axpy_reference",
]


class AxpyKernel:
    """One-element-per-thread DAXPY (the Fig. 4 kernel).

    The body is written exactly as the paper's comparison requires:
    compute the global thread index, guard, then ``y[i] = a*x[i] + y[i]``
    (the multiply-add order that contracts to one FMA).
    """

    @fn_acc
    def __call__(self, acc, n, alpha, x, y):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            y[i] = alpha * x[i] + y[i]

    def characteristics(self, work_div, n, alpha, x, y) -> KernelCharacteristics:
        return KernelCharacteristics(
            flops=2.0 * n,
            global_read_bytes=16.0 * n,
            global_write_bytes=8.0 * n,
            working_set_bytes=24 * int(n),
            # One element per thread, adjacent threads adjacent data:
            # interleaved-across-threads = "strided" per thread.
            thread_access_pattern=AccessPattern.STRIDED,
            vector_friendly=False,
        )


def axpy_cuda_native(cu, n, alpha, x, y):
    """The native CUDA DAXPY of the paper's Fig. 4, for tracing.

    Trace with ``("const_array", "x")`` to reproduce the
    ``ld.global.nc.f64`` the paper observes in the native PTX.
    """
    i = cu.global_thread_idx_x()
    if i < n:
        y[i] = alpha * x[i] + y[i]


class AxpyElementsKernel:
    """Element-level DAXPY: one vector operation per owned span.

    Uses grid-striding, so *any* work division covers any ``n``.  On the
    CPU back-ends the span update is a single numpy expression — the
    reproduction's analogue of the compiler vectorising the "primitive
    inner loop over a fixed number of elements" (paper Sec. 3.2.4).
    """

    @fn_acc
    def __call__(self, acc, n, alpha, x, y):
        for span in grid_strided_spans(acc, n):
            y[span] = alpha * x[span] + y[span]

    def characteristics(self, work_div, n, alpha, x, y) -> KernelCharacteristics:
        return KernelCharacteristics(
            flops=2.0 * n,
            global_read_bytes=16.0 * n,
            global_write_bytes=8.0 * n,
            working_set_bytes=24 * int(n),
            thread_access_pattern=AccessPattern.CONTIGUOUS,
            vector_friendly=True,
        )


def axpy_reference(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Host-side reference: the value DAXPY must produce."""
    return alpha * x + y
