"""Generated-code listings of kernels (paper Fig. 4): PTX and x86/SSE2
printers over the lane dataflow of the one symbolic tracer,
:mod:`repro.compile.tracer` (imported lazily), and a PTX comparator."""

from .compare import ComparisonResult, compare_streams, normalize
from .ir import Instruction, IRBuilder
from .ptx import ArgSpec, trace_alpaka_kernel, trace_cuda_kernel
from .x86 import (
    AsmListing,
    classify_fp_instructions,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
)

__all__ = [
    "IRBuilder",
    "Instruction",
    "ArgSpec",
    "trace_alpaka_kernel",
    "trace_cuda_kernel",
    "ComparisonResult",
    "compare_streams",
    "normalize",
    "AsmListing",
    "trace_cpu_kernel_scalar",
    "trace_cpu_kernel_spans",
    "classify_fp_instructions",
]
