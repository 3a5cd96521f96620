"""CPU assembler tracing — paper Fig. 4's SSE2 discussion."""

import pytest

from repro.core import Grid, Threads, fn_acc, get_idx
from repro.core.errors import TraceError
from repro.kernels import AxpyElementsKernel, AxpyKernel
from repro.trace import (
    classify_fp_instructions,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
)


@fn_acc
def copy_first(acc, n, *ptrs):
    """``ptrs[-1][i] = ptrs[0][i]``: touches the first and last pointer."""
    i = get_idx(acc, Grid, Threads)[0]
    if i < n:
        ptrs[-1][i] = ptrs[0][i]


class TestScalarPath:
    def test_all_scalar_instructions(self):
        """One element per thread -> movsd/mulsd/addsd only."""
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        counts = classify_fp_instructions(ctx)
        assert counts["packed"] == 0
        assert counts["scalar"] >= 5

    def test_guard_compiles_to_cmp_jge(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        m = ctx.mnemonics()
        assert "cmp" in m and "jge" in m

    def test_paper_scalar_mnemonics(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        m = ctx.mnemonics()
        for op in ("movsd", "mulsd", "addsd"):
            assert op in m, op


class TestVectorPath:
    def test_all_packed_instructions(self):
        """Element spans -> movupd/mulpd/addpd (the paper's packed
        SSE2), with only the alpha constant load remaining scalar."""
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        counts = classify_fp_instructions(ctx)
        assert counts["packed"] >= 10
        assert counts["scalar"] <= 1  # the hoisted alpha load

    def test_paper_packed_mnemonics(self):
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        m = ctx.mnemonics()
        for op in ("movupd", "mulpd", "addpd"):
            assert op in m, op

    def test_span_unrolls_by_lanes(self):
        """A 4-double span needs two packed registers per operand."""
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        m = ctx.mnemonics()
        # x load, y load, y store: 2 each.
        assert m.count("movupd") == 6
        assert m.count("mulpd") == 2
        assert m.count("addpd") == 2

    def test_broadcast_hoisted_once(self):
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 8, 2.0, span=8
        )
        assert ctx.mnemonics().count("movddup") == 1

    def test_misaligned_span_rejected(self):
        with pytest.raises(TraceError):
            trace_cpu_kernel_spans(
                AxpyElementsKernel(), ["x", "y"], 3, 2.0, span=3
            )


class TestContext:
    def test_pointer_registers_follow_abi(self):
        """Pointer arguments take the SysV registers in order."""
        ctx = trace_cpu_kernel_scalar(copy_first, ["a", "b"], "n")
        assert ctx.instructions[-3].startswith("movsd (%rdi,")
        assert ctx.instructions[-2].startswith("movsd %xmm")
        assert ctx.instructions[-2].endswith("(%rsi,%r11,8)")

    def test_pointer_exhaustion(self):
        ctx = trace_cpu_kernel_scalar(copy_first, ["p"] * 6, "n")
        assert "(%r9,%r11,8)" in ctx.to_text()  # the sixth register
        with pytest.raises(TraceError, match="pointer argument registers"):
            trace_cpu_kernel_scalar(copy_first, ["p"] * 7, "n")

    def test_text_rendering(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        text = ctx.to_text()
        assert "(%rdi,%r11,8)" in text or "(%rdi," in text
        assert text.strip().endswith(":")  # exit label


class TestPaperComparison:
    def test_element_level_is_the_difference(self):
        """The whole Fig. 4 CPU argument in one assertion: same
        algorithm, scalar source -> scalar code, span source -> packed
        code."""
        scalar = classify_fp_instructions(
            trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        )
        packed = classify_fp_instructions(
            trace_cpu_kernel_spans(
                AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
            )
        )
        assert scalar["packed"] == 0 and scalar["scalar"] > 0
        assert packed["packed"] > 0 and packed["scalar"] <= 1
