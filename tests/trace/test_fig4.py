"""Fig. 4 reproduction and the stream comparator."""

import pytest

from repro.core import Block, Grid, Threads, fn_acc, get_idx, get_work_div
from repro.kernels import AxpyKernel, axpy_cuda_native
from repro.trace import (
    compare_streams,
    normalize,
    trace_alpaka_kernel,
    trace_cuda_kernel,
)

SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]
SPECS_NC = [("int", "n"), ("float", "alpha"), ("const_array", "x"), ("array", "y")]


class TestFig4:
    def test_paper_finding(self):
        """Identical up to register names and one nc cache modifier."""
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS_NC)
        r = compare_streams(a, b)
        assert r.identical_up_to_cache_modifiers
        assert len(r.notes) == 1
        assert not r.identical

    def test_identical_without_nc(self):
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS)
        r = compare_streams(a, b)
        assert r.identical
        assert r.summary() == "streams identical"

    def test_paper_instruction_shapes(self):
        """The traced stream contains exactly the paper's opcodes."""
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        ops = ir.opcode_stream()
        for expected in (
            "mov.u32", "mad.lo.s32", "setp.ge.s32", "bra",
            "cvta.to.global.u64", "mul.wide.s32", "add.s64",
            "ld.global.f64", "fma.rn.f64", "st.global.f64",
        ):
            assert expected in ops, expected
        # Exactly one FMA, two loads, one store (DAXPY's data flow).
        assert ops.count("fma.rn.f64") == 1
        assert ops.count("ld.global.f64") == 2
        assert ops.count("st.global.f64") == 1

    def test_strict_mode_reports_nc_as_difference(self):
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS_NC)
        r = compare_streams(a, b, allow_cache_modifiers=False)
        assert not r.identical_up_to_cache_modifiers
        assert len(r.differences) == 1


class TestComparator:
    def test_register_renaming_is_invisible(self):
        """The same kernel traced twice with different registers in
        flight compares identical."""
        k = AxpyKernel()
        a = trace_alpaka_kernel(k, SPECS)
        b = trace_alpaka_kernel(k, SPECS)
        assert compare_streams(a, b).identical

    def test_different_kernels_differ(self):
        @fn_acc
        def saxpy_wrong(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = alpha * y[i] + x[i]  # operands swapped

        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_alpaka_kernel(saxpy_wrong, SPECS)
        r = compare_streams(a, b)
        assert not r.identical_up_to_cache_modifiers

    def test_length_mismatch_detected(self):
        @fn_acc
        def double_store(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                v = alpha * x[i] + y[i]
                y[i] = v
                y[i] = v  # one extra store

        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_alpaka_kernel(double_store, SPECS)
        r = compare_streams(a, b)
        assert not r.identical_up_to_cache_modifiers
        # The extra store shows up where the shorter stream exits ...
        pos, left, right = r.differences[0]
        assert left == "BB1:" and right.startswith("st.global.f64 [")
        # ... and the shorter stream's side of the trailing entry is absent.
        assert r.differences[-1] == (pos + 1, "<absent>", "BB1:")
        assert len(r.differences) == 2

    def test_normalize_canonical_names(self):
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        normed = normalize(ir)
        regs = [i.dst for i in normed if i.dst and i.dst.startswith("%r")]
        # First integer register in canonical form is %r1.
        assert "%r1" in regs


class TestTraceAcc:
    def test_block_thread_queries(self):
        @fn_acc
        def k(acc, n, alpha, x, y):
            bi = get_idx(acc, Grid, Threads)[0]
            ti = get_idx(acc, Block, Threads)[0]
            bt = get_work_div(acc, Block, Threads)[0]
            if bi < n:
                y[ti + bt] = alpha * x[bi] + y[bi]

        ir = trace_alpaka_kernel(k, SPECS)
        ops = ir.opcode_stream()
        assert "mov.u32" in ops

    def test_sreg_caching(self):
        """Repeated index queries read the special registers once."""

        @fn_acc
        def k(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            j = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[j] = alpha * x[i] + y[i]

        ir = trace_alpaka_kernel(k, SPECS)
        ops = ir.opcode_stream()
        assert ops.count("mov.u32") == 3  # ctaid, ntid, tid - once each
        assert ops.count("mad.lo.s32") == 1
