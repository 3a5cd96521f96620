"""PTX listings of small kernels: FMA contraction, guards, addressing."""

import numpy as np
import pytest

from repro.core import Grid, Threads, fn_acc, get_idx
from repro.core.errors import TraceError
from repro.kernels import AxpyKernel
from repro.trace import IRBuilder, trace_alpaka_kernel

SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]


def listing(body, specs=SPECS):
    """PTX of ``body(i, *args)`` under the canonical ``if i < n:`` guard."""

    @fn_acc
    def kernel(acc, n, *args):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            body(i, *args)

    return trace_alpaka_kernel(kernel, specs)


def opcodes(ir):
    return ir.opcode_stream()


def emitted(ir, op):
    return [ins for ins in ir.instructions if ins.op == op]


class TestIRBuilder:
    def test_register_classes(self):
        b = IRBuilder()
        assert b.new_reg("r") == "%r1"
        assert b.new_reg("r") == "%r2"
        assert b.new_reg("fd") == "%fd1"
        assert b.new_reg("rd") == "%rd1"
        assert b.new_reg("p") == "%p1"

    def test_unknown_class(self):
        with pytest.raises(TraceError):
            IRBuilder().new_reg("x")

    def test_text_rendering(self):
        b = IRBuilder()
        b.emit("mov.u32", "%r1", "%tid.x")
        b.emit("st.global.f64", None, "%rd1", "%fd1")
        b.emit("ld.global.f64", "%fd2", "%rd2")
        txt = b.to_text()
        assert "mov.u32 %r1, %tid.x;" in txt
        assert "st.global.f64 [%rd1], %fd1;" in txt
        assert "ld.global.f64 %fd2, [%rd2];" in txt

    def test_predicated_branch_rendering(self):
        b = IRBuilder()
        b.emit("bra", None, "BB1", predicate="%p1")
        assert "@%p1 bra BB1;" in b.to_text()

    def test_label_rendering(self):
        b = IRBuilder()
        b.emit_label(b.new_label())
        assert b.instructions[0].to_text() == "BB1:"
        assert b.to_text() == "BB1:"


class TestIntOps:
    def test_mul_add_emit(self):
        def body(i, alpha, x, y):
            y[i * 3 + i] = alpha

        ops = opcodes(listing(body))
        assert "mul.lo.s32" in ops
        assert "add.s32" in ops

    def test_mad(self):
        """The global thread index is one mad.lo.s32 over the special
        registers, in nvcc's ntid * ctaid + tid operand order."""
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        sregs = {ins.srcs[0]: ins.dst for ins in emitted(ir, "mov.u32")}
        (mad,) = emitted(ir, "mad.lo.s32")
        assert mad.srcs == (sregs["%ntid.x"], sregs["%ctaid.x"],
                            sregs["%tid.x"])

    def test_literal_coercion(self):
        def body(i, alpha, x, y):
            y[i + 7] = alpha

        ir = listing(body)
        movs = [ins for ins in emitted(ir, "mov.u32") if ins.srcs == ("7",)]
        assert len(movs) == 1
        (add,) = emitted(ir, "add.s32")
        assert movs[0].dst in add.srcs


class TestFmaContraction:
    def test_product_plus_value_is_fma(self):
        ops = opcodes(trace_alpaka_kernel(AxpyKernel(), SPECS))
        assert "fma.rn.f64" in ops
        assert "mul.f64" not in ops  # contracted, not materialised

    def test_value_plus_product_is_fma(self):
        def body(i, alpha, x, y):
            y[i] = y[i] + alpha * x[i]

        ops = opcodes(listing(body))
        assert "fma.rn.f64" in ops and "mul.f64" not in ops

    def test_lone_product_materialises(self):
        def body(i, alpha, x, y):
            y[i] = alpha * x[i]

        ops = opcodes(listing(body))
        assert "mul.f64" in ops and "fma.rn.f64" not in ops

    def test_product_plus_product(self):
        def body(i, alpha, x, y):
            y[i] = alpha * x[i] + x[i] * y[i]

        ops = opcodes(listing(body))
        # One product materialises, the other contracts.
        assert ops.count("mul.f64") == 1
        assert ops.count("fma.rn.f64") == 1

    def test_plain_add_sub_div(self):
        def body(i, alpha, x, y):
            y[i] = (x[i] + alpha) - x[i] / alpha

        ops = opcodes(listing(body))
        assert "add.f64" in ops and "sub.f64" in ops and "div.rn.f64" in ops


class TestGuard:
    def test_if_emits_negated_setp_and_branch(self):
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        (setp,) = emitted(ir, "setp.ge.s32")  # negated lt
        (bra,) = emitted(ir, "bra")
        assert bra.predicate == setp.dst

    def test_exit_label_emitted_at_finish(self):
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        (bra,) = emitted(ir, "bra")
        assert ir.instructions[-1].op == "label"
        assert ir.instructions[-1].srcs == bra.srcs

    @pytest.mark.parametrize(
        "cond,negated",
        [("__lt__", "setp.ge.s32"), ("__le__", "setp.gt.s32")],
    )
    def test_negation_table(self, cond, negated):
        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if getattr(i, cond)(n):
                y[i] = alpha

        assert negated in opcodes(trace_alpaka_kernel(kernel, SPECS))

    @pytest.mark.parametrize("cond", ["__gt__", "__ge__"])
    def test_inverted_guard_is_divergent(self, cond):
        """Only ``if i < n`` / ``if i <= n`` is an early-exit guard; an
        inverted comparison diverges and the listing says so."""

        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if getattr(i, cond)(n):
                y[i] = alpha

        with pytest.raises(TraceError, match="divergent-control-flow"):
            trace_alpaka_kernel(kernel, SPECS)


class TestSymArray:
    def test_load_sequence(self):
        def body(i, alpha, x, y):
            y[i] = x[i]

        ops = opcodes(listing(body))
        seq = ("mul.wide.s32", "cvta.to.global.u64", "add.s64",
               "ld.global.f64")
        assert [ops.index(op) for op in seq] == sorted(
            ops.index(op) for op in seq)

    def test_const_array_uses_nc(self):
        specs = [("int", "n"), ("float", "alpha"), ("const_array", "x"),
                 ("array", "y")]
        ops = opcodes(trace_alpaka_kernel(AxpyKernel(), specs))
        assert ops.count("ld.global.nc.f64") == 1  # x only
        assert ops.count("ld.global.f64") == 1  # y stays coherent

    def test_offset_shared_between_arrays(self):
        """The index*8 offset is computed once (as nvcc does)."""
        ops = opcodes(trace_alpaka_kernel(AxpyKernel(), SPECS))
        assert ops.count("mul.wide.s32") == 1

    def test_offset_not_shared_across_itemsizes(self):
        """Regression: two buffers of different dtypes indexed by the
        same register must scale by their own itemsize — the offset
        cache is keyed on (index, itemsize), never index alone."""

        def body(i, a, b):
            a[i] = a[i] + 1.0
            b[i] = b[i] + 1.0

        specs = [("int", "n"), ("array", "a", np.float64),
                 ("array", "b", np.float32)]
        muls = emitted(listing(body, specs), "mul.wide.s32")
        assert len(muls) == 2  # one widened product per itemsize
        # Distinct byte-offset registers, scaled by 8 and 4 respectively.
        assert len({m.dst for m in muls}) == 2
        assert {m.srcs[-1] for m in muls} == {"8", "4"}

    def test_dtype_selects_load_store_suffix(self):
        """A float32 buffer loads/stores through .f32, an int32 buffer
        through .s32 — never the hardcoded .f64 path."""

        def body(i, v, c):
            v[i] = v[i] * 2.0
            c[i] = c[i] + 1

        specs = [("int", "n"), ("array", "v", np.float32),
                 ("array", "c", np.int32)]
        ops = opcodes(listing(body, specs))
        assert "ld.global.f32" in ops and "st.global.f32" in ops
        assert "mul.f32" in ops and "add.s32" in ops
        assert "ld.global.s32" in ops and "st.global.s32" in ops
        assert "ld.global.f64" not in ops and "st.global.f64" not in ops

    def test_address_reused_for_store(self):
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        ops = opcodes(ir)
        assert ops.count("add.s64") == 2  # one address per array
        ld_x, ld_y = emitted(ir, "ld.global.f64")
        (st,) = emitted(ir, "st.global.f64")
        assert st.srcs[0] == ld_y.srcs[0]  # the store reuses y[i]'s address

    def test_store_materialises_product(self):
        def body(i, alpha, x, y):
            y[i] = alpha * x[i]

        ir = listing(body)
        (mul,) = emitted(ir, "mul.f64")
        (st,) = emitted(ir, "st.global.f64")
        assert st.srcs[1] == mul.dst

    def test_concrete_index_prints_immediate_offset(self):
        """A literal index needs no mul.wide: its byte offset is an
        immediate of the address add."""

        def body(i, alpha, x, y):
            y[0] = x[3]

        ir = listing(body)
        assert "mul.wide.s32" not in opcodes(ir)
        assert {ins.srcs[-1] for ins in emitted(ir, "add.s64")} == {"24", "0"}


class TestListingErrors:
    def test_uniform_branch_on_parameter_rejected(self):
        """A listing has no value for ``alpha``, so it cannot pick a path."""

        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if alpha != 0.0:
                y[i] = alpha

        with pytest.raises(TraceError, match="branches on a parameter"):
            trace_alpaka_kernel(kernel, SPECS)

    def test_tracer_fallback_surfaces_as_trace_error(self):
        """A classified tracer fallback (a BaseException) never escapes
        a listing function: it becomes a TraceError naming the reason."""

        @fn_acc
        def kernel(acc, n, alpha, x, y):
            acc.atomic_add(y, 0, alpha)

        with pytest.raises(TraceError, match="atomics"):
            trace_alpaka_kernel(kernel, SPECS)

    def test_unknown_spec_kind(self):
        with pytest.raises(TraceError, match="unknown arg spec kind"):
            trace_alpaka_kernel(AxpyKernel(), [("pointer", "x")])

    def test_dimension_range(self):
        with pytest.raises(TraceError):
            trace_alpaka_kernel(AxpyKernel(), SPECS, dim=4)
