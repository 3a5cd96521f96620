"""Tracing of shared memory and block barriers (tiled-kernel support)."""

import numpy as np

from repro.core import Block, Grid, Threads, fn_acc, get_idx
from repro.trace import trace_alpaka_kernel

SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]


@fn_acc
def mini_tiled(acc, n, alpha, x, y):
    i = get_idx(acc, Grid, Threads)[0]
    ti = get_idx(acc, Block, Threads)[0]
    tile = acc.shared_mem("tile", (16,))
    if i < n:
        tile[ti] = x[i]
        acc.sync_block_threads()
        y[i] = alpha * tile[ti] + y[i]


class TestSharedTracing:
    def test_shared_opcodes_present(self):
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        ops = ir.opcode_stream()
        assert "st.shared.f64" in ops
        assert "ld.shared.f64" in ops
        assert "bar.sync" in ops

    def test_barrier_between_store_and_load(self):
        """The trace preserves program order: store, barrier, load."""
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        ops = ir.opcode_stream()
        assert ops.index("st.shared.f64") < ops.index("bar.sync")
        assert ops.index("bar.sync") < ops.index("ld.shared.f64")

    def test_shared_address_reused(self):
        """tile[ti] store and load share one address computation."""
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        text = ir.to_text()
        st_line = next(l for l in text.splitlines() if "st.shared" in l)
        ld_line = next(l for l in text.splitlines() if "ld.shared" in l)
        addr_st = st_line.split("[")[1].split("]")[0]
        addr_ld = ld_line.split("[")[1].split("]")[0]
        assert addr_st == addr_ld

    def test_same_name_same_array(self):
        """Two ``shared_mem`` calls with one name are one array: a store
        through the first and a load through the second share an
        address."""

        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            ti = get_idx(acc, Block, Threads)[0]
            a = acc.shared_mem("s", (8,))
            b = acc.shared_mem("s", (8,))
            if i < n:
                a[ti] = x[i]
                acc.sync_block_threads()
                y[i] = b[ti]

        ir = trace_alpaka_kernel(kernel, SPECS)
        (st,) = [i for i in ir.instructions if i.op == "st.shared.f64"]
        (ld,) = [i for i in ir.instructions if i.op == "ld.shared.f64"]
        assert st.srcs[0] == ld.srcs[0]
        assert [i.srcs for i in ir.instructions if i.op == "mov.u64"] == [
            ("%s",)
        ]

    def test_value_flows_into_fma(self):
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        assert "fma.rn.f64" in ir.opcode_stream()

    def test_concrete_index_prints_immediate_offset(self):
        """A literal shared index addresses the tile base plus an
        immediate byte offset, with no widening multiply."""

        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            tile = acc.shared_mem("tile", (16,))
            if i < n:
                tile[2] = x[i]

        ir = trace_alpaka_kernel(kernel, SPECS)
        (base,) = [i.dst for i in ir.instructions if i.op == "mov.u64"]
        (st,) = [i for i in ir.instructions if i.op == "st.shared.f64"]
        (add,) = [i for i in ir.instructions
                  if i.op == "add.s64" and i.dst == st.srcs[0]]
        assert add.srcs == (base, "16")

    def test_shared_dtype_selects_suffix(self):
        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            tile = acc.shared_mem("tile", (16,), np.float32)
            if i < n:
                tile[i] = 1.0

        ops = trace_alpaka_kernel(kernel, SPECS).opcode_stream()
        assert "st.shared.f32" in ops and "mov.f32" in ops
