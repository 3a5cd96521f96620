"""The compiled schedule end-to-end: plan resolution, caching, fallback."""

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import fn_acc
from repro.kernels import AxpyElementsKernel, AxpyKernel, axpy_reference
from repro.runtime import clear_plan_cache, get_plan

from tests.conftest import compile_stats_since


Acc = accelerator("AccCpuOmp2Blocks")


@pytest.fixture(autouse=True)
def compiled_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    monkeypatch.delenv("REPRO_COMPILE_CROSSCHECK", raising=False)
    global _before
    clear_plan_cache()
    _before = compile_stats()
    yield
    clear_plan_cache()


def stats():
    """Compile counters accrued since the test started."""
    return compile_stats_since(_before)


def run(kernel, wd, *scalars, arrays):
    dev = get_dev_by_idx(Acc, 0)
    q = QueueBlocking(dev)
    bufs = []
    for host in arrays:
        buf = mem.alloc(dev, host.shape, dtype=host.dtype)
        mem.copy(q, buf, host)
        bufs.append(buf)
    q.enqueue(create_task_kernel(Acc, wd, kernel, *scalars, *bufs))
    out = []
    for host, buf in zip(arrays, bufs):
        res = np.empty_like(host)
        mem.copy(q, res, buf)
        out.append(res)
        buf.free()
    return out


class TestPlanResolution:
    def test_env_override_selects_compiled(self):
        dev = get_dev_by_idx(Acc, 0)
        task = create_task_kernel(
            Acc, WorkDivMembers.make(8, 1, 1), AxpyKernel(),
            8, 1.0, np.zeros(8), np.zeros(8),
        )
        assert get_plan(task, dev).schedule == "compiled"

    def test_one_block_grid_stays_compiled(self):
        """The block_count == 1 pool demotion must not clobber the
        compiled strategy (the replay covers the grid regardless)."""
        dev = get_dev_by_idx(Acc, 0)
        task = create_task_kernel(
            Acc, WorkDivMembers.make(1, 1, 4), AxpyElementsKernel(),
            4, 1.0, np.zeros(4), np.zeros(4),
        )
        assert get_plan(task, dev).schedule == "compiled"

    def test_sequential_backends_never_remapped(self):
        ser = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(ser, 0)
        task = create_task_kernel(
            ser, WorkDivMembers.make(8, 1, 1), AxpyKernel(),
            8, 1.0, np.zeros(8), np.zeros(8),
        )
        assert get_plan(task, dev).schedule == "sequential"


class TestExecution:
    def test_masked_scalar_axpy_bit_identical(self):
        n = 257
        rng = np.random.default_rng(7)
        x, y = rng.random(n), rng.random(n)
        xo, yo = run(
            AxpyKernel(), WorkDivMembers.make(260, 1, 1), n, 3.0,
            arrays=[x, y],
        )
        np.testing.assert_array_equal(yo, axpy_reference(3.0, x, y))
        np.testing.assert_array_equal(xo, x)
        st = stats()
        assert st["compiled_launches"] == 1
        assert st["fallbacks"] == {}

    def test_warm_replay_zero_retraces(self):
        n = 100
        rng = np.random.default_rng(8)
        x, y = rng.random(n), rng.random(n)
        dev = get_dev_by_idx(Acc, 0)
        q = QueueBlocking(dev)
        bx = mem.alloc(dev, (n,)); mem.copy(q, bx, x)
        by = mem.alloc(dev, (n,)); mem.copy(q, by, y)
        wd = WorkDivMembers.make(128, 1, 1)
        k = AxpyKernel()
        for _ in range(5):
            q.enqueue(create_task_kernel(Acc, wd, k, n, 2.0, bx, by))
        st = stats()
        assert st["traces"] == 1
        assert st["retraces"] == 0
        assert st["cache_hits"] == 4
        assert st["compiled_launches"] == 5
        expected = y
        for _ in range(5):
            expected = axpy_reference(2.0, x, expected)
        res = np.empty(n); mem.copy(q, res, by)
        np.testing.assert_array_equal(res, expected)

    def test_guard_flip_retraces_once(self):
        @fn_acc
        def kernel(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if alpha == 0.0:
                    y[i] = 0.0
                else:
                    y[i] = alpha * x[i]

        n = 16
        x = np.arange(float(n))
        wd = WorkDivMembers.make(n, 1, 1)
        (x0, y0) = run(kernel, wd, n, 2.0, arrays=[x, np.zeros(n)])
        np.testing.assert_array_equal(y0, 2.0 * x)
        (x1, y1) = run(kernel, wd, n, 0.0, arrays=[x, np.ones(n)])
        np.testing.assert_array_equal(y1, np.zeros(n))
        st = stats()
        assert st["retraces"] == 1
        assert st["fallbacks"] == {}

    def test_divergent_kernel_falls_back_correctly(self):
        @fn_acc
        def kernel(acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if x[i] > 0.5:
                    y[i] = 1.0
                else:
                    y[i] = -1.0

        n = 64
        rng = np.random.default_rng(9)
        x = rng.random(n)
        wd = WorkDivMembers.make(n, 1, 1)
        _, y = run(kernel, wd, n, arrays=[x, np.zeros(n)])
        np.testing.assert_array_equal(y, np.where(x > 0.5, 1.0, -1.0))
        st = stats()
        assert st["fallbacks"].get("divergent-control-flow", 0) >= 1
        assert st["compiled_launches"] == 0

    def test_fallback_verdict_cached(self):
        """An uncompilable kernel pays the trace attempt once; warm
        launches skip straight to interpretation."""
        @fn_acc
        def kernel(acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                acc.atomic_add(y, 0, 1.0)

        n = 8
        wd = WorkDivMembers.make(n, 1, 1)
        dev = get_dev_by_idx(Acc, 0)
        q = QueueBlocking(dev)
        by = mem.alloc(dev, (1,)); mem.copy(q, by, np.zeros(1))
        for _ in range(3):
            q.enqueue(create_task_kernel(Acc, wd, kernel, n, by))
        res = np.empty(1); mem.copy(q, res, by)
        assert res[0] == 24.0  # 3 launches x 8 increments
        st = stats()
        assert st["traces"] == 1
        assert st["fallbacks"].get("atomics") == 3

    def test_scalar_dtype_in_signature(self):
        """A float32 alpha and a float alpha are distinct compiled
        shapes (promotion differs) — both bit-identical to reference."""
        n = 32
        rng = np.random.default_rng(10)
        x = rng.random(n, dtype=np.float32).astype(np.float64)
        y = rng.random(n)
        wd = WorkDivMembers.make(n, 1, 1)
        _, y64 = run(AxpyKernel(), wd, n, np.float64(1.5), arrays=[x, y])
        _, y32 = run(AxpyKernel(), wd, n, np.float32(1.5), arrays=[x, y])
        np.testing.assert_array_equal(
            y64, np.float64(1.5) * x + y
        )
        np.testing.assert_array_equal(
            y32, np.float32(1.5) * x + y
        )
        assert stats()["traces"] == 2


class TestTelemetryLabels:
    def test_launch_labels_carry_compiled_schedule(self):
        from repro.runtime import register_observer, unregister_observer
        from repro.telemetry.collector import TelemetryCollector

        col = TelemetryCollector()
        register_observer(col)
        try:
            n = 16
            run(
                AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 2.0,
                arrays=[np.arange(float(n)), np.zeros(n)],
            )
        finally:
            unregister_observer(col)
        launches = col.registry.instruments("repro_launches_total")
        schedules = {dict(c.labels).get("schedule") for c in launches}
        assert "compiled" in schedules

    def test_report_counts_compiled_vs_interpreted(self, monkeypatch):
        from repro.runtime import register_observer, unregister_observer
        from repro.telemetry.collector import TelemetryCollector
        from repro.telemetry.report import _launch_rows

        col = TelemetryCollector()
        register_observer(col)
        try:
            n = 16
            x, y = np.arange(float(n)), np.zeros(n)
            run(AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 2.0,
                arrays=[x, y])
            monkeypatch.setenv("REPRO_SCHEDULER", "sequential")
            clear_plan_cache()
            run(AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 2.0,
                arrays=[x, y])
        finally:
            unregister_observer(col)
        rows = [r for r in _launch_rows(col) if r["kernel"] == "AxpyKernel"]
        assert rows
        assert rows[0]["launches"] == 2
        assert rows[0]["compiled"] == "1/2"


class TestCompileStats:
    def test_stats_are_registry_sums(self):
        """``compile_stats()`` is a read of the ``repro_compile_*``
        registry counters, summed over their kernel labels."""
        from repro.telemetry.metrics import registry

        n = 64
        x, y = np.arange(float(n)), np.zeros(n)
        run(AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 2.0,
            arrays=[x, y])

        @fn_acc
        def divergent(acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if x[i] > 3.0:
                    y[i] = 1.0

        run(divergent, WorkDivMembers.make(n, 1, 1), n, arrays=[x, y])
        delta = stats()
        assert delta["compiled_launches"] == 1
        assert delta["fallbacks"] == {"divergent-control-flow": 1}

        def total(name):
            return int(sum(i.value for i in registry().instruments(name)))

        fallbacks = {}
        for inst in registry().instruments("repro_compile_fallbacks_total"):
            reason = dict(inst.labels)["reason"]
            fallbacks[reason] = fallbacks.get(reason, 0) + int(inst.value)
        assert compile_stats() == {
            "traces": total("repro_compile_traces_total"),
            "cache_hits": total("repro_compile_cache_hits_total"),
            "retraces": total("repro_compile_retraces_total"),
            "compiled_launches": total("repro_compile_launches_total"),
            "crosschecks": total("repro_compile_crosschecks_total"),
            "fallbacks": fallbacks,
        }
