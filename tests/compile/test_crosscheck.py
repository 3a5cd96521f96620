"""REPRO_COMPILE_CROSSCHECK: bit-identity assertion on every launch."""

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
from repro.compile import compile_stats, crosscheck_active
from repro.core.errors import CompileCrossCheckError
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import fn_acc
from repro.kernels import AxpyKernel, axpy_reference
from repro.runtime import clear_plan_cache

from tests.conftest import compile_stats_since


Acc = accelerator("AccCpuOmp2Blocks")


@pytest.fixture(autouse=True)
def crosscheck_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    monkeypatch.setenv("REPRO_COMPILE_CROSSCHECK", "1")
    global _before
    clear_plan_cache()
    _before = compile_stats()
    yield
    clear_plan_cache()


def stats():
    """Compile counters accrued since the test started."""
    return compile_stats_since(_before)


def launch(kernel, wd, *scalars, arrays):
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


def test_env_switch_parsing(monkeypatch):
    for val in ("1", "true", "on", "yes"):
        monkeypatch.setenv("REPRO_COMPILE_CROSSCHECK", val)
        assert crosscheck_active()
    for val in ("", "0", "false", "no", "off"):
        monkeypatch.setenv("REPRO_COMPILE_CROSSCHECK", val)
        assert not crosscheck_active()


def test_axpy_crosscheck_passes_and_counts():
    n = 200
    rng = np.random.default_rng(11)
    x, y = rng.random(n), rng.random(n)
    _, yo = launch(
        AxpyKernel(), WorkDivMembers.make(256, 1, 1), n, 1.75,
        arrays=[x, y],
    )
    np.testing.assert_array_equal(yo, axpy_reference(1.75, x, y))
    st = stats()
    assert st["crosschecks"] == 1
    assert st["compiled_launches"] == 1


def test_impure_kernel_detected():
    """A kernel whose stores depend on shared mutable state traces to a
    uniform constant but interprets per-thread — exactly the class of
    silent miscompile the crosscheck exists to catch."""

    class ImpureKernel:
        def __init__(self):
            self.calls = 0

        @fn_acc
        def __call__(self, acc, n, y):
            i = get_idx(acc, Grid, Threads)[0]
            self.calls += 1
            if i < n:
                y[i] = float(self.calls)

    n = 8
    dev = get_dev_by_idx(Acc, 0)
    q = QueueBlocking(dev)
    by = mem.alloc(dev, (n,))
    mem.copy(q, by, np.zeros(n))
    task = create_task_kernel(
        Acc, WorkDivMembers.make(n, 1, 1), ImpureKernel(), n, by
    )
    with pytest.raises(CompileCrossCheckError) as e:
        q.enqueue(task)
    assert "ImpureKernel" in str(e.value)
    by.free()


def test_buffers_restored_before_interpreted_run():
    """The interpreted leg must start from the pre-launch bytes, not the
    compiled result — an accumulating kernel (y += x) would otherwise
    double-apply and always fail the comparison."""
    n = 64
    rng = np.random.default_rng(12)
    x, y = rng.random(n), rng.random(n)
    _, yo = launch(
        AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 1.0,
        arrays=[x, y],
    )
    # axpy with alpha=1 accumulates: y_out = x + y, applied exactly once.
    np.testing.assert_array_equal(yo, x + y)
    assert stats()["crosschecks"] == 1


def test_crosscheck_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_COMPILE_CROSSCHECK", raising=False)
    n = 16
    launch(
        AxpyKernel(), WorkDivMembers.make(n, 1, 1), n, 2.0,
        arrays=[np.arange(float(n)), np.zeros(n)],
    )
    assert stats()["crosschecks"] == 0
