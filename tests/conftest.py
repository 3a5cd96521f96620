"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    accelerator,
    accelerator_names,
    create_task_kernel,
    divide_work,
    get_dev_by_idx,
    mem,
)

ALL_BACKENDS = accelerator_names()
SYNC_BACKENDS = [
    n for n in ALL_BACKENDS if accelerator(n).supports_block_sync
]
CPU_BACKENDS = [n for n in ALL_BACKENDS if accelerator(n).kind == "cpu"]


@pytest.fixture(params=ALL_BACKENDS)
def any_acc(request):
    """Every registered back-end type."""
    return accelerator(request.param)


@pytest.fixture(params=SYNC_BACKENDS)
def sync_acc(request):
    """Back-ends whose blocks may hold more than one thread."""
    return accelerator(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class KernelRunner:
    """Boilerplate-free kernel execution for tests.

    ``run(acc, work_div, kernel, n, 2.0, arrays={'x': x_host, ...})``
    allocates device buffers for the arrays, stages them, runs, and
    returns the array contents after execution.
    """

    def run(self, acc_type, work_div, kernel, *scalars, arrays=None):
        arrays = arrays or {}
        dev = get_dev_by_idx(acc_type, 0)
        queue = QueueBlocking(dev)
        bufs = {}
        for name, host in arrays.items():
            host = np.ascontiguousarray(host)
            buf = mem.alloc(dev, host.shape, dtype=host.dtype)
            mem.copy(queue, buf, host)
            bufs[name] = buf
        args = list(scalars) + [bufs[k] for k in arrays]
        queue.enqueue(create_task_kernel(acc_type, work_div, kernel, *args))
        out = {}
        for name, host in arrays.items():
            res = np.empty_like(np.ascontiguousarray(host))
            mem.copy(queue, res, bufs[name])
            out[name] = res
            bufs[name].free()
        return out

    @staticmethod
    def auto_workdiv(acc_type, n, thread_elems=8):
        dev = get_dev_by_idx(acc_type, 0)
        props = acc_type.get_acc_dev_props(dev)
        return divide_work(
            n, props, acc_type.mapping_strategy, thread_elems=thread_elems
        )


@pytest.fixture
def runner():
    return KernelRunner()


def compile_stats_since(before):
    """``repro.compile.compile_stats()`` minus the snapshot ``before``,
    in the same dict shape (fallback reasons that did not grow drop
    out)."""
    from repro.compile import compile_stats

    after = compile_stats()
    out = {k: after[k] - before[k] for k in after if k != "fallbacks"}
    out["fallbacks"] = {
        reason: n - before["fallbacks"].get(reason, 0)
        for reason, n in after["fallbacks"].items()
        if n > before["fallbacks"].get(reason, 0)
    }
    return out
