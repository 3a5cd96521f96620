"""The collector's launch timeline: modeled time and sanitize detail."""

import numpy as np

from repro import (
    AccGpuCudaSim,
    QueueBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    get_dev_by_idx,
    mem,
    telemetry,
)
from repro.kernels.axpy import AxpyKernel


def _axpy_task(dev, n=32):
    q = QueueBlocking(dev)
    x = mem.alloc(dev, n)
    y = mem.alloc(dev, n)
    mem.copy(q, x, np.ones(n))
    mem.copy(q, y, np.ones(n))
    task = create_task_kernel(
        AccGpuCudaSim, WorkDivMembers.make(n, 1, 1), AxpyKernel(), n, 2.0, x, y
    )
    return q, task


class TestSimTimeCapture:
    def test_launch_events_carry_sim_time(self):
        clear_plan_cache()
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q, task = _axpy_task(dev)
        with telemetry.collect() as t:
            q.enqueue(task)
        launch = next(e for e in t.events if e.cat == "launch")
        # AxpyKernel describes its cost, so the modeled clock advanced.
        assert launch.args["modeled_s"] > 0.0
        assert t.total(
            "repro_launch_modeled_seconds_total", backend="AccGpuCudaSim"
        ) == launch.args["modeled_s"]


class TestSanitizeDetail:
    def test_sanitize_event_reports_finding_count(self):
        from repro import AccCpuSerial
        from repro.sanitize import sanitize_task

        dev = get_dev_by_idx(AccCpuSerial, 0)
        n = 8
        q = QueueBlocking(dev)
        x = mem.alloc(dev, n)
        mem.copy(q, x, np.zeros(n))
        task = create_task_kernel(
            AccCpuSerial, WorkDivMembers.make(n, 1, 1),
            AxpyKernel(), n, 1.0, x, x,
        )
        with telemetry.collect() as t:
            report = sanitize_task(task, dev)
        ev = next(
            e for e in t.events if e.cat == "sanitize" and e.ph == "i"
        )
        assert ev.args["findings"] == len(report.launches[0].findings)
        assert ev.args["kernel"] == "AxpyKernel"
        x.free()
