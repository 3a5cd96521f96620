"""Measuring one work division: warmup + repeated launches through the
Task→Plan→Execute runtime.

A measurement must cost what a *real* launch costs, so candidates are
executed through the same pipeline the application uses — the plan
cache, the schedulers, the :class:`~repro.runtime.ExecutionObserver`
hooks all fire (a :func:`repro.telemetry.collect` block's
``repro_launches_total`` therefore counts tuning launches too, which is how the warm-cache acceptance check
"zero measurement launches" observes the tuner).

Two clocks, chosen automatically per kernel:

* **modeled** — kernels that describe themselves (``characteristics``)
  advance the device's simulated clock deterministically on every
  launch; the per-launch modeled seconds are the measurement.  This is
  the clock the paper-figure kernels use, and it makes tuning results
  reproducible run to run.
* **wall** — kernels without a model fall back to the shared
  warmup/repeat wall-clock loop (:func:`repro.acc.timing.measure`),
  best-of-``repeat`` after ``warmup`` launches.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from ..acc.timing import measure
from ..core.kernel import create_task_kernel
from ..core.workdiv import WorkDivMembers
from ..telemetry.spans import sim_interval, span

__all__ = ["MeasuredTime", "measure_division", "measure_task"]


@contextmanager
def _forced_schedule(schedule: Optional[str]):
    """Pin ``REPRO_SCHEDULER`` for the duration of one measurement.

    The launch-plan cache folds the override into its key, so plans
    measured under a forced schedule never collide with plans of the
    surrounding application.
    """
    if schedule is None:
        yield
        return
    from ..runtime.scheduler import SCHEDULER_ENV

    prev = os.environ.get(SCHEDULER_ENV)
    os.environ[SCHEDULER_ENV] = schedule
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop(SCHEDULER_ENV, None)
        else:
            os.environ[SCHEDULER_ENV] = prev


@dataclass(frozen=True)
class MeasuredTime:
    """Outcome of measuring one division."""

    seconds: float
    #: "modeled" (simulated clock) or "wall" (host clock).
    source: str
    #: How many kernel launches the measurement spent.
    launches: int


def measure_task(
    task,
    device,
    *,
    queue=None,
    warmup: int = 1,
    repeat: int = 3,
    clock: str = "auto",
) -> MeasuredTime:
    """Measure one bound task on ``device`` (see module docstring).

    ``queue`` defaults to a fresh blocking queue on ``device``; pass
    one to order measurements into existing device work.  ``clock``:
    ``"auto"`` prefers the modeled clock when the kernel advances it,
    ``"wall"`` forces the host clock — the modeled clock derives from
    the work division alone, so comparing *block schedulers* (whose
    difference is purely host parallelism) must measure wall time.
    """
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if clock not in ("auto", "wall"):
        raise ValueError(f"clock must be 'auto' or 'wall', got {clock!r}")
    if queue is None:
        from ..queue import QueueBlocking

        queue = QueueBlocking(device)

    with span("tuning.measure", cat="tuning", device=device):
        # Warmup: fills the plan cache and, for self-describing kernels,
        # reveals the modeled per-launch cost on the simulated clock.
        # The shared telemetry helper reads the exact femtosecond
        # counter: identical launches must measure identical seconds no
        # matter how large the device clock has grown.
        with sim_interval(device) as elapsed:
            for _ in range(warmup):
                queue.enqueue(task)
        modeled = elapsed[0] / warmup

        if modeled > 0.0 and clock == "auto":
            # Deterministic clock: the warmup launches already *are*
            # the measurement; repeating would add identical samples.
            return MeasuredTime(
                seconds=modeled, source="modeled", launches=warmup
            )

        seconds = measure(lambda: queue.enqueue(task), warmup=0, repeat=repeat)
        return MeasuredTime(
            seconds=seconds, source="wall", launches=warmup + repeat
        )


def measure_division(
    kernel,
    acc_type,
    device,
    work_div: WorkDivMembers,
    args: Tuple = (),
    *,
    shared_mem_bytes: int = 0,
    queue=None,
    warmup: int = 1,
    repeat: int = 3,
    schedule: Optional[str] = None,
    clock: str = "auto",
) -> MeasuredTime:
    """Bind ``kernel`` to ``work_div`` and measure it — the autotuner's
    objective function.

    ``schedule`` pins the block-scheduling strategy for this measurement
    (``"sequential"`` / ``"pooled"`` / ``"processes"`` /
    ``"compiled"``); the schedule leg of the autotuner sweeps it with
    ``clock="wall"``.
    """
    task = create_task_kernel(
        acc_type, work_div, kernel, *args, shared_mem_bytes=shared_mem_bytes
    )
    with _forced_schedule(schedule):
        return measure_task(
            task, device, queue=queue, warmup=warmup, repeat=repeat,
            clock=clock,
        )
