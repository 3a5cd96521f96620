"""The unified launch runtime: Task → Plan → Execute.

Every back-end routes kernel launches through :func:`launch`:

1. **Task** — the inert :class:`~repro.core.kernel.KernelTask` built by
   ``create_task_kernel`` (unchanged public API);
2. **Plan** — :mod:`repro.runtime.plan` resolves (or rebuilds) a
   :class:`LaunchPlan` carrying the validated work division, projected
   device properties, chosen thread-level runner and block-level
   schedule, with an LRU cache so repeated launches skip validation;
3. **Execute** — :mod:`repro.runtime.scheduler` dispatches the blocks,
   sequentially or chunked over a persistent per-device worker pool.

Instrumentation (:mod:`repro.runtime.instrument`) observes every stage;
back-ends declare their strategy pair declaratively::

    class AccCpuOmp2Blocks(AccCpu):
        block_schedule = "pooled"      # blocks over the device pool
        thread_execute = "single"      # one thread per block

and never touch pool or validation logic themselves.
"""

from __future__ import annotations

from .instrument import (
    ExecutionObserver,
    notify_copy,
    notify_graph_end,
    notify_launch_begin,
    notify_launch_end,
    notify_plan_cache,
    notify_queue_drain,
    notify_sanitizer_report,
    observe,
    observers,
    register_observer,
    unregister_observer,
)
from .plan import (
    GRAPH_PLAN_CACHE_MAXSIZE,
    PLAN_CACHE_MAXSIZE,
    GraphPlan,
    LaunchPlan,
    build_plan,
    clear_graph_plan_cache,
    clear_plan_cache,
    get_graph_plan,
    get_plan,
    graph_plan_cache_info,
    plan_cache_info,
)
from .scheduler import (
    MAX_BLOCK_WORKERS,
    MAX_BLOCK_WORKERS_ENV,
    PROCESS_WORKERS_ENV,
    SCHEDULER_ENV,
    CompiledScheduler,
    PooledScheduler,
    ProcessPoolScheduler,
    Scheduler,
    SequentialScheduler,
    chunk_indices,
    current_worker_label,
    resolve_max_block_workers,
    resolve_process_workers,
    resolve_scheduler_override,
    scheduler_for,
    shutdown_schedulers,
)

__all__ = [
    "launch",
    "execute_plan",
    # plan
    "LaunchPlan",
    "build_plan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "PLAN_CACHE_MAXSIZE",
    # graph plan
    "GraphPlan",
    "get_graph_plan",
    "clear_graph_plan_cache",
    "graph_plan_cache_info",
    "GRAPH_PLAN_CACHE_MAXSIZE",
    # scheduler
    "Scheduler",
    "SequentialScheduler",
    "PooledScheduler",
    "ProcessPoolScheduler",
    "CompiledScheduler",
    "scheduler_for",
    "shutdown_schedulers",
    "chunk_indices",
    "current_worker_label",
    "resolve_max_block_workers",
    "resolve_process_workers",
    "resolve_scheduler_override",
    "MAX_BLOCK_WORKERS",
    "MAX_BLOCK_WORKERS_ENV",
    "SCHEDULER_ENV",
    "PROCESS_WORKERS_ENV",
    # instrumentation
    "ExecutionObserver",
    "register_observer",
    "unregister_observer",
    "observers",
    "observe",
    "notify_launch_begin",
    "notify_launch_end",
    "notify_copy",
    "notify_queue_drain",
    "notify_plan_cache",
    "notify_sanitizer_report",
    "notify_graph_end",
]


def launch(task, device) -> "LaunchPlan":
    """Run ``task``'s grid on ``device`` through the runtime pipeline.

    Returns the (possibly cached) :class:`LaunchPlan` that executed, so
    callers can inspect scheduling decisions.  This is the single entry
    point behind every back-end's ``execute``.

    When the sanitizer is active (``REPRO_SANITIZE=1`` or
    :func:`repro.sanitize.enabled`), the launch detours through the
    instrumented path — same plan, same observers, shadowed arguments —
    and findings land in the session report.
    """
    from ..sanitize import _state as _sanitize_state

    if _sanitize_state.active():
        from ..sanitize.runner import sanitized_launch

        return sanitized_launch(task, device)

    return execute_plan(get_plan(task, device), task, device)


def execute_plan(plan, task, device, grid=None, scheduler=None) -> "LaunchPlan":
    """The Execute stage alone: dispatch an already-resolved ``plan``.

    :func:`launch` calls this after plan resolution; the dataflow-graph
    executor (:mod:`repro.graph`) calls it directly during warm graph
    replay with the node's cached ``grid`` context and ``scheduler``, so
    a replayed pipeline pays neither plan-cache lookup nor grid-context
    construction per node.  Observer notifications, device launch
    accounting and modeled-time advance are identical on both paths.
    """
    from ..acc.timing import advance_modeled_time

    if grid is None:
        from ..acc.base import GridContext

        grid = GridContext(
            device,
            plan.work_div,
            plan.props,
            plan.unwrap_args(task.args),
            shared_mem_bytes=plan.shared_mem_bytes,
        )
    device.note_kernel_launch()
    plan.launches += 1
    notify_launch_begin(plan, task, device)
    try:
        sched = scheduler or scheduler_for(device, plan.schedule)
        sched.dispatch(plan, grid, plan.block_indices, task)
        advance_modeled_time(task, device, plan.acc_type.kind, plan.work_div)
    except BaseException as exc:
        # The kernel failure is the error the caller must see: observers
        # are still told the launch ended, but an observer raising from
        # on_launch_end here must not mask the original exception.
        try:
            notify_launch_end(plan, task, device)
        except Exception:
            pass
        # Flight recorder (REPRO_FLIGHT_RECORDER_DIR): dump the recent
        # event ring alongside the crash.  One boolean read when off;
        # never raises into the failing path.
        from ..telemetry import flight

        if flight.active():
            flight.on_kernel_crash(plan, exc)
        raise
    # On a clean launch an observer exception propagates to the caller
    # (observers only raise when they mean to fail the run); the
    # dispatch already completed, so the scheduler pool stays usable.
    notify_launch_end(plan, task, device)
    return plan
