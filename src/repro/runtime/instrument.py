"""Execution instrumentation: observer hooks threaded through the runtime.

Every interesting runtime transition — a launch starting or finishing, a
block finishing, a copy executing, a queue draining, a launch
plan hitting or missing the cache — is announced to the registered
:class:`ExecutionObserver` instances.  The telemetry collector and the
flight recorder consume these hooks instead of wrapping user callables, so
instrumentation costs nothing when nothing is registered (each notify
helper returns immediately on the empty-observer fast path).

Observers are process-global and thread-safe to register from any
thread; notifications may arrive from scheduler worker threads, so
observer implementations must be thread-safe themselves
(:class:`repro.telemetry.TelemetryCollector` is).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

__all__ = [
    "ExecutionObserver",
    "register_observer",
    "unregister_observer",
    "observers",
    "observe",
    "notify_launch_begin",
    "notify_launch_end",
    "notify_block_end",
    "notify_copy",
    "notify_queue_drain",
    "notify_plan_cache",
    "notify_tuning_cache",
    "notify_sanitizer_report",
    "notify_span_begin",
    "notify_span_end",
    "notify_graph_end",
    "notify_worker_span",
]


class ExecutionObserver:
    """Protocol for runtime instrumentation (all hooks optional no-ops).

    Subclass and override the hooks of interest; exceptions raised by an
    observer propagate to the launch/copy/wait that triggered them, so
    observers should only raise when they *mean* to fail the run (e.g. a
    test asserting an invariant at every block).
    """

    def on_launch_begin(self, plan, task, device) -> None:
        """A kernel launch is about to dispatch its blocks."""

    def on_launch_end(self, plan, task, device) -> None:
        """All blocks of a launch have completed (or one failed)."""

    def on_block_end(self, plan, block_idx, seconds: float) -> None:
        """One block finished; ``seconds`` is its wall duration.

        Timed only while observers are registered — the unobserved
        dispatch path never reads the clock."""

    def on_copy(self, task, device) -> None:
        """A memory copy/memset task executed on ``device``."""

    def on_queue_drain(self, queue) -> None:
        """A queue's pending work count reached zero."""

    def on_plan_cache(self, plan, hit: bool) -> None:
        """A launch plan was resolved: ``hit`` tells cached vs built."""

    def on_tuning_cache(self, kernel, acc_type, hit: bool) -> None:
        """An ``AutoWorkDiv`` consulted the tuning cache (tuned division
        served vs heuristic fallback)."""

    def on_span_begin(self, span) -> None:
        """A telemetry span opened (see :mod:`repro.telemetry.spans`)."""

    def on_span_end(self, span) -> None:
        """A telemetry span closed; ``span`` carries wall and modeled
        durations plus its attributes."""

    def on_sanitizer_report(self, plan, record) -> None:
        """A sanitized launch finished; ``record`` is its
        :class:`repro.sanitize.report.LaunchRecord` (findings included,
        possibly empty)."""

    def on_graph_end(self, graph_exec, stats) -> None:
        """A dataflow graph finished one submission; ``stats`` is a
        :class:`repro.graph.executor.GraphRunStats` with per-node
        timings, critical-path length and overlap accounting."""

    def on_worker_span(self, info: Dict[str, object]) -> None:
        """A process-pool worker's timed region, replayed parent-side.

        ``info`` carries ``name``, ``pid``, ``t0``/``t1`` (the worker's
        ``perf_counter`` readings — CLOCK_MONOTONIC, so directly
        comparable with the parent's on Linux), optional ``trace_id`` /
        ``span_id`` / ``parent_id`` and free-form attributes."""


_lock = threading.Lock()
_observers: Tuple[ExecutionObserver, ...] = ()


def register_observer(obs: ExecutionObserver) -> ExecutionObserver:
    """Attach ``obs`` to the global hook chain; returns it for chaining."""
    global _observers
    with _lock:
        if obs not in _observers:
            _observers = _observers + (obs,)
    return obs


def unregister_observer(obs: ExecutionObserver) -> None:
    """Detach ``obs`` (idempotent)."""
    global _observers
    with _lock:
        _observers = tuple(o for o in _observers if o is not obs)


def observers() -> Tuple[ExecutionObserver, ...]:
    """Snapshot of the currently registered observers."""
    return _observers


@contextmanager
def observe(obs: ExecutionObserver) -> Iterator[ExecutionObserver]:
    """Register ``obs`` for the duration of a ``with`` block::

        with observe(TelemetryCollector()) as t:
            enqueue(queue, task)
        assert t.total("repro_launches_total") == 1
    """
    register_observer(obs)
    try:
        yield obs
    finally:
        unregister_observer(obs)


# ---------------------------------------------------------------------------
# Notification fan-out (hot path: first line bails when unobserved)
# ---------------------------------------------------------------------------


def notify_launch_begin(plan, task, device) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_launch_begin(plan, task, device)


def notify_launch_end(plan, task, device) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_launch_end(plan, task, device)


def notify_block_end(plan, block_idx, seconds: float) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_block_end(plan, block_idx, seconds)


def notify_copy(task, device) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_copy(task, device)


def notify_queue_drain(queue) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_queue_drain(queue)


def notify_plan_cache(plan, hit: bool) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_plan_cache(plan, hit)


def notify_tuning_cache(kernel, acc_type, hit: bool) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_tuning_cache(kernel, acc_type, hit)


def notify_sanitizer_report(plan, record) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_sanitizer_report(plan, record)


def notify_graph_end(graph_exec, stats) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_graph_end(graph_exec, stats)


def notify_worker_span(info: Dict[str, object]) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_worker_span(info)


def notify_span_begin(span) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_span_begin(span)


def notify_span_end(span) -> None:
    obs = _observers
    if not obs:
        return
    for o in obs:
        o.on_span_end(span)
