"""Per-device block schedulers (the Plan's "Execute" stage).

A scheduler owns how a launch's blocks reach the hardware:

* :class:`SequentialScheduler` — blocks run in the caller's thread, in
  C order.  The strategy of the serial, thread-parallel and fiber
  back-ends (their parallelism, if any, lives *inside* the block), and
  the one that keeps the fiber back-end's deterministic interleaving.
* :class:`PooledScheduler` — blocks are distributed over a persistent
  per-device worker pool in **chunks** of ``ceil(blocks / workers)``,
  so a grid of 10⁴ blocks costs ``workers`` executor submissions, not
  10⁴ — the OpenMP ``schedule(static)`` strategy, replacing the old
  one-future-per-block dispatch through a module-global pool.

Pools are per *device* (keyed on ``Device.uid``), mirroring how an
OpenMP runtime pins one thread team per target: two devices launching
concurrently no longer contend for one pool's queue.  The worker cap is
``REPRO_MAX_BLOCK_WORKERS`` (default :data:`MAX_BLOCK_WORKERS`),
resolved once per pool and exposed through the back-end's device
properties (``AccDevProps.max_block_workers``).
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import KernelError
from ..core.vec import Vec
from .instrument import notify_block_end, notify_worker_span, observers

__all__ = [
    "MAX_BLOCK_WORKERS",
    "MAX_BLOCK_WORKERS_ENV",
    "SCHEDULER_ENV",
    "PROCESS_WORKERS_ENV",
    "resolve_max_block_workers",
    "resolve_process_workers",
    "resolve_scheduler_override",
    "current_worker_label",
    "Scheduler",
    "SequentialScheduler",
    "PooledScheduler",
    "ProcessPoolScheduler",
    "CompiledScheduler",
    "scheduler_for",
    "shutdown_schedulers",
    "chunk_indices",
]

_log = logging.getLogger("repro.runtime.scheduler")

#: Default upper bound on concurrently scheduled block workers; beyond
#: this the host's thread-switch overhead dominates any concurrency
#: benefit.  Override per process with ``REPRO_MAX_BLOCK_WORKERS``.
MAX_BLOCK_WORKERS = 16

#: Environment variable overriding :data:`MAX_BLOCK_WORKERS`.
MAX_BLOCK_WORKERS_ENV = "REPRO_MAX_BLOCK_WORKERS"

#: Environment variable forcing a block-scheduling strategy onto every
#: *pool-capable* back-end: ``sequential``, ``threads`` (alias
#: ``pooled``), ``processes`` or ``compiled`` (trace-vectorized whole-
#: grid replay, falling back to the thread pool for kernels the
#: vectorizer cannot represent).  Back-ends that declare
#: ``block_schedule="sequential"`` (serial, fibers, the thread-level
#: CPU back-ends) are never remapped — their block order is part of
#: their semantics.
SCHEDULER_ENV = "REPRO_SCHEDULER"

#: Environment variable sizing the process pool (default: core count
#: capped at :data:`MAX_BLOCK_WORKERS`).
PROCESS_WORKERS_ENV = "REPRO_PROCESS_WORKERS"

#: Accepted ``REPRO_SCHEDULER`` values -> canonical schedule keys.
_SCHEDULE_ALIASES = {
    "sequential": "sequential",
    "threads": "pooled",
    "pooled": "pooled",
    "processes": "processes",
    "process": "processes",
    "compiled": "compiled",
    "compile": "compiled",
}


def resolve_scheduler_override() -> Optional[str]:
    """The canonical schedule forced by ``REPRO_SCHEDULER``, or None."""
    raw = os.environ.get(SCHEDULER_ENV)
    if raw is None or raw == "":
        return None
    try:
        return _SCHEDULE_ALIASES[raw.strip().lower()]
    except KeyError:
        raise ValueError(
            f"{SCHEDULER_ENV}={raw!r} unknown; "
            f"accepted: {sorted(_SCHEDULE_ALIASES)}"
        ) from None


def resolve_process_workers() -> int:
    """Worker count for a new process pool (``REPRO_PROCESS_WORKERS``;
    default: host core count capped at :data:`MAX_BLOCK_WORKERS`)."""
    raw = os.environ.get(PROCESS_WORKERS_ENV)
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"{PROCESS_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
    return min(MAX_BLOCK_WORKERS, max(1, os.cpu_count() or 1))


_worker_label = threading.local()


def current_worker_label() -> Optional[str]:
    """Label of the block worker whose completion is being observed
    right now (``p0``, ``p1``, … while the process scheduler replays
    per-block timings; None on the in-process paths, where the
    telemetry collector falls back to the OS thread name)."""
    return getattr(_worker_label, "value", None)


def resolve_max_block_workers() -> int:
    """The worker cap a new pool will use.

    ``REPRO_MAX_BLOCK_WORKERS`` is authoritative when set (clamped to
    >= 1; deliberate oversubscription is a valid experiment).  The
    default is :data:`MAX_BLOCK_WORKERS` bounded by the host's core
    count.
    """
    raw = os.environ.get(MAX_BLOCK_WORKERS_ENV)
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"{MAX_BLOCK_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
    return min(MAX_BLOCK_WORKERS, max(2, os.cpu_count() or 1))


def chunk_indices(indices: Sequence[Vec], workers: int) -> List[Sequence[Vec]]:
    """Partition block indices into at most ``workers`` contiguous
    chunks of ``ceil(len / workers)`` blocks (OpenMP static schedule)."""
    n = len(indices)
    if n == 0:
        return []
    size = -(-n // max(1, workers))
    return [indices[i : i + size] for i in range(0, n, size)]


def _run_block(plan, grid, bidx: Vec, task, observed: bool) -> None:
    if observed:
        t0 = time.perf_counter()
    try:
        plan.block_runner(grid, bidx, task.kernel, grid.args)
    except KernelError:
        raise
    except BaseException as exc:  # noqa: BLE001 - wrapped for the launcher
        kname = getattr(task.kernel, "__name__", type(task.kernel).__name__)
        raise KernelError(
            f"kernel {kname!r} failed in block {bidx!r}"
        ) from exc
    if observed:
        # Block latency for the telemetry histograms; timed only while
        # observed so the bare dispatch path never reads the clock.
        notify_block_end(plan, bidx, time.perf_counter() - t0)


class Scheduler:
    """Base block scheduler bound to one device."""

    #: Declarative key back-ends use to select this scheduler.
    schedule = "abstract"

    def __init__(self, device):
        self.device = device

    @property
    def worker_count(self) -> int:
        """Concurrent block workers this scheduler drives (1 = caller)."""
        return 1

    def dispatch(self, plan, grid, block_indices: Sequence[Vec], task) -> None:
        """Run every block of the launch; returns when all completed."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.device.name}>"


class SequentialScheduler(Scheduler):
    """Blocks execute in the caller's thread, in C index order."""

    schedule = "sequential"

    def dispatch(self, plan, grid, block_indices, task) -> None:
        observed = bool(observers())
        for bidx in block_indices:
            _run_block(plan, grid, bidx, task, observed)


class PooledScheduler(Scheduler):
    """Blocks execute on a persistent per-device pool, chunked.

    The pool outlives launches (OpenMP keeps its team alive between
    parallel regions; charging thread start-up to every launch would
    show up as false abstraction overhead in the Fig. 5 measurement)
    and is torn down with the process or via
    :func:`shutdown_schedulers`.
    """

    schedule = "pooled"

    def __init__(self, device):
        super().__init__(device)
        self._workers = resolve_max_block_workers()
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"alpaka-blk-{device.uid}",
        )

    @property
    def worker_count(self) -> int:
        return self._workers

    def dispatch(self, plan, grid, block_indices, task) -> None:
        observed = bool(observers())
        if block_indices is plan.block_indices:
            # The common path: chunking is pure geometry, memoised on
            # the cached plan instead of rebuilt every warm launch.
            chunks = plan.chunks_for(self._workers)
        else:
            chunks = chunk_indices(block_indices, self._workers)
        if len(chunks) <= 1:
            for bidx in block_indices:
                _run_block(plan, grid, bidx, task, observed)
            return

        def run_chunk(chunk: Sequence[Vec]) -> None:
            for bidx in chunk:
                _run_block(plan, grid, bidx, task, observed)

        futures = [self._pool.submit(run_chunk, c) for c in chunks]
        error = None
        for fut in futures:
            try:
                fut.result()
            except BaseException as exc:  # noqa: BLE001 - first one wins
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def shutdown(self) -> None:
        # Idempotent: the atexit sweep and explicit teardown may both
        # run; ThreadPoolExecutor.shutdown tolerates repeats.
        self._pool.shutdown(wait=True)


class ProcessPoolScheduler(Scheduler):
    """Blocks execute in a persistent pool of spawned worker *processes*.

    The only strategy with real CPU parallelism for CPU-bound Python
    kernels: thread-pool dispatch serialises on the GIL, so the
    OMP2-blocks back-end was parallel in name only.  Workers map
    shm-backed buffers zero-copy (:mod:`repro.mem.shm`) and run chunks
    of ``ceil(blocks / workers)`` single-thread blocks via
    :func:`repro.runtime.procpool.run_chunk`.

    Not every launch is process-safe.  Dispatch classifies each one
    (:func:`repro.runtime.procpool.process_launch_state`, memoised on
    the plan): launches with multi-thread blocks, private-memory
    buffers or unpicklable kernels fall back to the thread-pool
    scheduler with the reason logged once — never a silent wrong
    answer.  Global-memory atomics stay correct through a
    process-shared striped lock table handed to every worker at spawn.

    The pool is created lazily on the first eligible dispatch (spawn
    start-up is ~100 ms/worker; launches that always fall back never
    pay it) and torn down by :func:`shutdown_schedulers`, which is
    atexit-registered so interpreter exit cannot leave workers wedged
    or spray ``BrokenProcessPool`` tracebacks.
    """

    schedule = "processes"

    def __init__(self, device):
        super().__init__(device)
        self._workers = resolve_process_workers()
        self._pool = None
        self._pool_lock = threading.Lock()
        self._logged_reasons = set()

    @property
    def worker_count(self) -> int:
        return self._workers

    def _ensure_pool(self):
        pool = self._pool
        if pool is not None:
            return pool
        with self._pool_lock:
            if self._pool is None:
                import multiprocessing as mp
                from concurrent.futures import ProcessPoolExecutor

                from .procpool import ATOMIC_STRIPES, worker_init

                ctx = mp.get_context("spawn")
                locks = [ctx.Lock() for _ in range(ATOMIC_STRIPES)]
                env = {
                    k: v
                    for k, v in os.environ.items()
                    if k.startswith("REPRO_")
                }
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=ctx,
                    initializer=worker_init,
                    initargs=(locks, env),
                )
            return self._pool

    def _fallback(self, plan, grid, block_indices, task, reason: str) -> None:
        if reason not in self._logged_reasons:
            self._logged_reasons.add(reason)
            kname = getattr(
                task.kernel, "__name__", type(task.kernel).__name__
            )
            _log.info(
                "process dispatch of %s falls back to the thread pool: %s",
                kname,
                reason,
            )
        scheduler_for(self.device, "pooled").dispatch(
            plan, grid, block_indices, task
        )

    def dispatch(self, plan, grid, block_indices, task) -> None:
        import multiprocessing as mp

        from .procpool import process_launch_state, run_chunk

        in_child = mp.parent_process() is not None or getattr(
            mp.current_process(), "_inheriting", False
        )
        if in_child:
            # Inside a child process (a spawned worker re-importing an
            # unguarded ``__main__`` script — the `_inheriting` flag is
            # set during that bootstrap, before `parent_process()` is —
            # or a kernel launched from a worker): spawning
            # grandchildren here would abort the child's bootstrap and
            # break the parent's pool.
            self._fallback(
                plan, grid, block_indices, task,
                "launch happens inside a child process — guard the "
                "script's entry point with `if __name__ == \"__main__\":` "
                "so spawned workers do not re-execute it",
            )
            return
        if block_indices is not plan.block_indices:
            # Workers address blocks by linear index into the plan's
            # full C-order list; a caller-selected subset has no such
            # addressing and runs on the thread pool instead.
            self._fallback(
                plan, grid, block_indices, task,
                "launch uses a custom block-index subset",
            )
            return
        state = process_launch_state(plan, task)
        if not state.eligible:
            self._fallback(plan, grid, block_indices, task, state.reason)
            return

        observed = bool(observers())
        bounds = plan.chunk_bounds_for(self._workers)
        if len(bounds) <= 1:
            for bidx in block_indices:
                _run_block(plan, grid, bidx, task, observed)
            return

        # Distributed tracing: when observed *and* the launching thread
        # carries an ambient context, ship its traceparent so workers
        # time their chunk as a child span (replayed via
        # ``on_worker_span``).  Unobserved launches send nothing — the
        # payload stays byte-identical to the untraced case.
        trace = None
        if observed:
            from ..telemetry import tracing

            ctx = tracing.current()
            if ctx is not None:
                trace = {"traceparent": ctx.to_traceparent()}

        pool = self._ensure_pool()
        futures = [
            pool.submit(
                run_chunk,
                state.digest,
                state.blob,
                start,
                stop,
                observed,
                self.device.name,
                self.device.uid,
                trace,
            )
            for start, stop in bounds
        ]
        error = None
        results = []
        for i, fut in enumerate(futures):
            try:
                results.append((i, fut.result()))
            except BaseException as exc:  # noqa: BLE001 - first one wins
                if error is None:
                    error = exc
        if error is not None:
            from concurrent.futures.process import BrokenProcessPool

            if isinstance(error, BrokenProcessPool):
                self.shutdown()  # the broken pool is unusable; drop it
                if not results:
                    # No chunk completed, so no worker touched the
                    # buffers: the launch can be rerun safely on the
                    # thread pool.  (A worker dying at startup usually
                    # means an unguarded `__main__` or an OOM kill.)
                    _log.warning(
                        "process pool broke before any block ran "
                        "(unguarded `if __name__ == \"__main__\":`? "
                        "worker killed?); rerunning on the thread pool"
                    )
                    scheduler_for(self.device, "pooled").dispatch(
                        plan, grid, block_indices, task
                    )
                    return
                raise KernelError(
                    "a process-pool worker died mid-launch after some "
                    "blocks already ran; buffer state is partial, so "
                    "the launch was not retried"
                ) from error
            raise error
        if observed:
            self._replay(plan, results)

    def _replay(self, plan, results) -> None:
        """Re-announce per-block timings to the parent's observers.

        Observers live in the parent process; workers only time.  The
        replay happens after the launch (observer wall-clock ordering
        inside a launch is already unspecified under pool dispatch) and
        tags each block with its chunk's worker label ``p<i>`` through
        :func:`current_worker_label`.
        """
        try:
            for i, result in results:
                _pid, timings = result[0], result[1]
                _worker_label.value = f"p{i}"
                for k, seconds in timings or ():
                    notify_block_end(plan, plan.block_indices[k], seconds)
                # 3-tuple results carry worker-side chunk spans (traced
                # launches only); hand them to observers with the
                # worker's real pid attached.
                for span in (result[2] if len(result) > 2 else None) or ():
                    notify_worker_span(dict(span, worker=f"p{i}"))
        finally:
            _worker_label.value = None

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class CompiledScheduler(Scheduler):
    """The whole grid executes as one trace-vectorized numpy replay.

    Instead of dispatching blocks at all, the first launch of a
    (kernel, work-division, argument-shape) configuration is traced
    with batched symbolic thread coordinates (:mod:`repro.compile`) and
    warm launches replay the recorded dataflow as fused array
    operations — the closure is cached on the plan, so the steady state
    is a dict lookup plus a handful of vectorized ufunc calls.

    Launches the vectorizer cannot represent — divergent control flow,
    barriers, atomics, shared memory, per-thread RNG, sanitizer-
    instrumented grids, custom block subsets — fall back to the thread
    pool with the reason classified, logged once per (kernel, reason),
    counted in ``repro_compile_fallbacks_total`` and flight-recorded
    (mirroring the process scheduler's classifier).  Fallbacks happen
    strictly before any argument byte changes, so they are always
    correct, never a partial launch.

    ``REPRO_COMPILE_CROSSCHECK=1`` additionally runs every compiled
    launch through the interpreter and asserts the two agree
    bit-for-bit on all store targets.
    """

    schedule = "compiled"

    def __init__(self, device):
        super().__init__(device)
        self._logged_reasons = set()

    def _fallback(self, plan, grid, block_indices, task, reason: str,
                  detail: str) -> None:
        from ..compile.metrics import note
        from ..compile.replay import kernel_name
        from ..telemetry import flight

        kname = kernel_name(task.kernel)
        note("fallbacks", kname, reason=reason)
        key = (kname, reason)
        if key not in self._logged_reasons:
            self._logged_reasons.add(key)
            _log.info(
                "compiled dispatch of %s falls back to interpretation "
                "[%s]: %s",
                kname,
                reason,
                detail,
            )
        flight.maybe_record(
            "compile_fallback", kernel=kname, reason=reason
        )
        scheduler_for(self.device, "pooled").dispatch(
            plan, grid, block_indices, task
        )

    def dispatch(self, plan, grid, block_indices, task) -> None:
        from ..compile.replay import crosscheck_active, execute_compiled
        from ..compile.tracer import CompileFallback

        if block_indices is not plan.block_indices:
            # The replay covers the whole grid; a caller-selected block
            # subset has no compiled equivalent.
            self._fallback(
                plan, grid, block_indices, task,
                "custom-block-subset",
                "launch uses a custom block-index subset",
            )
            return
        if getattr(grid, "monitor", None) is not None:
            # Sanitizer-instrumented launches must interpret: the
            # monitor observes per-thread accesses, which a fused
            # replay by design does not perform.
            self._fallback(
                plan, grid, block_indices, task,
                "sanitizer",
                "sanitizer-instrumented launch needs per-thread "
                "interpretation",
            )
            return
        interpret = None
        if crosscheck_active():
            pooled = scheduler_for(self.device, "pooled")

            def interpret():
                pooled.dispatch(plan, grid, block_indices, task)

        try:
            execute_compiled(plan, grid, task, interpret=interpret)
        except CompileFallback as cf:
            self._fallback(
                plan, grid, block_indices, task, cf.reason, cf.detail
            )


_schedulers: Dict[Tuple[int, str], Scheduler] = {}
_schedulers_lock = threading.Lock()

_SCHEDULER_TYPES: Dict[str, type] = {
    SequentialScheduler.schedule: SequentialScheduler,
    PooledScheduler.schedule: PooledScheduler,
    ProcessPoolScheduler.schedule: ProcessPoolScheduler,
    CompiledScheduler.schedule: CompiledScheduler,
}


def scheduler_for(device, schedule: str) -> Scheduler:
    """The cached scheduler of kind ``schedule`` for ``device``.

    One scheduler (and hence one pool) exists per (device, kind) for
    the life of the process.
    """
    try:
        cls = _SCHEDULER_TYPES[schedule]
    except KeyError:
        raise ValueError(
            f"unknown block schedule {schedule!r}; "
            f"known: {sorted(_SCHEDULER_TYPES)}"
        ) from None
    key = (device.uid, schedule)
    sched = _schedulers.get(key)
    if sched is None:
        with _schedulers_lock:
            sched = _schedulers.get(key)
            if sched is None:
                sched = cls(device)
                _schedulers[key] = sched
    return sched


def shutdown_schedulers() -> None:
    """Tear down all cached schedulers (idempotent).

    Also registered with ``atexit``: Python's own executor teardown runs
    *after* atexit callbacks (during threading shutdown), so draining
    the pools here first means interpreter exit can never deadlock on a
    wedged worker or print ``BrokenProcessPool`` noise from workers
    reaped mid-chunk.  Tests call it directly between env permutations.
    """
    with _schedulers_lock:
        scheds = list(_schedulers.values())
        _schedulers.clear()
    for s in scheds:
        shutdown = getattr(s, "shutdown", None)
        if shutdown is not None:
            shutdown()


atexit.register(shutdown_schedulers)
