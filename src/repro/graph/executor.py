"""Graph compilation and execution over the queue/event runtime.

Two execution modes, chosen per submission:

* **inline replay** — every node lives on one device and the sanitizer
  is off: nodes run in creation order in the calling thread.  The first
  such submission resolves each node once into a replay op — for a
  kernel node, :func:`repro.runtime.execute_plan` bound to the node's
  :class:`~repro.runtime.plan.LaunchPlan`, grid context and scheduler —
  and the :class:`GraphExec` keeps those ops.  A warm resubmission
  checks one context tuple and replays them, instead of one plan lookup
  and grid construction per node: the mechanism behind the
  bench_graph.py replay bound.  The ops die with the graph.
* **queued** — nodes span devices (or the sanitizer is active): one
  non-blocking queue per device, nodes enqueued in creation order,
  cross-queue edges realised as ``Event.record`` on the producer queue
  plus ``enqueue_after`` on the consumer queue.  Kernel tasks go through
  the queues' normal ``task.execute`` path, i.e. through
  :func:`repro.runtime.launch` — the sanitizer detour and all observers
  fire exactly as for hand-written queue code.

Every edge recorded by :class:`~repro.graph.graph.Graph` points at an
earlier node (inference walks history; ``after()`` rejects forward
references), so creation order *is* a topological order and cycles are
impossible by construction.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..core.errors import GraphError
from ..acc.base import GridContext
from ..runtime import execute_plan
from ..runtime.instrument import notify_graph_end, observers
from ..runtime.plan import count_graph_submit, get_plan, plan_epoch
from ..runtime.scheduler import resolve_scheduler_override, scheduler_for
from ..sanitize import _state as _sanitize_state
from ..tuning.cache import tuning_generation

__all__ = ["GraphExec", "GraphRunStats"]

_graph_ids = itertools.count(1)

#: Shared pre-set event: inline submissions complete synchronously, so
#: finished nodes can all point at one fired event instead of paying an
#: ``Event.set`` (lock + notify) per node per replay.
_DONE = threading.Event()
_DONE.set()


@dataclass
class GraphRunStats:
    """Timing and scheduling accounting for one graph submission."""

    graph_id: int
    mode: str  # "inline" | "queued"
    node_count: int
    device_count: int
    #: Host wall seconds from first dispatch to last completion.
    wall_seconds: float
    #: Sum of individual node wall durations.
    node_seconds: float
    #: Longest dependency-chain duration — the theoretical floor for
    #: ``wall_seconds`` under perfect overlap.
    critical_path_seconds: float
    #: Whether this inline submission replayed the node ops an earlier
    #: submission of the same graph built (always False when queued).
    replayed: bool
    #: Raw per-node tuples ``(index, label, kind, device_name, start,
    #: duration)``; use :attr:`nodes` for the dict view.
    node_info: Tuple[tuple, ...] = ()

    @property
    def nodes(self) -> Tuple[dict, ...]:
        """Per-node records as dicts (built on demand — the warm replay
        path must not pay for telemetry nobody reads)."""
        return tuple(
            {
                "index": i,
                "label": label,
                "kind": kind,
                "device": device,
                "start": start,
                "duration": duration,
            }
            for i, label, kind, device, start, duration in self.node_info
        )

    @property
    def overlap_ratio(self) -> float:
        """``node_seconds / wall_seconds`` — 1.0 is fully serial, above
        1.0 means copies/compute genuinely overlapped across queues."""
        return self.node_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """How close the run came to its critical-path floor (1.0 =
        wall time equalled the longest chain)."""
        return (
            self.critical_path_seconds / self.wall_seconds
            if self.wall_seconds
            else 0.0
        )


class GraphExec:
    """A compiled graph: resolved edges plus its inline replay ops.

    Built by :meth:`Graph.submit` (and cached on the graph instance);
    one ``GraphExec`` survives any number of ``run()`` calls while the
    graph is unmodified.
    """

    def __init__(self, graph, deps: Tuple[Tuple[int, ...], ...]):
        self.graph = graph
        self.nodes = tuple(graph.nodes)
        self.deps = deps
        self.node_count = len(self.nodes)
        self.graph_id = next(_graph_ids)
        # Every edge points backward (see module docstring), so the
        # recording order is already topological.
        for i, d in enumerate(deps):
            if any(j >= i for j in d):
                raise GraphError(f"forward edge {d} on node #{i}")
        #: ``(context, ops)`` of the last inline submission: one
        #: zero-argument op per node, valid while the context — tuning
        #: generation, scheduler override, plan-cache epoch — is the one
        #: the node plans were resolved under.
        self._ops: Optional[tuple] = None
        #: (mode, wall, replayed, node durations) of the last completed
        #: submission; :attr:`last_stats` turns it into stats on read.
        self._run_record: Optional[tuple] = None
        self._stats: Optional[Tuple[tuple, GraphRunStats]] = None
        self.failed = False
        self.error: Optional[BaseException] = None
        self._fail_lock = threading.Lock()
        self._done = threading.Event()
        self._done.set()
        self._queues: List = []
        self._t0 = 0.0
        seen: Dict[int, object] = {}
        for n in self.nodes:
            seen.setdefault(n.device.uid, n.device)
        self.devices = tuple(seen.values())

    def still_valid(self) -> bool:
        return len(self.graph.nodes) == self.node_count

    # -- execution --------------------------------------------------------

    def run(self, wait: bool = True) -> "GraphExec":
        self.failed = False
        self.error = None
        if len(self.devices) == 1 and not _sanitize_state.active():
            self._run_inline()
        else:
            self._run_queued(wait=wait)
        return self

    def _finish(self, mode: str, wall: float, replayed: bool) -> None:
        # Only the durations are snapshot here; the critical path and
        # the stats object are built when someone reads last_stats (the
        # warm replay path must not pay for telemetry nobody reads).
        record = (mode, wall, replayed, [n.duration for n in self.nodes])
        self._run_record = record
        obs = observers()
        if obs:
            stats = self._stats_for(record, obs)
            self._stats = (record, stats)
        if mode == "queued":  # the inline path never clears _done
            self._done.set()
        if obs:
            notify_graph_end(self, stats)

    @property
    def last_stats(self) -> Optional[GraphRunStats]:
        """Stats of the last completed submission (None before one)."""
        record = self._run_record
        if record is None:
            return None
        cached = self._stats
        if cached is None or cached[0] is not record:
            cached = (record, self._stats_for(record, ()))
            self._stats = cached
        return cached[1]

    def _stats_for(self, record: tuple, obs) -> GraphRunStats:
        mode, wall, replayed, durations = record
        durs = [d or 0.0 for d in durations]
        deps = self.deps
        cp: List[float] = [0.0] * self.node_count
        for i, d in enumerate(deps):
            cp[i] = durs[i] + (max(cp[j] for j in d) if d else 0.0)
        if obs:
            t0 = self._t0
            node_info = tuple(
                (
                    n.index,
                    n.label,
                    n.kind,
                    n.device.name,
                    (n.started_at - t0) if n.started_at is not None else 0.0,
                    n.duration or 0.0,
                )
                for n in self.nodes
            )
        else:
            # Nobody is listening: no per-node records (stats totals
            # stay exact either way).
            node_info = ()
        return GraphRunStats(
            graph_id=self.graph_id,
            mode=mode,
            node_count=self.node_count,
            device_count=len(self.devices),
            wall_seconds=wall,
            node_seconds=sum(durs),
            critical_path_seconds=max(cp, default=0.0),
            replayed=replayed,
            node_info=node_info,
        )

    # -- inline replay path ----------------------------------------------

    @staticmethod
    def _build_op(node):
        """Resolve ``node`` once into a zero-argument replay op: for a
        kernel, :func:`repro.runtime.execute_plan` with the plan, grid
        context and scheduler resolved here instead of per replay."""
        task, device = node.task, node.device
        if node.kind == "kernel":
            lp = get_plan(task, device)
            grid = GridContext(
                device,
                lp.work_div,
                lp.props,
                lp.unwrap_args(task),
                shared_mem_bytes=lp.shared_mem_bytes,
            )
            sched = scheduler_for(device, lp.schedule)
            return partial(execute_plan, lp, task, device, grid, sched)
        if node.kind == "call":
            return task
        return partial(task.execute, device)  # copy / memset

    def _run_inline(self) -> None:
        # Synchronous: the submission is complete when this returns, so
        # _done (cleared only while a queued run is in flight) stays set.
        perf = time.perf_counter
        t0 = t = self._t0 = perf()
        replayed = False
        try:
            ctx = (tuning_generation(), resolve_scheduler_override(),
                   plan_epoch())
            cached = self._ops
            if cached is not None and cached[0] == ctx:
                ops = cached[1]
                replayed = True
            else:
                ops = tuple(self._build_op(n) for n in self.nodes)
                self._ops = (ctx, ops)
                t = perf()  # wall time includes the build, node 0 not
            count_graph_submit(replayed)
            for node, op in zip(self.nodes, ops):
                node.started_at = t
                op()
                # One clock read per node: its end is the next start.
                now = perf()
                node.duration = now - t
                t = now
                # Synchronous path: point at the shared fired event
                # rather than paying a per-node Event.set each replay.
                node._done_event = _DONE
        except BaseException as e:
            self.failed = True
            self.error = e
            for n in self.nodes:  # unblock any waiter
                n._done_event = _DONE
            self._finish("inline", perf() - t0, replayed)
            raise
        self._finish("inline", t - t0, replayed)

    # -- queued (multi-device / sanitized) path ---------------------------

    def _run_queued(self, wait: bool) -> None:
        from ..queue.event import Event
        from ..queue.queue import QueueNonBlocking

        perf = time.perf_counter
        queue_of: Dict[int, QueueNonBlocking] = {}
        for dev in self.devices:
            queue_of[dev.uid] = QueueNonBlocking(dev)
        self._queues = list(queue_of.values())
        for n in self.nodes:
            ev = n._done_event
            if ev is None or ev is _DONE:  # never clear the shared sentinel
                n._done_event = threading.Event()
            else:
                ev.clear()
        self._done.clear()
        self._t0 = perf()

        # Nodes whose completion a *different* queue must observe get an
        # Event recorded right after them on their producer queue.
        cross = set()
        for i, node in enumerate(self.nodes):
            qi = queue_of[node.device.uid]
            for j in self.deps[i]:
                if queue_of[self.nodes[j].device.uid] is not qi:
                    cross.add(j)

        events: Dict[int, Event] = {}
        pending = {"n": len(self._queues)}
        pending_lock = threading.Lock()

        # Distributed tracing: queue worker threads are not the
        # submitting thread, so hand them the submitter's ambient
        # context — node launches then stamp trace ids and the queued
        # run stitches under the request that submitted the graph.
        from ..telemetry import tracing

        trace_ctx = tracing.current()

        def _make_runner(node):
            # Errors are harvested at the graph level rather than left
            # to poison the queue: a poisoned queue skips its remaining
            # items, which would leave cross-queue events unfired and
            # sibling queues gated forever.  The first failure stops
            # later nodes from *executing*, but every node still
            # completes (done event set, events fire, queues drain).
            def _run():
                start = perf()
                node.started_at = start
                if trace_ctx is not None:
                    prev_ctx = tracing.set_current(trace_ctx)
                try:
                    if not self.failed:
                        if node.kind == "call":
                            node.task()
                        else:
                            node.task.execute(node.device)
                except BaseException as e:  # noqa: BLE001 - re-raised in wait
                    with self._fail_lock:
                        if self.error is None:
                            self.error = e
                            self.failed = True
                finally:
                    if trace_ctx is not None:
                        tracing.set_current(prev_ctx)
                    node.duration = perf() - start
                    node._done_event.set()

            return _run

        def _queue_done():
            with pending_lock:
                pending["n"] -= 1
                last = pending["n"] == 0
            if last:
                self._finish("queued", perf() - self._t0, False)

        for i, node in enumerate(self.nodes):
            q = queue_of[node.device.uid]
            for j in sorted(self.deps[i]):
                if queue_of[self.nodes[j].device.uid] is not q:
                    q.enqueue_after(events[j])
            q.enqueue(_make_runner(node))
            if i in cross:
                ev = Event(node.device)
                ev.record(q)
                events[i] = ev

        for q in self._queues:
            q.enqueue_callback(_queue_done)

        if wait:
            self.wait()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the submission completed; drains and destroys the
        queued path's queues and re-raises the first node error."""
        if not self._done.wait(timeout=timeout):
            return False
        queues, self._queues = self._queues, []
        for q in queues:
            q.destroy()  # drains (everything already completed)
        if self.error is not None:
            raise self.error
        return True

    def __repr__(self) -> str:
        return (
            f"<GraphExec #{self.graph_id} {self.node_count} nodes on "
            f"{len(self.devices)} device(s)>"
        )
