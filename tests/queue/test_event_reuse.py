"""Event reuse semantics: record + wait + re-record, across queues and
under the process-pool scheduler — and the contract between the
``enqueue_after`` free function and the ``Queue.enqueue_after`` method.

One :class:`~repro.queue.Event` object is a reusable marker (CUDA
semantics): every ``record`` re-arms it, ``wait`` targets the *latest*
record, and a wait-gate captures the record current at gate-creation
time so a later re-record never retroactively widens an existing
dependency.
"""

import threading
import time

import numpy as np
import pytest

from repro import mem
from repro.acc.cpu import AccCpuOmp2Blocks, AccCpuSerial
from repro.core.kernel import create_task_kernel, fn_acc
from repro.core.workdiv import WorkDivMembers
from repro.dev.manager import get_dev_by_idx
from repro.queue import (
    Event,
    QueueBlocking,
    QueueNonBlocking,
    enqueue_after,
)
from repro.runtime import clear_plan_cache, get_plan, shutdown_schedulers
from repro.runtime.procpool import reset_worker_state
from repro.runtime.scheduler import PROCESS_WORKERS_ENV, SCHEDULER_ENV


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuSerial, 0)


class TestAliasContract:
    """The ``enqueue_after`` free function must stay a shim over the
    ``Queue.enqueue_after`` method."""

    def test_alias_delegates_not_reimplements(self, dev, monkeypatch):
        """The free-function spelling routes through the method, so the
        two can never drift apart semantically."""
        calls = []
        monkeypatch.setattr(
            QueueBlocking,
            "enqueue_after",
            lambda queue, event: calls.append((queue, event)),
        )
        q = QueueBlocking(dev)
        ev = Event(dev)
        enqueue_after(q, ev)
        assert calls == [(q, ev)]

    def test_both_spellings_gate_identically(self, dev):
        """Functional equivalence: either spelling defers queue B's task
        until the event in queue A fires."""

        def method(queue, event):
            queue.enqueue_after(event)

        for gate in (method, enqueue_after):
            order = []
            qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
            ev = Event(dev)
            qa.enqueue(lambda: (time.sleep(0.05), order.append("a"))[-1])
            ev.record(qa)
            gate(qb, ev)
            qb.enqueue(lambda: order.append("b"))
            qb.wait()
            assert order == ["a", "b"], gate.__name__
            qa.destroy()
            qb.destroy()


class TestRecordWaitReRecord:
    def test_wait_targets_latest_record(self, dev):
        """After a re-record, ``wait`` blocks until the *new* record
        fires — completion of the first round does not satisfy it."""
        q = QueueNonBlocking(dev)
        ev = Event(dev)
        ev.record(q)
        assert ev.wait(timeout=2.0)
        assert ev.record_count == 1 and ev.fired_count == 1

        q.enqueue(lambda: time.sleep(0.2))
        ev.record(q)
        # The first fire must not satisfy the second record.
        assert ev.wait(timeout=0.02) is False
        assert ev.wait(timeout=5.0)
        assert ev.record_count == 2 and ev.fired_count == 2
        q.destroy()

    def test_re_record_into_a_different_queue(self, dev):
        """The same event object marks progress of whichever queue it
        was last recorded into."""
        q1, q2 = QueueNonBlocking(dev), QueueNonBlocking(dev)
        hits = []
        ev = Event(dev)
        q1.enqueue(lambda: hits.append("q1"))
        ev.record(q1)
        assert ev.wait(timeout=2.0)

        q2.enqueue(lambda: (time.sleep(0.05), hits.append("q2"))[-1])
        ev.record(q2)
        assert ev.wait(timeout=2.0)
        assert hits == ["q1", "q2"]
        q1.destroy()
        q2.destroy()

    def test_gate_pins_record_at_creation(self, dev):
        """A dependency taken on record N stays a dependency on record N
        even if the event is re-recorded before the gate opens."""
        qa, qb = QueueNonBlocking(dev), QueueNonBlocking(dev)
        ev = Event(dev)
        release = threading.Event()
        order = []

        qa.enqueue(lambda: (release.wait(5.0), order.append("a1"))[-1])
        ev.record(qa)              # record #1 (not yet fired)
        enqueue_after(qb, ev)      # gate pinned to record #1
        qb.enqueue(lambda: order.append("b"))

        qa.enqueue(lambda: order.append("a2"))
        ev.record(qa)              # record #2, behind a1/a2

        release.set()
        qb.wait()
        qa.wait()
        # b needed only record #1 (a1); it must not have waited for a2's
        # round... but in-order qa semantics put a1 first regardless —
        # the observable contract is simply that b ran after a1.
        assert order.index("b") > order.index("a1")
        assert ev.wait(timeout=2.0)
        assert ev.record_count == 2 and ev.fired_count == 2
        qa.destroy()
        qb.destroy()

    def test_reuse_across_many_rounds(self, dev):
        """A pipelined loop reusing one event per iteration (the classic
        double-buffer pattern) stays consistent over many rounds."""
        q = QueueNonBlocking(dev)
        ev = Event(dev)
        counter = {"n": 0}
        for i in range(25):
            q.enqueue(lambda: counter.__setitem__("n", counter["n"] + 1))
            ev.record(q)
            assert ev.wait(timeout=2.0)
            assert counter["n"] == i + 1
        assert ev.record_count == 25 == ev.fired_count
        q.destroy()


class TestReuseUnderProcessPool:
    """The same reuse contract when the gated work runs in worker
    *processes* (shared-memory buffers, processes scheduler)."""

    @pytest.fixture(autouse=True)
    def _procpool_env(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        clear_plan_cache()
        yield
        clear_plan_cache()
        shutdown_schedulers()
        reset_worker_state()

    def test_record_wait_re_record_with_process_kernels(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks)
        buf = mem.alloc(dev, 64, shm=True)
        buf.as_numpy()[:] = 0.0
        wd = WorkDivMembers.make(4, 1, 16)
        task = create_task_kernel(AccCpuOmp2Blocks, wd, _add_one, buf)
        assert get_plan(task, dev).schedule == "processes"

        q = QueueNonBlocking(dev)
        ev = Event(dev)
        for round_no in range(3):
            q.enqueue(task)
            ev.record(q)
            assert ev.wait(timeout=30.0)
            # The event firing proves the worker-process writes landed.
            assert np.all(buf.as_numpy() == float(round_no + 1))
        assert ev.record_count == 3 == ev.fired_count
        q.destroy()
        buf.free()


@fn_acc
def _add_one(acc, b):
    from repro.core.index import Blocks, Grid, get_idx

    blk = get_idx(acc, Grid, Blocks)[0]
    b[blk * 16 : (blk + 1) * 16] += 1.0
