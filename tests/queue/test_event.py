"""Events: host sync and cross-queue dependencies."""

import threading
import time

import pytest

from repro import AccCpuSerial, AccGpuCudaSim, get_dev_by_idx
from repro.core.errors import QueueError
from repro.queue import Event, QueueBlocking, QueueNonBlocking, enqueue_after, record


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuSerial, 0)


class TestEventBasics:
    def test_unrecorded_event_is_complete(self, dev):
        ev = Event(dev)
        assert ev.is_complete
        assert ev.wait(timeout=0.1)

    def test_record_and_wait_blocking_queue(self, dev):
        q = QueueBlocking(dev)
        ev = Event(dev)
        ev.record(q)
        assert ev.is_complete

    def test_record_into_foreign_queue_rejected(self, dev):
        other = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueBlocking(other)
        with pytest.raises(QueueError):
            Event(dev).record(q)

    def test_event_fires_after_preceding_tasks(self, dev):
        order = []
        q = QueueNonBlocking(dev)
        q.enqueue(lambda: (time.sleep(0.05), order.append("task"))[-1])
        ev = Event(dev)
        ev.record(q)
        assert ev.wait(timeout=2.0)
        assert order == ["task"]
        q.destroy()

    def test_re_record_rearms(self, dev):
        q = QueueNonBlocking(dev)
        ev = Event(dev)
        ev.record(q)
        assert ev.wait(timeout=1.0)
        q.enqueue(lambda: time.sleep(0.05))
        ev.record(q)
        assert not ev.is_complete or ev.wait(timeout=2.0)
        q.wait()
        assert ev.is_complete
        q.destroy()

    def test_free_function_record(self, dev):
        q = QueueBlocking(dev)
        ev = record(Event(dev), q)
        assert ev.is_complete


class TestCrossQueueDependency:
    def test_enqueue_after(self, dev):
        """Queue B must not run its task before the event in queue A."""
        order = []
        qa = QueueNonBlocking(dev)
        qb = QueueNonBlocking(dev)
        ev = Event(dev)

        qa.enqueue(lambda: (time.sleep(0.1), order.append("a"))[-1])
        ev.record(qa)
        enqueue_after(qb, ev)
        qb.enqueue(lambda: order.append("b"))

        qb.wait()
        assert order == ["a", "b"]
        qa.destroy()
        qb.destroy()

    def test_timeout_returns_false(self, dev):
        q = QueueNonBlocking(dev)
        ev = Event(dev)
        q.enqueue(lambda: time.sleep(0.5))
        ev.record(q)
        assert ev.wait(timeout=0.05) is False
        q.wait()
        assert ev.wait(timeout=1.0)
        q.destroy()
