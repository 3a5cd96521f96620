"""Events: synchronisation markers between queues and with the host.

An event is enqueued into a queue; it *fires* when the queue reaches it.
The host blocks with ``wait(event)``; another queue can be made to wait
for it with :func:`enqueue_after`, giving cross-queue dependencies —
the mechanism behind the paper's claim that multiple back-end instances
can run simultaneously and still be coordinated (Sec. 3.1).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from ..core.errors import QueueError
from ..dev.device import Device
from .queue import Queue

__all__ = [
    "Event",
    "record",
    "enqueue_after",
    "elapsed_sim_time",
]


class Event:
    """A one-shot-per-record completion marker bound to a device.

    Re-recording re-arms the event (CUDA semantics): ``wait`` blocks
    until the *latest* record has fired.
    """

    def __init__(self, dev: Device):
        self.dev = dev
        self._cv = threading.Condition()
        self._record_count = 0
        self._fired_count = 0
        self._sim_time_at_fire: Optional[float] = None
        self._fire_callbacks: List[Callable[[], None]] = []

    # -- task protocol: an Event can be enqueued directly ---------------

    def execute(self, device: Device) -> None:
        with self._cv:
            self._fired_count += 1
            self._sim_time_at_fire = device.sim_time_s
            callbacks, self._fire_callbacks = self._fire_callbacks, []
            self._cv.notify_all()
        # One-shot callbacks run outside the lock: a callback typically
        # grabs another queue's condition variable (the wait-gate wakeup
        # path), and nesting the two would invert lock order against
        # workers that query this event while holding their queue lock.
        for cb in callbacks:
            cb()

    # -- host-side API ----------------------------------------------------

    def record(self, queue: Queue) -> "Event":
        """Arm the event and enqueue its firing into ``queue``."""
        if queue.dev is not self.dev:
            raise QueueError(
                f"event of {self.dev!r} recorded into queue of {queue.dev!r}"
            )
        with self._cv:
            self._record_count += 1
        queue.enqueue(self)
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the latest record fired.  An event never recorded
        is complete by definition (CUDA semantics)."""
        with self._cv:
            target = self._record_count
            fired = self._cv.wait_for(
                lambda: self._fired_count >= target, timeout=timeout
            )
            return fired

    @property
    def is_complete(self) -> bool:
        with self._cv:
            return self._fired_count >= self._record_count

    @property
    def record_count(self) -> int:
        with self._cv:
            return self._record_count

    @property
    def fired_count(self) -> int:
        with self._cv:
            return self._fired_count

    def add_fire_callback(self, fn: Callable[[], None]) -> None:
        """Invoke ``fn`` (once) at the next fire.

        The wait-gate wakeup hook behind ``Queue.enqueue_after``.
        Duplicate registrations (by equality, covering re-created bound
        methods) collapse to one; callbacks are cleared at each fire.
        """
        with self._cv:
            if fn not in self._fire_callbacks:
                self._fire_callbacks.append(fn)

    @property
    def sim_time_at_fire(self) -> Optional[float]:
        """The device's simulated clock when the event last fired —
        the reproduction's analogue of ``cudaEventElapsedTime``
        (``elapsed_sim_time`` subtracts two of these)."""
        with self._cv:
            return self._sim_time_at_fire


def elapsed_sim_time(start: Event, stop: Event) -> float:
    """Modeled seconds between two fired events of one device."""
    if start.dev is not stop.dev:
        raise QueueError("elapsed_sim_time needs events of one device")
    a, b = start.sim_time_at_fire, stop.sim_time_at_fire
    if a is None or b is None:
        raise QueueError("both events must have fired")
    return b - a


def record(event: Event, queue: Queue) -> Event:
    """Free-function spelling of ``enqueue(queue, event)``."""
    return event.record(queue)


def enqueue_after(queue: Queue, event: Event) -> None:
    """The canonical free-function spelling of
    ``queue.enqueue_after(event)``: a cross-queue dependency without a
    host-side ``wait()`` barrier.  Non-blocking queues park no OS
    thread on the dependency; on a blocking queue this blocks the host,
    which is the correct degenerate behaviour."""
    queue.enqueue_after(event)
