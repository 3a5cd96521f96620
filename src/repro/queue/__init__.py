"""Queues (streams) and events."""

from .event import (
    Event,
    elapsed_sim_time,
    enqueue_after,
    record,
)
from .queue import Queue, QueueBlocking, QueueNonBlocking, enqueue, wait

__all__ = [
    "Queue",
    "QueueBlocking",
    "QueueNonBlocking",
    "enqueue",
    "wait",
    "Event",
    "record",
    "elapsed_sim_time",
    "enqueue_after",
]
