"""Span recorder for the traced pass.

The benchmark times the library's layers from the outside: it replaces
public entry points (``Queue.enqueue``, ``repro.runtime.get_plan``,
``Scheduler.dispatch``, ...) with thin wrappers that open a span around
the original call.  Nothing inside ``src/`` is changed; the wrappers are
removed again by :meth:`Recorder.uninstall`.

A span is ``[id, name, start, end, parent_id, request_id, extra, failed]``.
Spans stay in memory (one list per thread, so recording takes no lock),
and the per-layer self times are computed from them when the run ends:
a span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ID, NAME, START, END, PARENT, RID, EXTRA, FAILED = range(8)


class Recorder:
    """Collects spans from every thread while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: List[list] = []
        self._lists_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Free-form per-event samples (e.g. admission waits), by name.
        self.samples: Dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            spans: list = []
            with self._lists_lock:
                self._lists.append(spans)
            st = self._local.state = ([], spans)
        return st

    def begin(self, name: str, request_id=None, extra=None) -> Optional[list]:
        """Open a span on the calling thread (None while disabled)."""
        if not self.enabled:
            return None
        stack, _ = self._state()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[RID]
        span = [
            next(self._ids), name, time.perf_counter(), 0.0,
            parent[ID] if parent is not None else None,
            request_id, extra, False,
        ]
        stack.append(span)
        return span

    def end(self, span: Optional[list], failed=False) -> None:
        """Close ``span``; ``failed`` is the raised exception's type name."""
        if span is None:
            return
        span[END] = time.perf_counter()
        span[FAILED] = failed
        stack, spans = self._state()
        stack.pop()
        spans.append(span)

    def spans(self) -> List[list]:
        with self._lists_lock:
            lists = list(self._lists)
        return [s for lst in lists for s in lst]

    def dump(self, path: str, limit: int = 200_000) -> int:
        """Write up to ``limit`` spans as JSON lines; returns the count."""
        spans = sorted(self.spans(), key=lambda s: s[START])[:limit]
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(
                    {"id": s[ID], "name": s[NAME], "start": s[START],
                     "end": s[END], "parent": s[PARENT],
                     "request_id": s[RID], "failed": s[FAILED]}
                ) + "\n")
        return len(spans)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        extra: Optional[Callable] = None,
        request_id: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``extra(*args, **kw)`` and ``request_id(*args, **kw)`` compute the
        span's payload and request id from the call's arguments;
        ``on_call(span, *args, **kw)`` runs just after the span opens.
        """
        # A class attribute is read from the class's own namespace, so
        # uninstall restores exactly what was there.
        func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kw):
            if not rec.enabled:
                return func(*args, **kw)
            span = rec.begin(
                name,
                request_id(*args, **kw) if request_id is not None else None,
                extra(*args, **kw) if extra is not None else None,
            )
            if on_call is not None:
                on_call(span, *args, **kw)
            try:
                result = func(*args, **kw)
            except BaseException as exc:
                rec.end(span, failed=type(exc).__name__)
                raise
            rec.end(span)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, func))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START])
        - covered(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


class LayerStats:
    """Per-name aggregates over a span list: calls, total and self time."""

    def __init__(self, spans: Sequence[list]):
        self.spans = spans
        selfs = self_times(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_: Dict[str, float] = defaultdict(float)
        self.by_name: Dict[str, list] = defaultdict(list)
        for s in spans:
            n = s[NAME]
            self.calls[n] += 1
            self.total[n] += s[END] - s[START]
            self.self_[n] += selfs[s[ID]]
            self.by_name[n].append(s)
        self.selfs = selfs

    def mean_self_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.self_[name] / calls if calls else 0.0

    def mean_total_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.total[name] / calls if calls else 0.0
