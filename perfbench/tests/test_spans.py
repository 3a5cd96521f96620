"""Self-tests of the benchmark's span recorder and percentile rule.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import stats  # noqa: E402
from perfbench.spans import ID, LayerStats, Recorder, covered, self_times  # noqa: E402


def span(sid, name, start, end, parent=None):
    return [sid, name, start, end, parent, None, None, False]


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "c", 2.0, 3.0, parent=2),
        span(4, "b", 5.0, 9.0, parent=1),
    ]
    st = self_times(spans)
    assert st == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    # Self times of a tree add up to the root's duration.
    assert sum(st.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    # Self time subtracts the union of the children's intervals, [1, 6],
    # so time two children share is subtracted once.
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "x", 1.0, 5.0, parent=1),
        span(3, "y", 3.0, 6.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_layer_stats_aggregate_by_name():
    spans = [
        span(1, "q", 0.0, 4.0), span(2, "p", 1.0, 2.0, parent=1),
        span(3, "q", 10.0, 12.0), span(4, "p", 10.5, 11.0, parent=3),
    ]
    ls = LayerStats(spans)
    assert ls.calls["q"] == 2
    assert ls.mean_self_us("q") == pytest.approx(1e6 * (3.0 + 1.5) / 2)
    assert ls.mean_total_us("p") == pytest.approx(1e6 * 0.75)
    assert ls.mean_self_us("absent") == 0.0


class _Target:
    def work(self, x):
        return x + 1


def test_wrap_records_a_span_only_while_enabled_and_uninstall_restores():
    rec = Recorder()
    original = _Target.__dict__["work"]
    rec.wrap(_Target, "work", "target.work", extra=lambda self, x: x)
    rec.enabled = True
    assert _Target().work(1) == 2
    rec.enabled = False
    assert _Target().work(5) == 6  # disabled: no span
    spans = rec.spans()
    assert [s[1] for s in spans] == ["target.work"]
    assert spans[0][6] == 1
    rec.uninstall()
    assert _Target.__dict__["work"] is original


def test_spans_inherit_request_id_and_parent_per_thread():
    rec = Recorder()
    rec.enabled = True

    def serve(rid):
        outer = rec.begin("serve.execute", request_id=rid)
        inner = rec.begin("mem.alloc")
        rec.end(inner)
        rec.end(outer)

    threads = [threading.Thread(target=serve, args=(r,)) for r in (7, 8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    spans = rec.spans()
    by_id = {s[ID]: s for s in spans}
    inner = [s for s in spans if s[1] == "mem.alloc"]
    assert len(inner) == 2
    for s in inner:
        assert by_id[s[4]][5] == s[5]  # same request id as its parent
    assert {s[5] for s in inner} == {7, 8}


def test_failed_span_carries_the_exception_type():
    rec = Recorder()

    class Boom:
        def go(self):
            raise KeyError("x")

    rec.wrap(Boom, "go", "boom")
    rec.enabled = True
    with pytest.raises(KeyError):
        Boom().go()
    assert rec.spans()[0][7] == "KeyError"


@pytest.mark.parametrize("n, p, ok", [
    (999, 99.0, False), (1000, 99.0, True),
    (99, 90.0, False), (100, 90.0, True),
    (199, 95.0, False), (200, 95.0, True),
])
def test_percentile_needs_ten_samples_beyond(n, p, ok):
    assert stats.supports(n, p) is ok


def test_tail_picks_the_highest_supported_percentile():
    assert stats.tail(list(range(50))) is None
    assert stats.tail(list(range(100)))["p"] == 90.0
    assert stats.tail(list(range(1000)))["p"] == 99.0
    assert stats.tail(list(range(10000)))["p"] == 99.9
    assert stats.percentile_or_none(list(range(500)), 99.0) is None


def test_percentile_matches_linear_interpolation():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(xs, 50.0) == pytest.approx(2.5)
    assert stats.percentile(xs, 100.0) == 4.0
    assert stats.percentile(xs, 0.0) == 1.0
