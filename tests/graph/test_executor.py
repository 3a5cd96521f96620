"""Graph execution: modes, replay caching, errors, stats, multi-device."""

import numpy as np
import pytest

from repro import (
    AccCpuSerial,
    AccGpuCudaSim,
    Graph,
    WorkDivMembers,
    get_dev_by_idx,
    mem,
)
from repro.core.errors import GraphError, KernelError
from repro.core.kernel import fn_acc
from repro.graph import REPLAY_ENV
from repro.runtime import clear_plan_cache, graph_plan_cache_info
from repro.runtime.instrument import ExecutionObserver, observe

WD = WorkDivMembers.make(1, 1, 1)


@fn_acc
def _bump(acc, b):
    b[0] += 1.0


@fn_acc
def _boom(acc, b):
    raise ValueError("broken kernel")


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuSerial, 0)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _chain(dev, n=3):
    buf = mem.alloc(dev, 4)
    buf.as_numpy()[:] = 0.0
    g = Graph()
    for i in range(n):
        g.launch(AccCpuSerial, WD, _bump, buf, label=f"n{i}")
    return g, buf


class TestModes:
    def test_single_device_runs_inline(self, dev, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "1")  # ambient CI env may force queued
        g, buf = _chain(dev)
        ex = g.submit()
        assert ex.last_stats.mode == "inline"
        assert buf.as_numpy()[0] == 3.0
        buf.free()

    def test_replay_env_zero_forces_queued(self, dev, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "0")
        g, buf = _chain(dev)
        ex = g.submit()
        assert ex.last_stats.mode == "queued"
        assert buf.as_numpy()[0] == 3.0
        buf.free()

    def test_multi_device_runs_queued(self):
        dies = [get_dev_by_idx(AccGpuCudaSim, i) for i in range(2)]
        bufs = [mem.alloc(d, 4) for d in dies]
        hosts = [np.zeros(4) for _ in dies]
        g = Graph()
        for b, h in zip(bufs, hosts):
            g.memset(b, 2.0)
            g.copy(h, b)  # sim-GPU memory is not host accessible
        ex = g.submit(devices=dies)
        stats = ex.last_stats
        assert stats.mode == "queued" and stats.device_count == 2
        for b, h in zip(bufs, hosts):
            assert np.all(h == 2.0)
            b.free()

    def test_queued_results_match_inline(self, dev, monkeypatch):
        g, buf = _chain(dev, n=5)
        monkeypatch.setenv(REPLAY_ENV, "1")
        g.submit()
        inline_result = buf.as_numpy()[0]
        buf.as_numpy()[:] = 0.0
        monkeypatch.setenv(REPLAY_ENV, "0")
        g.submit()
        assert buf.as_numpy()[0] == inline_result == 5.0
        buf.free()


class TestReplayCaching:
    def test_second_submit_replays_cached_plan(self, dev):
        g, buf = _chain(dev)
        before = graph_plan_cache_info()
        ex1 = g.submit()
        assert not ex1.last_stats.replayed
        ex2 = g.submit()
        assert ex2.last_stats.replayed
        after = graph_plan_cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1
        assert buf.as_numpy()[0] == 6.0
        buf.free()

    def test_structurally_identical_graphs_share_the_plan(self, dev):
        g1, b1 = _chain(dev)
        g1.submit()
        # A *different* Graph over the same buffer and kernels: same
        # structure key, so its first submission is already a replay.
        g2, b2 = Graph(), b1
        for i in range(3):
            g2.launch(AccCpuSerial, WD, _bump, b1, label=f"n{i}")
        assert g2.submit().last_stats.replayed
        b1.free()

    def test_growing_the_graph_invalidates(self, dev):
        g, buf = _chain(dev)
        ex1 = g.submit()
        g.launch(AccCpuSerial, WD, _bump, buf, label="extra")
        ex2 = g.submit()
        assert ex2 is not ex1
        assert not ex2.last_stats.replayed  # new structure, new plan
        assert ex2.last_stats.node_count == 4
        assert buf.as_numpy()[0] == 7.0  # 3 + 4
        buf.free()

    def test_explicit_edge_after_submit_invalidates(self, dev):
        a, b = mem.alloc(dev, 4), mem.alloc(dev, 4)
        g = Graph()
        n0 = g.launch(AccCpuSerial, WD, _bump, a)
        n1 = g.launch(AccCpuSerial, WD, _bump, b)
        ex1 = g.submit()
        n1.after(n0)
        ex2 = g.submit()
        assert ex2 is not ex1 and ex2.deps[1] == (0,)
        a.free()
        b.free()


class TestErrors:
    def test_inline_error_is_raised_and_wrapped(self, dev):
        buf = mem.alloc(dev, 4)
        g = Graph()
        g.launch(AccCpuSerial, WD, _boom, buf)
        with pytest.raises(KernelError):
            g.submit()
        buf.free()

    def test_queued_error_is_raised_on_wait(self, dev, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "0")
        buf = mem.alloc(dev, 4)
        g = Graph()
        g.launch(AccCpuSerial, WD, _bump, buf, label="ok")
        g.launch(AccCpuSerial, WD, _boom, buf, label="bad")
        g.launch(AccCpuSerial, WD, _bump, buf, label="skipped")
        with pytest.raises(KernelError):
            g.submit()
        # The failing node stopped the pipeline: the successor did not
        # execute (first bump landed, the post-failure one did not).
        assert buf.as_numpy()[0] == 1.0
        buf.free()

    def test_graph_is_reusable_after_a_failure(self, dev):
        buf = mem.alloc(dev, 4)
        g = Graph()
        g.launch(AccCpuSerial, WD, _boom, buf)
        for _ in range(2):  # error state resets between submissions
            with pytest.raises(KernelError):
                g.submit()
        buf.free()


class TestStatsAndAsync:
    def test_stats_accounting(self, dev):
        g, buf = _chain(dev, n=4)
        stats = g.submit().last_stats
        assert stats.node_count == 4 and stats.device_count == 1
        assert stats.wall_seconds > 0.0
        assert 0.0 < stats.node_seconds
        # A linear chain's critical path is the sum of all nodes.
        assert stats.critical_path_seconds == pytest.approx(
            stats.node_seconds
        )
        assert stats.overlap_ratio > 0.0
        assert 0.0 < stats.parallel_efficiency <= 1.0 + 1e-9
        buf.free()

    def test_node_info_only_built_for_observers(self, dev):
        g, buf = _chain(dev)
        assert g.submit().last_stats.node_info == ()
        assert g.submit().last_stats.nodes == ()
        with observe(ExecutionObserver()):
            stats = g.submit().last_stats
        assert len(stats.node_info) == 3
        rec = stats.nodes[1]
        assert rec["label"] == "n1" and rec["kind"] == "kernel"
        assert rec["duration"] >= 0.0
        buf.free()

    def test_submit_wait_false_then_wait(self, dev, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "0")  # async needs the queued path
        g, buf = _chain(dev, n=3)
        ex = g.submit(wait=False)
        assert g.wait(timeout=30.0)
        assert ex.last_stats is not None
        assert buf.as_numpy()[0] == 3.0
        g.submit()  # the graph is reusable afterwards
        assert buf.as_numpy()[0] == 6.0
        buf.free()

    def test_inline_submit_wait_false_is_complete_on_return(
        self, dev, monkeypatch
    ):
        monkeypatch.setenv(REPLAY_ENV, "1")
        g, buf = _chain(dev, n=3)
        g.submit(wait=False)
        assert buf.as_numpy()[0] == 3.0
        g.submit()  # no wait() needed between inline submissions
        assert g.wait(timeout=0.0)
        assert buf.as_numpy()[0] == 6.0
        buf.free()

    def test_wait_during_inline_run_keeps_the_submit_guard(
        self, dev, monkeypatch
    ):
        """A wait() that lands while an inline replay runs returns at
        once, and must not let a second submit in mid-run."""
        monkeypatch.setenv(REPLAY_ENV, "1")
        g, buf = _chain(dev, n=2)
        seen = []

        def probe():
            assert g.wait(timeout=0.0)
            with pytest.raises(GraphError, match="mid-submit"):
                g.submit()
            seen.append(buf.as_numpy()[0])

        g.call(probe, reads=[buf], label="probe")
        g.submit()
        g.submit()
        assert seen == [2.0, 4.0]
        buf.free()

    def test_copy_compute_copy_roundtrip(self, dev):
        """A mixed-kind graph: host->dev copy, kernel, memset of a
        second buffer, dev->host copy — all edges inferred."""
        host_in = np.full(4, 10.0)
        host_out = np.zeros(4)
        b = mem.alloc(dev, 4)
        other = mem.alloc(dev, 4)
        g = Graph()
        g.copy(b, host_in)
        g.launch(AccCpuSerial, WD, _bump, b)
        g.memset(other, 5.0)  # independent branch
        g.copy(host_out, b)
        deps = g.dependencies()
        assert deps[1] == (0,) and deps[2] == () and deps[3] == (1,)
        g.submit()
        assert host_out[0] == 11.0 and np.all(host_out[1:] == 10.0)
        assert np.all(other.as_numpy() == 5.0)
        b.free()
        other.free()
