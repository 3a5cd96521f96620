"""Graph execution: modes, replay ops, invalidation, errors, stats,
multi-device."""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccGpuCudaSim,
    AutoWorkDiv,
    Graph,
    Vec,
    WorkDivMembers,
    get_dev_by_idx,
    mem,
)
from repro.core.errors import GraphError, KernelError
from repro.core.kernel import fn_acc
from repro.kernels import Jacobi2DKernel, jacobi_reference_step
from repro.runtime import (
    SCHEDULER_ENV,
    clear_plan_cache,
    get_plan,
    graph_plan_cache_info,
)
from repro.runtime.instrument import ExecutionObserver, observe
from repro.tuning import reset_default_cache
from repro.tuning.cache import bump_tuning_generation

WD = WorkDivMembers.make(1, 1, 1)
JACOBI = Jacobi2DKernel()


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


def _dies():
    return [get_dev_by_idx(AccGpuCudaSim, i) for i in range(2)]


def _record_heat(g, acc, dev, plate, result, steps=3, c=0.2):
    """Stage ``plate`` onto ``dev``, sweep it ``steps`` times and gather
    it into ``result``; returns the two device buffers."""
    h, w = plate.shape
    src, dst = mem.alloc(dev, (h, w)), mem.alloc(dev, (h, w))
    elems = Vec(4, 4)
    wd = WorkDivMembers.make(Vec(h, w).ceil_div(elems), Vec(1, 1), elems)
    g.copy(src, plate)
    a, b = src, dst
    for _ in range(steps):
        g.launch(acc, wd, JACOBI, h, w, c, a, b, reads=[a], writes=[b])
        a, b = b, a
    g.copy(result, a)
    return src, dst


def _plate(h=8, w=12, hot=100.0):
    plate = np.zeros((h, w))
    plate[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = hot
    return plate


def _die_chains(n=3):
    """One bump chain per simulated-GPU die: a two-device graph, so it
    always takes the queued path."""
    dies = _dies()
    bufs = [mem.alloc(d, 4) for d in dies]
    g = Graph()
    for d, b in zip(dies, bufs):
        g.memset(b, 0.0)
        for i in range(n):
            g.launch(AccGpuCudaSim, WD, _bump, b, label=f"{d.name}.n{i}")
    return g, bufs


class _Plans(ExecutionObserver):
    """Records the plan every kernel launch dispatched under."""

    def __init__(self):
        self.plans = []

    def on_launch_begin(self, plan, task, device):
        self.plans.append((plan, task, device))


class TestModes:
    def test_single_device_runs_inline(self, dev):
        g, buf = _chain(dev)
        ex = g.submit()
        assert ex.last_stats.mode == "inline"
        assert buf.as_numpy()[0] == 3.0
        buf.free()

    def test_multi_device_runs_queued(self):
        dies = _dies()
        bufs = [mem.alloc(d, 4) for d in dies]
        hosts = [np.zeros(4) for _ in dies]
        g = Graph()
        for b, h in zip(bufs, hosts):
            g.memset(b, 2.0)
            g.copy(h, b)  # sim-GPU memory is not host accessible
        ex = g.submit(devices=dies)
        stats = ex.last_stats
        assert stats.mode == "queued" and stats.device_count == 2
        assert not stats.replayed
        for b, h in zip(bufs, hosts):
            assert np.all(h == 2.0)
            b.free()

    def test_queued_results_match_inline(self):
        """The same per-die heat pipelines, once as one two-device graph
        (queued) and once as one single-device graph per die (inline),
        give bit-identical plates."""
        plates = [_plate(), _plate(hot=50.0)]
        queued = [np.empty_like(p) for p in plates]
        inline = [np.empty_like(p) for p in plates]
        g = Graph()
        bufs = []
        for d, p, r in zip(_dies(), plates, queued):
            bufs += _record_heat(g, AccGpuCudaSim, d, p, r)
        assert g.submit().last_stats.mode == "queued"
        for d, p, r in zip(_dies(), plates, inline):
            gi = Graph()
            bufs += _record_heat(gi, AccGpuCudaSim, d, p, r)
            assert gi.submit().last_stats.mode == "inline"
        for p, q, i in zip(plates, queued, inline):
            assert np.array_equal(q, i)
            ref = p
            for _ in range(3):
                ref = jacobi_reference_step(ref, 0.2)
            assert np.array_equal(q, ref)
        for b in bufs:
            b.free()


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
        assert after["hits"] == before["hits"] + 1
        assert buf.as_numpy()[0] == 6.0
        buf.free()

    def test_growing_the_graph_invalidates(self, dev):
        g, buf = _chain(dev)
        ex1 = g.submit()
        g.launch(AccCpuSerial, WD, _bump, buf, label="extra")
        ex2 = g.submit()
        assert ex2 is not ex1
        assert not ex2.last_stats.replayed  # new executor, new ops
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

    def test_per_request_graphs_keep_no_buffer_alive(self, dev):
        """The serving pattern: a fresh multi-node graph per request,
        its buffers freed after submit.  Nothing outlives the graph."""
        before = graph_plan_cache_info()
        refs = []
        for _ in range(80):
            result = np.empty((8, 12))
            g = Graph()
            bufs = _record_heat(g, AccCpuSerial, dev, _plate(), result)
            assert not g.submit().last_stats.replayed
            for b in bufs:
                refs.append(weakref.ref(b))
                b.free()
            del g, bufs, b
        gc.collect()
        assert sum(r() is not None for r in refs) == 0
        after = graph_plan_cache_info()
        assert after["misses"] - before["misses"] == 80
        assert after["hits"] == before["hits"]


class TestInvalidation:
    """A resubmitted graph rebuilds its ops when the context its node
    plans were resolved under changes, and runs under the new plans."""

    @staticmethod
    def _heat(dev, acc):
        result = np.empty((8, 12))
        g = Graph()
        bufs = _record_heat(g, acc, dev, _plate(), result)
        return g, bufs

    @staticmethod
    def _submit(g):
        obs = _Plans()
        with observe(obs):
            stats = g.submit().last_stats
        assert len(obs.plans) == 3  # every sweep launched
        for plan, task, device in obs.plans:
            assert plan is get_plan(task, device)  # the current plan
        return stats, {p.schedule for p, _, _ in obs.plans}

    def test_scheduler_flip_rebuilds(self, monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        g, bufs = self._heat(dev, AccCpuOmp2Blocks)
        g.submit()
        stats, scheds = self._submit(g)
        assert stats.replayed and scheds == {"pooled"}
        monkeypatch.setenv(SCHEDULER_ENV, "sequential")
        stats, scheds = self._submit(g)
        assert not stats.replayed and scheds == {"sequential"}
        stats, scheds = self._submit(g)
        assert stats.replayed and scheds == {"sequential"}
        for b in bufs:
            b.free()

    def test_tuning_generation_bump_rebuilds(
        self, dev, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "c.json"))
        reset_default_cache()
        buf = mem.alloc(dev, 64)
        g = Graph()
        for _ in range(3):
            g.launch(AccCpuSerial, AutoWorkDiv(64), _bump, buf)
        g.submit()
        stale = get_plan(g.nodes[0].task, dev)
        assert self._submit(g)[0].replayed
        bump_tuning_generation()
        stats, _ = self._submit(g)
        assert not stats.replayed
        assert get_plan(g.nodes[0].task, dev) is not stale
        assert self._submit(g)[0].replayed
        buf.free()
        reset_default_cache()

    def test_clear_plan_cache_rebuilds(self, dev):
        g, bufs = self._heat(dev, AccCpuSerial)
        g.submit()
        stale = get_plan(g.nodes[1].task, dev)
        assert self._submit(g)[0].replayed
        clear_plan_cache()
        stats, _ = self._submit(g)
        assert not stats.replayed
        assert get_plan(g.nodes[1].task, dev) is not stale
        for b in bufs:
            b.free()


class TestErrors:
    def test_inline_error_is_raised_and_wrapped(self, dev):
        buf = mem.alloc(dev, 4)
        g = Graph()
        g.launch(AccCpuSerial, WD, _boom, buf)
        with pytest.raises(KernelError):
            g.submit()
        buf.free()

    def test_queued_error_is_raised_on_wait(self):
        dies = _dies()
        bufs = [mem.alloc(d, 4) for d in dies]
        g = Graph()
        g.memset(bufs[1], 0.0)
        g.memset(bufs[0], 0.0)
        g.launch(AccGpuCudaSim, WD, _bump, bufs[0], label="ok")
        g.launch(AccGpuCudaSim, WD, _boom, bufs[0], label="bad")
        g.launch(AccGpuCudaSim, WD, _bump, bufs[0], label="skipped")
        with pytest.raises(KernelError):
            g.submit()
        assert g.last_stats.mode == "queued"
        # The failing node stopped the pipeline: the successor did not
        # execute (first bump landed, the post-failure one did not).
        assert bufs[0].unsafe_backing()[0] == 1.0
        for b in bufs:
            b.free()

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

    def test_submit_wait_false_then_wait(self):
        g, bufs = _die_chains(n=3)
        ex = g.submit(wait=False)
        assert g.wait(timeout=30.0)
        assert ex.last_stats is not None
        assert ex.last_stats.mode == "queued"
        assert [b.unsafe_backing()[0] for b in bufs] == [3.0, 3.0]
        g.submit()  # the graph is reusable afterwards
        assert [b.unsafe_backing()[0] for b in bufs] == [3.0, 3.0]
        for b in bufs:
            b.free()

    def test_inline_submit_wait_false_is_complete_on_return(self, dev):
        g, buf = _chain(dev, n=3)
        g.submit(wait=False)
        assert buf.as_numpy()[0] == 3.0
        g.submit()  # no wait() needed between inline submissions
        assert g.wait(timeout=0.0)
        assert buf.as_numpy()[0] == 6.0
        buf.free()

    def test_wait_during_inline_run_keeps_the_submit_guard(self, dev):
        """A wait() that lands while an inline replay runs returns at
        once, and must not let a second submit in mid-run."""
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
