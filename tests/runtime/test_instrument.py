"""ExecutionObserver hooks: registration, notification, and the counts
the telemetry collector derives from them."""

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccGpuCudaSim,
    ExecutionObserver,
    QueueBlocking,
    QueueNonBlocking,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
    observe,
    register_observer,
    telemetry,
    unregister_observer,
)
from repro.runtime.instrument import observers
from repro.telemetry import TelemetryCollector


@fn_acc
def _noop(acc):
    pass


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def isolated_tuning_cache(tmp_path, monkeypatch):
    """A throwaway tuning cache (and hall of fame), fleet off."""
    from repro.tuning import TUNING_CACHE_ENV, reset_default_cache
    from repro.tuning.fleet.config import FLEET_ENV, HOF_ENV

    monkeypatch.setenv(TUNING_CACHE_ENV, str(tmp_path / "cache.json"))
    monkeypatch.setenv(HOF_ENV, str(tmp_path / "hof.json"))
    monkeypatch.delenv(FLEET_ENV, raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


class TestRegistration:
    def test_observe_context_registers_and_removes(self):
        obs = TelemetryCollector()
        assert obs not in observers()
        with observe(obs):
            assert obs in observers()
        assert obs not in observers()

    def test_register_is_idempotent(self):
        obs = TelemetryCollector()
        register_observer(obs)
        register_observer(obs)
        try:
            assert observers().count(obs) == 1
        finally:
            unregister_observer(obs)
        assert obs not in observers()


class TestLaunchHooks:
    def test_launch_and_block_counts(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(6, 1, 1), _noop)
        with telemetry.collect() as t:
            q.enqueue(task)
            q.enqueue(task)
        assert t.total("repro_launches_total") == 2
        assert t.total("repro_launches_total", backend="AccCpuSerial") == 2
        assert t.total("repro_launches_total", backend="AccGpuCudaSim") == 0
        assert t.total("repro_block_seconds") == 12

    def test_plan_cache_counters_via_observer(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(AccCpuSerial, WorkDivMembers.make(2, 1, 1), _noop)
        with telemetry.collect() as t:
            for _ in range(5):
                q.enqueue(task)
        assert t.total("repro_plan_cache_total", result="miss") == 1
        assert t.total("repro_plan_cache_total", result="hit") == 4
        assert t.plan_cache_hit_rate == pytest.approx(0.8)

    def test_tuning_cache_hit_rate(self, isolated_tuning_cache):
        from repro import AutoWorkDiv, autotune
        from repro.kernels import AxpyKernel

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        n = 64
        x = mem.alloc(dev, n)
        y = mem.alloc(dev, n)
        kernel = AxpyKernel()
        with telemetry.collect() as t:
            # Untuned: the AUTO division falls back to the heuristic.
            q.enqueue(create_task_kernel(
                AccCpuSerial, AutoWorkDiv(n), kernel, n, 2.0, x, y))
            autotune(kernel, AccCpuSerial, n, (n, 2.0, x, y),
                     strategy="random", budget=2)
            q.enqueue(create_task_kernel(
                AccCpuSerial, AutoWorkDiv(n), kernel, n, 2.0, x, y))
        assert t.total("repro_tuning_cache_total", result="miss") >= 1
        assert t.total("repro_tuning_cache_total", result="hit") >= 1
        assert 0.0 < t.tuning_cache_hit_rate < 1.0
        x.free()
        y.free()

    def test_launch_end_fires_even_on_kernel_failure(self):
        from repro.core.errors import KernelError

        @fn_acc
        def bad(acc):
            raise RuntimeError("boom")

        ends = []

        class EndWatcher(ExecutionObserver):
            def on_launch_end(self, plan, task, device):
                ends.append(plan.acc_type.name)

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        with observe(EndWatcher()):
            with pytest.raises(KernelError):
                q.enqueue(
                    create_task_kernel(
                        AccCpuSerial, WorkDivMembers.make(1, 1, 1), bad
                    )
                )
        assert ends == ["AccCpuSerial"]

    def test_block_hook_sees_every_block_of_pooled_launch(self):
        seen = []

        class BlockWatcher(ExecutionObserver):
            def on_block_end(self, plan, block_idx, seconds):
                seen.append(block_idx)

        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        with observe(BlockWatcher()):
            q.enqueue(
                create_task_kernel(
                    AccCpuOmp2Blocks, WorkDivMembers.make(40, 1, 1), _noop
                )
            )
        assert len(seen) == 40
        assert len(set(tuple(b) for b in seen)) == 40


class TestCopyAndQueueHooks:
    def test_copy_and_memset_notify(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueBlocking(dev)
        buf = mem.alloc(dev, 16)
        with telemetry.collect() as t:
            mem.memset(q, buf, 0.0)
            mem.copy(q, buf, np.ones(16))
            out = np.zeros(16)
            mem.copy(q, out, buf)
        assert t.total("repro_copies_total") == 3
        buf.free()

    def test_nonblocking_queue_drain_notifies(self):
        dev = get_dev_by_idx(AccGpuCudaSim, 0)
        q = QueueNonBlocking(dev)
        with telemetry.collect() as t:
            for _ in range(3):
                q.enqueue(lambda: None)
            q.wait()
        assert t.total("repro_queue_drains_total") >= 1
        q.destroy()
