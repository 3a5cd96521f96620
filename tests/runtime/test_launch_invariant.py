"""Launch-invariant work is paid once per plan, not once per launch.

Deterministic (no timing): each test counts calls or allocations.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    AccCpuOmp2Blocks,
    AccCpuSerial,
    AccCpuThreads,
    AccGpuCudaSim,
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.acc import timing
from repro.acc.base import GridContext
from repro.atomic import ops as atomic_ops
from repro.kernels import AxpyElementsKernel, Jacobi2DKernel
from repro.runtime import ExecutionObserver, get_plan, observe


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class _CountingAxpy(AxpyElementsKernel):
    def __init__(self):
        self.calls = 0

    def characteristics(self, work_div, *args):
        self.calls += 1
        return super().characteristics(work_div, *args)


class _CountingJacobi(Jacobi2DKernel):
    def __init__(self):
        self.calls = 0

    def characteristics(self, work_div, *args):
        self.calls += 1
        return super().characteristics(work_div, *args)


def _uncached_fs(task, device, plan) -> int:
    """Femtoseconds one launch of ``task`` adds, modeled from scratch."""
    seconds = timing._modeled_seconds(
        task.kernel.characteristics, task, device, plan
    )
    return 0 if seconds is None else round(seconds * 1e15)


def _axpy_task(dev, kernel, n, acc=AccCpuSerial):
    # One work division for every n (the kernel grid-strides), so all
    # tasks of one kernel share a launch plan.
    x = mem.alloc(dev, n)
    y = mem.alloc(dev, n)
    wd = WorkDivMembers.make(4, 1, 64)
    return create_task_kernel(acc, wd, kernel, n, 0.5, x, y)


class TestModeledTimeMemo:
    def test_characteristics_once_per_signature(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        queue = QueueBlocking(dev)
        kernel = _CountingAxpy()
        small = _axpy_task(dev, kernel, 256)
        for _ in range(100):
            queue.enqueue(small)
        assert kernel.calls == 1
        # Other buffers of the same extents and dtype: same signature.
        twin = _axpy_task(dev, kernel, 256)
        # A different n and buffer extent: one more signature.
        large = _axpy_task(dev, kernel, 512)
        for _ in range(50):
            queue.enqueue(twin)
            queue.enqueue(large)
        assert get_plan(small, dev) is get_plan(large, dev)
        assert kernel.calls == 2

    def test_jacobi_graph_replays_model_once(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        kernel = _CountingJacobi()
        src = mem.alloc(dev, (16, 16))
        dst = mem.alloc(dev, (16, 16))
        wd = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(8, 8))
        g = Graph()
        a, b = src, dst
        for _ in range(4):
            # (src, dst) and (dst, src) alternate on one launch plan.
            g.launch(AccCpuSerial, wd, kernel, 16, 16, 0.1, a, b,
                     reads=[a], writes=[b])
            a, b = b, a
        start = dev.sim_time_fs
        for _ in range(25):
            g.submit()
        assert kernel.calls == 1
        task = g.nodes[0].task
        per_launch = _uncached_fs(task, dev, get_plan(task, dev))
        assert per_launch > 0
        assert dev.sim_time_fs - start == 100 * per_launch

    def test_unknown_argument_type_is_modeled_uncached(self):
        class Opaque:
            pass

        class Kernel(_CountingAxpy):
            def characteristics(self, work_div, n, alpha, x, y, extra):
                return super().characteristics(work_div, n, alpha, x, y)

            @fn_acc
            def __call__(self, acc, n, alpha, x, y, extra):
                pass

        dev = get_dev_by_idx(AccCpuSerial, 0)
        kernel = Kernel()
        x = mem.alloc(dev, 8)
        y = mem.alloc(dev, 8)
        task = create_task_kernel(
            AccCpuSerial, WorkDivMembers.make(1, 1, 8), kernel,
            8, 0.5, x, y, Opaque(),
        )
        queue = QueueBlocking(dev)
        for _ in range(3):
            queue.enqueue(task)
        assert kernel.calls == 3
        assert timing.arg_signature(task.args) is None

    def test_memo_keeps_no_buffer_alive(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        task = _axpy_task(dev, AxpyElementsKernel(), 64)
        plan = get_plan(task, dev)
        timing.advance_modeled_time(task, dev, plan)
        assert len(plan._modeled) == 1
        refs = [weakref.ref(a) for a in task.args if isinstance(a, mem.Buffer)]
        assert len(refs) == 2
        del task
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(plan._modeled) == 1

    def test_unwrap_memo_keeps_no_buffer_alive(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        task = _axpy_task(dev, AxpyElementsKernel(), 64)
        queue = QueueBlocking(dev)
        queue.enqueue(task)
        queue.enqueue(task)
        bufs = [a for a in task.args if isinstance(a, mem.Buffer)]
        refs = [weakref.ref(b) for b in bufs]
        refs += [weakref.ref(b.unsafe_backing()) for b in bufs]
        assert len(refs) == 4
        del task, bufs
        gc.collect()
        assert [r() is None for r in refs] == [True] * 4

    def test_unwrap_memo_warm_hit_is_identity(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        kernel = AxpyElementsKernel()
        task = _axpy_task(dev, kernel, 64)
        twin = _axpy_task(dev, kernel, 64)
        plan = get_plan(task, dev)
        assert get_plan(twin, dev) is plan
        first = plan.unwrap_args(task)
        assert plan.unwrap_args(task) is first
        assert plan.unwrap_args(twin) is not first
        # Each task keeps its own memo: interleaving two tasks on one
        # plan does not evict it.
        assert plan.unwrap_args(task) is first

    def test_memo_is_bounded_and_exact(self):
        dev = get_dev_by_idx(AccCpuSerial, 0)
        queue = QueueBlocking(dev)
        kernel = _CountingAxpy()
        x = mem.alloc(dev, 256)
        y = mem.alloc(dev, 256)
        wd = WorkDivMembers.make(4, 1, 64)
        limit = timing.MODELED_TIME_CACHE_MAXSIZE
        tasks = [
            create_task_kernel(AccCpuSerial, wd, kernel, n, 0.5, x, y)
            for n in range(1, 2 * limit + 2)
        ]
        plan = get_plan(tasks[0], dev)
        expected = 2 * sum(_uncached_fs(t, dev, plan) for t in tasks)
        kernel.calls = 0
        start = dev.sim_time_fs
        for _ in range(2):
            for task in tasks:
                queue.enqueue(task)
                assert len(plan._modeled) <= limit
        assert dev.sim_time_fs - start == expected
        # FIFO eviction over more signatures than the bound: every
        # launch of the second pass missed again.
        assert kernel.calls == 2 * len(tasks)


class _SimTimeRecorder(ExecutionObserver):
    """Records each launch with the simulated time it added (the clock
    advances between ``on_launch_begin`` and ``on_launch_end``)."""

    def __init__(self):
        self.launches = []
        self._start = {}

    def on_launch_begin(self, plan, task, device):
        self._start[device.uid] = device.sim_time_fs

    def on_launch_end(self, plan, task, device):
        delta = device.sim_time_fs - self._start[device.uid]
        self.launches.append((plan, task, device, delta))


def _builtin_characteristics_classes():
    import inspect

    import repro.apps.hase.kernel as hase
    import repro.apps.pic.kernels as pic
    import repro.kernels as kernels

    classes = set()
    for module in (kernels, hase, pic):
        for name in dir(module):
            obj = getattr(module, name)
            if inspect.isclass(obj) and "characteristics" in vars(obj):
                classes.add(obj)
    return classes


def test_sim_time_matches_uncached_model_for_every_builtin_kernel():
    """Every built-in kernel that describes itself, launched warm: the
    sanitizer's kernel sweep on a CPU and the GPU back-end (each task
    relaunched twice), a mini-PIC run and a small HASE flux estimate.
    Each launch must add exactly the modeled time an uncached
    computation gives."""
    from repro.apps.hase import (
        GainMedium,
        PrismMesh,
        compute_ase_flux,
        default_sample_points,
        gaussian_pump_profile,
    )
    from repro.apps.pic import PicGrid, PicSimulation, cold_plasma_particles
    from repro.sanitize.sweep import KERNEL_SWEEP

    with observe(_SimTimeRecorder()) as rec:
        for acc in (AccCpuSerial, AccGpuCudaSim):
            dev = get_dev_by_idx(acc, 0)
            queue = QueueBlocking(dev)
            for _name, run in KERNEL_SWEEP:
                run(acc, dev, queue)
        for _plan, task, device, _delta in list(rec.launches):
            task.execute(device)
            task.execute(device)
        grid = PicGrid(ng=16)
        x, v, w = cold_plasma_particles(grid, 4, displacement=0.01)
        sim = PicSimulation(AccCpuSerial, grid, x, v, w)
        sim.run(steps=3, dt=0.1)
        sim.free()
        mesh = PrismMesh(nx=4, ny=4, nz=2, width=1.0, height=1.0, depth=0.2)
        medium = GainMedium(mesh, gaussian_pump_profile(mesh, 4.0e20))
        compute_ase_flux(
            AccCpuSerial, medium, default_sample_points(medium, per_edge=2),
            target_rel_error=0.2, initial_samples=32,
            max_samples_per_point=128, use_all_devices=False,
        )
    described = [
        r for r in rec.launches if hasattr(r[1].kernel, "characteristics")
    ]
    assert _builtin_characteristics_classes() <= {
        type(task.kernel) for _p, task, _d, _delta in described
    }
    for plan, task, device, delta in described:
        assert delta == _uncached_fs(task, device, plan), (
            type(task.kernel).__name__
        )


@fn_acc
def _empty(acc):
    pass


@fn_acc
def _count(acc, out):
    acc.atomic_add(out, 0, 1.0)


class TestLazyAtomicDomain:
    @pytest.fixture
    def domains(self, monkeypatch):
        built = []
        init = atomic_ops.AtomicDomain.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(atomic_ops.AtomicDomain, "__init__", counting_init)
        return built

    @pytest.mark.parametrize(
        "acc", [AccCpuSerial, AccCpuOmp2Blocks, AccCpuThreads, AccGpuCudaSim]
    )
    def test_no_atomics_no_domain(self, domains, acc):
        dev = get_dev_by_idx(acc, 0)
        queue = QueueBlocking(dev)
        queue.enqueue(create_task_kernel(acc, WorkDivMembers.make(1, 1, 1), _empty))
        queue.enqueue(_axpy_task(dev, AxpyElementsKernel(), 64, acc=acc))
        assert domains == []

    @pytest.mark.parametrize(
        "acc, wd",
        [
            (AccCpuOmp2Blocks, WorkDivMembers.make(16, 1, 1)),
            (AccCpuThreads, WorkDivMembers.make(4, 8, 1)),
        ],
    )
    def test_concurrent_first_use_builds_one_domain(self, domains, acc, wd):
        dev = get_dev_by_idx(acc, 0)
        queue = QueueBlocking(dev)
        out = mem.alloc(dev, 1)
        out.as_numpy()[:] = 0.0
        task = create_task_kernel(acc, wd, _count, out)
        for launch in range(1, 4):
            queue.enqueue(task)
            assert len(domains) == launch  # one per launch, never more
        threads = wd.block_count * wd.block_thread_count
        assert out.as_numpy()[0] == 3.0 * threads

    def test_assigned_domain_wins(self):
        grid = GridContext(None, WorkDivMembers.make(1, 1, 1), None, ())
        domain = atomic_ops.AtomicDomain(stripes=2)
        grid.atomics = domain
        assert grid.atomics is domain

    def test_process_pool_atomics_stay_correct(self, domains, monkeypatch):
        from repro.kernels.histogram import HistogramKernel, histogram_reference
        from repro.runtime.scheduler import PROCESS_WORKERS_ENV, SCHEDULER_ENV

        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        n, bins = 1024, 8
        data = np.random.default_rng(5).random(n)
        x = mem.alloc(dev, n, shm=True)
        hist = mem.alloc(dev, bins, shm=True)
        x.as_numpy()[:] = data
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(4, 1, n // 4),
            HistogramKernel(), n, 0.0, 1.0, bins, x, hist,
        )
        queue = QueueBlocking(dev)
        expect = histogram_reference(data, bins, 0.0, 1.0)
        for _ in range(2):
            hist.as_numpy()[:] = 0.0
            queue.enqueue(task)
            assert np.array_equal(hist.as_numpy(), expect)
        assert get_plan(task, dev).schedule == "processes"
        # Workers install the process-shared domain; the parent's grid
        # never needed one of its own.
        assert domains == []
        x.free()
        hist.free()
