"""Measurement: modeled clock for self-describing kernels, wall clock
otherwise, everything through the real runtime."""

import pytest

from repro import (
    AccCpuSerial,
    QueueBlocking,
    create_task_kernel,
    divide_work,
    fn_acc,
    get_dev_by_idx,
    telemetry,
)
from repro.core.workdiv import MappingStrategy
from repro.perfmodel import KernelCharacteristics
from repro.tuning import measure_division, measure_task


@fn_acc
def _plain_kernel(acc):
    pass


class _ModeledKernel:
    """Kernel that describes itself → deterministic modeled seconds."""

    @fn_acc
    def __call__(self, acc):
        pass

    def characteristics(self, work_div):
        from repro.hardware.cache import AccessPattern

        return KernelCharacteristics(
            flops=1e6,
            global_read_bytes=8e3,
            global_write_bytes=8e3,
            working_set_bytes=1024,
            thread_access_pattern=AccessPattern.CONTIGUOUS,
            vector_friendly=True,
        )


def _wd(acc, n=64):
    dev = get_dev_by_idx(acc)
    props = acc.get_acc_dev_props(dev)
    return divide_work(n, props, MappingStrategy.BLOCK_LEVEL)


class TestMeasureTask:
    def test_modeled_kernel_uses_sim_clock(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _ModeledKernel())
        mt = measure_task(task, dev)
        assert mt.source == "modeled"
        assert mt.seconds > 0
        assert mt.launches == 1  # warmup launches are the measurement

    def test_modeled_measurement_is_deterministic(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _ModeledKernel())
        s1 = measure_task(task, dev).seconds
        s2 = measure_task(task, dev).seconds
        assert s1 == s2

    def test_modeled_measurement_immune_to_clock_magnitude(self):
        # Regression: with a float accumulator clock, the measured
        # delta of identical launches drifted in the last bit once the
        # shared device clock grew large (order-dependent test flake).
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _ModeledKernel())
        baseline = measure_task(task, dev).seconds
        for advance in (0.0931, 17.77, 123456.789):
            dev.advance_sim_time(advance)
            assert measure_task(task, dev).seconds == baseline

    def test_undescribed_kernel_falls_back_to_wall(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _plain_kernel)
        mt = measure_task(task, dev, warmup=1, repeat=2)
        assert mt.source == "wall"
        assert mt.seconds > 0
        assert mt.launches == 3  # 1 warmup + 2 timed

    def test_launches_go_through_runtime(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _ModeledKernel())
        with telemetry.collect() as t:
            mt = measure_task(task, dev)
        assert t.total("repro_launches_total") == mt.launches

    def test_warmup_must_be_positive(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        task = create_task_kernel(acc, _wd(acc), _plain_kernel)
        with pytest.raises(ValueError):
            measure_task(task, dev, warmup=0)

    def test_explicit_queue_is_used(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        q = QueueBlocking(dev)
        task = create_task_kernel(acc, _wd(acc), _ModeledKernel())
        mt = measure_task(task, dev, queue=q)
        assert mt.seconds > 0


class TestMeasureDivision:
    def test_binds_and_measures(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        mt = measure_division(_ModeledKernel(), acc, dev, _wd(acc))
        assert mt.source == "modeled"
        assert mt.seconds > 0

    def test_different_divisions_can_differ(self):
        acc = AccCpuSerial
        dev = get_dev_by_idx(acc)
        props = acc.get_acc_dev_props(dev)
        k = _ModeledKernel()
        wd_a = divide_work(
            4096, props, MappingStrategy.BLOCK_LEVEL, thread_elems=1
        )
        wd_b = divide_work(
            4096, props, MappingStrategy.BLOCK_LEVEL, thread_elems=256
        )
        sa = measure_division(k, acc, dev, wd_a).seconds
        sb = measure_division(k, acc, dev, wd_b).seconds
        assert sa > 0 and sb > 0
