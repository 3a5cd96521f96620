"""Kernel-side negative-index guard (GuardedArray)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import QueueBlocking, accelerator, get_dev_by_idx, mem
from repro.core.errors import ExtentError
from repro.mem import UNGUARDED_ENV, GuardedArray, guard


@pytest.fixture
def karr():
    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    buf = mem.alloc(dev, 8)
    q = QueueBlocking(dev)
    mem.copy(q, buf, np.arange(8.0))
    yield buf.kernel_array(dev)
    buf.free()


class TestGuardedArray:
    def test_kernel_array_is_guarded(self, karr):
        assert isinstance(karr, GuardedArray)

    def test_negative_int_read_rejected(self, karr):
        with pytest.raises(ExtentError, match="-1"):
            _ = karr[-1]

    def test_negative_int_write_rejected(self, karr):
        with pytest.raises(ExtentError, match="-2"):
            karr[-2] = 0.0

    def test_negative_numpy_scalar_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[np.int64(-1)]

    def test_negative_in_index_array_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[np.array([0, -3, 1])]

    def test_negative_in_list_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[[1, -1]]

    def test_negative_in_tuple_key_rejected(self):
        g = guard(np.zeros((4, 4)))
        with pytest.raises(ExtentError):
            _ = g[0, -1]

    def test_positive_access_passes(self, karr):
        assert karr[3] == 3.0
        karr[3] = 30.0
        assert karr[3] == 30.0

    def test_negative_slices_stay_legal(self, karr):
        # Slice semantics are explicit about direction; the scan kernel
        # uses chunk[:-1].
        np.testing.assert_array_equal(karr[:-1], np.arange(7.0))
        np.testing.assert_array_equal(karr[-3:], [5.0, 6.0, 7.0])

    def test_boolean_mask_passes(self, karr):
        mask = np.zeros(8, dtype=bool)
        mask[2] = True
        np.testing.assert_array_equal(karr[mask], [2.0])

    def test_views_inherit_the_guard(self, karr):
        half = karr[2:6]
        assert isinstance(half, GuardedArray)
        with pytest.raises(ExtentError):
            _ = half[-1]

    def test_sub_views_of_sub_views_stay_guarded(self):
        g = guard(np.arange(16.0).reshape(4, 4))
        row = g[1]
        block = g[1:3, ::2]
        assert isinstance(row, GuardedArray)
        assert isinstance(block, GuardedArray)
        for view in (row, block[0]):
            with pytest.raises(ExtentError):
                _ = view[-1]

    def test_vec_key_with_negative_component_rejected(self):
        from repro import Vec

        g = guard(np.arange(16.0).reshape(4, 4))
        with pytest.raises(ExtentError, match="-1"):
            _ = g[Vec(1, -1)]
        with pytest.raises(ExtentError):
            g[Vec(-2)] = 0.0
        # A non-negative Vec indexes exactly as on a plain ndarray.
        np.testing.assert_array_equal(
            g[Vec(1, 3)], np.arange(16.0).reshape(4, 4)[[1, 3]]
        )

    def test_negative_int_beside_slice_rejected(self):
        g = guard(np.zeros((4, 4)))
        with pytest.raises(ExtentError):
            _ = g[slice(0, 2), -1]
        with pytest.raises(ExtentError):
            _ = g[1, np.int64(-1)]
        with pytest.raises(ExtentError):
            g[-1, 0:2] = 1.0

    def test_repr_and_str_print_the_values(self):
        g = guard(np.arange(10.0))
        assert repr(g) == repr(np.arange(10.0))
        assert str(g) == str(np.arange(10.0))
        g2 = guard(np.arange(6.0).reshape(2, 3))
        assert str(g2) == str(np.arange(6.0).reshape(2, 3))
        assert f"{g2[1]}" == str(np.array([3.0, 4.0, 5.0]))
        # Printing must not disarm the guard.
        with pytest.raises(ExtentError):
            _ = g[-1]

    def test_oob_still_raises_index_error(self, karr):
        with pytest.raises(IndexError):
            _ = karr[99]

    def test_escape_hatch_env(self, monkeypatch):
        monkeypatch.setenv(UNGUARDED_ENV, "1")
        arr = guard(np.arange(4.0))
        assert not isinstance(arr, GuardedArray)
        assert arr[-1] == 3.0

    def test_view_subview_kernel_array_guarded(self):
        from repro.mem import ViewSubView

        acc = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(acc, 0)
        buf = mem.alloc(dev, 8)
        q = QueueBlocking(dev)
        mem.copy(q, buf, np.arange(8.0))
        sub = ViewSubView(buf, extent=4, offset=2)
        ka = sub.kernel_array(dev)
        assert isinstance(ka, GuardedArray)
        with pytest.raises(ExtentError):
            _ = ka[-1]
        buf.free()
