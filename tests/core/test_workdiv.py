"""Work divisions: construction, validation, Table 2 auto-divider."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import InvalidWorkDiv
from repro.core.properties import AccDevProps
from repro.core.vec import Vec
from repro.core.workdiv import (
    MappingStrategy,
    WorkDivMembers,
    divide_work,
    validate_work_div,
)

PROPS = AccDevProps(
    multi_processor_count=8,
    grid_block_extent_max=Vec.all(3, 1 << 20),
    block_thread_extent_max=Vec.all(3, 1024),
    thread_elem_extent_max=Vec.all(3, 1 << 20),
    block_thread_count_max=1024,
    shared_mem_size_bytes=48 * 1024,
)

SERIAL_PROPS = AccDevProps(
    multi_processor_count=1,
    grid_block_extent_max=Vec.all(3, 1 << 20),
    block_thread_extent_max=Vec.all(3, 1),
    thread_elem_extent_max=Vec.all(3, 1 << 20),
    block_thread_count_max=1,
    shared_mem_size_bytes=1 << 20,
)


class TestWorkDivMembers:
    def test_make_broadcast(self):
        wd = WorkDivMembers.make(256, 16, 1)
        assert wd.dim == 1
        assert wd.grid_block_extent == Vec(256)

    def test_make_2d(self):
        wd = WorkDivMembers.make((8, 16), (1, 1), (1, 1))
        assert wd.dim == 2
        assert wd.grid_thread_extent == Vec(8, 16)

    def test_make_int_with_vec(self):
        wd = WorkDivMembers.make(Vec(8, 16), 2, 1)
        assert wd.block_thread_extent == Vec(2, 2)

    def test_derived_counts(self):
        wd = WorkDivMembers.make((3, 4), (2, 8), (2, 2))
        assert wd.block_count == 12
        assert wd.block_thread_count == 16
        assert wd.thread_elem_count == 4
        assert wd.grid_elem_extent == Vec(12, 64)
        assert wd.grid_thread_extent == Vec(6, 32)
        assert wd.block_elem_extent == Vec(4, 16)

    def test_derived_extents_computed_once(self):
        wd = WorkDivMembers.make((3, 4), (2, 8), (2, 2))
        assert wd.grid_elem_extent is wd.grid_elem_extent
        assert wd.block_elem_extent is wd.block_elem_extent

    def test_pickle_ignores_cached_extents(self):
        import pickle

        wd = WorkDivMembers.make((3, 4), (2, 8), (2, 2))
        cold = pickle.dumps(wd)
        wd.grid_elem_extent, wd.block_count
        assert pickle.dumps(wd) == cold
        back = pickle.loads(cold)
        assert back == wd and hash(back) == hash(wd)
        assert back.grid_elem_extent == Vec(12, 64)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidWorkDiv):
            WorkDivMembers(Vec(2, 2), Vec(2), Vec(1, 1))

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidWorkDiv):
            WorkDivMembers.make(0, 1, 1)
        with pytest.raises(InvalidWorkDiv):
            WorkDivMembers.make(1, 1, -1)

    def test_paper_listing2(self):
        """Listing 2: 2-d division, grid 8x16, others 1."""
        wd = WorkDivMembers.make((8, 16), (1, 1), (1, 1))
        assert wd.block_count == 128


class TestValidate:
    def test_valid_passes(self):
        validate_work_div(WorkDivMembers.make(64, 256, 4), PROPS)

    def test_block_extent_limit(self):
        with pytest.raises(InvalidWorkDiv):
            validate_work_div(WorkDivMembers.make(1, 2048, 1), PROPS)

    def test_block_product_limit(self):
        # Per-axis fine (33*32 <= 1024 per axis) but product too big.
        wd = WorkDivMembers.make((1, 1), (64, 32), (1, 1))
        with pytest.raises(InvalidWorkDiv):
            validate_work_div(wd, PROPS)

    def test_serial_rejects_threads(self):
        with pytest.raises(InvalidWorkDiv):
            validate_work_div(WorkDivMembers.make(4, 2, 1), SERIAL_PROPS)


class TestDivideWork:
    def test_thread_level_mapping(self):
        """Table 2 thread-level row: grid = N/(B*V), block = B, elem = V."""
        wd = divide_work(
            4096, PROPS, MappingStrategy.THREAD_LEVEL,
            block_threads=16, thread_elems=4,
        )
        assert wd.grid_block_extent == Vec(64)
        assert wd.block_thread_extent == Vec(16)
        assert wd.thread_elem_extent == Vec(4)

    def test_block_level_mapping(self):
        """Table 2 block-level row: grid = N/V, block = 1, elem = V."""
        wd = divide_work(
            4096, SERIAL_PROPS, MappingStrategy.BLOCK_LEVEL, thread_elems=4
        )
        assert wd.grid_block_extent == Vec(1024)
        assert wd.block_thread_extent == Vec(1)
        assert wd.thread_elem_extent == Vec(4)

    def test_block_level_rejects_threads(self):
        with pytest.raises(InvalidWorkDiv):
            divide_work(
                64, SERIAL_PROPS, MappingStrategy.BLOCK_LEVEL, block_threads=4
            )

    def test_default_block_is_device_max(self):
        wd = divide_work(1 << 16, PROPS, MappingStrategy.THREAD_LEVEL)
        assert wd.block_thread_count == 1024

    def test_default_block_clamps_to_problem(self):
        wd = divide_work(10, PROPS, MappingStrategy.THREAD_LEVEL)
        assert wd.block_thread_count == 10

    def test_2d_extent(self):
        wd = divide_work(
            (100, 200), PROPS, MappingStrategy.THREAD_LEVEL,
            block_threads=(1, 32), thread_elems=(2, 2),
        )
        assert wd.grid_block_extent == Vec(50, 4)
        assert wd.grid_elem_extent.elementwise_le(Vec(128, 256))

    def test_non_dividing_overhang(self):
        wd = divide_work(
            1000, PROPS, MappingStrategy.THREAD_LEVEL,
            block_threads=16, thread_elems=3,
        )
        assert wd.grid_elem_extent[0] >= 1000
        assert wd.grid_elem_extent[0] < 1000 + 48  # at most one extra block

    @given(
        n=st.integers(1, 1 << 20),
        b=st.integers(1, 64),
        v=st.integers(1, 64),
    )
    def test_coverage_invariant(self, n, b, v):
        """Every division covers the problem with < one block slack."""
        wd = divide_work(
            n, PROPS, MappingStrategy.THREAD_LEVEL,
            block_threads=min(b, 1024), thread_elems=v,
        )
        covered = wd.grid_elem_extent[0]
        per_block = wd.block_thread_count * wd.thread_elem_count
        assert covered >= n
        assert covered - n < per_block

    @given(n=st.integers(1, 1 << 20), v=st.integers(1, 256))
    def test_block_level_invariants(self, n, v):
        wd = divide_work(
            n, SERIAL_PROPS, MappingStrategy.BLOCK_LEVEL, thread_elems=v
        )
        assert wd.block_thread_count == 1
        assert wd.grid_elem_extent[0] >= n


CUDA_SIM_PROPS = AccDevProps(
    multi_processor_count=13,
    grid_block_extent_max=Vec(65535, 65535, (1 << 31) - 1),
    block_thread_extent_max=Vec(64, 1024, 1024),
    thread_elem_extent_max=Vec.all(3, 1 << 20),
    block_thread_count_max=1024,
    shared_mem_size_bytes=48 * 1024,
)


class TestDivideWorkDegenerate:
    """Regression: extents that used to produce divisions
    ``validate_work_div`` rejects (zero extents raised the wrong error;
    narrow 2-d extents overflowed the per-axis grid limit because the
    default block filled only the fastest axis)."""

    @pytest.mark.parametrize("extent", [0, (0,), (4, 0), (0, 0), (1, 0, 8)])
    def test_zero_extent_raises_invalid_work_div(self, extent):
        with pytest.raises(InvalidWorkDiv):
            divide_work(extent, PROPS, MappingStrategy.THREAD_LEVEL)

    @pytest.mark.parametrize(
        "extent",
        [
            (1 << 20, 1),
            (1 << 20, 2),
            (70000, 3),
            (1, 1 << 20),
            (65536, 1),
            (1 << 22, 1, 1),
        ],
    )
    @pytest.mark.parametrize(
        "mapping", [MappingStrategy.THREAD_LEVEL, MappingStrategy.BLOCK_LEVEL]
    )
    def test_narrow_extents_validate_on_cuda_sim(self, extent, mapping):
        props = CUDA_SIM_PROPS.for_dim(len(extent))
        wd = divide_work(extent, props, mapping)
        validate_work_div(wd, props)
        # Full coverage of the problem.
        for a in range(len(extent)):
            assert wd.grid_elem_extent[a] >= extent[a]

    @pytest.mark.parametrize("extent", [1, (1, 1), (1, 1, 1), (7, 1), (1, 7)])
    def test_tiny_extents_all_mappings(self, extent):
        for props in (PROPS, SERIAL_PROPS, CUDA_SIM_PROPS):
            p = props.for_dim(len(extent) if not isinstance(extent, int) else 1)
            for mapping in (
                MappingStrategy.THREAD_LEVEL,
                MappingStrategy.BLOCK_LEVEL,
            ):
                wd = divide_work(extent, p, mapping)
                validate_work_div(wd, p)

    @given(
        h=st.integers(1, 1 << 21),
        w=st.integers(1, 64),
    )
    def test_fuzz_2d_cuda_sim_always_valid(self, h, w):
        props = CUDA_SIM_PROPS.for_dim(2)
        for mapping in (
            MappingStrategy.THREAD_LEVEL,
            MappingStrategy.BLOCK_LEVEL,
        ):
            wd = divide_work((h, w), props, mapping)
            validate_work_div(wd, props)
            assert wd.grid_elem_extent[0] >= h
            assert wd.grid_elem_extent[1] >= w


class TestAutoWorkDiv:
    def test_holds_extent_and_dim(self):
        from repro.core.workdiv import AutoWorkDiv

        a = AutoWorkDiv(Vec(8, 8))
        assert a.extent == Vec(8, 8)
        assert a.dim == 2

    def test_coerces_sequences(self):
        from repro.core.workdiv import AutoWorkDiv

        assert AutoWorkDiv((4, 4)).extent == Vec(4, 4)
        assert AutoWorkDiv(16).extent == Vec(16)

    def test_rejects_nonpositive(self):
        from repro.core.workdiv import AutoWorkDiv

        with pytest.raises(InvalidWorkDiv):
            AutoWorkDiv((4, 0))

    def test_hashable_and_distinct_by_extent(self):
        from repro.core.workdiv import AutoWorkDiv

        a, b = AutoWorkDiv((8, 8)), AutoWorkDiv((16, 16))
        assert a != b
        assert len({a, b, AutoWorkDiv((8, 8))}) == 2

    def test_auto_strategy_returns_concrete_division(self):
        wd = divide_work((32, 32), PROPS, MappingStrategy.AUTO)
        assert isinstance(wd, WorkDivMembers)
        validate_work_div(wd, PROPS.for_dim(2))
