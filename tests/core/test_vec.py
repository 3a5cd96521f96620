"""Vec: construction, arithmetic, reductions, and algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import DimensionError
from repro.core.vec import MAX_DIM, Vec, as_vec, vec1, vec2, vec3

dims = st.integers(min_value=1, max_value=4)
components = st.integers(min_value=-(10**6), max_value=10**6)


def vecs(dim=None):
    d = st.just(dim) if dim else dims
    return d.flatmap(
        lambda n: st.lists(components, min_size=n, max_size=n).map(
            lambda c: Vec(*c)
        )
    )


class TestConstruction:
    def test_from_components(self):
        assert Vec(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_from_sequence(self):
        assert Vec((4, 5)) == Vec(4, 5)
        assert Vec.from_iterable(range(3)) == Vec(0, 1, 2)

    def test_all_zeros_ones(self):
        assert Vec.all(3, 7) == Vec(7, 7, 7)
        assert Vec.zeros(2) == Vec(0, 0)
        assert Vec.ones(2) == Vec(1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Vec()

    def test_too_many_dims_rejected(self):
        with pytest.raises(DimensionError):
            Vec(*range(MAX_DIM + 1))
        with pytest.raises(DimensionError):
            Vec.all(MAX_DIM + 1, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(DimensionError):
            Vec(1.5, 2)
        with pytest.raises(DimensionError):
            Vec("a")

    def test_numpy_ints_accepted(self):
        import numpy as np

        v = Vec(np.int64(3), np.int32(4))
        assert v == Vec(3, 4)
        assert all(isinstance(c, int) for c in v)

    def test_fixed_arity_constructors(self):
        assert vec1(5).dim == 1
        assert vec2(1, 2).dim == 2
        assert vec3(1, 2, 3).dim == 3
        with pytest.raises(DimensionError):
            vec2(1, 2, 3)

    def test_as_vec(self):
        assert as_vec(5) == Vec(5)
        assert as_vec(5, dim=3) == Vec(5, 5, 5)
        assert as_vec([1, 2]) == Vec(1, 2)
        assert as_vec(Vec(1, 2)) == Vec(1, 2)
        with pytest.raises(DimensionError):
            as_vec([1, 2], dim=3)


class TestArithmetic:
    def test_elementwise_ops(self):
        a, b = Vec(6, 8), Vec(2, 3)
        assert a + b == Vec(8, 11)
        assert a - b == Vec(4, 5)
        assert a * b == Vec(12, 24)
        assert a // b == Vec(3, 2)
        assert a % b == Vec(0, 2)

    def test_int_broadcast(self):
        assert Vec(1, 2) + 1 == Vec(2, 3)
        assert 2 * Vec(1, 2) == Vec(2, 4)
        assert 10 - Vec(1, 2) == Vec(9, 8)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Vec(1, 2) + Vec(1, 2, 3)

    def test_non_int_operand_rejected(self):
        import numpy as np

        for other in (1.5, np.int64(2), (1, 2), "x"):
            with pytest.raises(DimensionError):
                Vec(1, 2) * other

    def test_results_are_plain_int_vecs(self):
        r = Vec(7, -3) // Vec(2, 2)
        assert r == Vec(3, -2)
        assert all(type(c) is int for c in r)
        assert hash(r) == hash(Vec(3, -2))

    def test_zeros_shared_per_dim(self):
        assert Vec.zeros(3) is Vec.zeros(3)
        assert Vec.zeros(3) == Vec(0, 0, 0)
        assert Vec.zeros(2) != Vec.zeros(3)

    def test_ceil_div(self):
        assert Vec(10, 16).ceil_div(Vec(3, 4)) == Vec(4, 4)
        assert Vec(12).ceil_div(4) == Vec(3)
        assert Vec(1).ceil_div(100) == Vec(1)

    def test_min_max(self):
        assert Vec(1, 5).min(Vec(3, 2)) == Vec(1, 2)
        assert Vec(1, 5).max(3) == Vec(3, 5)

    @given(vecs(2), vecs(2))
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vecs(3))
    def test_additive_identity(self, a):
        assert a + Vec.zeros(3) == a
        assert a * Vec.ones(3) == a

    @given(vecs(2), vecs(2), vecs(2))
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(vecs())
    def test_ceil_div_covers(self, a):
        """ceil_div(b) * b >= a componentwise, for positive a, b."""
        a = Vec(*(abs(c) + 1 for c in a))
        b = Vec.all(a.dim, 3)
        q = a.ceil_div(b)
        assert all(qq * 3 >= aa for qq, aa in zip(q, a))
        assert all((qq - 1) * 3 < aa for qq, aa in zip(q, a))


class TestReductionsPredicates:
    def test_prod_sum(self):
        assert Vec(2, 3, 4).prod() == 24
        assert Vec(2, 3, 4).sum() == 9

    def test_elementwise_lt_le(self):
        assert Vec(1, 2).elementwise_lt(Vec(2, 3))
        assert not Vec(1, 3).elementwise_lt(Vec(2, 3))
        assert Vec(2, 3).elementwise_le(Vec(2, 3))

    def test_assertions(self):
        Vec(0, 1).assert_non_negative()
        with pytest.raises(DimensionError):
            Vec(-1, 1).assert_non_negative()
        Vec(1, 1).assert_positive()
        with pytest.raises(DimensionError):
            Vec(0, 1).assert_positive()


class TestShapeManipulation:
    def test_with_component(self):
        assert Vec(1, 2, 3).with_component(1, 9) == Vec(1, 9, 3)

    def test_prepend_drop(self):
        assert Vec(2, 3).prepend(1) == Vec(1, 2, 3)
        assert Vec(1, 2, 3).drop_first() == Vec(2, 3)
        with pytest.raises(DimensionError):
            Vec(1).drop_first()

    def test_reversed(self):
        assert Vec(1, 2, 3).reversed() == Vec(3, 2, 1)


class TestProtocol:
    def test_iteration_indexing(self):
        v = Vec(4, 5, 6)
        assert list(v) == [4, 5, 6]
        assert v[0] == 4 and v[-1] == 6
        assert len(v) == 3

    def test_hash_eq(self):
        assert hash(Vec(1, 2)) == hash(Vec(1, 2))
        assert Vec(1, 2) == (1, 2)
        assert Vec(1, 2) != Vec(2, 1)
        assert {Vec(1, 2): "a"}[Vec(1, 2)] == "a"

    def test_repr(self):
        assert repr(Vec(1, 2)) == "Vec(1, 2)"
