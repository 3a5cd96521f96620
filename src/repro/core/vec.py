"""N-dimensional extent/index vectors.

Alpaka models every level of its parallelism hierarchy as an
*n*-dimensional box, so nearly every API in the library passes around
small integer vectors: grid extents, block extents, thread indices,
buffer extents, pitches.  This module provides the Python analogue of
``alpaka::Vec<Dim, Size>``.

Conventions
-----------
* A :class:`Vec` is immutable and behaves like a tuple of Python ints.
* Index ``0`` is the **slowest varying** (outermost) dimension, matching
  numpy shape order.  Linearisation (:func:`repro.core.index.map_idx`)
  is therefore C-order, exactly like CUDA's
  ``(z * dimY + y) * dimX + x`` with reversed naming.
* Dimensionalities 1..4 get the aliases ``Dim1`` .. ``Dim4``; any
  positive dimensionality works.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DimensionError

__all__ = [
    "Vec",
    "Dim1",
    "Dim2",
    "Dim3",
    "Dim4",
    "vec1",
    "vec2",
    "vec3",
]

#: Maximum dimensionality accepted by the library.  Alpaka is unlimited in
#: principle; we bound it to catch accidental misuse (e.g. passing a whole
#: data array where an extent was meant).
MAX_DIM = 16

Dim1 = 1
Dim2 = 2
Dim3 = 3
Dim4 = 4

_IntLike = Union[int, "Vec"]


class Vec:
    """An immutable n-dimensional vector of non-negative-ish integers.

    ``Vec`` supports elementwise arithmetic with other ``Vec`` of the
    same dimensionality and with plain ints (broadcast)::

        >>> Vec(2, 3) * Vec(4, 5)
        Vec(8, 15)
        >>> Vec(2, 3) + 1
        Vec(3, 4)

    Components may be any Python ints (negative values are allowed so
    that index arithmetic like ``idx - 1`` works at domain borders); use
    :meth:`assert_non_negative` where the API requires extents.
    """

    __slots__ = ("_c",)

    def __init__(self, *components: int):
        if len(components) == 1 and isinstance(components[0], (tuple, list)):
            components = tuple(components[0])
        if not components:
            raise DimensionError("Vec needs at least one component")
        if len(components) > MAX_DIM:
            raise DimensionError(
                f"Vec dimensionality {len(components)} exceeds MAX_DIM={MAX_DIM}"
            )
        try:
            self._c = tuple(operator.index(c) for c in components)
        except TypeError as exc:
            raise DimensionError(
                f"Vec components must be integers, got {components!r}"
            ) from exc

    # -- constructors -------------------------------------------------

    @classmethod
    def all(cls, dim: int, value: int) -> "Vec":
        """A vector of ``dim`` copies of ``value`` (alpaka ``Vec::all``)."""
        if dim < 1 or dim > MAX_DIM:
            raise DimensionError(f"dimensionality must be in [1, {MAX_DIM}], got {dim}")
        return cls(*([value] * dim))

    @classmethod
    def zeros(cls, dim: int) -> "Vec":
        """The origin of ``dim`` dimensions; one shared (immutable)
        instance per dimensionality."""
        z = _ZEROS.get(dim)
        if z is None:
            z = _ZEROS.setdefault(dim, cls.all(dim, 0))
        return z

    @classmethod
    def ones(cls, dim: int) -> "Vec":
        return cls.all(dim, 1)

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "Vec":
        return cls(*tuple(it))

    # -- basic protocol ------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the vector."""
        return len(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __iter__(self) -> Iterator[int]:
        return iter(self._c)

    def __getitem__(self, i) -> int:
        return self._c[i]

    def __hash__(self) -> int:
        return hash(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Vec):
            return self._c == other._c
        if isinstance(other, (tuple, list)):
            return self._c == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Vec({', '.join(map(str, self._c))})"

    def as_tuple(self) -> tuple:
        return self._c

    # -- elementwise arithmetic ---------------------------------------

    def _coerce(self, other: _IntLike) -> "Vec":
        if isinstance(other, Vec):
            if other.dim != self.dim:
                raise DimensionError(
                    f"dimensionality mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, int):
            return Vec.all(self.dim, other)
        raise DimensionError(f"cannot combine Vec with {type(other).__name__}")

    def _zip(self, other: _IntLike, op: Callable[[int, int], int]) -> "Vec":
        c = self._c
        if type(other) is Vec:
            oc = other._c
            if len(oc) != len(c):
                raise DimensionError(
                    f"dimensionality mismatch: {len(c)} vs {len(oc)}"
                )
        elif type(other) is int:
            oc = (other,) * len(c)
        else:
            oc = self._coerce(other)._c
        # Both operands are validated int tuples of one dimensionality,
        # so the result skips the constructor's re-validation.
        v = object.__new__(Vec)
        v._c = tuple(map(op, c, oc))
        return v

    def __add__(self, other):
        return self._zip(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __rsub__(self, other):
        return self._coerce(other)._zip(self, operator.sub)

    def __mul__(self, other):
        return self._zip(other, operator.mul)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._zip(other, operator.floordiv)

    def __mod__(self, other):
        return self._zip(other, operator.mod)

    def ceil_div(self, other: _IntLike) -> "Vec":
        """Elementwise ceiling division — the work-division staple for
        computing how many blocks cover an extent."""
        o = self._coerce(other)
        return Vec(*(-(-a // b) for a, b in zip(self._c, o._c)))

    def min(self, other: _IntLike) -> "Vec":
        return self._zip(other, min)

    def max(self, other: _IntLike) -> "Vec":
        return self._zip(other, max)

    # -- reductions & predicates --------------------------------------

    def prod(self) -> int:
        """Product of all components, i.e. the element count of the box."""
        return math.prod(self._c)

    def sum(self) -> int:
        return sum(self._c)

    def all_components(self, pred: Callable[[int], bool]) -> bool:
        return all(pred(c) for c in self._c)

    def elementwise_lt(self, other: _IntLike) -> bool:
        """True when every component is strictly below ``other``'s.

        This is the in-bounds test a kernel performs before touching
        data, so it gets a named method instead of overloading ``<``
        (which would be ambiguous between lexicographic and elementwise
        semantics).
        """
        o = self._coerce(other)
        return all(a < b for a, b in zip(self._c, o._c))

    def elementwise_le(self, other: _IntLike) -> bool:
        o = self._coerce(other)
        return all(a <= b for a, b in zip(self._c, o._c))

    def assert_non_negative(self, what: str = "extent") -> "Vec":
        if any(c < 0 for c in self._c):
            raise DimensionError(f"{what} must be non-negative, got {self!r}")
        return self

    def assert_positive(self, what: str = "extent") -> "Vec":
        if any(c <= 0 for c in self._c):
            raise DimensionError(f"{what} must be positive, got {self!r}")
        return self

    # -- shape manipulation --------------------------------------------

    def with_component(self, i: int, value: int) -> "Vec":
        c = list(self._c)
        c[i] = operator.index(value)
        return Vec(*c)

    def prepend(self, value: int) -> "Vec":
        return Vec(value, *self._c)

    def drop_first(self) -> "Vec":
        if self.dim == 1:
            raise DimensionError("cannot drop the only component of a 1-d Vec")
        return Vec(*self._c[1:])

    def reversed(self) -> "Vec":
        return Vec(*reversed(self._c))


#: dim -> the shared zero Vec handed out by :meth:`Vec.zeros`.
_ZEROS: dict = {}


def _vec_ctor(dim: int) -> Callable[..., Vec]:
    def ctor(*components: int) -> Vec:
        if len(components) != dim:
            raise DimensionError(f"expected {dim} components, got {len(components)}")
        return Vec(*components)

    ctor.__name__ = f"vec{dim}"
    ctor.__doc__ = f"Construct a {dim}-dimensional :class:`Vec`."
    return ctor


vec1 = _vec_ctor(1)
vec2 = _vec_ctor(2)
vec3 = _vec_ctor(3)


def as_vec(value: Union[int, Sequence[int], Vec], dim: int | None = None) -> Vec:
    """Coerce ``value`` to a :class:`Vec`.

    ``int`` becomes a 1-d vector unless ``dim`` is given, in which case
    it broadcasts to all components.  Sequences convert directly;
    a dimensionality mismatch with an explicit ``dim`` raises.
    """
    if isinstance(value, Vec):
        v = value
    elif isinstance(value, int):
        v = Vec.all(dim, value) if dim is not None else Vec(value)
    else:
        v = Vec.from_iterable(value)
    if dim is not None and v.dim != dim:
        raise DimensionError(f"expected dimensionality {dim}, got {v.dim}")
    return v
