"""Exact arithmetic core: star-shaped types, dimension vectors, and the
Ringel bilinear form.

Everything here works over arbitrary-precision integers and `fractions.Fraction`
(imported where a Fraction is made); no value is ever rounded.  A type is the
sequence of arm lengths ``(m_1, ..., m_n)``; the vertex set consists of the
source vertex ``0``, the sink vertex ``inf`` and the interior arm vertices
``(i, j)`` with ``j in [1, m_i - 1]``.  Dimension vectors store interior
coordinates only; the boundary values ``d_{i,0} = d_0`` and
``d_{i,m_i} = d_inf`` are views, so the usual index convention cannot drift
out of sync.

This module alone owns the vertex layout.  Each arm is read as its vertex path
``0, (i,1), ..., (i,m_i-1), inf``: ``DimVector.chains`` gives the values along
it, ``entries`` and ``DimVector.from_entries`` are the flat order and its
inverse, and ``CanonicalType.chain_index`` says which flat index each vertex
of a path has.  Every other module reads vectors through these.  The hot
readers (the form, the shape test, ``DimVector.entry`` and the cone tests
``cones.in_P``/``in_Q``) read the stored ``d0``, ``dinf`` and ``arms`` instead,
building no per-arm tuple; ``chains`` is the view for everything else.

The package's value classes derive from ``_Value``, a few lines of plain
Python, because the standard library's class generator imports ``inspect``,
``ast`` and ``dis``, which cost a level query more time than its answer.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import pairwise
from math import lcm, prod
from operator import attrgetter, index as _index, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class _Value:
    """Base of a value class whose fields ``_fields`` names: ``==`` and
    ``hash`` over the field tuple, ``repr`` as ``Name(field=value, ...)``, and
    no assignment after ``__init__``, which sets the fields through ``_set``
    (or ``object.__setattr__``).  A subclass that is not to be hashed sets
    ``__hash__ = None``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # an attrgetter of two or more names gives the field tuple
        get = attrgetter(*cls._fields)
        cls._astuple = get if len(cls._fields) > 1 else staticmethod(lambda x: (get(x),))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._astuple
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)


class CanonicalType(_Value):
    """Arm-length sequence of a canonical algebra, with derived invariants.
    A length that is not an integer (a float, a Fraction, a string) raises
    TypeError.  No ``__slots__``: the cached properties keep their values in
    ``__dict__``."""

    _fields = ("m",)

    def __init__(self, m: tuple[int, ...]) -> None:
        m = tuple(map(_index, m))
        self._set(m)
        if len(m) < 3:
            raise ValueError(f"need at least 3 arms, got {len(m)}")
        if any(x < 2 for x in m):
            raise ValueError(f"every arm length must be >= 2, got {m}")

    @classmethod
    def parse(cls, text: str) -> "CanonicalType":
        try:
            arms = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed type string {text!r}") from None
        return cls(arms)

    @property
    def n(self) -> int:
        return len(self.m)

    @cached_property
    def total(self) -> int:
        """Sum of the arm lengths |m|."""
        return sum(self.m)

    @cached_property
    def lcm(self) -> int:
        return lcm(*self.m)

    @cached_property
    def product(self) -> int:
        return prod(self.m)

    @cached_property
    def sum_reciprocals(self) -> Fraction:
        from fractions import Fraction  # here, so the level queries never load it
        return sum((Fraction(1, mi) for mi in self.m), Fraction(0))

    @cached_property
    def delta(self) -> Fraction:
        """The invariant (n - 2 - sum 1/m_i) / 2 controlling representation type."""
        return (self.n - 2 - self.sum_reciprocals) / 2

    @property
    def vertex_count(self) -> int:
        return 2 + self.total - self.n

    @cached_property
    def chain_index(self) -> tuple[tuple[int, ...], ...]:
        """Per arm, the index in ``DimVector.entries`` order of each vertex of
        its path: 0 for the source, 1 for the sink, the interior in between."""
        out, pos = [], 2
        for mi in self.m:
            out.append((0, *range(pos, pos + mi - 1), 1))
            pos += mi - 1
        return tuple(out)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """The interior length m_i - 1 of each arm: ``len`` of each of a
        fitting vector's ``arms``."""
        return tuple(mi - 1 for mi in self.m)

    def arm_length(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"arm index {i} out of range for {self}")
        return self.m[i - 1]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.m)


class DimVector(_Value):
    """Integer vector on the star-shaped vertex set.

    ``arms[i-1]`` holds the interior values ``(d_{i,1}, ..., d_{i,m_i-1})``;
    ``chains()[i-1]`` is the whole arm ``(d0, d_{i,1}, ..., d_{i,m_i-1}, dinf)``,
    so ``entry(i, 0)`` and ``entry(i, m_i)`` resolve to ``d0`` and ``dinf``.
    A coordinate that is not an integer raises TypeError, as in ``__mul__``.
    """

    __slots__ = _fields = ("d0", "dinf", "arms")

    def __init__(self, d0: int, dinf: int, arms: tuple[tuple[int, ...], ...]) -> None:
        arms = tuple(tuple(map(_index, a)) for a in arms)
        self._set(_index(d0), _index(dinf), arms)

    @classmethod
    def from_entries(cls, t: CanonicalType, flat: Iterable[int]) -> "DimVector":
        """Inverse of ``entries``: the vector of type t with these coordinates.
        Raises ValueError unless there is one per vertex of t."""
        flat = tuple(flat)
        if len(flat) != t.vertex_count:
            raise ValueError(f"{len(flat)} entries do not fit type {t}, "
                             f"which has {t.vertex_count} vertices")
        # each arm's interior indices are consecutive
        return cls(flat[0], flat[1], [flat[index[1]:index[-2] + 1] for index in t.chain_index])

    def chains(self) -> list[tuple[int, ...]]:
        """Each arm as the values along its vertex path, from d0 to dinf.
        A view built on each call, for readers off the hot path."""
        d0, dinf = self.d0, self.dinf
        return [(d0, *arm, dinf) for arm in self.arms]

    def entry(self, i: int, j: int) -> int:
        """Coordinate at arm vertex (i, j), i in [1, n] and j in [0, m_i]."""
        if not 1 <= i <= len(self.arms) or not 0 <= j <= len(self.arms[i - 1]) + 1:
            raise ValueError(f"vertex ({i},{j}) out of range")
        arm = self.arms[i - 1]
        if j == 0:
            return self.d0
        return self.dinf if j == len(arm) + 1 else arm[j - 1]

    def entries(self) -> Iterator[int]:
        """All coordinates, one per vertex: d0, dinf, then interior values."""
        yield self.d0
        yield self.dinf
        for arm in self.arms:
            yield from arm

    def matches(self, t: CanonicalType) -> bool:
        return tuple(map(len, self.arms)) == t.shape

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries())

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.entries())

    def sort_key(self) -> tuple:
        return (self.d0, self.dinf, self.arms)

    def __add__(self, other: "DimVector") -> "DimVector":
        return _normalised(self.d0 + other.d0, self.dinf + other.dinf,
                           tuple(tuple(x + y for x, y in zip(a, b, strict=True))
                                 for a, b in zip(self.arms, other.arms, strict=True)))

    def __sub__(self, other: "DimVector") -> "DimVector":
        return _normalised(self.d0 - other.d0, self.dinf - other.dinf,
                           tuple(tuple(x - y for x, y in zip(a, b, strict=True))
                                 for a, b in zip(self.arms, other.arms, strict=True)))

    def __mul__(self, c: int) -> "DimVector":
        """The vector times an integer scalar; any other scalar, a Fraction or
        a float included, raises TypeError rather than be truncated."""
        c = _index(c)
        return _normalised(c * self.d0, c * self.dinf,
                           tuple(tuple(c * x for x in a) for a in self.arms))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_dim_vector(self)


def _normalised(d0: int, dinf: int, arms: tuple[tuple[int, ...], ...]) -> DimVector:
    """The DimVector of coordinates that are ints already, as the operators'
    results are, built without __init__'s normalising pass; the fields are
    set one by one, not through ``_set``'s loop, as vector arithmetic is hot."""
    new = object.__new__(DimVector)
    object.__setattr__(new, "d0", d0)
    object.__setattr__(new, "dinf", dinf)
    object.__setattr__(new, "arms", arms)
    return new


def _check_shape(t: CanonicalType, *vectors: DimVector) -> None:
    for d in vectors:
        if not d.matches(t):
            raise ValueError(f"dimension vector {d!r} does not fit type {t}")


def zero_vector(t: CanonicalType) -> DimVector:
    return DimVector(0, 0, tuple(tuple(0 for _ in range(mi - 1)) for mi in t.m))


@cache
def basis_h(t: CanonicalType) -> DimVector:
    """The vector with every coordinate equal to 1, one shared instance per
    type (DimVector is frozen)."""
    return DimVector(1, 1, tuple(tuple(1 for _ in range(mi - 1)) for mi in t.m))


def basis_e0(t: CanonicalType) -> DimVector:
    """Unit vector at the source vertex 0."""
    return DimVector(1, 0, tuple(tuple(0 for _ in range(mi - 1)) for mi in t.m))


def basis_einf(t: CanonicalType) -> DimVector:
    """Unit vector at the sink vertex inf."""
    return DimVector(0, 1, tuple(tuple(0 for _ in range(mi - 1)) for mi in t.m))


@cache
def basis_e(t: CanonicalType, i: int, j: int) -> DimVector:
    """Basis vector e_{i,j} for j in [0, m_i - 1].

    For interior j this is the unit vector at vertex (i, j); for j = 0 it is
    h - (e_{i,1} + ... + e_{i,m_i-1}), the dimension vector of the remaining
    simple object of the i-th exceptional tube.  Kept per (t, i, j): the
    vector is frozen, and a bad index raises, which is never kept.
    """
    mi = t.arm_length(i)
    if not 0 <= j <= mi - 1:
        raise ValueError(f"index j={j} out of range [0, {mi - 1}] on arm {i}")
    if j == 0:
        arms = tuple(tuple(0 if k == i else 1 for _ in range(mj - 1))
                     for k, mj in enumerate(t.m, start=1))
        return DimVector(1, 1, arms)
    arms = [[0] * (mj - 1) for mj in t.m]
    arms[i - 1][j - 1] = 1
    return DimVector(0, 0, tuple(tuple(a) for a in arms))


def slope_one_vector(t: CanonicalType, ls: Sequence[int]) -> DimVector:
    """The vector e(l_1, ..., l_n) = e_0 + sum over arms of e_{i,1} + ... + e_{i,l_i}."""
    if len(ls) != t.n:
        raise ValueError(f"expected {t.n} arm offsets, got {len(ls)}")
    arms = []
    for li, mi in zip(ls, t.m):
        if not 0 <= li <= mi - 1:
            raise ValueError(f"offset {li} out of range [0, {mi - 1}]")
        arms.append(tuple(1 if j <= li else 0 for j in range(1, mi)))
    return DimVector(1, 0, tuple(arms))


def euler_form(t: CanonicalType, d1: DimVector, d2: DimVector) -> int:
    """The Ringel bilinear form <d1, d2>, exact over the integers.  Raises
    ValueError unless both vectors fit t."""
    n = len(t.m)
    if len(d1.arms) != n or len(d2.arms) != n:
        _check_shape(t, d1, d2)
    y0, xinf = d2.d0, d1.dinf
    total = d1.d0 * y0 + xinf * d2.dinf + (n - 2) * xinf * y0
    # per arm: the interior products d1_{i,j} * d2_{i,j}, less
    # d1_{i,j} * d2_{i,j-1} for each arrow (i, j), j in [1, m_i]; the arrows
    # (i, 1) and (i, m_i) reach d2's d0 and d1's dinf (interior arms are
    # never empty, as m_i >= 2)
    for k, a, b in zip(t.shape, d1.arms, d2.arms):
        if len(a) != k or len(b) != k:
            _check_shape(t, d1, d2)
        total += (sum(map(mul, a, b)) - sum(map(mul, a[1:], b))
                  - a[0] * y0 - xinf * b[-1])
    return total


def euler_quadratic(t: CanonicalType, d: DimVector) -> int:
    return euler_form(t, d, d)


def quadratic_via_decomposition(t: CanonicalType, d: DimVector) -> Fraction:
    """<d, d> computed through the sum-of-squares decomposition.

    Shifts d by -dinf*h (which leaves the quadratic value unchanged) and
    evaluates -delta*d0'^2 plus, along each arm, the squares
    ((k + 1)*d'_{i,j} - k*d'_{i,j-1})^2 over 2k(k + 1) with k = m_i - j,
    summed as integers over their lcm.  Must agree exactly with
    euler_quadratic on every integer vector.
    """
    from fractions import Fraction
    _check_shape(t, d)
    dinf = d.dinf
    s = d.d0 - dinf
    total = -t.delta * s * s
    for mi, chain in zip(t.m, d.chains()):
        big = lcm(*(2 * k * (k + 1) for k in range(1, mi)))
        num = sum(big // (2 * k * (k + 1)) * ((k + 1) * (x - dinf) - k * (y - dinf)) ** 2
                  for k, y, x in zip(range(mi - 1, 0, -1), chain, chain[1:]))
        total += Fraction(num, big)
    return total


def quadratic_lower_bound(t: CanonicalType, d: DimVector) -> tuple[Fraction, bool]:
    """Lower bound -delta*(d0 - dinf)^2 for <d, d>, and whether it is attained.

    The bound is tight exactly when every interior coordinate equals the
    weighted average ((m_i - j)*d0 + j*dinf) / m_i.
    """
    _check_shape(t, d)
    s = d.d0 - d.dinf
    bound = -t.delta * s * s
    tight = all(
        (mi - j) * d.d0 + j * d.dinf == mi * x
        for mi, arm in zip(t.m, d.arms)
        for j, x in enumerate(arm, start=1))
    return bound, tight


def gl_dim(t: CanonicalType, d: DimVector) -> int:
    """Dimension of the product of general linear groups GL(d)."""
    _check_shape(t, d)
    return sum(x * x for x in d.entries())


def a_dim(t: CanonicalType, d: DimVector) -> int:
    """Expected dimension a(d) = dim A(d) - (n - 2) d0 dinf of the module variety.

    dim A(d) sums d_{i,j-1} * d_{i,j} over all arrows.  Equals
    gl_dim(d) - <d, d> identically.
    """
    _check_shape(t, d)
    if not d.is_nonnegative():
        raise ValueError(f"a_dim needs a nonnegative vector, got {d}")
    total = sum(a * b for chain in d.chains() for a, b in pairwise(chain))
    return total - (t.n - 2) * d.d0 * d.dinf


def format_dim_vector(d: DimVector) -> str:
    """Render as ``d0;arm1/arm2/.../armN;dinf`` with comma-separated arm entries."""
    arms = "/".join(",".join(str(x) for x in a) for a in d.arms)
    return f"{d.d0};{arms};{d.dinf}"


def parse_dim_vector(text: str) -> DimVector:
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"malformed dimension vector {text!r}")
    try:
        d0 = int(parts[0])
        dinf = int(parts[2])
        arms = tuple(tuple(int(x) for x in armtext.split(","))
                     for armtext in parts[1].split("/"))
    except ValueError:
        raise ValueError(f"malformed dimension vector {text!r}") from None
    return DimVector(d0, dinf, arms)
