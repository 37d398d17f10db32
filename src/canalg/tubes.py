"""Combinatorial model of the exceptional tubes.

The regular simples of the i-th exceptional tube are indexed by
j in [0, m_i - 1] with dimension vectors e_{i,j}.  A tube indecomposable is
determined by its arm, socle index and quasi-length; composition factors read
socle upward with indices increasing mod m_i.  Hom dimensions between tube
modules follow the serial-category rule: maps are determined by a common
"middle" segment that is a quotient of the source and a submodule of the
target, one dimension per admissible segment length.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Union

from .forms import CanonicalType, DimVector, _Value


class TubeIndec(_Value):
    """Indecomposable in an exceptional tube: arm index, socle index, quasi-length."""

    __slots__ = _fields = ("arm", "socle", "qlen")

    def __init__(self, arm: int, socle: int, qlen: int) -> None:
        if arm < 1:
            raise ValueError(f"arm index must be >= 1, got {arm}")
        if socle < 0:
            raise ValueError(f"socle index must be >= 0, got {socle}")
        if qlen < 1:
            raise ValueError(f"quasi-length must be >= 1, got {qlen}")
        self._set(arm, socle, qlen)

    def check_against(self, t: CanonicalType) -> None:
        mi = t.arm_length(self.arm)
        if self.socle >= mi:
            raise ValueError(f"socle index {self.socle} out of range for arm "
                             f"{self.arm} of {t}")

    def sort_key(self) -> tuple[int, int, int]:
        return (self.arm, self.socle, self.qlen)

    def __str__(self) -> str:
        return f"{self.arm}:{self.socle}:{self.qlen}"


def parse_tube_indec(text: str) -> TubeIndec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"malformed tube module {text!r}")
    i, a, l = (int(x) for x in parts)
    return TubeIndec(i, a, l)


class RegularModuleClass(_Value):
    """Isomorphism class of a direct sum of exceptional-tube indecomposables."""

    __slots__ = _fields = ("members",)

    def __init__(self, members: tuple[TubeIndec, ...]) -> None:
        self._set(tuple(sorted(members, key=TubeIndec.sort_key)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "+".join(str(x) for x in self.members)


def parse_regular_class(text: str) -> RegularModuleClass:
    if not text:
        return RegularModuleClass(())
    return RegularModuleClass(tuple(parse_tube_indec(part) for part in text.split("+")))


ClassLike = Union[TubeIndec, RegularModuleClass, Iterable[TubeIndec]]


def _members(xs: ClassLike) -> tuple[TubeIndec, ...]:
    if isinstance(xs, TubeIndec):
        return (xs,)
    if isinstance(xs, RegularModuleClass):
        return xs.members
    return tuple(xs)


def top_index(t: CanonicalType, x: TubeIndec) -> int:
    """Index of the top composition factor: socle + qlen - 1 mod the tube rank."""
    x.check_against(t)
    return (x.socle + x.qlen - 1) % t.arm_length(x.arm)


def dim_vector(t: CanonicalType, xs: ClassLike) -> DimVector:
    """Sum of e_{i,j} over all composition factors of all members.

    A member (i, a, l) with l = q*m_i + r has c_j = q + [(j - a) mod m_i < r]
    factors of index j.  Its vector is c_0 at 0, at inf and at every vertex
    off arm i (from e_{i,0}), and c_j at (i, j).  Each member marks its q and
    the two ends of its cyclic run [a, a + r) on its arm; one running sum per
    arm then gives the sum of the c_j, so the cost is linear in the members
    and in |m|.
    """
    marks = [[0] * mi for mi in t.m]
    for x in _members(xs):
        x.check_against(t)
        mark = marks[x.arm - 1]
        q, r = divmod(x.qlen, len(mark))
        end = x.socle + r
        mark[0] += q + (end >= len(mark))  # a run that wraps also covers 0
        mark[x.socle] += 1
        mark[end % len(mark)] -= 1
    counts = [tuple(accumulate(mark)) for mark in marks]
    ends = sum(c[0] for c in counts)  # the sum of the members' c_0
    return DimVector(ends, ends, tuple(tuple(ends + v - c[0] for v in c[1:]) for c in counts))


def hom_dim_tube(t: CanonicalType, x: TubeIndec, y: TubeIndec) -> int:
    """dim Hom between two tube indecomposables.

    Zero across distinct tubes.  Within a tube of rank m, a map exists for each
    segment length j in [1, min(qlen_x, qlen_y)] such that the top-j quotient
    of x equals the bottom-j submodule of y, i.e. j = socle_x + qlen_x - socle_y
    mod m.
    """
    x.check_against(t)
    y.check_against(t)
    if x.arm != y.arm:
        return 0
    mi = t.arm_length(x.arm)
    # the admissible j are residue, residue + m, ... (m, 2m, ... for residue 0)
    first = (x.socle + x.qlen - y.socle) % mi or mi
    return (min(x.qlen, y.qlen) - first) // mi + 1


def hom_dim_regular(t: CanonicalType, xs: ClassLike, ys: ClassLike) -> int:
    """Bilinear extension of hom_dim_tube over direct sums."""
    return sum(hom_dim_tube(t, x, y) for x in _members(xs) for y in _members(ys))


def end_dim(t: CanonicalType, xs: ClassLike) -> int:
    return hom_dim_regular(t, xs, xs)


def hom_to_simple_nonzero(t: CanonicalType, xs: ClassLike, i: int, j: int) -> bool:
    """Whether some member of the class maps onto the j-th simple of tube i."""
    mi = t.arm_length(i)
    if not 0 <= j <= mi - 1:
        raise ValueError(f"simple index {j} out of range [0, {mi - 1}] on arm {i}")
    return any(x.arm == i and top_index(t, x) == j for x in _members(xs))
