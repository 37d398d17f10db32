"""Matrix ground truth: explicit representation points over exact rationals.

A point of the module variety is a tuple of arrow matrices satisfying the
n - 2 arm relations.  This module builds concrete points for the regular
simples, quasi-length-two tube modules and homogeneous (Jordan) modules, and
computes Hom dimensions as exact nullities of the intertwining system.  These
values validate the combinatorial tube model against actual linear algebra.

Convention: a module lies in the tube at a point (c1 : c2) of the projective
line when its arm compositions satisfy (C1 : C2) = (c1 : c2); the tube
parameter lambda corresponds to (-lambda : 1), the point at infinity to
(1 : 0).  Arm 1 sits at 0, arm 2 at infinity, arm i >= 3 at lambda_i.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, pairwise
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping

from . import linalg
from .cones import in_P, in_Q
from .forms import CanonicalType, DimVector, _Value, basis_e, basis_h, format_dim_vector
from .linalg import Matrix


class LambdaChoice(_Value):
    """The pairwise distinct nonzero parameters lambda_3, ..., lambda_n."""

    __slots__ = _fields = ("lambdas",)

    def __init__(self, lambdas: tuple[Fraction, ...]) -> None:
        vals = tuple(Fraction(x) for x in lambdas)
        self._set(vals)
        if any(v == 0 for v in vals):
            raise ValueError("tube parameters must be nonzero")
        if len(set(vals)) != len(vals):
            raise ValueError("tube parameters must be pairwise distinct, got "
                             + ", ".join(map(str, vals)))

    @classmethod
    def default_for(cls, t: CanonicalType) -> "LambdaChoice":
        return cls(tuple(Fraction(k) for k in range(1, t.n - 1)))

    def check_against(self, t: CanonicalType) -> None:
        if len(self.lambdas) != t.n - 2:
            raise ValueError(
                f"need {t.n - 2} parameters for {t}, got {len(self.lambdas)}")

    def lam(self, i: int) -> Fraction:
        if i < 3:
            raise ValueError(f"arm {i} has a fixed tube point, not a parameter")
        return self.lambdas[i - 3]

    def rational_tube_points(self) -> set[Fraction]:
        return {Fraction(0), *self.lambdas}


def _arrows(d: DimVector) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Each arrow (i, j) with its shape d_{i,j-1} x d_{i,j} at d."""
    for i, chain in enumerate(d.chains(), start=1):
        for j, shape in enumerate(pairwise(chain), start=1):
            yield (i, j), shape


class MatrixRep(_Value):
    """Arrow matrices over exact rationals, one per arrow (i, j), j in [1, m_i].

    The matrix at (i, j) maps the space at vertex (i, j) to the space at
    (i, j - 1) and therefore has shape d_{i,j-1} x d_{i,j}; arrows left out
    of ``mats`` carry the zero matrix.  Construction copies ``mats`` into a
    read-only mapping of tuples and checks every shape once.  Besides its
    fields a rep keeps two caches, which ``==``, ``hash`` and ``repr`` skip:
    ``_relations`` (check_relations' verdict per LambdaChoice) and
    ``_cleared`` (see ``cleared``).
    """

    _fields = ("t", "dim", "mats")
    __slots__ = (*_fields, "_relations", "_cleared")

    def __init__(self, t: CanonicalType, dim: DimVector,
                 mats: Mapping[tuple[int, int], Matrix] = MappingProxyType({})) -> None:
        if not dim.matches(t):
            raise ValueError("dimension vector does not fit the type")
        shapes = dict(_arrows(dim))
        if not mats.keys() <= shapes.keys():
            raise ValueError(f"matrices must sit on the arrows of type {t}")
        full = {arrow: tuple(map(tuple, mats.get(arrow, linalg.zeros(*shape))))
                for arrow, shape in shapes.items()}
        for (i, j), m in full.items():
            rows, cols = shapes[(i, j)]
            if len(m) != rows or any(map(cols.__ne__, map(len, m))):
                raise ValueError(f"matrix at arrow ({i},{j}) must be {rows}x{cols}")
        self._set(t, dim, MappingProxyType(full))
        object.__setattr__(self, "_relations", {})
        object.__setattr__(self, "_cleared", {})

    def mat(self, i: int, j: int) -> Matrix:
        return self.mats[(i, j)]

    def cleared(self, i: int, j: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The lcm of the denominators at arrow (i, j) and the matrix times
        it, an integer matrix; computed once and kept."""
        if (i, j) not in self._cleared:
            m = self.mats[(i, j)]
            scale = lcm(*(x.denominator for row in m for x in row))
            self._cleared[(i, j)] = scale, tuple(
                tuple(x.numerator * (scale // x.denominator) for x in row) for row in m)
        return self._cleared[(i, j)]

    def composition(self, i: int) -> Matrix:
        """Product of the arm-i matrices, a d0 x dinf matrix."""
        chain = self.dim.chains()[i - 1]
        if 0 in chain:
            return linalg.zeros(self.dim.d0, self.dim.dinf)
        return reduce(linalg.matmul, (self.mats[(i, j)] for j in range(1, len(chain))))

    def to_dict(self, lam: LambdaChoice | None = None) -> dict:
        def frac(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        out = {
            "type": list(self.t.m),
            "dim": format_dim_vector(self.dim),
            "matrices": {
                f"{i}:{j}": [[frac(x) for x in row] for row in m]
                for (i, j), m in sorted(self.mats.items())
            },
        }
        if lam is not None:
            out["lambdas"] = [frac(x) for x in lam.lambdas]
        return out


def check_relations(t: CanonicalType, lam: LambdaChoice, rep: MatrixRep) -> bool:
    """Exact test of Ci = C1 + lambda_i*C2 for every i in [3, n].

    The verdict is computed once per lambda and kept in ``rep._relations``;
    a representation of another type raises ValueError.
    """
    if rep.t != t:
        raise ValueError(f"representation of type {rep.t}, not {t}")
    lam.check_against(t)
    if lam not in rep._relations:
        c1, c2 = rep.composition(1), rep.composition(2)
        rep._relations[lam] = all(
            linalg.combine(c1, lam.lam(i), c2) == rep.composition(i)
            for i in range(3, t.n + 1))
    return rep._relations[lam]


def _tube_scalars(t: CanonicalType, lam: LambdaChoice, i: int) -> dict[int, Fraction]:
    """Composition scalar per arm for a module of the i-th exceptional tube
    whose compositions are 1x1; arm i itself composes to zero."""
    if i == 1:
        c1, c2 = Fraction(0), Fraction(1)
    elif i == 2:
        c1, c2 = Fraction(1), Fraction(0)
    else:
        c1, c2 = -lam.lam(i), Fraction(1)
    scalars = {1: c1, 2: c2}
    for k in range(3, t.n + 1):
        scalars[k] = c1 + lam.lam(k) * c2
    scalars[i] = Fraction(0)
    return scalars


_ONE = ((Fraction(1),),)


def _tube_arms(t: CanonicalType, lam: LambdaChoice, i: int) -> dict[tuple[int, int], Matrix]:
    """1x1 maps along every arm k != i composing to its tube scalar: the
    scalar on the first arrow, identities after."""
    scal = _tube_scalars(t, lam, i)
    mats = {}
    for k, mk in enumerate(t.m, start=1):
        if k != i:
            mats.update({(k, j): _ONE for j in range(2, mk + 1)})
            mats[(k, 1)] = ((scal[k],),)
    return mats


def build_exceptional_simple(t: CanonicalType, lam: LambdaChoice, i: int, j: int) -> MatrixRep:
    """The j-th regular simple of the i-th exceptional tube, j in [0, m_i - 1].

    For j >= 1 this is the vertex-simple at (i, j): every map is zero.  For
    j = 0 the dimension vector is e_{i,0}; arm i composes to zero through its
    zero interior spaces and the other arms carry the tube scalars.
    """
    lam.check_against(t)
    return MatrixRep(t, basis_e(t, i, j), _tube_arms(t, lam, i) if j == 0 else {})


def build_length_two(t: CanonicalType, lam: LambdaChoice, i: int, a: int) -> MatrixRep:
    """Uniserial tube module with socle the a-th simple and quasi-length 2.

    Interior case (1 <= a <= m_i - 2): supported on the adjacent vertices
    (i, a) and (i, a+1) with connecting map 1.  Wrap cases involve the j = 0
    simple: a = 0 puts the extension on the arrow into vertex 0, a = m_i - 1
    on the arrow out of the sink; arm i still composes to zero.
    """
    lam.check_against(t)
    mi = t.arm_length(i)
    if not 0 <= a <= mi - 1:
        raise ValueError(f"socle index {a} out of range on arm {i}")
    dim = basis_e(t, i, a) + basis_e(t, i, (a + 1) % mi)
    if 1 <= a <= mi - 2:
        return MatrixRep(t, dim, {(i, a + 1): _ONE})
    mats = _tube_arms(t, lam, i)
    # a = 0: socle the tube simple at index 0, top the vertex-simple at (i, 1);
    # a = m_i - 1: socle the vertex-simple at (i, m_i - 1), top the index-0 simple
    mats[(i, 1 if a == 0 else mi)] = _ONE
    return MatrixRep(t, dim, mats)


def jordan_block(mu: Fraction, size: int) -> Matrix:
    return tuple(
        tuple(Fraction(mu) if r == c else (Fraction(1) if c == r + 1 else Fraction(0))
              for c in range(size))
        for r in range(size))


def build_homogeneous(t: CanonicalType, lam: LambdaChoice, mu: Fraction, size: int) -> MatrixRep:
    """Quasi-length-`size` module over the homogeneous simple at parameter mu.

    Every vertex carries the same space; arm 1 composes to -J(mu), arm 2 to
    the identity and arm i to lambda_i - J(mu), realized by placing the full
    matrix on the first arrow of the arm and identities elsewhere.
    """
    lam.check_against(t)
    mu = Fraction(mu)
    if mu in lam.rational_tube_points():
        raise ValueError(f"parameter {mu} collides with an exceptional tube point")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    jj = jordan_block(mu, size)
    ident = linalg.eye(size)
    dim = size * basis_h(t)
    mats = {arrow: ident for arrow, _ in _arrows(dim)}
    mats[(1, 1)] = c1 = linalg.combine(linalg.zeros(size, size), -1, jj)
    for i in range(3, t.n + 1):
        mats[(i, 1)] = linalg.combine(c1, lam.lam(i), ident)
    return MatrixRep(t, dim, mats)


def _coordinate(rows: int, cols: int) -> Matrix:
    """Coordinate embedding (rows >= cols) or projection (rows <= cols)."""
    return tuple(tuple(Fraction(1 if r == c else 0) for c in range(cols))
                 for r in range(rows))


# Width of the random draws: with entries in [-9, 9] some draws at (2,2,2)
# were not generic, so the draws are wide.
_SPREAD = 10**6


def random_cone_point(t: CanonicalType, lam: LambdaChoice, d: DimVector,
                      rng: random.Random) -> MatrixRep:
    """A seeded random point of the module variety at d, for d in P or Q.

    Arms 1 and 2 carry integer entries drawn from [-_SPREAD, _SPREAD].  Every
    other arm i is forced onto its relation C_i = C1 + lambda_i*C2 = T: for
    d in P (chains shrinking towards the sink) the first arrow is
    [T | random] and the later arrows are coordinate embeddings; for d in Q
    the last arrow stacks T over random rows and the earlier arrows are
    coordinate projections.  Up to the interior base change this reaches
    every point whose arm-i maps are injective (P) or surjective (Q), so a
    wide draw lands in the open orbit with high probability; a
    nongeneric draw can only enlarge the endomorphism ring.
    """
    lam.check_against(t)
    preprojective = in_P(t, d)
    if not preprojective and not in_Q(t, d):
        raise ValueError(f"{format_dim_vector(d)} lies in neither cone P nor Q")

    def rand(rows: int, cols: int) -> Matrix:
        return tuple(tuple(Fraction(rng.randint(-_SPREAD, _SPREAD)) for _ in range(cols))
                     for _ in range(rows))

    mats = {(i, j): rand(*shape) if i <= 2 else _coordinate(*shape)
            for (i, j), shape in _arrows(d)}
    base = MatrixRep(t, d, mats)
    c1, c2 = base.composition(1), base.composition(2)
    for i, chain in enumerate(d.chains()[2:], start=3):
        target = linalg.combine(c1, lam.lam(i), c2)
        if preprojective:
            extra = rand(d.d0, chain[1] - d.dinf)
            mats[(i, 1)] = tuple(a + b for a, b in zip(target, extra))
        else:
            extra = rand(chain[-2] - d.d0, d.dinf)
            mats[(i, len(chain) - 1)] = target + extra
    return MatrixRep(t, d, mats)


def direct_sum(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    if a.t != b.t:
        raise ValueError("direct sum needs representations of the same type")
    mats = {arrow: linalg.block_diag(a.mats[arrow], b.mats[arrow], acols=acols, bcols=bcols)
            for (arrow, (_, acols)), (_, (_, bcols)) in zip(_arrows(a.dim), _arrows(b.dim))}
    return MatrixRep(a.t, a.dim + b.dim, mats)


def hom_dim_linear(t: CanonicalType, lam: LambdaChoice,
                   m_rep: MatrixRep, n_rep: MatrixRep) -> int:
    """dim Hom computed as the exact nullity of the intertwining system.

    Unknowns are the per-vertex blocks f_x of shape dim_N(x) x dim_M(x);
    each arrow (i, j) imposes f_{(i,j-1)} M_{i,j} = N_{i,j} f_{(i,j)}.  The
    denominators are cleared once per arrow: every entry of M_{i,j} and
    N_{i,j} is scaled by the lcm of all their denominators (the lcm of the
    two kept by `MatrixRep.cleared`), which scales each equation of the
    arrow by the same nonzero integer and so keeps the rank.  The rows go to
    `linalg.rank` as sparse integer rows.
    """
    for rep in (m_rep, n_rep):
        if not check_relations(t, lam, rep):
            raise ValueError("representation does not satisfy the arm relations")
    # vertices in DimVector.entries order; f_x takes the columns from offsets[x]
    dn, dm = tuple(n_rep.dim.entries()), tuple(m_rep.dim.entries())
    offsets = list(accumulate(map(mul, dn, dm), initial=0))
    ncols = offsets.pop()
    if ncols == 0:
        return 0

    # Row (i, j, r, c) is entry (r, c) of f_w M_{i,j} - N_{i,j} f_v; the
    # blocks of f_w and f_v never share a column, so its nonzero entries are
    # those of column c of M_{i,j} and of row r of N_{i,j}.
    rows: list[linalg.SparseRow] = []
    for i, index in enumerate(t.chain_index, start=1):
        for j, (w, v) in enumerate(pairwise(index), start=1):
            dnw, dmw, dmv = dn[w], dm[w], dm[v]
            if dnw * dmv == 0:
                continue
            (m_scale, m_mat), (n_scale, n_mat) = m_rep.cleared(i, j), n_rep.cleared(i, j)
            scale = lcm(m_scale, n_scale)
            m_factor, n_factor = scale // m_scale, -(scale // n_scale)
            m_cols = [[(offsets[w] + k, m_factor * m_mat[k][c]) for k in range(dmw) if m_mat[k][c]]
                      for c in range(dmv)]
            n_rows = [[(offsets[v] + k * dmv, n_factor * x) for k, x in enumerate(row) if x]
                      for row in n_mat]
            for r in range(dnw):
                for c in range(dmv):
                    row = {col + r * dmw: x for col, x in m_cols[c]}
                    row.update((col + c, x) for col, x in n_rows[r])
                    if row:
                        rows.append(row)
    return ncols - linalg.rank(rows)
