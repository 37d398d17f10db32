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
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .cones import in_P, in_Q
from .forms import CanonicalType, DimVector, basis_e, format_dim_vector
from .linalg import Matrix


@dataclass(frozen=True)
class LambdaChoice:
    """The pairwise distinct nonzero parameters lambda_3, ..., lambda_n."""

    lambdas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", vals)
        if any(v == 0 for v in vals):
            raise ValueError("tube parameters must be nonzero")
        if len(set(vals)) != len(vals):
            raise ValueError(f"tube parameters must be pairwise distinct, got {vals}")

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


@dataclass
class MatrixRep:
    """Arrow matrices over exact rationals, one per arrow (i, j), j in [1, m_i].

    The matrix at (i, j) maps the space at vertex (i, j) to the space at
    (i, j - 1) and therefore has shape d_{i,j-1} x d_{i,j}.
    """

    t: CanonicalType
    dim: DimVector
    mats: dict[tuple[int, int], Matrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.dim.matches(self.t):
            raise ValueError("dimension vector does not fit the type")
        for i in range(1, self.t.n + 1):
            for j in range(1, self.t.m[i - 1] + 1):
                m = self.mats.get((i, j))
                rows, cols = self.dim.entry(i, j - 1), self.dim.entry(i, j)
                if m is None:
                    self.mats[(i, j)] = linalg.zeros(rows, cols)
                    continue
                if len(m) != rows or any(len(r) != cols for r in m):
                    raise ValueError(f"matrix at arrow ({i},{j}) must be {rows}x{cols}")

    def mat(self, i: int, j: int) -> Matrix:
        return self.mats[(i, j)]

    def composition(self, i: int) -> Matrix:
        """Product of the arm-i matrices, a d0 x dinf matrix."""
        dims = [self.dim.entry(i, j) for j in range(self.t.m[i - 1] + 1)]
        if any(d == 0 for d in dims):
            return linalg.zeros(dims[0], dims[-1])
        out = self.mats[(i, 1)]
        for j in range(2, self.t.m[i - 1] + 1):
            out = linalg.matmul(out, self.mats[(i, j)])
        return out

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
    """Exact zero test of C1 + lambda_i*C2 - Ci for every i in [3, n]."""
    lam.check_against(t)
    c1 = rep.composition(1)
    c2 = rep.composition(2)
    for i in range(3, t.n + 1):
        residual = linalg.mat_sub(
            linalg.mat_add(c1, linalg.mat_scale(lam.lam(i), c2)),
            rep.composition(i))
        if not linalg.is_zero(residual):
            return False
    return True


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


def _scalar_arm(mi: int, value: Fraction) -> dict[int, Matrix]:
    """1x1 maps along a full arm composing to `value`: value on the first
    arrow, identities after."""
    mats = {1: ((value,),)}
    for j in range(2, mi + 1):
        mats[j] = ((Fraction(1),),)
    return mats


def build_exceptional_simple(t: CanonicalType, lam: LambdaChoice, i: int, j: int) -> MatrixRep:
    """The j-th regular simple of the i-th exceptional tube, j in [0, m_i - 1].

    For j >= 1 this is the vertex-simple at (i, j): every map is zero.  For
    j = 0 the dimension vector is e_{i,0}; arm i composes to zero through its
    zero interior spaces and the other arms carry the tube scalars.
    """
    lam.check_against(t)
    dim = basis_e(t, i, j)
    rep = MatrixRep(t, dim)
    if j == 0:
        scal = _tube_scalars(t, lam, i)
        for k in range(1, t.n + 1):
            if k == i:
                continue
            for pos, m in _scalar_arm(t.m[k - 1], scal[k]).items():
                rep.mats[(k, pos)] = m
    return rep


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
    if 1 <= a <= mi - 2:
        dim = basis_e(t, i, a) + basis_e(t, i, a + 1)
        rep = MatrixRep(t, dim)
        rep.mats[(i, a + 1)] = ((Fraction(1),),)
        return rep
    top = (a + 1) % mi
    dim = basis_e(t, i, a) + basis_e(t, i, top)
    rep = MatrixRep(t, dim)
    scal = _tube_scalars(t, lam, i)
    for k in range(1, t.n + 1):
        if k == i:
            continue
        for pos, m in _scalar_arm(t.m[k - 1], scal[k]).items():
            rep.mats[(k, pos)] = m
    if a == 0:
        # socle is the tube simple at index 0, top the vertex-simple at (i, 1)
        rep.mats[(i, 1)] = ((Fraction(1),),)
    else:
        # a = m_i - 1: socle the vertex-simple at (i, m_i - 1), top the index-0 simple
        rep.mats[(i, mi)] = ((Fraction(1),),)
    return rep


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
    dim = DimVector(size, size,
                    tuple(tuple(size for _ in range(mi - 1)) for mi in t.m))
    rep = MatrixRep(t, dim)
    for i in range(1, t.n + 1):
        for j in range(1, t.m[i - 1] + 1):
            rep.mats[(i, j)] = ident
    rep.mats[(1, 1)] = linalg.mat_scale(-1, jj)
    for i in range(3, t.n + 1):
        rep.mats[(i, 1)] = linalg.mat_sub(linalg.mat_scale(lam.lam(i), ident), jj)
    return rep


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

    rep = MatrixRep(t, d)
    for i in (1, 2):
        for j in range(1, t.m[i - 1] + 1):
            rep.mats[(i, j)] = rand(d.entry(i, j - 1), d.entry(i, j))
    c1, c2 = rep.composition(1), rep.composition(2)
    for i in range(3, t.n + 1):
        mi = t.m[i - 1]
        target = linalg.mat_add(c1, linalg.mat_scale(lam.lam(i), c2))
        for j in range(1, mi + 1):
            rep.mats[(i, j)] = _coordinate(d.entry(i, j - 1), d.entry(i, j))
        if preprojective:
            extra = rand(d.d0, d.entry(i, 1) - d.dinf)
            rep.mats[(i, 1)] = tuple(a + b for a, b in zip(target, extra))
        else:
            extra = rand(d.entry(i, mi - 1) - d.d0, d.dinf)
            rep.mats[(i, mi)] = target + extra
    return rep


def direct_sum(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    if a.t != b.t:
        raise ValueError("direct sum needs representations of the same type")
    dim = a.dim + b.dim
    rep = MatrixRep(a.t, dim)
    for i in range(1, a.t.n + 1):
        for j in range(1, a.t.m[i - 1] + 1):
            rep.mats[(i, j)] = linalg.block_diag(
                a.mat(i, j), b.mat(i, j),
                acols=a.dim.entry(i, j), bcols=b.dim.entry(i, j))
    return rep


def _vertices(t: CanonicalType) -> list:
    verts: list = ["0", "inf"]
    for i in range(1, t.n + 1):
        for j in range(1, t.m[i - 1]):
            verts.append((i, j))
    return verts


def _vertex_dim(t: CanonicalType, d: DimVector, v) -> int:
    if v == "0":
        return d.d0
    if v == "inf":
        return d.dinf
    return d.entry(v[0], v[1])


def hom_dim_linear(t: CanonicalType, lam: LambdaChoice,
                   m_rep: MatrixRep, n_rep: MatrixRep) -> int:
    """dim Hom computed as the exact nullity of the intertwining system.

    Unknowns are the per-vertex blocks f_x of shape dim_N(x) x dim_M(x);
    each arrow (i, j) imposes f_{(i,j-1)} M_{i,j} = N_{i,j} f_{(i,j)}.  The
    rows go to `linalg.rank` as sparse integer rows.
    """
    for rep in (m_rep, n_rep):
        if not check_relations(t, lam, rep):
            raise ValueError("representation does not satisfy the arm relations")
    verts = _vertices(t)
    offsets = {}
    ncols = 0
    for v in verts:
        offsets[v] = ncols
        ncols += _vertex_dim(t, n_rep.dim, v) * _vertex_dim(t, m_rep.dim, v)
    if ncols == 0:
        return 0

    def vkey(i: int, j: int):
        if j == 0:
            return "0"
        if j == t.m[i - 1]:
            return "inf"
        return (i, j)

    # Row (i, j, r, c) is entry (r, c) of f_w M_{i,j} - N_{i,j} f_v; the
    # blocks of f_w and f_v never share a column, so its nonzero entries are
    # those of column c of M_{i,j} and of row r of N_{i,j}, cleared of their
    # denominators into one integer row.
    rows: list[linalg.SparseRow] = []
    for i in range(1, t.n + 1):
        for j in range(1, t.m[i - 1] + 1):
            w, v = vkey(i, j - 1), vkey(i, j)
            dnw = _vertex_dim(t, n_rep.dim, w)
            dmw = _vertex_dim(t, m_rep.dim, w)
            dmv = _vertex_dim(t, m_rep.dim, v)
            if dnw * dmv == 0:
                continue
            m_mat = m_rep.mat(i, j)
            m_cols = [[(offsets[w] + k, m_mat[k][c]) for k in range(dmw) if m_mat[k][c]]
                      for c in range(dmv)]
            n_rows = [[(offsets[v] + k * dmv, -x) for k, x in enumerate(row) if x]
                      for row in n_rep.mat(i, j)]
            for r in range(dnw):
                for c in range(dmv):
                    row = {col + r * dmw: x for col, x in m_cols[c]}
                    row.update((col + c, x) for col, x in n_rows[r])
                    if row:
                        scale = lcm(*(x.denominator for x in row.values()))
                        rows.append({col: x.numerator * (scale // x.denominator)
                                     for col, x in row.items()})
    return ncols - linalg.rank(rows)
