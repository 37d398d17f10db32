"""Matrix ground truth: explicit representation points over exact rationals.

A point of the module variety is a tuple of arrow matrices satisfying the
n - 2 arm relations.  This module builds concrete points for every module of
the exceptional tubes (build_uniserial) and for the homogeneous (Jordan)
modules, both through one writer of the arms off the tube, and computes Hom
dimensions as exact nullities of the intertwining system.  These values
validate the combinatorial tube model against actual linear algebra: the
battery that does so (oracle_suite, behind the command-line ``oracle``
subcommand and part of ``verify``) lives here too, with the CheckResult it
returns, so an oracle query loads neither ``checks`` nor ``geometry``.

Convention: a module lies in the tube at a point (c1 : c2) of the projective
line when its arm compositions make c2*C1 - c1*C2 nilpotent; the tube
parameter lambda corresponds to (-lambda : 1), the point at infinity to
(1 : 0).  Arm 1 sits at 0, arm 2 at infinity, arm i >= 3 at lambda_i.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, pairwise
from math import lcm
from types import MappingProxyType
from typing import Iterator, Mapping

from . import linalg
from .cones import in_P, in_Q
from .forms import (CanonicalType, DimVector, _Value, basis_e0, basis_h, euler_form,
                    format_dim_vector)
from .linalg import Matrix
from .tubes import TubeIndec, dim_vector, hom_dim_tube


class LambdaChoice(_Value):
    """The pairwise distinct nonzero parameters lambda_3, ..., lambda_n."""

    _fields = ("lambdas",)
    __slots__ = (*_fields, "_hash")

    def __init__(self, lambdas: tuple[Fraction, ...]) -> None:
        vals = tuple(Fraction(x) for x in lambdas)
        self._set(vals)
        # the field tuple's hash, kept: each Hom system looks its
        # representations' relation verdicts up by this key, and a Fraction
        # hashes in Python
        object.__setattr__(self, "_hash", super().__hash__())
        if any(v == 0 for v in vals):
            raise ValueError("tube parameters must be nonzero")
        if len(set(vals)) != len(vals):
            raise ValueError("tube parameters must be pairwise distinct, got "
                             + ", ".join(map(str, vals)))

    def __hash__(self) -> int:
        return self._hash

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


def _is_identity(m: Matrix, rows: int, cols: int) -> bool:
    """Whether the rows x cols matrix m is the identity (0 x 0 included)."""
    return rows == cols and all(row[r] == 1 and not any(row[:r]) and not any(row[r + 1:])
                                for r, row in enumerate(m))


class MatrixRep(_Value):
    """Arrow matrices over exact rationals, one per arrow (i, j), j in [1, m_i].

    The matrix at (i, j) maps the space at vertex (i, j) to the space at
    (i, j - 1) and therefore has shape d_{i,j-1} x d_{i,j}; arrows left out
    of ``mats`` carry the zero matrix.  Construction copies ``mats`` into a
    read-only mapping of tuples and checks every shape once.  Besides its
    fields a rep keeps four records, which ``==``, ``hash`` and ``repr``
    skip: ``_relations`` (check_relations' verdict per LambdaChoice),
    ``_cleared`` (see ``cleared``), ``_dims`` (the dimension vector in
    ``DimVector.entries`` order) and ``_cuts`` (per arm, the j whose arrow
    (i, j) is not the identity, in increasing order).
    """

    _fields = ("t", "dim", "mats")
    __slots__ = (*_fields, "_relations", "_cleared", "_dims", "_cuts")

    def __init__(self, t: CanonicalType, dim: DimVector,
                 mats: Mapping[tuple[int, int], Matrix] = MappingProxyType({})) -> None:
        if not dim.matches(t):
            raise ValueError("dimension vector does not fit the type")
        shapes = dict(_arrows(dim))
        if not mats.keys() <= shapes.keys():
            raise ValueError(f"matrices must sit on the arrows of type {t}")
        full = {arrow: tuple(map(tuple, mats[arrow])) if arrow in mats else linalg.zeros(*shape)
                for arrow, shape in shapes.items()}
        for (i, j), m in full.items():
            rows, cols = shapes[(i, j)]
            if len(m) != rows or any(map(cols.__ne__, map(len, m))):
                raise ValueError(f"matrix at arrow ({i},{j}) must be {rows}x{cols}")
        self._set(t, dim, MappingProxyType(full))
        object.__setattr__(self, "_relations", {})
        object.__setattr__(self, "_cleared", {})
        object.__setattr__(self, "_dims", tuple(dim.entries()))
        object.__setattr__(self, "_cuts", tuple(
            tuple(j for j in range(1, mi + 1) if not _is_identity(full[(i, j)], *shapes[(i, j)]))
            for i, mi in enumerate(t.m, start=1)))

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
        """Product of the arm-i matrices, a d0 x dinf matrix; the identity
        arrows are skipped."""
        if 0 in self.dim.chains()[i - 1]:
            return linalg.zeros(self.dim.d0, self.dim.dinf)
        cuts = self._cuts[i - 1]
        if not cuts:
            return self.mats[(i, 1)]
        return reduce(linalg.matmul, (self.mats[(i, j)] for j in cuts))

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
    verdict = rep._relations.get(lam)
    if verdict is None:
        lam.check_against(t)
        c1, c2 = rep.composition(1), rep.composition(2)
        verdict = rep._relations[lam] = all(
            linalg.combine(c1, lam.lam(i), c2) == rep.composition(i)
            for i in range(3, t.n + 1))
    return verdict


def _arm_maps(t: CanonicalType, lam: LambdaChoice, size: int,
              point: tuple, shift: tuple, skip: int = 0) -> dict[tuple[int, int], Matrix]:
    """The maps on every arm k != skip of a module with ``size``-dimensional
    spaces at 0 and inf: identities, except C_k = c_k*I + u_k*S on the first
    arrow, S the upper shift.  Arms 1 and 2 take (c_1, c_2) = point and
    (u_1, u_2) = shift; every arm k >= 3 takes C_k = C_1 + lambda_k*C_2.
    """
    def first(c, u) -> Matrix:
        return tuple(tuple(Fraction(c if r == col else u if col == r + 1 else 0)
                           for col in range(size)) for r in range(size))

    (c1, c2), ident, mats = map(first, point, shift), linalg.eye(size), {}
    for k, mk in enumerate(t.m, start=1):
        if k != skip:
            mats.update({(k, j): ident for j in range(2, mk + 1)})
            mats[(k, 1)] = c1 if k == 1 else c2 if k == 2 else linalg.combine(c1, lam.lam(k), c2)
    return mats


def build_uniserial(t: CanonicalType, lam: LambdaChoice, i: int, a: int, l: int) -> MatrixRep:
    """The module of tube i with socle the a-th simple and quasi-length l.

    Its basis b_0, ..., b_{l-1} has b_k at index a + k mod m_i: at vertex
    (i, that index), and for index 0 at 0, at inf and on every other arm.
    Each arrow of arm i sends b_k to b_{k-1}, so arm i composes to the upper
    shift S of the index-0 copies; the other arms carry _arm_maps at arm i's
    tube point, with the shift that makes the relations give C_i = S.
    """
    lam.check_against(t)
    mi = t.arm_length(i)
    if not (0 <= a <= mi - 1 and l >= 1):
        raise ValueError(f"no module of socle index {a} and quasi-length {l} on arm {i}")
    spaces = [range((j - a) % mi, l, mi) for j in range(mi)]  # the k with b_k at index j
    # arrow (i, j) maps the space at index j mod m_i to the one at index j - 1
    mats = {(i, j): tuple(tuple(Fraction(r == c - 1) for c in spaces[j % mi])
                          for r in spaces[j - 1]) for j in range(1, mi + 1)}
    point = (0, 1) if i == 1 else (1, 0) if i == 2 else (-lam.lam(i), 1)
    copies = len(spaces[0])
    mats.update(_arm_maps(t, lam, copies, point, (0, 1) if i == 2 else (1, 0), skip=i))
    arms = tuple(tuple(map(len, spaces[1:])) if k == i else (copies,) * (mk - 1)
                 for k, mk in enumerate(t.m, start=1))
    return MatrixRep(t, DimVector(copies, copies, arms), mats)


def build_exceptional_simple(t: CanonicalType, lam: LambdaChoice, i: int, j: int) -> MatrixRep:
    """The j-th regular simple of the i-th exceptional tube, j in [0, m_i - 1]."""
    return build_uniserial(t, lam, i, j, 1)


def build_length_two(t: CanonicalType, lam: LambdaChoice, i: int, a: int) -> MatrixRep:
    """The tube module with socle the a-th simple and quasi-length 2."""
    return build_uniserial(t, lam, i, a, 2)


def build_homogeneous(t: CanonicalType, lam: LambdaChoice, mu: Fraction, size: int) -> MatrixRep:
    """Quasi-length-`size` module over the homogeneous simple at parameter mu.

    Every vertex carries the same space; arm 1 composes to -J(mu), with
    J(mu) = mu*I + S, arm 2 to the identity and arm i to lambda_i - J(mu):
    the maps of _arm_maps at the point (-mu : 1).
    """
    lam.check_against(t)
    mu = Fraction(mu)
    if mu in lam.rational_tube_points():
        raise ValueError(f"parameter {mu} collides with an exceptional tube point")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return MatrixRep(t, size * basis_h(t), _arm_maps(t, lam, size, (-mu, 1), (-1, 0)))


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
    each arrow (i, j) from v = (i, j) to w = (i, j-1) imposes
    f_w M_{i,j} = N_{i,j} f_v.  The system is built on the contracted
    quiver.  Where both M_{i,j} and N_{i,j} are identities (of size 0
    included) the equation reads f_w = f_v for two blocks of one shape.
    Substituting f_v for f_w maps the solutions of the system one to one
    onto those of the system with the two blocks merged, so merging them
    keeps the nullity.  Every other arrow is a cut.  Each arm is a path
    from 0 to inf, so the merged classes are the stretches between an arm's
    cuts: the stretch before the first cut joins 0, the one after the last
    joins inf, and an arm with no cut joins 0 to inf.  Both dimensions are
    constant along a class, so each class is one block, read at any of its
    vertices.  Rows come from the cuts alone; a cut whose two ends lie in
    one class (0 and inf, joined by another arm) sums the entries of f M
    and N f on the same column.  The work depends on the cuts of the two
    representations, kept per rep in ``_cuts``, and not on the number of
    vertices.

    The denominators are cleared once per arrow: every entry of M_{i,j} and
    N_{i,j} is scaled by the lcm of all their denominators (the lcm of the
    two kept by `MatrixRep.cleared`), which scales each equation of the
    arrow by the same nonzero integer and so keeps the rank.  The rows go to
    `linalg.rank` as sparse integer rows.
    """
    for rep in (m_rep, n_rep):
        if not check_relations(t, lam, rep):
            raise ValueError("representation does not satisfy the arm relations")
    dm, dn = m_rep._dims, n_rep._dims
    arms = [a if a == b else sorted({*a, *b}) for a, b in zip(m_rep._cuts, n_rep._cuts)]
    # One vertex per block, in column order: 0's block, inf's unless an arm
    # without a cut joins it to 0's, then the inner stretches arm by arm.
    blocks = [0, 1] if all(arms) else [0]
    inf_block = len(blocks) - 1
    cuts = []  # (i, j, block of w, block of v) for each cut that yields rows
    for i, (index, arm) in enumerate(zip(t.chain_index, arms), start=1):
        bw = 0
        for j in arm:
            if j == arm[-1]:
                bv = inf_block
            else:
                bv = len(blocks)
                blocks.append(index[j])
            if dn[index[j - 1]] * dm[index[j]]:
                cuts.append((i, j, bw, bv))
            bw = bv
    offsets = list(accumulate((dn[x] * dm[x] for x in blocks), initial=0))
    ncols = offsets.pop()
    if ncols == 0:
        return 0

    # Row (r, c) of a cut is entry (r, c) of f_w M_{i,j} - N_{i,j} f_v: the
    # entries of column c of M_{i,j} and of row r of N_{i,j}.
    rows: list[linalg.SparseRow] = []
    for i, j, bw, bv in cuts:
        w, v = blocks[bw], blocks[bv]
        dnw, dmw, dmv = dn[w], dm[w], dm[v]
        (m_scale, m_mat), (n_scale, n_mat) = m_rep.cleared(i, j), n_rep.cleared(i, j)
        scale = lcm(m_scale, n_scale)
        m_factor, n_factor = scale // m_scale, -(scale // n_scale)
        m_cols = [[(offsets[bw] + k, m_factor * m_mat[k][c]) for k in range(dmw) if m_mat[k][c]]
                  for c in range(dmv)]
        n_rows = [[(offsets[bv] + k * dmv, n_factor * x) for k, x in enumerate(row) if x]
                  for row in n_mat]
        for r in range(dnw):
            for c in range(dmv):
                row = {col + r * dmw: x for col, x in m_cols[c]}
                for col, x in n_rows[r]:
                    y = row.get(col + c, 0) + x
                    if y:
                        row[col + c] = y
                    else:
                        del row[col + c]
                if row:
                    rows.append(row)
    return ncols - linalg.rank(rows)


class CheckResult(_Value):
    """One named check: whether it passed, and its first counterexample."""

    __slots__ = _fields = ("name", "ok", "details")
    __hash__ = None

    def __init__(self, name: str, ok: bool, details: str = "") -> None:
        self._set(name, ok, details)


def _first(name: str, failures: Iterator[str]) -> CheckResult:
    """The check ``name``, failed with the first detail ``failures`` yields;
    the rest of the generator is never run."""
    detail = next(failures, "")
    return CheckResult(name, not detail, detail)


def oracle_suite(t: CanonicalType, lam: LambdaChoice | None = None,
                 mu: Fraction | None = None, sizes: tuple[int, ...] = (1, 2, 3),
                 full: bool | None = None) -> list[CheckResult]:
    out = []
    if lam is None:
        lam = LambdaChoice.default_for(t)
    if mu is None:
        mu = max(lam.rational_tube_points()) + 1
    if full is None:
        full = t.total <= 9

    tube_mods = [(TubeIndec(i, a, l), build_uniserial(t, lam, i, a, l))
                 for i, mi in enumerate(t.m, start=1) for l in (1, 2) for a in range(mi)]
    homog = [(s, build_homogeneous(t, lam, mu, s)) for s in sizes]

    ok = all(check_relations(t, lam, rep) for _, rep in tube_mods) and \
        all(check_relations(t, lam, rep) for _, rep in homog)
    out.append(CheckResult(f"oracle/relations[{t}]", ok))

    dims = (f"dim mismatch for {x}" for x, rep in tube_mods if dim_vector(t, x) != rep.dim)
    out.append(_first(f"oracle/dims[{t}]", dims))

    if full:
        def hom_vs_tubes():
            for x, mrep in tube_mods:
                for y, nrep in tube_mods:
                    want = hom_dim_tube(t, x, y)
                    got = hom_dim_linear(t, lam, mrep, nrep)
                    if got != want:
                        yield f"hom({x},{y}) = {got}, tube model {want}"

        out.append(_first(f"oracle/hom-vs-tubes[{t}]", hom_vs_tubes()))

        # A generic point P of the cone-P vector h + e_0 lies in the class P
        # of the module category, and every tube module X is regular.  Modules
        # in P have projective dimension <= 1 and Hom(X, tau P) = 0, so
        # Ext^2(P, X) = 0 and, by the Auslander-Reiten formula,
        # Ext^1(P, X) = D Hom(X, tau P) = 0 (Ringel, Tame algebras and
        # integral quadratic forms, LNM 1099, 1984, Sect. 3.7); hence
        # dim Hom(P, X) = <dim P, dim X>.  Under rational lambdas P's arrows mix
        # integers with fractions, so a Hom that drops row denominators fails.
        d = basis_h(t) + basis_e0(t)
        prep = random_cone_point(t, lam, d, random.Random(0))

        def hom_cone_pairing():
            for x, xrep in tube_mods:
                got = hom_dim_linear(t, lam, prep, xrep)
                want = euler_form(t, d, dim_vector(t, x))
                if got != want:
                    yield f"hom(P, {x}) = {got}, <d, dim X> = {want}"

        out.append(_first(f"oracle/hom-cone-pairing[{t}]", hom_cone_pairing()))

        def homogeneous():
            for s, hrep in homog:
                for x, xrep in tube_mods:
                    if hom_dim_linear(t, lam, hrep, xrep) != 0 or \
                            hom_dim_linear(t, lam, xrep, hrep) != 0:
                        yield f"homogeneous size {s} not orthogonal to {x}"
                for s2, hrep2 in homog:
                    if hom_dim_linear(t, lam, hrep, hrep2) != min(s, s2):
                        yield f"hom(J{s}, J{s2}) != min"

        out.append(_first(f"oracle/homogeneous[{t}]", homogeneous()))

        if len(tube_mods) >= 3:
            a, b, c = tube_mods[0][1], tube_mods[1][1], tube_mods[2][1]
            ds = direct_sum(a, b)
            ok = (ds.dim == a.dim + b.dim
                  and check_relations(t, lam, ds)
                  and hom_dim_linear(t, lam, ds, c)
                  == hom_dim_linear(t, lam, a, c) + hom_dim_linear(t, lam, b, c))
            out.append(CheckResult(f"oracle/direct-sum[{t}]", ok))
    else:
        ok = hom_dim_linear(t, lam, homog[0][1], homog[0][1]) == sizes[0]
        out.append(CheckResult(f"oracle/homogeneous-end[{t}]", ok))

    # exactness: a single perturbed entry must break the relations
    s, hrep = homog[0]
    m11 = [list(r) for r in hrep.mat(1, 1)]
    m11[0][0] += 1
    bad = MatrixRep(t, hrep.dim, {**hrep.mats, (1, 1): tuple(map(tuple, m11))})
    out.append(CheckResult(f"oracle/perturbation[{t}]",
                           not check_relations(t, lam, bad)))
    return out
