"""Zero set of semi-invariants at levels p*h: stratum index set, dimension
bookkeeping, complete-intersection decision and component counting.

The index set Z_p consists of triples (d', d'', [X]) with d' a nonzero cone-P
vector, d'' a cone-Q vector and X a class of exceptional-tube modules, summing
to q*h for some q <= p, such that every tube simple (i, j) is "seen": either
d' pairs nontrivially against e_{i,j} or X maps onto that simple.  Strata are
irreducible of known dimension; the decision and the component count reduce to
the sign of an integer deficiency function over Z_p.

The deficiency reads only the level q and d', and its least value over Z_p
has a closed form: the term (p-q)<d',h> is never negative, so the least is at
q = p, and on each slice <d',h> = s the least <d',d'> is the geometry slice
form, so one geometry._slice_minimum decides (its proof is in the geometry
docstring); a negative minimum is attained by a triple built from the
smallest minimizing slice, which is rechecked as a member of Z_p.  Only the
consumers of all of Z_p enumerate it, through strata, the one reader of
zpstream's search, which joins one walk per exceptional tube.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, pairwise
from math import ceil, prod
from typing import Iterator

from . import geometry
from .cones import DEFAULT_ZCAP, in_P, in_Q
from .forms import (CanonicalType, DimVector, _Value, a_dim, basis_e, basis_h,
                    euler_form, euler_quadratic, format_dim_vector)
from .tubes import (RegularModuleClass, TubeIndec, dim_vector, end_dim,
                    hom_to_simple_nonzero)


# checks.zeroset_suite reads all of Z_p, which is desk-scale only, so it runs
# its enumerated checks only within these limits.
BRUTE_PRODUCT_LIMIT = 20
BRUTE_P_LIMIT = 6


class OutsideProvenRange(ValueError):
    """Raised for requests not covered by the proved closed-form bounds."""


class ZTriple(_Value):
    """Stratum label (d', d'', [X]) at level q."""

    __slots__ = _fields = ("dprime", "ddouble", "xclass", "q")

    def __init__(self, dprime: DimVector, ddouble: DimVector, xclass: RegularModuleClass,
                 q: int) -> None:
        self._set(dprime, ddouble, xclass, q)

    def is_member(self, t: CanonicalType, p: int) -> bool:
        """Re-check the defining conditions against type t at level p."""
        if not 1 <= self.q <= p:
            return False
        if self.dprime.is_zero() or not in_P(t, self.dprime):
            return False
        if not in_Q(t, self.ddouble):
            return False
        total = self.dprime + self.ddouble + dim_vector(t, self.xclass)
        if total != self.q * basis_h(t):
            return False
        for i in range(1, t.n + 1):
            for j in range(t.m[i - 1]):
                if euler_form(t, self.dprime, basis_e(t, i, j)) != 0:
                    continue
                if not hom_to_simple_nonzero(t, self.xclass, i, j):
                    return False
        return True

    def to_dict(self) -> dict:
        return {
            "dprime": format_dim_vector(self.dprime),
            "ddouble": format_dim_vector(self.ddouble),
            "x": str(self.xclass),
            "q": self.q,
        }


def strata(t: CanonicalType, p: int,
           cap: int = DEFAULT_ZCAP) -> Iterator[tuple[ZTriple, int, int, int, int]]:
    """Every triple z of Z_p with <d',h>, <d',d'>, <d',dim X> and dim End X.

    Yields (z, th, sd, pair, xx) in enumerate_Zp order: the leaves of
    zpstream._ArmZp.blocks, which joins per-tube walks, each built as a
    ZTriple here.  Past ``cap`` triples the stream raises
    EnumerationCapExceeded.
    """
    from .zpstream import _ArmZp  # here, so queries that never enumerate skip it

    zp = _ArmZp(t, p)
    for q, dprime, th, sd, leaves in zp.blocks(cap):
        for entries, members, pair, xx in leaves:
            yield ZTriple(*zp.triple(q, dprime, entries, members)), th, sd, pair, xx


def enumerate_Zp(t: CanonicalType, p: int, cap: int = DEFAULT_ZCAP) -> Iterator[ZTriple]:
    """All stratum labels with q <= p, in canonical order.

    Order: q ascending, d' in cone-P enumeration order, X by nondecreasing
    candidate index.  Componentwise budgets prune the multiset search; the
    stream aborts with EnumerationCapExceeded past ``cap`` triples.
    """
    for z, *_ in strata(t, p, cap):
        yield z


def _deficiency(t: CanonicalType, p: int, q: int, th: int, sd: int) -> int:
    """(p-q)*th + (p-n)*(th - 1) + (sd - 1) for th = <d',h>, sd = <d',d'>."""
    return (p - q) * th + (p - t.n) * (th - 1) + (sd - 1)


def _stratum_codim(p: int, q: int, th: int, sd: int, pair: int, xx: int) -> int:
    """a(p*h) minus the stratum dimension, from <d',h>, <d',d'>, <d',dim X>
    and dim End(X)."""
    return (2 * p - q) * th + sd + pair + xx


def diff(t: CanonicalType, p: int, z: ZTriple) -> int:
    """Deficiency (p-q)<d',h> + (p-n)(<d',h> - 1) + (<d',d'> - 1).

    Nonnegative over all of Z_p exactly when every stratum closure is small
    enough for the set-theoretic complete-intersection conclusion.
    """
    th = euler_form(t, z.dprime, basis_h(t))
    return _deficiency(t, p, z.q, th, euler_quadratic(t, z.dprime))


def stratum_dim(t: CanonicalType, p: int, z: ZTriple) -> int:
    """Dimension of the stratum of modules splitting along z at level p."""
    th = euler_form(t, z.dprime, basis_h(t))
    sd = euler_quadratic(t, z.dprime)
    pair = euler_form(t, z.dprime, dim_vector(t, z.xclass))
    xx = end_dim(t, z.xclass)
    return a_dim(t, p * basis_h(t)) - _stratum_codim(p, z.q, th, sd, pair, xx)


def target_zero_dim(t: CanonicalType, p: int) -> int:
    """Dimension the zero set must attain for the CI conclusion."""
    return a_dim(t, p * basis_h(t)) - t.total - p - 1 + t.n


def _is_equality(t: CanonicalType, p: int, q: int, th: int, pair: int, xx: int) -> bool:
    """The four equality conditions marking a component stratum, from q,
    <d',h>, <d',dim X> and dim End(X)."""
    return th == 1 and q == p and pair == 0 and xx == t.total - t.n * th


def _is_flat(t: CanonicalType, p: int, q: int, th: int, sd: int, pair: int, xx: int) -> bool:
    """Deficiency 0 and the target dimension, the test _is_equality is
    compared with; a(p*h) cancels from both, leaving codim = |m| + p + 1 - n."""
    return (_deficiency(t, p, q, th, sd) == 0
            and _stratum_codim(p, q, th, sd, pair, xx) == t.total + p + 1 - t.n)


def plus_condition(t: CanonicalType, p: int, z: ZTriple) -> bool:
    """The four equality conditions marking a component stratum."""
    th = euler_form(t, z.dprime, basis_h(t))
    if th != 1 or z.q != p:
        return False  # skip the costly pairing and End(X)
    return _is_equality(t, p, z.q, th, euler_form(t, z.dprime, dim_vector(t, z.xclass)),
                        end_dim(t, z.xclass))


def components_bruteforce(t: CanonicalType, p: int) -> list[ZTriple]:
    """All stratum labels satisfying the equality conditions: strata filtered
    by _is_equality."""
    return [z for z, th, _, pair, xx in strata(t, p) if _is_equality(t, p, z.q, th, pair, xx)]


def component_count_formula(t: CanonicalType, p: int) -> int:
    """Closed-form component count (p - n)*prod(m) + sum_i prod_{j != i} m_j.

    Valid for p >= n, where it equals equality_stratum_count: summing
    max(0, p - k) over the offset vectors with k nonzero offsets gives
    p*prod(m) - sum_i (m_i - 1)*prod_{j != i} m_j once no term is clipped.
    For (2,2,2) at p = 4 this is 20; acceptance criterion 3 certifies each
    of the 20 equality strata by an explicit module over Q whose orbit has
    the full zero-set dimension.
    """
    if p < t.n:
        raise ValueError(f"formula needs p >= n = {t.n}, got {p}")
    return (p - t.n) * t.product + sum(t.product // mi for mi in t.m)


def equality_stratum_count(t: CanonicalType, p: int) -> int:
    """Equality strata counted through the slope-one parametrization.

    Each equality stratum is labeled by r >= 0 and per-arm offsets
    l_i in [0, m_i - 1]; the complementary cone-Q vector exists exactly when
    r + #{i : l_i > 0} <= p - 1.  Queries answer by component_count_formula;
    this independent count stays public as the reference the verify suite
    checks the enumerated equality strata against (zeroset/parametrized-count)
    and as the demo's illustration of the parametrization.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    total = 0
    for k in range(t.n + 1):
        n_k = sum(prod(mi - 1 for mi in combo)
                  for combo in combinations(t.m, k))
        total += n_k * max(0, p - k)
    return total


def zeroset_threshold(t: CanonicalType) -> int:
    """Smallest proved level N with the CI conclusion for all p >= N.

    n in the domestic case, n + 1 in the tubular case, and the exact rational
    ceiling of (n + 1)/(1 - delta) in the wild case with delta < 1.  For
    delta >= 1 no bound is proved, so the request is refused.
    """
    d = t.delta
    if d < 0:
        return t.n
    if d == 0:
        return t.n + 1
    if d < 1:
        return ceil(Fraction(t.n + 1) / (1 - d))
    raise OutsideProvenRange(
        f"no proved zero-set bound for {t}: delta = {d} >= 1")


def wild_margin(t: CanonicalType, p: int, x: int) -> Fraction:
    """The concave margin -delta*x^2 + x*(p - n) + (n - p - 1)."""
    return -t.delta * x * x + x * (p - t.n) + (t.n - p - 1)


def check_wild_margin(t: CanonicalType, p: int) -> bool:
    """Verify the margin is positive on [2, p]: for delta > 0 it is concave,
    so its two endpoints decide."""
    if not 0 < t.delta < 1:
        raise ValueError(f"margin check applies only for 0 < delta < 1, got {t.delta}")
    if p < zeroset_threshold(t):
        raise ValueError(f"p={p} is below the proved threshold {zeroset_threshold(t)}")
    return wild_margin(t, p, 2) > 0 and wild_margin(t, p, p) > 0


def _least_deficiency(t: CanonicalType, p: int) -> tuple[int, int]:
    """(least deficiency over all (q, d') with q <= p, least s attaining it).

    (p-q)<d',h> >= 0 puts the least at q = p, and shifting d' by h leaves
    <d',d'> unchanged, so on the slice <d',h> = s the least <d',d'> is the
    geometry slice form, and the deficiency is (p-n)*s + form - (p-n) - 1.
    """
    least, at = geometry._slice_minimum(t, p, p - t.n)
    return least - (p - t.n) - 1, at[0]


def _slice_witness(t: CanonicalType, p: int, s: int) -> ZTriple:
    """The triple at q = p on slice s: d' takes the first least chain of each
    arm, X is the sum of the tube simples d' leaves unseen and d'' the rest
    of p*h.  Raises RuntimeError if it is not a member of Z_p."""
    dprime = DimVector(s, 0, tuple(geometry._arm_first_chain(mi, s) for mi in t.m))
    xclass = RegularModuleClass(tuple(
        TubeIndec(i, j, 1) for i, chain in enumerate(dprime.chains(), start=1)
        for j, (a, b) in enumerate(pairwise(chain)) if a == b))
    z = ZTriple(dprime, p * basis_h(t) - dprime - dim_vector(t, xclass), xclass, p)
    if not z.is_member(t, p):
        raise RuntimeError(f"slice witness {z.to_dict()} is not in Z_p for {t}, p={p}")
    return z


def _decide(t: CanonicalType, p: int) -> ZTriple | None:
    """None when the deficiency is nonnegative over Z_p, else a triple of Z_p
    attaining its negative minimum.

    The criterion needs the variety at p*h to be irreducible, and no pass
    over it is taken: zeroset_threshold refuses delta >= 1, and for
    delta < 1 the bound <d,d> >= -delta*(d0-dinf)^2 gives every slice
    s in [1, p] the cost p*s + <d,d> >= s*(p - delta*s) > 0, as delta*s < p,
    so the variety is normal, hence irreducible, at every level.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    threshold = zeroset_threshold(t)
    if t.delta > 0 and p < threshold:
        raise OutsideProvenRange(
            f"type {t} is wild and p={p} is below its proved threshold {threshold}")
    least, s = _least_deficiency(t, p)
    return None if least >= 0 else _slice_witness(t, p, s)


def zeroset_is_ci(t: CanonicalType, p: int) -> bool:
    """Whether the deficiency is nonnegative over all of Z_p.

    The least deficiency has a closed form over the slices s in [1, p], read
    from at most 2*lcm(m) of them, so the answer enumerates nothing; a
    negative least is attained by a member of Z_p (ZeroSetReport gives it as
    the witness).
    Every type with delta < 1 has an irreducible variety at p*h, so the
    criterion applies without a geometry pass.  Types with delta >= 1, and
    wild types below the proved threshold, are refused with
    OutsideProvenRange.
    """
    return _decide(t, p) is None


class ZeroSetReport(_Value):
    """Summary of the zero-set analysis at level p.

    ``answered_by`` names the route of the CI decision ("closed_form"),
    ``component_count_from`` the route of the count ("closed_form", or None
    when there is no count), and ``witness`` a triple of Z_p attaining the
    negative least deficiency when the answer is no.  The closed component
    count is asserted when the answer is yes and p >= threshold + 1 for
    delta <= 0 (domestic and tubular types), p >= threshold for wild ones.
    """

    __slots__ = _fields = ("p", "is_ci", "component_count", "threshold", "target_dim",
                           "answered_by", "component_count_from", "witness")

    def __init__(self, p: int, is_ci: bool, component_count: int | None, threshold: int,
                 target_dim: int, answered_by: str, component_count_from: str | None,
                 witness: ZTriple | None) -> None:
        self._set(p, is_ci, component_count, threshold, target_dim, answered_by,
                  component_count_from, witness)

    @classmethod
    def compute(cls, t: CanonicalType, p: int) -> "ZeroSetReport":
        threshold = zeroset_threshold(t)
        witness = _decide(t, p)
        ci = witness is None
        count = None
        if ci and p >= threshold + (t.delta <= 0):
            count = component_count_formula(t, p)
        return cls(p=p, is_ci=ci, component_count=count,
                   threshold=threshold, target_dim=target_zero_dim(t, p),
                   answered_by="closed_form",
                   component_count_from=None if count is None else "closed_form",
                   witness=witness)

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "is_ci": self.is_ci,
            "component_count": self.component_count,
            "threshold": self.threshold,
            "target_dim": self.target_dim,
            "answered_by": self.answered_by,
            "component_count_from": self.component_count_from,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out
