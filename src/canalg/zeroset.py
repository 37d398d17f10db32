"""Zero set of semi-invariants at levels p*h: stratum index set, dimension
bookkeeping, complete-intersection decision and component counting.

The index set Z_p consists of triples (d', d'', [X]) with d' a nonzero cone-P
vector, d'' a cone-Q vector and X a class of exceptional-tube modules, summing
to q*h for some q <= p, such that every tube simple (i, j) is "seen": either
d' pairs nontrivially against e_{i,j} or X maps onto that simple.  Strata are
irreducible of known dimension; the decision and the component count reduce to
the sign of an integer deficiency function over Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import prod
from typing import Iterator

from . import geometry
from .cones import EnumerationCapExceeded, enumerate_P, in_P, in_Q
from .forms import (CanonicalType, DimVector, a_dim, basis_e, basis_h,
                    euler_form, euler_quadratic, format_dim_vector)
from .tubes import RegularModuleClass, TubeIndec, dim_vector, end_dim, hom_to_simple_nonzero

DEFAULT_ZCAP = 5 * 10**6

# Exhaustive Z_p enumeration is desk-scale only; beyond these limits the
# closed bounds are the only available route.
BRUTE_PRODUCT_LIMIT = 20
BRUTE_P_LIMIT = 6


class OutsideProvenRange(ValueError):
    """Raised for requests not covered by the proved closed-form bounds."""


@dataclass(frozen=True)
class ZTriple:
    """Stratum label (d', d'', [X]) at level q."""

    dprime: DimVector
    ddouble: DimVector
    xclass: RegularModuleClass
    q: int

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


def _flat(d: DimVector) -> tuple[int, ...]:
    return (d.d0, d.dinf) + tuple(x for arm in d.arms for x in arm)


def _unflat(t: CanonicalType, flat: tuple[int, ...]) -> DimVector:
    arms = []
    pos = 2
    for mi in t.m:
        arms.append(tuple(flat[pos:pos + mi - 1]))
        pos += mi - 1
    return DimVector(flat[0], flat[1], tuple(arms))


def _tube_candidates(t: CanonicalType, level: int):
    """All (indec, flat dim, top bit) with every coordinate <= level."""
    base = {}
    acc = 0
    for i, mi in enumerate(t.m, start=1):
        base[i] = acc
        acc += mi
    out = []
    for i, mi in enumerate(t.m, start=1):
        for a in range(mi):
            for qlen in range(1, mi * (level + 1)):
                x = TubeIndec(i, a, qlen)
                flat = _flat(dim_vector(t, x))
                if max(flat) > level:
                    break
                top = (a + qlen - 1) % mi
                out.append((x, flat, 1 << (base[i] + top)))
    return out, base


def _blocks(t: CanonicalType, p: int):
    """Every (q, d', triples) with q <= p and d' nonzero in enumerate_P(t, q).

    ``triples()`` runs the completion search for that block lazily: it builds
    the budget, the mask of tube simples d' leaves unseen and the fitting
    candidates only when called, then yields the block's triples in canonical
    order.  Everything the deficiency reads (q and d') is known without it.
    """
    cands, base = _tube_candidates(t, p)
    suffix_mask = [0] * (len(cands) + 1)
    for k in range(len(cands) - 1, -1, -1):
        suffix_mask[k] = suffix_mask[k + 1] | cands[k][2]

    def completions(dprime: DimVector, q: int) -> Iterator[ZTriple]:
        budget = tuple(q - b for b in _flat(dprime))
        needed = 0
        for i, mi in enumerate(t.m, start=1):
            for j in range(mi):
                if dprime.entry(i, j) == dprime.entry(i, j + 1):
                    needed |= 1 << (base[i] + j)
        fits = [k for k, (_, dim, _) in enumerate(cands)
                if all(x <= y for x, y in zip(dim, budget))]
        return _extend(t, dprime, q, cands, fits, 0, budget,
                       0, needed, suffix_mask, [])

    for q in range(1, p + 1):
        for dprime in enumerate_P(t, q):
            if not dprime.is_zero():
                yield q, dprime, partial(completions, dprime, q)


def enumerate_Zp(t: CanonicalType, p: int, cap: int = DEFAULT_ZCAP) -> Iterator[ZTriple]:
    """All stratum labels with q <= p, in canonical order.

    Order: q ascending, d' in cone-P enumeration order, X by nondecreasing
    candidate index.  Componentwise budgets prune the multiset search; the
    stream aborts with EnumerationCapExceeded past ``cap`` triples.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    emitted = 0
    for _, _, triples in _blocks(t, p):
        for triple in triples():
            emitted += 1
            if emitted > cap:
                raise EnumerationCapExceeded(
                    f"cap {cap} exceeded enumerating Z_p for {t}, p={p}")
            yield triple


def _extend(t, dprime, q, cands, fits, start, budget, covered, needed,
            suffix_mask, members) -> Iterator[ZTriple]:
    if covered & needed == needed and _in_Q_flat(t, budget):
        yield ZTriple(dprime, _unflat(t, budget),
                      RegularModuleClass(tuple(members)), q)
    for pos in range(start, len(fits)):
        k = fits[pos]
        missing = needed & ~covered
        if missing and missing & ~suffix_mask[k]:
            break  # later candidates cannot supply the missing tops
        x, dim, topbit = cands[k]
        new_budget = tuple(a - b for a, b in zip(budget, dim))
        if min(new_budget) < 0:
            continue
        sub_fits = [kk for kk in fits[pos:]
                    if all(a <= b for a, b in zip(cands[kk][1], new_budget))]
        members.append(x)
        yield from _extend(t, dprime, q, cands, sub_fits, 0, new_budget,
                           covered | topbit, needed, suffix_mask, members)
        members.pop()


def _in_Q_flat(t: CanonicalType, flat: tuple[int, ...]) -> bool:
    d0, dinf = flat[0], flat[1]
    if all(x == 0 for x in flat):
        return True
    if not 0 <= d0 < dinf:
        return False
    pos = 2
    for mi in t.m:
        prev = d0
        for j in range(mi - 1):
            cur = flat[pos + j]
            if cur < prev:
                return False
            prev = cur
        if dinf < prev:
            return False
        pos += mi - 1
    return True


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


def plus_condition(t: CanonicalType, p: int, z: ZTriple) -> bool:
    """The four equality conditions marking a component stratum."""
    th = euler_form(t, z.dprime, basis_h(t))
    if th != 1 or z.q != p:
        return False
    if euler_form(t, z.dprime, dim_vector(t, z.xclass)) != 0:
        return False
    return end_dim(t, z.xclass) == t.total - t.n * th


def components_bruteforce(t: CanonicalType, p: int, cap: int = DEFAULT_ZCAP) -> list[ZTriple]:
    """All stratum labels satisfying the equality conditions, by exhaustion."""
    return [z for z in enumerate_Zp(t, p, cap=cap) if plus_condition(t, p, z)]


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
    r + #{i : l_i > 0} <= p - 1.
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
        ratio = Fraction(t.n + 1) / (1 - d)
        return -((-ratio.numerator) // ratio.denominator)
    raise OutsideProvenRange(
        f"no proved zero-set bound for {t}: delta = {d} >= 1")


def count_valid_from(t: CanonicalType) -> int:
    """Smallest level at which the closed component count is asserted."""
    d = t.delta
    if d < 0:
        return t.n + 1
    if d == 0:
        return t.n + 2
    if d < 1:
        return zeroset_threshold(t)
    raise OutsideProvenRange(
        f"no proved zero-set bound for {t}: delta = {d} >= 1")


def wild_margin(t: CanonicalType, p: int, x: int) -> Fraction:
    """The concave margin -delta*x^2 + x*(p - n) + (n - p - 1)."""
    return -t.delta * x * x + x * (p - t.n) + (t.n - p - 1)


def check_wild_margin(t: CanonicalType, p: int) -> bool:
    """Verify the margin is positive at 2, at p, and at every integer between.

    Concavity makes the endpoints sufficient; the interior points are checked
    anyway since the whole computation is exact.
    """
    if not 0 < t.delta < 1:
        raise ValueError(f"margin check applies only for 0 < delta < 1, got {t.delta}")
    if p < zeroset_threshold(t):
        raise ValueError(f"p={p} is below the proved threshold {zeroset_threshold(t)}")
    return all(wild_margin(t, p, x) > 0 for x in range(2, p + 1))


def _negative_witness(t: CanonicalType, p: int,
                      cap: int = DEFAULT_ZCAP) -> ZTriple | None:
    """A triple of Z_p with negative deficiency, or None if there is none.

    The deficiency reads only q and d', so it is evaluated once per (q, d')
    block; only a negative block runs its completion search, and its first
    triple (if any) is the witness.  Past ``cap`` blocks the scan raises
    EnumerationCapExceeded.
    """
    h = basis_h(t)
    for seen, (q, dprime, triples) in enumerate(_blocks(t, p), start=1):
        if seen > cap:
            raise EnumerationCapExceeded(
                f"cap {cap} exceeded scanning the (q, d') blocks of Z_p for {t}, p={p}")
        th = euler_form(t, dprime, h)
        if _deficiency(t, p, q, th, euler_quadratic(t, dprime)) < 0:
            witness = next(triples(), None)
            if witness is not None:
                return witness
    return None


def _decide(t: CanonicalType, p: int,
            cap: int) -> tuple[bool, str, ZTriple | None]:
    """(is_ci, route, witness): the zero-set decision and how it was reached."""
    if geometry.component_count(t, p) != 1:
        raise ValueError(
            f"variety for {t} at p={p} is not irreducible; the zero-set "
            f"criterion does not apply")
    if t.product <= BRUTE_PRODUCT_LIMIT and p <= BRUTE_P_LIMIT:
        witness = _negative_witness(t, p, cap)
        return witness is None, "enumeration", witness
    if t.delta < 1 and p >= zeroset_threshold(t):
        return True, "proved_bound", None
    raise OutsideProvenRange(
        f"type {t} at p={p} is outside both the enumeration window and the "
        f"proved bounds")


def zeroset_is_ci(t: CanonicalType, p: int, cap: int = DEFAULT_ZCAP) -> bool:
    """Whether the deficiency is nonnegative over all of Z_p.

    Requires the module variety at p*h to be irreducible.  Inside the
    desk-scale window (arm product <= BRUTE_PRODUCT_LIMIT, p <= BRUTE_P_LIMIT)
    the answer is computed by scanning the (q, d') blocks of Z_p, with
    ``cap`` bounding the number of blocks; outside it, levels at or above the
    proved threshold return True and anything else is refused.
    """
    return _decide(t, p, cap)[0]


@dataclass(frozen=True)
class ZeroSetReport:
    """Summary of the zero-set analysis at level p.

    ``answered_by`` names the route of the CI decision ("enumeration" inside
    the window, "proved_bound" outside it), ``component_count_from`` the
    route of the count ("closed_form", or None when there is no count), and
    ``witness`` a triple with negative deficiency when enumeration says no.
    """

    p: int
    is_ci: bool
    component_count: int | None
    threshold: int
    target_dim: int
    answered_by: str
    component_count_from: str | None
    witness: ZTriple | None

    @classmethod
    def compute(cls, t: CanonicalType, p: int,
                cap: int = DEFAULT_ZCAP) -> "ZeroSetReport":
        threshold = zeroset_threshold(t)
        ci, route, witness = _decide(t, p, cap)
        count = None
        if ci and p >= count_valid_from(t):
            count = component_count_formula(t, p)
        return cls(p=p, is_ci=ci, component_count=count,
                   threshold=threshold, target_dim=target_zero_dim(t, p),
                   answered_by=route,
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
