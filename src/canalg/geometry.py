"""Geometry of the module varieties attached to multiples of the all-ones vector.

The complete-intersection criterion asks whether <d, d> + p*(d0 - dinf) >= 0
for every d in P with d0 <= p; normality asks for strictness away from zero.
Because the quadratic value is invariant under shifts by h, the search space
collapses to slices d with dinf = 0 and d0 = s in [1, p], and within a slice
the form splits into independent per-arm sums.  Each arm sum is half of the
sum of its m_i squared steps from s down to 0, minus s^2; steps summing to s
have the least square sum when balanced, so the minimum is a closed form and
the minimizing chains are the placements of the s mod m_i longer steps.

Every level is decided from at most 2L slices, L = lcm(m) (_slice_candidates):
all of [1, p] when p <= 2L, else [1, L] and [p - L + 1, p].  With s = q*m_i + r
the arm minimum is (s^2 (1/m_i - 1) + r (m_i - r)/m_i) / 2, so the slice form
is -delta*s^2 + rho(s mod L) with rho >= 0.  On a class s = r (mod L) in
[1, p] the CI cost p*s + form, and the zero-set deficiency at q = p,
(p - n)(s - 1) + form - 1, are quadratics in s.  For delta > 0 they are
strictly concave, so each interior element of the class is strictly above
the lesser end, and every least element is an end.  For delta <= 0,
sum 1/m_i >= n - 2 and each 1/m_i <= 1/2 give n <= 4 <= 2L, so p > 2L gives
p > n: both linear coefficients are positive and -delta >= 0, so along the
class the cost strictly increases and the deficiency does not decrease, and
the first element is least (for the cost, the only least one).  The first
element of a class lies in [1, L] and its last in [p - L + 1, p].  So the set
holds the exact least value of both; every slice of least cost, hence every
tight slice when the least cost is 0 (none is tight when it is positive);
and the smallest s of least deficiency, the zero-set witness, since for
delta <= 0 the first element of a least element's class is least too, and no
larger.

The exhaustive reference (equality_levels_naive) checks that closed form
against every vector of P.  It reads P once up to the top level, one block of
fixed (d0, dinf) at a time: level p is the prefix of blocks with d0 <= p, so
one pass answers every level.  Within a block the form is summed arm by arm,
from one euler_quadratic call for the block's base and one per chain of each
arm (the arms share no vertex and no arrow), and the per-vector sums run in
C.  It stays independent of the closed form: it visits every d0, every dinf
and every chain, tight or not, and reads no h-shift, no balanced-step
argument and no list of tight slices; euler_form is its only evaluator of
the form.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, product
from math import comb, prod
from typing import Iterator, Literal

from .cones import DEFAULT_CAP, EnumerationCapExceeded, _P_blocks
from .forms import CanonicalType, DimVector, basis_h, euler_quadratic, zero_vector

Boundary = Literal["above_boundary", "on_boundary", "below_boundary"]
ReprType = Literal["domestic", "tubular", "wild"]


def classify_type(t: CanonicalType) -> tuple[Boundary, ReprType]:
    """Position of sum(1/m_i) relative to n - 4, and the representation type."""
    s = t.sum_reciprocals
    b = t.n - 4
    if s > b:
        boundary: Boundary = "above_boundary"
    elif s == b:
        boundary = "on_boundary"
    else:
        boundary = "below_boundary"
    d = t.delta
    repr_type: ReprType = "domestic" if d < 0 else ("tubular" if d == 0 else "wild")
    return boundary, repr_type


def _arm_min(mi: int, s: int) -> int:
    """Least cost of one arm: sum of x_j^2 - x_j*x_{j-1} over j < mi, x_0 = s.

    With x_mi = 0 the cost is (sum of the mi squared steps x_{j-1} - x_j,
    minus s^2) / 2, and the steps are nonnegative integers summing to s, so
    the minimum takes r = s mod mi steps of q + 1 = ceil(s/mi) and the rest
    of q = floor(s/mi).
    """
    q, r = divmod(s, mi)
    return ((mi - r) * q * q + r * (q + 1) * (q + 1) - s * s) // 2


def _arm_min_chains(mi: int, s: int) -> list[tuple[int, ...]]:
    """All nonincreasing chains attaining the per-arm minimum, sorted.

    One chain per placement of the s mod mi long steps among the mi steps.
    """
    q, r = divmod(s, mi)
    chains = []
    for longs in combinations(range(mi), r):
        x, chain = s, []
        for j in range(mi - 1):
            x -= q + (j in longs)
            chain.append(x)
        chains.append(tuple(chain))
    chains.sort()
    return chains


def _slice_form(t: CanonicalType, s: int) -> int:
    """Least <d, d> over d in P with d0 = s and dinf = 0, attained by the
    vectors whose arms are chains of _arm_min_chains."""
    return s * s + sum(_arm_min(mi, s) for mi in t.m)


def _slice_candidates(t: CanonicalType, p: int) -> Iterator[int]:
    """The slices that decide level p, ascending: all of [1, p] when
    p <= 2*lcm(m), else [1, lcm] and [p - lcm + 1, p] (module docstring)."""
    L = t.lcm
    return chain(range(1, min(p, L) + 1), range(max(L, p - L) + 1, p + 1))


def _slices(t: CanonicalType, p: int) -> tuple[int, list[int]]:
    """Least slice cost and the tight slices, from _slice_candidates.

    The cost of slice s is the minimum of <d, d> + p*s over d in P with
    d0 = s and dinf = 0; a slice is tight when that minimum is 0.  The tight
    list is complete whenever the least cost is >= 0, the only case that
    reads it.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    least, tight = p + 1, []  # the cost of slice 1, whose arms all cost 0
    for s in _slice_candidates(t, p):
        cost = p * s + _slice_form(t, s)
        least = min(least, cost)
        if cost == 0:
            tight.append(s)
    return least, tight


def _require_ci(t: CanonicalType, p: int, least: int) -> None:
    if least < 0:
        raise ValueError(f"variety for {t} at p={p} is not a complete intersection")


def _count(t: CanonicalType, p: int, tight: list[int]) -> int:
    """Equality vectors: zero, plus each tight slice's chain product times its translates."""
    return 1 + sum(prod(comb(mi, s % mi) for mi in t.m) * (p - s + 1) for s in tight)


def ci_summary(t: CanonicalType, p: int) -> dict:
    """CI and normality decision, component count (None unless CI) and defect
    from one slice pass, listing no component."""
    least, tight = _slices(t, p)
    return {"p": p, "is_ci": least >= 0, "is_normal": least > 0,
            "components": _count(t, p, tight) if least >= 0 else None,
            "defect": min(0, least)}


def ci_defect(t: CanonicalType, p: int) -> int:
    """Minimum of <d, d> + p*(d0 - dinf) over d in P with d0 <= p.

    The zero vector contributes 0, so the defect is never positive; it is 0
    exactly when the variety at p*h is a complete intersection.
    """
    return min(0, _slices(t, p)[0])


def is_complete_intersection(t: CanonicalType, p: int) -> bool:
    return ci_defect(t, p) >= 0


def is_normal(t: CanonicalType, p: int) -> bool:
    """Strict criterion: <d, d> > -p*(d0 - dinf) for every nonzero d in P, d0 <= p."""
    return _slices(t, p)[0] > 0


def component_count(t: CanonicalType, p: int) -> int:
    """Number of irreducible components, counted from the closed form without materializing."""
    least, tight = _slices(t, p)
    _require_ci(t, p, least)
    return _count(t, p, tight)


def irreducible_components(t: CanonicalType, p: int, cap: int = DEFAULT_CAP) -> list[DimVector]:
    """All d in P with d0 <= p attaining <d, d> = -p*(d0 - dinf), zero included.

    Only defined when the variety is a complete intersection; refuses otherwise.
    Each equality vector with dinf = 0 generates translates d + c*h for
    c in [0, p - d0], all of which attain equality as well.
    """
    least, tight = _slices(t, p)
    _require_ci(t, p, least)
    count = _count(t, p, tight)
    if count > cap:
        raise EnumerationCapExceeded(f"component count {count} exceeds cap {cap}")
    h = basis_h(t)
    out = [zero_vector(t)]
    for s in tight:
        for combo in product(*(_arm_min_chains(mi, s) for mi in t.m)):
            base = DimVector(s, 0, combo)
            for c in range(p - s + 1):
                out.append(base + c * h)
    out.sort(key=lambda d: d.sort_key())
    return out


def _block_forms(t: CanonicalType, d0: int, dinf: int,
                 chains: list[list[tuple[int, ...]]]) -> list[int]:
    """<d, d> for each d = DimVector(d0, dinf, combo) of a block of P, combo
    over product(*chains) in order, from one euler_quadratic call per chain.

    With B = (d0, dinf, zero arms) and A_i arm i's interior part, two arms
    share no vertex and no arrow, so <A_i, A_j> = 0 for i != j, and by
    bilinearity <d, d> = <B, B> + sum_i (<B + A_i, B + A_i> - <B, B>).
    """
    arms = zero_vector(t).arms
    base = euler_quadratic(t, DimVector(d0, dinf, arms))
    tables = [[euler_quadratic(t, DimVector(d0, dinf, (*arms[:i], c, *arms[i + 1:]))) - base
               for c in arm_chains] for i, arm_chains in enumerate(chains)]
    tables[0] = [base + x for x in tables[0]]
    return list(map(sum, product(*tables)))


def equality_levels_naive(t: CanonicalType, pmax: int) -> list[tuple[int, list[DimVector]]]:
    """Exhaustive reference for every level p in [0, pmax], from one scan of P.

    Entry p is equality_vectors_naive(t, p): the least of
    <d, d> + p*(d0 - dinf) over d in P with d0 <= p, and the d attaining 0,
    zero first and then in enumerate_P order.  Level p reads the blocks with
    d0 <= p: enumerate_P(t, p) is that prefix of enumerate_P(t, pmax).
    Raises EnumerationCapExceeded past DEFAULT_CAP vectors, as enumerate_P does.
    """
    if pmax < 0:
        raise ValueError(f"p must be >= 0, got {pmax}")
    zero = zero_vector(t)
    least = [0] * (pmax + 1)
    eq = [[zero] for _ in range(pmax + 1)]
    seen = 1
    for d0, dinf, chains in _P_blocks(t, pmax):
        seen += prod(map(len, chains))
        if seen > DEFAULT_CAP:
            raise EnumerationCapExceeded(
                f"cap {DEFAULT_CAP} exceeded while enumerating P for {t}, p={pmax}")
        values = _block_forms(t, d0, dinf, chains)
        lo, slope = min(values), d0 - dinf
        for p in range(d0, pmax + 1):
            least[p] = min(least[p], lo + p * slope)
            if lo <= -p * slope:
                hits = map((-p * slope).__eq__, values)
                eq[p] += (DimVector(d0, dinf, c) for c in compress(product(*chains), hits))
    return list(zip(least, eq))


def equality_vectors_naive(t: CanonicalType, p: int) -> tuple[int, list[DimVector]]:
    """Exhaustive reference: (defect, equality set) from a scan of all of P with d0 <= p.

    Cross-checks the closed form on small instances; the equality set lists every d with
    <d, d> + p*(d0 - dinf) = 0 in enumeration order.  Level p of equality_levels_naive.
    """
    return equality_levels_naive(t, p)[p]


def boundary_component_count(t: CanonicalType, p: int) -> int:
    """Predicted component count on the boundary: 2 if lcm(m) divides p, else 1."""
    boundary, _ = classify_type(t)
    if boundary != "on_boundary":
        raise ValueError(f"type {t} is not on the boundary (sum 1/m_i = n - 4)")
    return 2 if p % t.lcm == 0 else 1


def ci_failure_witness(t: CanonicalType) -> tuple[int, DimVector]:
    """The tight case of the quadratic bound at level p = prod(m).

    p is divisible by every arm length, so the averaged coordinates
    (m_i - j) * p / m_i are integers; the vector lies in P, is nonzero, and
    satisfies <d, d> = -delta * p * (d0 - dinf) exactly.  On the boundary it
    violates the strict (normality) criterion, below the boundary also the
    weak (complete-intersection) one; above the boundary no violation exists
    and the vector is merely the extremal case.
    """
    p = t.product
    arms = tuple(tuple((mi - j) * p // mi for j in range(1, mi)) for mi in t.m)
    return p, DimVector(p, 0, arms)
