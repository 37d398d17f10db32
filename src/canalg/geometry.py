"""Geometry of the module varieties attached to multiples of the all-ones vector.

The complete-intersection criterion asks whether <d, d> + p*(d0 - dinf) >= 0
for every d in P with d0 <= p; normality asks for strictness away from zero.
Because the quadratic value is invariant under shifts by h, the search space
collapses to slices d with dinf = 0 and d0 = s in [1, p], and within a slice
the form splits into independent per-arm sums.  Each arm sum is half of the
sum of its m_i squared steps from s down to 0, minus s^2; steps summing to s
have the least square sum when balanced, so the minimum is a closed form and
the minimizing chains are the placements of the s mod m_i longer steps.  One
report evaluates the slice table once, in O(n*p).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod
from typing import Literal

from .cones import DEFAULT_CAP, EnumerationCapExceeded, enumerate_P
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


def _slices(t: CanonicalType, p: int) -> tuple[int, list[int]]:
    """Least slice cost and the tight slices, in one pass over s in [1, p].

    The cost of slice s is the minimum of <d, d> + p*s over d in P with
    d0 = s and dinf = 0; a slice is tight when that minimum is 0.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    least, tight = p + 1, []  # the cost of slice 1, whose arms all cost 0
    for s in range(1, p + 1):
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


def equality_vectors_naive(t: CanonicalType, p: int) -> tuple[int, list[DimVector]]:
    """Brute-force fallback: scan all of enumerate_P and return (defect, equality set).

    Cross-checks the closed form on small instances; the equality set lists every d with
    <d, d> + p*(d0 - dinf) = 0 in enumeration order.
    """
    best = 0
    eq: list[DimVector] = []
    for d in enumerate_P(t, p):
        val = euler_quadratic(t, d) + p * (d.d0 - d.dinf)
        if val < best:
            best = val
        if val == 0:
            eq.append(d)
    return best, eq


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
