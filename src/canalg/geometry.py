"""Geometry of the module varieties attached to multiples of the all-ones vector.

The complete-intersection criterion asks whether <d, d> + p*(d0 - dinf) >= 0
for every d in P with d0 <= p; normality asks for strictness away from zero.
Because the quadratic value is invariant under shifts by h, the search space
collapses to slices d with dinf = 0 and d0 = s in [1, p], and within a slice
the form splits into independent per-arm sums.  Each arm sum is half of the
sum of its m_i squared steps from s down to 0, minus s^2; steps summing to s
have the least square sum when balanced, so the minimum is a closed form and
the minimizing chains are the placements of the s mod m_i longer steps.

Both level questions are the least of cost(s) = a*s + form(s), form(s) the
least <d, d> on slice s in [1, p]: the CI cost with a = p and the zero-set
deficiency (zeroset._least_deficiency) with a = p - n.  With s = q*m_i + r
the arm minimum is (s^2 (1/m_i - 1) + r (m_i - r)/m_i) / 2, so form(s) =
-delta*s^2 + rho(s) with 0 <= rho <= R = sum(m_i)/8, and cost(s) >= f(s) =
a*s - delta*s^2.  The least cost is at most c = min(cost(1), cost(p)), so
every least slice has f <= c, as has the end attaining c; f is a quadratic,
so {f <= c} on [1, p] is a run from 1 and a run to p (for delta > 0 the
complement of an open interval, else an interval holding that end), and
_slice_minimum walks each until f > c, in integers as 2*lcm(m)*delta is one.
For delta > 0, f lies delta*(s - 1)*(p - s) above its chord and c at most R
above the chord's lower end, so f <= c gives min(s - 1, p - s)^2 <= R/delta,
where 2*delta >= 1/42, met at (2,3,7).  For delta <= 0, n <= 4; a >= 1 gives
f(s) >= f(1) + s - 1 and c <= cost(1) = f(1) + 1 + delta, so s <= 2; a < 1
gives p <= n.  So at most max(4, 2*sqrt(R/delta) + 2) slices are read (the
ends alone for delta > 0 once p > R/delta + 2), and they hold the least cost,
the tight slices and the smallest slice of least deficiency (the witness).
"""

from __future__ import annotations

from itertools import chain, combinations, product, takewhile
from math import comb, prod
from typing import Literal

from .cones import DEFAULT_CAP, EnumerationCapExceeded
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
    """All nonincreasing chains attaining the per-arm minimum, one per placement
    of the s mod mi long steps; lexicographic placements give them ascending."""
    q, r = divmod(s, mi)
    chains = []
    for longs in combinations(range(mi), r):
        x, chain = s, []
        for j in range(mi - 1):
            x -= q + (j in longs)
            chain.append(x)
        chains.append(tuple(chain))
    return chains


def _arm_first_chain(mi: int, s: int) -> tuple[int, ...]:
    """The least chain of _arm_min_chains(mi, s), built alone: the long steps first."""
    q, r = divmod(s, mi)
    return tuple(s - j * q - min(j, r) for j in range(1, mi))


def _slice_form(t: CanonicalType, s: int) -> int:
    """Least <d, d> over d in P with d0 = s and dinf = 0, attained by the
    vectors whose arms are chains of _arm_min_chains."""
    return s * s + sum(_arm_min(mi, s) for mi in t.m)


def _slice_minimum(t: CanonicalType, p: int, a: int) -> tuple[int, list[int]]:
    """Least a*s + _slice_form(t, s) over the slices s in [1, p] and every s
    attaining it, ascending, read on the ends and on the runs from each end
    where a*s - delta*s^2 is at most the lesser end's (module docstring)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    L = t.lcm
    delta_2l = L * (t.n - 2) - sum(L // mi for mi in t.m)  # 2*L*delta
    cost = {s: a * s + _slice_form(t, s) for s in (1, p)}
    c = min(cost.values())

    def may_be_least(s: int) -> bool:  # a*s - delta*s^2 <= c
        return 2 * L * (a * s - c) <= delta_2l * s * s

    head = list(takewhile(may_be_least, range(1, p + 1)))
    tail = takewhile(may_be_least, range(p, len(head), -1))
    cost |= {s: a * s + _slice_form(t, s) for s in chain(head, tail) if s not in cost}
    least = min(cost.values())
    return least, sorted(s for s, value in cost.items() if value == least)


def _slices(t: CanonicalType, p: int) -> tuple[int, list[int]]:
    """Least slice cost and the tight slices, those of cost 0, where the cost of
    slice s is the least <d, d> + p*s over d in P with d0 = s and dinf = 0;
    the tight list is complete when the least cost is >= 0, else empty."""
    least, at = _slice_minimum(t, p, p)
    return least, at if least == 0 else []


def _ci_tight(t: CanonicalType, p: int) -> list[int]:
    """The tight slices at level p; refuses a level that is not CI."""
    least, tight = _slices(t, p)
    if least < 0:
        raise ValueError(f"variety for {t} at p={p} is not a complete intersection")
    return tight


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


def witness_summary(t: CanonicalType) -> dict:
    """ci_failure_witness's p and d, <d, d>, the criterion value <d, d> + p*(d0 - dinf)
    and what it violates: "weak" (CI) below 0, "strict_only" (normality) at 0, else "none"."""
    p, d = ci_failure_witness(t)
    q = euler_quadratic(t, d)
    value = q + p * (d.d0 - d.dinf)
    return {"p": p, "d": d, "quadratic": q, "criterion_value": value,
            "violates": "weak" if value < 0 else "strict_only" if value == 0 else "none"}


def ci_defect(t: CanonicalType, p: int) -> int:
    """Minimum of <d, d> + p*(d0 - dinf) over d in P with d0 <= p: never positive,
    as the zero vector gives 0, and 0 exactly when the variety at p*h is CI."""
    return min(0, _slices(t, p)[0])


def is_complete_intersection(t: CanonicalType, p: int) -> bool:
    return ci_defect(t, p) >= 0


def is_normal(t: CanonicalType, p: int) -> bool:
    """Strict criterion: <d, d> > -p*(d0 - dinf) for every nonzero d in P, d0 <= p."""
    return _slices(t, p)[0] > 0


def component_count(t: CanonicalType, p: int) -> int:
    """Number of irreducible components, counted from the closed form without materializing."""
    return _count(t, p, _ci_tight(t, p))


def irreducible_components(t: CanonicalType, p: int, cap: int = DEFAULT_CAP) -> list[DimVector]:
    """All d in P with d0 <= p attaining <d, d> = -p*(d0 - dinf), zero included.

    Only defined when the variety is a complete intersection; refuses otherwise.
    Each equality vector with dinf = 0 generates translates d + c*h for
    c in [0, p - d0], all of which attain equality as well.
    """
    tight = _ci_tight(t, p)
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
