#!/usr/bin/env python3
"""Complete-intersection and normality decisions across the boundary.

Run:  python demos/demo_geometry.py
"""

from canalg import (CanonicalType, ci_defect, ci_failure_witness,
                    euler_quadratic, format_dim_vector,
                    irreducible_components, is_complete_intersection,
                    is_normal)

print("=" * 72)
print("On the boundary: (5,5,5,5,5), where divisibility decides everything")
print("=" * 72)
t = CanonicalType((5, 5, 5, 5, 5))
for p in range(1, 11):
    ci = is_complete_intersection(t, p)
    normal = is_normal(t, p)
    comps = irreducible_components(t, p)
    tag = "  <-- second component appears" if len(comps) == 2 else ""
    print(f"  p={p:2d}: CI={ci}  normal={normal}  components={len(comps)}{tag}")
print()
print("  the nonzero component at p = 5:")
print("   ", format_dim_vector(irreducible_components(t, 5)[1]))

print()
print("=" * 72)
print("Above the boundary: everything is a normal complete intersection")
print("=" * 72)
for arms in [(2, 2, 2), (2, 3, 6), (2, 2, 2, 2)]:
    t = CanonicalType(arms)
    verdicts = [(p, is_complete_intersection(t, p), is_normal(t, p))
                for p in range(1, 9)]
    assert all(ci and nm for _, ci, nm in verdicts)
    print(f"  {t}: CI and normal for p = 1..8, defects "
          f"{[ci_defect(t, p) for p in range(1, 9)]}")

print()
print("=" * 72)
print("Below the boundary: an explicit failure, no enumeration required")
print("=" * 72)
t = CanonicalType((3, 3, 3, 3, 3, 3, 3))
p, d = ci_failure_witness(t)
q = euler_quadratic(t, d)
print(f"  type {t}: witness level p = {p}")
print(f"  d = {format_dim_vector(d)}")
print(f"  <d, d> = {q}")
print(f"  <d, d> + p*(d0 - dinf) = {q + p * p}  (< 0: the criterion fails)")
print()
print("  At desk scale the same failure is visible in the slice minimum:")
print(f"  ci_defect(p=12) = {ci_defect(t, 12)}")
