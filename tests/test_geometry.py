from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from canalg.forms import (CanonicalType, euler_quadratic,
                          format_dim_vector, zero_vector)
from canalg.cones import in_P
from canalg.geometry import (_arm_min, _arm_min_chains,
                             boundary_component_count, ci_defect,
                             ci_failure_witness, ci_summary, classify_type,
                             component_count, equality_vectors_naive,
                             irreducible_components, is_complete_intersection,
                             is_normal)

T222 = CanonicalType((2, 2, 2))
T236 = CanonicalType((2, 3, 6))
T237 = CanonicalType((2, 3, 7))
T2222 = CanonicalType((2, 2, 2, 2))
T5 = CanonicalType((5, 5, 5, 5, 5))
T36 = CanonicalType((3,) * 6)
T37 = CanonicalType((3,) * 7)


def test_classify_examples():
    assert classify_type(T222) == ("above_boundary", "domestic")
    assert classify_type(T236) == ("above_boundary", "tubular")
    assert classify_type(T237) == ("above_boundary", "wild")
    assert classify_type(T36) == ("on_boundary", "wild")
    assert classify_type(T37) == ("below_boundary", "wild")


def test_ci_defect_examples():
    assert ci_defect(T236, 4) == 0
    assert ci_defect(T5, 5) == 0
    # below the boundary the criterion already fails at moderate levels:
    # the tight slice s = 12 contributes 12*12 - (4/3)*12^2 = -48
    assert ci_defect(T37, 12) == -48


def test_above_boundary_battery():
    for p in range(1, 9):
        assert is_complete_intersection(T236, p)
        assert is_normal(T236, p)


def test_boundary_type_5s():
    assert is_complete_intersection(T5, 5)
    assert not is_normal(T5, 5)
    assert is_complete_intersection(T5, 3)
    assert is_normal(T5, 3)
    comps = irreducible_components(T5, 5)
    assert len(comps) == 2
    assert comps[0] == zero_vector(T5)
    assert format_dim_vector(comps[1]) == "5;4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1;0"
    assert irreducible_components(T5, 4) == [zero_vector(T5)]


def test_components_examples():
    assert irreducible_components(T236, 3) == [zero_vector(T236)]
    with pytest.raises(ValueError):
        irreducible_components(T37, 12)


def test_boundary_component_count():
    assert boundary_component_count(T5, 5) == 2
    assert boundary_component_count(T5, 7) == 1
    assert boundary_component_count(T36, 6) == 2
    with pytest.raises(ValueError):
        boundary_component_count(T222, 2)
    for p in range(1, 7):
        assert component_count(T36, p) == boundary_component_count(T36, p)


def test_ci_failure_witness_values():
    p, d = ci_failure_witness(T237)
    assert p == 42
    assert format_dim_vector(d) == "42;21/28,14/36,30,24,18,12,6;0"
    assert euler_quadratic(T237, d) == -21

    p, d = ci_failure_witness(T36)
    assert p == 729
    assert d.arms[0] == (486, 243)
    # equality case: violates only the strict inequality
    assert euler_quadratic(T36, d) + p * p == 0

    p, d = ci_failure_witness(T37)
    assert p == 2187
    assert in_P(T37, d) and not d.is_zero()
    assert euler_quadratic(T37, d) + p * p < 0
    assert Fraction(euler_quadratic(T37, d)) == -T37.delta * p * p


def test_dp_matches_naive_small():
    for t, p in [(T222, 4), (T236, 3), (CanonicalType((2, 3, 4)), 3), (T2222, 3)]:
        naive_defect, naive_eq = equality_vectors_naive(t, p)
        assert ci_defect(t, p) == naive_defect
        comps = irreducible_components(t, p)
        assert [d.sort_key() for d in comps] == sorted(d.sort_key() for d in naive_eq)


def test_equality_vectors_are_tight_on_boundary():
    from canalg.forms import quadratic_lower_bound
    for t, p in [(T5, 5), (T5, 10), (T36, 3), (T36, 6)]:
        for d in irreducible_components(t, p):
            if not d.is_zero():
                _, tight = quadratic_lower_bound(t, d)
                assert tight


def test_geometry_report():
    summary = ci_summary(T5, 5)
    assert summary["is_ci"] is True
    assert summary["is_normal"] is False
    assert summary["components"] == len(irreducible_components(T5, 5)) == 2
    assert summary["defect"] == 0


def test_p_validation():
    for f in (ci_defect, is_normal, component_count, irreducible_components):
        for p in (0, -1):
            with pytest.raises(ValueError, match="p must be >= 1"):
                f(T222, p)


def test_arm_min_matches_brute_chains():
    # Scan every nonincreasing chain s >= x_1 >= ... >= x_{m-1} >= 0 and
    # evaluate the arm sum directly, with no use of the balanced-step form.
    for m in range(2, 8):
        for s in range(13):
            costs = {}
            for ascending in combinations_with_replacement(range(s + 1), m - 1):
                chain = ascending[::-1]
                prev, cost = s, 0
                for x in chain:
                    cost += x * x - x * prev
                    prev = x
                costs[chain] = cost
            least = min(costs.values())
            assert _arm_min(m, s) == least, (m, s)
            assert _arm_min_chains(m, s) == sorted(c for c, v in costs.items() if v == least)


def test_component_count_matches_listing_on_boundary():
    for t, pmax in [(T5, 12), (T36, 9)]:
        for p in range(1, pmax + 1):
            assert component_count(t, p) == len(irreducible_components(t, p))
