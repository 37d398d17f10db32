import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from canalg import geometry, zeroset
from canalg.forms import (CanonicalType, DimVector, euler_quadratic,
                          format_dim_vector, zero_vector)
from canalg.cones import EnumerationCapExceeded, _P_blocks, enumerate_P, in_P
from canalg.geometry import (_arm_min, _arm_min_chains, _block_forms,
                             boundary_component_count, ci_defect,
                             ci_failure_witness, ci_summary, classify_type,
                             component_count, equality_levels_naive,
                             equality_vectors_naive,
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
    # the last three are not normal: with n = 8 arms slice 2 is tight at
    # p = 2, (3,) + (2,)*7 has 3 nonzero components there, and (2,)*9 is not CI
    for m, p in [((2, 2, 2), 4), ((2, 3, 6), 3), ((2, 3, 4), 3), ((2, 2, 2, 2), 3),
                 ((2,) * 8, 2), ((3,) + (2,) * 7, 2), ((2,) * 9, 2)]:
        t = CanonicalType(m)
        naive_defect, naive_eq = equality_vectors_naive(t, p)
        assert ci_defect(t, p) == naive_defect, m
        if naive_defect < 0:
            with pytest.raises(ValueError, match="not a complete intersection"):
                irreducible_components(t, p)
            continue
        comps = irreducible_components(t, p)
        assert [d.sort_key() for d in comps] == sorted(d.sort_key() for d in naive_eq), m
    assert len(irreducible_components(CanonicalType((3,) + (2,) * 7), 2)) == 4
    assert ci_defect(CanonicalType((2,) * 9), 2) < 0


def _slices_full_range(t, p):
    # the reference: every slice s in [1, p], not just geometry._slice_candidates
    costs = [p * s + geometry._slice_form(t, s) for s in range(1, p + 1)]
    return min(costs), [s for s, c in enumerate(costs, start=1) if c == 0]


def _least_deficiency_full_range(t, p):
    return min((zeroset._deficiency(t, p, p, s, geometry._slice_form(t, s)), s)
               for s in range(1, p + 1))


def _assert_candidates_match_full_range(t, p):
    least, tight = geometry._slices(t, p)
    want_least, want_tight = _slices_full_range(t, p)
    assert least == want_least, (t.m, p)
    if least >= 0:  # the tight list is read only then
        assert tight == want_tight, (t.m, p)
    assert zeroset._least_deficiency(t, p) == _least_deficiency_full_range(t, p), (t.m, p)


def test_slice_candidates_match_full_range():
    rng = random.Random(19)
    types = [m for n in range(3, 6) for m in combinations_with_replacement(range(2, 7), n)
             if prod(m) <= 400]
    assert len(types) == 126  # at 22 levels each, 2,772 cases
    for m in types:
        t = CanonicalType(m)
        for p in [*range(1, 20), *(rng.randint(1, 3 * t.lcm + 30) for _ in range(3))]:
            _assert_candidates_match_full_range(t, p)
    for m in [(5,) * 5, (3,) * 6, (3,) * 7, (2,) * 8, (2, 3, 7)]:
        t = CanonicalType(m)
        for p in (2 * t.lcm - 1, 2 * t.lcm, 2 * t.lcm + 1, 3 * t.lcm):
            _assert_candidates_match_full_range(t, p)


def _per_vector_naive(t, p):
    # the per-vector reference: every d of enumerate_P, with one
    # euler_quadratic call each and no block sums
    best, eq = 0, []
    for d in enumerate_P(t, p):
        val = euler_quadratic(t, d) + p * (d.d0 - d.dinf)
        best = min(best, val)
        if val == 0:
            eq.append(d)
    return best, eq


def test_block_scan_matches_per_vector_scan():
    types = [m for n in range(3, 7) for m in combinations_with_replacement(range(2, 16), n)
             if prod(m) <= 30]
    assert len(types) == 12 and (2, 2, 2, 3) in types and (2, 3, 5) in types
    # those are all normal at p <= 4; with n = 8 arms slice 2 is tight at
    # p = 2 (2p + 4 - n = 0), and with 9 it is negative
    for m, pmax in [*((m, 4) for m in types),
                    ((2,) * 8, 2), ((3,) + (2,) * 7, 2), ((2,) * 9, 2)]:
        t = CanonicalType(m)
        levels = equality_levels_naive(t, pmax)
        assert len(levels) == pmax + 1
        for p, level in enumerate(levels):
            assert level == _per_vector_naive(t, p), (m, p)
    assert len(equality_vectors_naive(CanonicalType((3,) + (2,) * 7), 2)[1]) == 4
    assert equality_vectors_naive(CanonicalType((2,) * 9), 2)[0] == -1
    for m, p in [((2, 3, 7), 4), ((7, 3, 2), 3)]:
        t = CanonicalType(m)
        assert equality_vectors_naive(t, p) == _per_vector_naive(t, p), (m, p)


def test_block_forms_match_the_form_vector_by_vector():
    # every small type is normal at p <= 4, so its equality lists are [zero]
    # and cannot see a block value that is too high; compare every value
    for m, pmax in [((2, 3, 7), 4), ((7, 3, 2), 3), ((2, 2, 2, 2), 3), ((3,) * 6, 1)]:
        t = CanonicalType(m)
        for d0, dinf, chains in _P_blocks(t, pmax):
            want = [euler_quadratic(t, DimVector(d0, dinf, c)) for c in product(*chains)]
            assert _block_forms(t, d0, dinf, chains) == want, (m, d0, dinf)


def test_block_scan_keeps_the_enumeration_bounds(monkeypatch):
    with pytest.raises(ValueError, match="p must be >= 0, got -1"):
        equality_vectors_naive(T222, -1)
    assert equality_vectors_naive(T222, 0) == (0, [zero_vector(T222)])
    # 9 vectors of P at p = 1, 44 at p = 2: the cap counts the zero vector
    monkeypatch.setattr(geometry, "DEFAULT_CAP", 44)
    assert len(equality_levels_naive(T222, 2)) == 3
    monkeypatch.setattr(geometry, "DEFAULT_CAP", 43)
    with pytest.raises(EnumerationCapExceeded, match="cap 43 exceeded while enumerating P"):
        equality_levels_naive(T222, 2)


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


def test_first_arm_chain_is_the_least_listed_chain():
    for m in range(2, 8):
        for s in range(13):
            assert geometry._arm_first_chain(m, s) == _arm_min_chains(m, s)[0], (m, s)


def test_component_count_matches_listing_on_boundary():
    for t, pmax in [(T5, 12), (T36, 9)]:
        for p in range(1, pmax + 1):
            assert component_count(t, p) == len(irreducible_components(t, p))
