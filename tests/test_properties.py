"""Property tests for the algebraic identities, over random types and vectors."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from canalg.cones import decompose_slope_one, in_P, in_Q
from canalg.forms import (CanonicalType, DimVector, a_dim, basis_e, basis_h,
                          euler_form, euler_quadratic, format_dim_vector,
                          gl_dim, parse_dim_vector, quadratic_lower_bound,
                          quadratic_via_decomposition, slope_one_vector)


@st.composite
def types(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    return CanonicalType(tuple(draw(st.integers(min_value=2, max_value=6))
                               for _ in range(n)))


@st.composite
def type_and_vector(draw, lo=-15, hi=15):
    t = draw(types())
    vec = DimVector(draw(st.integers(lo, hi)), draw(st.integers(lo, hi)),
                    tuple(tuple(draw(st.integers(lo, hi)) for _ in range(mi - 1))
                          for mi in t.m))
    return t, vec


@st.composite
def type_and_cone_vector(draw, hi=8):
    t = draw(types())
    dinf = draw(st.integers(0, hi - 1))
    d0 = draw(st.integers(dinf + 1, hi))
    arms = []
    for mi in t.m:
        prev = d0
        chain = []
        for _ in range(mi - 1):
            prev = draw(st.integers(dinf, prev))
            chain.append(prev)
        arms.append(tuple(chain))
    return t, DimVector(d0, dinf, tuple(arms))


@settings(deadline=None, max_examples=200)
@given(type_and_vector())
def test_decomposition_equals_bilinear(tv):
    t, d = tv
    assert quadratic_via_decomposition(t, d) == euler_quadratic(t, d)


@settings(deadline=None, max_examples=200)
@given(type_and_vector())
def test_lower_bound_and_tightness(tv):
    t, d = tv
    q = euler_quadratic(t, d)
    bound, tight = quadratic_lower_bound(t, d)
    assert q >= bound
    assert (Fraction(q) == bound) == tight


@settings(deadline=None, max_examples=200)
@given(type_and_vector())
def test_pairing_identities(tv):
    t, d = tv
    h = basis_h(t)
    assert euler_form(t, d, h) == d.d0 - d.dinf
    assert euler_form(t, h, d) == -(d.d0 - d.dinf)
    for i, mi in enumerate(t.m, start=1):
        for j in range(1, mi):
            assert euler_form(t, basis_e(t, i, j), d) == d.entry(i, j) - d.entry(i, j - 1)
        assert euler_form(t, basis_e(t, i, 0), d) == d.entry(i, mi) - d.entry(i, mi - 1)
        for j in range(mi):
            assert euler_form(t, d, basis_e(t, i, j)) == d.entry(i, j) - d.entry(i, j + 1)


@settings(deadline=None, max_examples=200)
@given(type_and_vector(), st.integers(0, 5))
def test_h_translation_invariance(tv, c):
    t, d = tv
    assert euler_quadratic(t, d + c * basis_h(t)) == euler_quadratic(t, d)


@settings(deadline=None, max_examples=200)
@given(type_and_vector(lo=0, hi=10))
def test_a_dim_identity(tv):
    t, d = tv
    assert a_dim(t, d) == gl_dim(t, d) - euler_quadratic(t, d)


@settings(deadline=None, max_examples=200)
@given(type_and_cone_vector(), st.integers(0, 4))
def test_cone_duality(tc, extra):
    t, d = tc
    p = d.d0 + extra
    comp = p * basis_h(t) - d
    assert in_P(t, d)
    assert in_Q(t, comp)
    assert euler_form(t, comp, d) == -p * (d.d0 - d.dinf) - euler_quadratic(t, d)


@settings(deadline=None, max_examples=200)
@given(type_and_cone_vector())
def test_cones_are_disjoint_away_from_zero(tc):
    t, d = tc
    assert not in_Q(t, d)


@settings(deadline=None, max_examples=200)
@given(types(), st.integers(0, 6), st.data())
def test_slope_one_round_trip(t, r, data):
    ls = tuple(data.draw(st.integers(0, mi - 1)) for mi in t.m)
    d = r * basis_h(t) + slope_one_vector(t, ls)
    assert decompose_slope_one(t, d) == (r, ls)
    assert euler_quadratic(t, d) == 1


@settings(deadline=None, max_examples=200)
@given(type_and_vector())
@example((CanonicalType((2, 2, 2)), DimVector(5, 1, ((2,), (3,), (4,)))))
def test_text_round_trip(tv):
    t, d = tv
    assert parse_dim_vector(format_dim_vector(d)) == d
    # the flat order and the arm chains: entries() round-trips through
    # from_entries, and chain i sits at the flat indices t.chain_index[i-1]
    flat = tuple(d.entries())
    assert DimVector.from_entries(t, flat) == d
    for i, (chain, index) in enumerate(zip(d.chains(), t.chain_index), start=1):
        assert chain == tuple(flat[k] for k in index)
        assert [d.entry(i, j) for j in range(t.m[i - 1] + 1)] == list(chain)
        for j in (-1, t.m[i - 1] + 1):
            with pytest.raises(ValueError):
                d.entry(i, j)
    # arm indices are 1-based: 0 and -1 must not wrap round to the last arms
    for i in (0, -1, t.n + 1):
        with pytest.raises(ValueError):
            d.entry(i, 1)


@settings(deadline=None, max_examples=100)
@given(type_and_vector(), type_and_vector())
def test_bilinearity(tv1, tv2):
    t, a = tv1
    _, b0 = tv2
    if not b0.matches(t):
        return
    h = basis_h(t)
    assert euler_form(t, a + b0, h) == euler_form(t, a, h) + euler_form(t, b0, h)
    assert euler_form(t, h, a + b0) == euler_form(t, h, a) + euler_form(t, h, b0)
    assert euler_form(t, a, a + b0) == euler_form(t, a, a) + euler_form(t, a, b0)
