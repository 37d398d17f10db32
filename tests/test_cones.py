import pytest

from canalg.cones import (EnumerationCapExceeded, count_P,
                          decompose_slope_one, enumerate_P, in_P, in_Q)
from canalg.forms import (CanonicalType, DimVector, basis_e, basis_e0,
                          basis_einf, basis_h, euler_quadratic,
                          parse_dim_vector, slope_one_vector, zero_vector)

T222 = CanonicalType((2, 2, 2))
T236 = CanonicalType((2, 3, 6))
T237 = CanonicalType((2, 3, 7))


def test_in_P_examples():
    assert not in_P(T222, basis_h(T222))
    assert in_P(T237, parse_dim_vector("42;21/28,14/36,30,24,18,12,6;0"))
    assert in_P(T222, basis_e0(T222))
    assert in_P(T222, zero_vector(T222))


def test_in_Q_examples():
    assert in_Q(T222, basis_einf(T222))
    assert not in_Q(T222, basis_h(T222))
    d = basis_h(T222) - basis_e0(T222)
    for i in range(1, 4):
        d = d - basis_e(T222, i, 1)
    assert d == basis_einf(T222)
    assert in_Q(T222, d)


def test_enumerate_P_counts():
    assert len(list(enumerate_P(T222, 1))) == 9
    assert len(list(enumerate_P(T222, 2))) == 44
    assert list(enumerate_P(T236, 0)) == [zero_vector(T236)]


def test_enumerate_P_order_and_membership():
    vs = list(enumerate_P(T236, 2))
    assert vs == sorted(vs, key=lambda d: d.sort_key())
    assert len(set(v.sort_key() for v in vs)) == len(vs)
    assert all(in_P(T236, v) and v.d0 <= 2 for v in vs)


def test_enumerate_P_levels_are_prefixes():
    # the exhaustive reference reads every level from one pass at the top level
    for t in (T222, T236, CanonicalType((2, 2, 2, 2))):
        for pmax in range(1, 5):
            top = list(enumerate_P(t, pmax))
            for p in range(pmax):
                assert list(enumerate_P(t, p)) == [d for d in top if d.d0 <= p], (t, p, pmax)


def test_count_P_matches():
    for t, p in [(T222, 3), (T236, 2), (T237, 1)]:
        assert count_P(t, p) == len(list(enumerate_P(t, p)))


def test_enumerate_P_cap():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_P(T222, 3, cap=10))
    # the zero vector alone passes cap 0, with the same message
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^cap 0 exceeded while enumerating P for 2,2,2, p=3$"):
        list(enumerate_P(T222, 3, cap=0))


def test_decompose_slope_one_examples():
    assert decompose_slope_one(T222, basis_e0(T222)) == (0, (0, 0, 0))
    d = basis_h(T236) + slope_one_vector(T236, (1, 0, 3))
    assert decompose_slope_one(T236, d) == (1, (1, 0, 3))
    assert euler_quadratic(T236, d) == 1
    d2 = basis_e0(T222) + basis_e(T222, 1, 1)
    assert decompose_slope_one(T222, d2) == (0, (1, 0, 0))


def test_decompose_slope_one_errors():
    with pytest.raises(ValueError):
        decompose_slope_one(T222, basis_h(T222))  # slope 0, not in P
    with pytest.raises(ValueError):
        decompose_slope_one(T222, 2 * basis_e0(T222))  # slope 2
    with pytest.raises(ValueError):
        decompose_slope_one(T222, DimVector(1, 0, ((0,), (1,), (0,))) * -1)
