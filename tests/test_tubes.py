import random

import pytest

from canalg.forms import CanonicalType, basis_e, basis_h, zero_vector
from canalg.tubes import (RegularModuleClass, TubeIndec, dim_vector, end_dim,
                          hom_dim_tube, hom_to_simple_nonzero,
                          parse_regular_class, parse_tube_indec, top_index)

T222 = CanonicalType((2, 2, 2))
T236 = CanonicalType((2, 3, 6))


def test_dim_vector_examples():
    assert dim_vector(T236, TubeIndec(2, 0, 3)) == basis_h(T236)
    assert dim_vector(T222, TubeIndec(1, 1, 1)) == basis_e(T222, 1, 1)
    assert dim_vector(T236, TubeIndec(3, 2, 2)) == basis_e(T236, 3, 2) + basis_e(T236, 3, 3)


def _dim_vector_by_factors(t, xs):
    """The sum of e_{i,j} taken one composition factor at a time."""
    total = zero_vector(t)
    for x in xs:
        mi = t.arm_length(x.arm)
        for u in range(x.qlen):
            total = total + basis_e(t, x.arm, (x.socle + u) % mi)
    return total


def test_dim_vector_matches_factor_by_factor_sum():
    rng = random.Random(1711)
    for m in ((2, 2, 2), (2, 3, 6), (2, 3, 7), (5, 5, 5, 5, 5)):
        t = CanonicalType(m)
        members = [TubeIndec(i, a, l) for i, mi in enumerate(m, start=1)
                   for a in range(mi) for l in range(1, 3 * mi + 2)]
        for x in members:
            assert dim_vector(t, x) == _dim_vector_by_factors(t, [x]), (t, x)
        for _ in range(200):
            xs = RegularModuleClass(tuple(rng.choices(members, k=rng.randint(1, 6))))
            assert dim_vector(t, xs) == _dim_vector_by_factors(t, xs), (t, xs)
        assert dim_vector(t, RegularModuleClass(())) == zero_vector(t)


def test_dim_vector_periodicity():
    for a in range(3):
        x = TubeIndec(2, a, 2)
        xp = TubeIndec(2, a, 2 + 3)
        assert dim_vector(T236, xp) == dim_vector(T236, x) + basis_h(T236)


def test_hom_simples():
    for i, mi in enumerate(T236.m, start=1):
        for j in range(mi):
            for jp in range(mi):
                got = hom_dim_tube(T236, TubeIndec(i, j, 1), TubeIndec(i, jp, 1))
                assert got == (1 if j == jp else 0)


def test_hom_rank3_example():
    x = TubeIndec(2, 0, 5)
    assert hom_dim_tube(T236, x, x) == 2


def test_hom_cross_arm_zero():
    assert hom_dim_tube(T222, TubeIndec(1, 0, 3), TubeIndec(2, 0, 3)) == 0


def test_end_dim_examples():
    simples = RegularModuleClass((TubeIndec(1, 1, 1), TubeIndec(2, 1, 1), TubeIndec(3, 1, 1)))
    assert end_dim(T222, simples) == 3
    assert end_dim(T222, TubeIndec(1, 0, 2)) == 1
    pair = RegularModuleClass((TubeIndec(1, 0, 2), TubeIndec(1, 0, 1)))
    assert end_dim(T222, pair) == 3


def test_end_dim_closed_form():
    for t in (T222, T236):
        for i, mi in enumerate(t.m, start=1):
            for a in range(mi):
                for l in range(1, 3 * mi + 1):
                    assert end_dim(t, TubeIndec(i, a, l)) == (l - 1) // mi + 1


def test_hom_to_simple():
    xs = RegularModuleClass((TubeIndec(2, 1, 1),))
    assert hom_to_simple_nonzero(T236, xs, 2, 1)
    assert not hom_to_simple_nonzero(T236, xs, 2, 0)
    assert not hom_to_simple_nonzero(T236, xs, 1, 0)
    full = RegularModuleClass((TubeIndec(3, 0, 6),))
    for j in range(6):
        assert hom_to_simple_nonzero(T236, full, 3, j) == (j == 5)
    empty = RegularModuleClass(())
    for i, mi in enumerate(T236.m, start=1):
        for j in range(mi):
            assert not hom_to_simple_nonzero(T236, empty, i, j)


def test_top_index_wraps():
    assert top_index(T222, TubeIndec(1, 1, 2)) == 0
    assert top_index(T236, TubeIndec(3, 4, 3)) == 0


def test_canonical_form_and_text():
    xs = RegularModuleClass((TubeIndec(2, 1, 1), TubeIndec(1, 0, 2)))
    assert str(xs) == "1:0:2+2:1:1"
    assert parse_regular_class(str(xs)) == xs
    assert parse_regular_class("") == RegularModuleClass(())
    assert parse_tube_indec("3:2:4") == TubeIndec(3, 2, 4)
    with pytest.raises(ValueError):
        parse_tube_indec("3:2")


def test_validation():
    with pytest.raises(ValueError):
        dim_vector(T222, TubeIndec(1, 2, 1))  # socle out of range for rank 2
    with pytest.raises(ValueError):
        TubeIndec(1, 0, 0)
    with pytest.raises(ValueError):
        hom_to_simple_nonzero(T222, RegularModuleClass(()), 1, 2)


def _hom_dim_tube_loop(t, x, y):
    """Reference: count the segment lengths one by one."""
    if x.arm != y.arm:
        return 0
    mi = t.arm_length(x.arm)
    residue = (x.socle + x.qlen - y.socle) % mi
    return sum(1 for j in range(1, min(x.qlen, y.qlen) + 1) if j % mi == residue)


def test_hom_dim_tube_matches_segment_loop():
    for m in range(2, 8):
        t = CanonicalType((m, 2, 2))
        mods = [TubeIndec(arm, a, l) for arm in (1, 2) for a in range(t.m[arm - 1])
                for l in range(1, 3 * m + 3)]
        for x in mods:
            for y in mods:
                assert hom_dim_tube(t, x, y) == _hom_dim_tube_loop(t, x, y), (m, x, y)
