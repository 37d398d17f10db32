import dataclasses
import random
from fractions import Fraction

import pytest

from canalg.cones import in_P, in_Q
from canalg.forms import (CanonicalType, DimVector, a_dim, basis_e, basis_e0,
                          basis_einf, basis_h, euler_form,
                          euler_quadratic, format_dim_vector,
                          parse_dim_vector, quadratic_lower_bound,
                          quadratic_via_decomposition, slope_one_vector,
                          zero_vector)

T222 = CanonicalType((2, 2, 2))
T236 = CanonicalType((2, 3, 6))
T237 = CanonicalType((2, 3, 7))
T5 = CanonicalType((5, 5, 5, 5, 5))

WITNESS_237 = parse_dim_vector("42;21/28,14/36,30,24,18,12,6;0")


def test_type_validation():
    with pytest.raises(ValueError):
        CanonicalType((2, 2))
    with pytest.raises(ValueError):
        CanonicalType((2, 1, 2))
    assert CanonicalType.parse("2,3,6") == T236
    with pytest.raises(ValueError):
        CanonicalType.parse("2,x,6")


def test_type_invariants():
    assert T236.total == 11
    assert T236.lcm == 6
    assert T236.product == 36
    assert T236.vertex_count == 10
    assert T237.sum_reciprocals == Fraction(41, 42)


def test_delta_values():
    assert T236.delta == 0
    assert T237.delta == Fraction(1, 84)
    assert T5.delta == 1
    assert T222.delta == Fraction(-1, 4)
    assert CanonicalType((3,) * 7).delta == Fraction(4, 3)


def test_euler_form_h_isotropic():
    for t in (T222, T236, T237, T5):
        assert euler_quadratic(t, basis_h(t)) == 0


def test_euler_form_witness_values():
    assert euler_quadratic(T237, WITNESS_237) == -21
    assert euler_form(T237, WITNESS_237, basis_h(T237)) == 42


def test_euler_form_shape_mismatch():
    with pytest.raises(ValueError):
        euler_form(T236, basis_h(T222), basis_h(T222))


def _euler_form_literal(t, x, y):
    """<x, y> transcribed from its definition on the flat order: the sum over
    vertices, less the sum over arrows, plus the sum over the n - 2 relations.
    Arrow (i, j) runs from vertex (i, j) to (i, j - 1), so along each path of
    ``chain_index`` the arrows run from inf back to 0; every relation runs
    from inf (flat index 1) to 0 (flat index 0)."""
    xs, ys = tuple(x.entries()), tuple(y.entries())
    vertices = sum(xs[v] * ys[v] for v in range(t.vertex_count))
    arrows = sum(xs[path[j]] * ys[path[j - 1]]
                 for path in t.chain_index for j in range(1, len(path)))
    relations = sum(xs[1] * ys[0] for _ in range(t.n - 2))
    return vertices - arrows + relations


def test_euler_form_matches_its_definition():
    rng = random.Random(20061)
    for _ in range(120):
        t = CanonicalType(tuple(rng.randint(2, 7) for _ in range(rng.randint(3, 6))))
        for _ in range(15):
            x, y = (DimVector.from_entries(t, (rng.randint(-9, 9)
                                               for _ in range(t.vertex_count)))
                    for _ in range(2))
            assert euler_form(t, x, y) == _euler_form_literal(t, x, y), (t, x, y)


def test_readers_refuse_vectors_of_another_shape():
    good = DimVector(2, 1, ((1,), (2,), (1,)))
    too_long = DimVector(2, 1, ((2, 1), (2,), (1,)))
    too_many = DimVector(2, 1, ((1,), (2,), (1,), (1,)))
    for bad in (too_long, too_many):
        assert not bad.matches(T222)
        for call in (lambda: euler_form(T222, bad, good),
                     lambda: euler_form(T222, good, bad),
                     lambda: in_P(T222, bad),
                     lambda: in_Q(T222, bad),
                     lambda: quadratic_lower_bound(T222, bad)):
            with pytest.raises(ValueError, match="does not fit type 2,2,2"):
                call()


def test_dim_vector_stores_only_its_fields():
    assert [f.name for f in dataclasses.fields(DimVector)] == ["d0", "dinf", "arms"]
    d = DimVector(3, 1, ((2,), (3,), (1,)))
    euler_form(T222, d, d)
    in_P(T222, d)
    assert d.entry(2, 1) == 3 and d.matches(T222)
    assert sorted(vars(d)) == ["arms", "d0", "dinf"]


def test_from_entries_takes_one_entry_per_vertex():
    d = DimVector(5, 1, ((2,), (3,), (4,)))
    assert DimVector.from_entries(T222, d.entries()) == d
    for flat in ((1, 2, 3), (5, 1, 2, 3, 4, 0)):
        with pytest.raises(ValueError, match="do not fit type 2,2,2"):
            DimVector.from_entries(T222, flat)


def test_sum_and_difference_refuse_other_shapes():
    # against (2,3,6) an arm is longer, against (5,5,5,5,5) there are more arms
    a = basis_h(T222)
    for b in (basis_h(T236), basis_h(T5)):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x + y
            with pytest.raises(ValueError):
                x - y


def test_quadratic_via_decomposition_values():
    assert quadratic_via_decomposition(T236, basis_h(T236)) == 0
    assert quadratic_via_decomposition(T237, WITNESS_237) == -21
    assert quadratic_via_decomposition(T222, basis_e0(T222)) == 1


def test_basis_vectors():
    e10 = basis_e(T222, 1, 0)
    assert e10 == DimVector(1, 1, ((0,), (1,), (1,)))
    v = slope_one_vector(T236, (1, 0, 3))
    assert v == DimVector(1, 0, ((1,), (0, 0), (1, 1, 1, 0, 0)))
    with pytest.raises(ValueError):
        basis_e(T236, 2, 3)
    with pytest.raises(ValueError):
        slope_one_vector(T236, (1, 0, 6))


def test_basis_vectors_are_shared_and_bad_indices_still_raise():
    assert basis_h(T236) is basis_h(CanonicalType((2, 3, 6)))
    assert basis_e(T236, 2, 1) is basis_e(T236, 2, 1) == DimVector(0, 0, ((0,), (1, 0), (0,) * 5))
    for _ in range(2):  # a raise is never kept as a value
        with pytest.raises(ValueError, match=r"^index j=3 out of range \[0, 2\] on arm 2$"):
            basis_e(T236, 2, 3)
        with pytest.raises(ValueError, match=r"^arm index 4 out of range for 2,3,6$"):
            basis_e(T236, 4, 0)


def test_basis_telescoping():
    for t in (T222, T236, T5):
        for i in range(1, t.n + 1):
            total = zero_vector(t)
            for j in range(t.m[i - 1]):
                total = total + basis_e(t, i, j)
            assert total == basis_h(t)


def test_a_dim_values():
    assert a_dim(T222, basis_h(T222)) == 5
    assert a_dim(T222, zero_vector(T222)) == 0
    # both defining expressions give 10 = number of vertices of (2,3,6)
    assert a_dim(T236, basis_h(T236)) == 10
    with pytest.raises(ValueError):
        a_dim(T222, zero_vector(T222) - basis_h(T222))


def test_quadratic_lower_bound():
    assert quadratic_lower_bound(T237, WITNESS_237) == (Fraction(-21), True)
    for t in (T222, T236, T5):
        assert quadratic_lower_bound(t, basis_h(t)) == (Fraction(0), True)
    bound, tight = quadratic_lower_bound(T222, basis_e0(T222))
    assert bound == Fraction(1, 4)
    assert not tight
    assert euler_quadratic(T222, basis_e0(T222)) > bound


def test_dim_vector_arithmetic():
    h = basis_h(T222)
    assert 3 * h - h == 2 * h
    assert (2 * h).entry(1, 0) == 2
    assert (2 * h).entry(1, 2) == 2
    assert basis_einf(T222).entry(2, 2) == 1


def test_operators_build_normalised_vectors():
    # the operators skip __post_init__, so their results must still be plain
    # ints in tuples, equal and hashing equal to a constructed vector
    a, b = DimVector(3, 1, ((2,), (3,), (1,))), basis_h(T222)
    for got, want in ((a + b, DimVector(4, 2, ((3,), (4,), (2,)))),
                      (a - b, DimVector(2, 0, ((1,), (2,), (0,)))),
                      (3 * a, DimVector(9, 3, ((6,), (9,), (3,)))),
                      (a * True, a)):
        assert got == want and hash(got) == hash(want)
        assert sorted(vars(got)) == ["arms", "d0", "dinf"]
        assert type(got.arms) is tuple and all(type(arm) is tuple for arm in got.arms)
        assert all(type(x) is int for x in got.entries())


def test_scalar_multiple_refuses_non_integer_scalars():
    # a half of h, or 2.5 times it, would otherwise truncate every coordinate
    h = basis_h(T222)
    for c in (Fraction(1, 2), 2.5, Fraction(2), 2.0, "2"):
        with pytest.raises(TypeError):
            c * h
        with pytest.raises(TypeError):
            h * c


def test_text_form_round_trip():
    text = "42;21/28,14/36,30,24,18,12,6;0"
    assert format_dim_vector(parse_dim_vector(text)) == text
    with pytest.raises(ValueError):
        parse_dim_vector("1;2")
    with pytest.raises(ValueError):
        parse_dim_vector("1;a/b;2")
