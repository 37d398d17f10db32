import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from canalg import linalg, zpstream
from canalg.checks import oracle_suite
from canalg.forms import (CanonicalType, basis_e, basis_e0, basis_einf, basis_h,
                          parse_dim_vector, slope_one_vector)
from canalg.oracle import (LambdaChoice, MatrixRep, build_exceptional_simple,
                           build_homogeneous, build_length_two, build_uniserial,
                           check_relations, direct_sum, hom_dim_linear,
                           random_cone_point)
from canalg.tubes import TubeIndec, dim_vector, hom_dim_tube
from test_linalg import dense_rank

T222 = CanonicalType((2, 2, 2))
T234 = CanonicalType((2, 3, 4))
LAM = LambdaChoice((Fraction(1),))


def test_lambda_choice_validation():
    with pytest.raises(ValueError):
        LambdaChoice((Fraction(0),))
    with pytest.raises(ValueError):
        LambdaChoice((Fraction(1), Fraction(1)))
    lam = LambdaChoice.default_for(CanonicalType((2, 2, 2, 2, 2)))
    assert lam.lambdas == (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        lam.check_against(T222)


def test_vertex_simple():
    rep = build_exceptional_simple(T222, LAM, 1, 1)
    assert check_relations(T222, LAM, rep)
    assert rep.dim == basis_e(T222, 1, 1)
    assert hom_dim_linear(T222, LAM, rep, rep) == 1


def test_index_zero_simple():
    rep = build_exceptional_simple(T234, LAM, 3, 0)
    assert check_relations(T234, LAM, rep)
    assert rep.dim == basis_e(T234, 3, 0)
    assert hom_dim_linear(T234, LAM, rep, rep) == 1


def test_distinct_simples_orthogonal():
    a = build_exceptional_simple(T234, LAM, 1, 0)
    b = build_exceptional_simple(T234, LAM, 3, 0)
    c = build_exceptional_simple(T234, LAM, 3, 1)
    assert hom_dim_linear(T234, LAM, a, b) == 0
    assert hom_dim_linear(T234, LAM, b, a) == 0
    assert hom_dim_linear(T234, LAM, b, c) == 0
    assert hom_dim_linear(T234, LAM, c, b) == 0


def test_homogeneous_end_dims():
    for size in (1, 2, 3):
        rep = build_homogeneous(T234, LAM, Fraction(2), size)
        assert check_relations(T234, LAM, rep)
        assert hom_dim_linear(T234, LAM, rep, rep) == size
    small = build_homogeneous(T234, LAM, Fraction(2), 1)
    simple = build_exceptional_simple(T234, LAM, 2, 1)
    assert hom_dim_linear(T234, LAM, small, simple) == 0
    assert hom_dim_linear(T234, LAM, simple, small) == 0


def test_homogeneous_collision():
    with pytest.raises(ValueError):
        build_homogeneous(T234, LAM, Fraction(1), 1)  # lambda_3
    with pytest.raises(ValueError):
        build_homogeneous(T234, LAM, Fraction(0), 1)  # the arm-1 tube point


def test_length_two_examples():
    rep = build_length_two(T222, LAM, 1, 1)
    assert rep.dim == basis_e(T222, 1, 1) + basis_e(T222, 1, 0)
    assert check_relations(T222, LAM, rep)
    assert hom_dim_linear(T222, LAM, rep, rep) == 1

    rep = build_length_two(T234, LAM, 2, 1)
    assert rep.dim == basis_e(T234, 2, 1) + basis_e(T234, 2, 2)
    assert check_relations(T234, LAM, rep)
    assert hom_dim_linear(T234, LAM, rep, rep) == 1


def test_length_two_hom_to_factors():
    for t, lam, i, a in [(T222, LAM, 1, 1), (T234, LAM, 3, 0), (T234, LAM, 3, 3)]:
        mi = t.m[i - 1]
        x = build_length_two(t, lam, i, a)
        top = build_exceptional_simple(t, lam, i, (a + 1) % mi)
        socle = build_exceptional_simple(t, lam, i, a)
        assert hom_dim_linear(t, lam, x, top) == 1
        assert hom_dim_linear(t, lam, x, socle) == 0
        assert hom_dim_linear(t, lam, socle, x) == 1


def test_tube_model_agreement_sample():
    mods = []
    for i, mi in enumerate(T234.m, start=1):
        for j in range(mi):
            mods.append((TubeIndec(i, j, 1), build_exceptional_simple(T234, LAM, i, j)))
        for a in range(mi):
            mods.append((TubeIndec(i, a, 2), build_length_two(T234, LAM, i, a)))
    for x, xrep in mods:
        assert dim_vector(T234, x) == xrep.dim
    for x, xrep in mods[:6]:
        for y, yrep in mods:
            assert hom_dim_linear(T234, LAM, xrep, yrep) == hom_dim_tube(T234, x, y)


def test_direct_sum():
    a = build_exceptional_simple(T222, LAM, 1, 1)
    b = build_length_two(T222, LAM, 2, 0)
    c = build_homogeneous(T222, LAM, Fraction(2), 1)
    ds = direct_sum(a, b)
    assert ds.dim == a.dim + b.dim
    assert check_relations(T222, LAM, ds)
    assert hom_dim_linear(T222, LAM, ds, c) == \
        hom_dim_linear(T222, LAM, a, c) + hom_dim_linear(T222, LAM, b, c)
    double = direct_sum(a, a)
    assert hom_dim_linear(T222, LAM, double, double) == 4
    with pytest.raises(ValueError):
        direct_sum(a, build_exceptional_simple(T234, LAM, 1, 1))


def test_exactness_of_relation_check():
    rep = build_homogeneous(T222, LAM, Fraction(2), 2)
    m = [list(r) for r in rep.mat(2, 1)]
    m[0][1] += Fraction(1, 10**12)
    bad = MatrixRep(T222, rep.dim, {**rep.mats, (2, 1): m})
    assert not check_relations(T222, LAM, bad)
    with pytest.raises(ValueError):
        hom_dim_linear(T222, LAM, bad, rep)


def test_random_cone_point():
    t = CanonicalType((2, 2, 2, 2))
    lam = LambdaChoice.default_for(t)
    rng = random.Random(7)
    # slope-one vectors in P and Q are real roots: the generic module is
    # exceptional, with a one-dimensional endomorphism ring
    for d in (2 * basis_h(t) + slope_one_vector(t, (1, 0, 1, 0)),
              basis_h(t) + basis_einf(t)):
        rep = random_cone_point(t, lam, d, rng)
        assert rep.dim == d and check_relations(t, lam, rep)
        assert hom_dim_linear(t, lam, rep, rep) == 1
    for text in ("3;2/2,1/2,2,1;0", "0;1/1,2/1,1,2;3"):
        d = parse_dim_vector(text)
        rep = random_cone_point(T234, LAM, d, random.Random(1))
        assert check_relations(T234, LAM, rep)
        assert rep.mats == random_cone_point(T234, LAM, d, random.Random(1)).mats
    with pytest.raises(ValueError):
        random_cone_point(t, lam, basis_h(t), rng)


def test_matrix_rep_shape_validation():
    with pytest.raises(ValueError):
        MatrixRep(T222, basis_e(T222, 1, 1), {(1, 1): ((Fraction(1), Fraction(0)),)})
    with pytest.raises(ValueError):
        MatrixRep(T222, basis_h(T222), {(1, 3): ((Fraction(1),),)})
    # arrow (3, 1) reshaped to 2x1 while vertex 0 is one-dimensional: after
    # construction the reshape is refused, at construction it raises
    rep = build_homogeneous(T222, LAM, Fraction(5, 2), 1)
    before = dict(rep.mats)
    with pytest.raises(TypeError):
        rep.mats[(3, 1)] += ((Fraction(7),),)
    assert rep.mats == before and check_relations(T222, LAM, rep)
    assert hom_dim_linear(T222, LAM, rep, rep) == 1
    with pytest.raises(ValueError, match=r"arrow \(3,1\) must be 1x1"):
        MatrixRep(T222, rep.dim, {**rep.mats, (3, 1): rep.mat(3, 1) + ((Fraction(7),),)})


def test_matrix_rep_owns_its_matrices():
    mats = {}
    rep = MatrixRep(T222, basis_h(T222), mats)
    assert mats == {}
    assert rep.mat(1, 1) == ((Fraction(0),),)
    rows = [[Fraction(2)]]
    rep = MatrixRep(T222, basis_h(T222), {(1, 1): rows})
    rows[0][0] = Fraction(3)
    rows.append([Fraction(4)])
    assert rep.mat(1, 1) == ((Fraction(2),),)
    for built in (rep, build_exceptional_simple(T234, LAM, 3, 0),
                  build_length_two(T234, LAM, 3, 3), build_homogeneous(T234, LAM, Fraction(2), 2),
                  direct_sum(build_exceptional_simple(T222, LAM, 1, 1), rep),
                  random_cone_point(T234, LAM, parse_dim_vector("3;2/2,1/2,2,1;0"),
                                    random.Random(1))):
        with pytest.raises(TypeError):
            built.mats[(1, 1)] = built.mat(1, 1)


def test_representation_of_another_type_is_refused():
    t323, t233 = CanonicalType((3, 2, 3)), CanonicalType((2, 3, 3))
    jj = build_homogeneous(t233, LAM, Fraction(5), 2)
    with pytest.raises(ValueError):
        check_relations(t323, LAM, jj)
    with pytest.raises(ValueError):
        hom_dim_linear(t323, LAM, jj, jj)
    with pytest.raises(ValueError):
        hom_dim_linear(t323, LAM, build_exceptional_simple(t323, LAM, 1, 1), jj)


def test_relations_are_checked_once_per_lambda(monkeypatch):
    calls = Counter()
    compose = MatrixRep.composition

    def counted(rep, i):
        calls[id(rep)] += 1
        return compose(rep, i)

    monkeypatch.setattr(MatrixRep, "composition", counted)
    a = build_length_two(T234, LAM, 3, 0)
    b = build_homogeneous(T234, LAM, Fraction(2), 2)
    assert hom_dim_linear(T234, LAM, a, b) == 0
    assert calls == {id(a): T234.n, id(b): T234.n}
    assert hom_dim_linear(T234, LAM, a, b) == 0
    assert check_relations(T234, LAM, a) and check_relations(T234, LAM, b)
    assert calls == {id(a): T234.n, id(b): T234.n}
    # a second lambda is a second pass
    other = LambdaChoice((Fraction(3),))
    assert not check_relations(T234, other, b)
    assert calls[id(b)] == 2 * T234.n

    calls.clear()
    results = oracle_suite(T234, sizes=(1, 2, 3, 4, 5), full=True)
    assert all(r.ok for r in results)
    # one pass of three compositions per representation the suite builds:
    # 18 tube modules, 5 homogeneous, the direct sum, the perturbed point
    # and the cone point (two more compositions while it is drawn)
    assert sum(calls.values()) == 3 * (18 + 5 + 3) + 2


def test_serialization():
    rep = build_homogeneous(T222, LAM, Fraction(5, 2), 1)
    d = rep.to_dict(LAM)
    assert d["type"] == [2, 2, 2]
    assert d["dim"] == "1;1/1/1;1"
    assert d["matrices"]["1:1"] == [["-5/2"]]
    assert d["lambdas"] == ["1/1"]


@pytest.mark.parametrize("arms, lambdas, mu", [
    ((2, 3, 4), (Fraction(1, 3),), Fraction(7, 3)),
    ((2, 2, 3, 4), (Fraction(1, 3), Fraction(5, 2)), Fraction(7, 3)),
])
def test_hom_dim_linear_rational_parameters(arms, lambdas, mu):
    # rows carry entries such as -7/3 beside 1, so each must be cleared of its
    # own denominators before elimination
    t = CanonicalType(arms)
    lam = LambdaChoice(lambdas)
    tube = []
    for i, mi in enumerate(t.m, start=1):
        tube += [(TubeIndec(i, j, 1), build_exceptional_simple(t, lam, i, j))
                 for j in range(mi)]
        tube += [(TubeIndec(i, a, 2), build_length_two(t, lam, i, a)) for a in range(mi)]
    for x, xrep in tube:
        for y, yrep in tube:
            assert hom_dim_linear(t, lam, xrep, yrep) == hom_dim_tube(t, x, y), (x, y)
    homog = [(s, build_homogeneous(t, lam, mu, s)) for s in range(1, 5)]
    for s, hrep in homog:
        for s2, hrep2 in homog:
            assert hom_dim_linear(t, lam, hrep, hrep2) == min(s, s2)
        for x, xrep in tube:
            assert hom_dim_linear(t, lam, hrep, xrep) == 0
            assert hom_dim_linear(t, lam, xrep, hrep) == 0


def _dense_hom(t, m_rep, n_rep) -> int:
    """Naive reference for dim Hom: one unknown per entry of each f_x, one
    dense Fraction row per entry of each arrow equation f_w M = N f_v."""
    def key(i, j):
        return "0" if j == 0 else "inf" if j == t.m[i - 1] else (i, j)

    dims = {key(i, j): (m_rep.dim.entry(i, j), n_rep.dim.entry(i, j))
            for i, mi in enumerate(t.m, start=1) for j in range(mi + 1)}
    unknowns = [(x, r, c) for x, (dm, dn) in dims.items()
                for r in range(dn) for c in range(dm)]
    index = {u: k for k, u in enumerate(unknowns)}
    rows = []
    for i, mi in enumerate(t.m, start=1):
        for j in range(1, mi + 1):
            w, v = key(i, j - 1), key(i, j)
            a, b = m_rep.mat(i, j), n_rep.mat(i, j)
            for r in range(dims[w][1]):
                for c in range(dims[v][0]):
                    row = [Fraction(0)] * len(unknowns)
                    for k in range(dims[w][0]):
                        row[index[w, r, k]] += a[k][c]
                    for k in range(dims[v][1]):
                        row[index[v, k, c]] -= b[r][k]
                    rows.append(row)
    return len(unknowns) - dense_rank(rows)


def test_hom_dim_linear_matches_dense_reference_on_rational_points():
    # random cone points under rational lambdas have arrows mixing integer
    # and non-integer entries in one column
    t = CanonicalType((2, 2, 2, 2))
    lam = LambdaChoice((Fraction(1, 3), Fraction(5, 2)))
    h = basis_h(t)
    rng = random.Random(3)
    points = [random_cone_point(t, lam, d, rng) for d in (
        slope_one_vector(t, (1, 0, 1, 0)), h + slope_one_vector(t, (1, 1, 0, 0)),
        2 * h + slope_one_vector(t, (0, 0, 1, 1)), h + basis_einf(t))]
    mods = points + [build_exceptional_simple(t, lam, i, j)
                     for i in range(1, 5) for j in range(2)]
    mods.append(build_homogeneous(t, lam, Fraction(7, 3), 2))
    for a in points:
        for b in mods:
            assert hom_dim_linear(t, lam, a, b) == _dense_hom(t, a, b)
            assert hom_dim_linear(t, lam, b, a) == _dense_hom(t, b, a)


# sha256 of the builders' matrices over 200 modules, computed before the tube
# modules shared one construction
BUILDERS_DIGEST = "06ee4b4966d4fd3d886a40228c4208fd9667992852319c54c32aad63dd42c04c"


def test_builders_keep_their_matrices():
    lines, entries = [], []
    for arms in ((2, 2, 2), (2, 3, 4), (2, 2, 3, 3), (3, 3, 3)):
        t = CanonicalType(arms)
        rational = LambdaChoice(tuple(Fraction(-(3 * k + 1), 7) for k in range(t.n - 2)))
        for lam in (LambdaChoice.default_for(t), rational):
            reps = [build_exceptional_simple(t, lam, i, j)
                    for i, mi in enumerate(t.m, start=1) for j in range(mi)]
            reps += [build_length_two(t, lam, i, a)
                     for i, mi in enumerate(t.m, start=1) for a in range(mi)]
            reps += [build_homogeneous(t, lam, mu, size)
                     for mu in (Fraction(5, 3), Fraction(-2)) for size in range(1, 5)]
            for rep in reps:
                lines.append(json.dumps(rep.to_dict(lam), sort_keys=True) + "\n")
                entries += [x for m in rep.mats.values() for row in m for x in row]
    assert len(lines) == 200
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == BUILDERS_DIGEST
    assert all(type(x) is Fraction for x in entries)


def test_uniserial_refuses_modules_off_the_tube():
    for i, a, l in ((1, 2, 1), (3, -1, 1), (3, 0, 0), (4, 0, 1)):
        with pytest.raises(ValueError):
            build_uniserial(T234, LAM, i, a, l)


@pytest.mark.parametrize("arms, lambdas, level", [
    ((2, 2, 2), None, 4),
    ((2, 3, 4), None, 2),
    ((2, 3, 4), (Fraction(1, 3),), 2),
    ((2, 3, 4), None, 4),
])
def test_tube_model_at_every_quasi_length_Zp_uses(arms, lambdas, level):
    # Z_p at p = level draws the members of X from zpstream._arm_candidates:
    # quasi-lengths up to m_i*level, 16 on the 4-arm of (2,3,4) at p = 4
    t = CanonicalType(arms)
    lam = LambdaChoice(lambdas) if lambdas else LambdaChoice.default_for(t)
    tubes = [[(x, build_uniserial(t, lam, i, x.socle, x.qlen))
              for x, _ in zpstream._arm_candidates(t, i, level)] for i in range(1, t.n + 1)]
    for tube in tubes:
        for x, xrep in tube:
            assert xrep.dim == dim_vector(t, x), x
        for x, xrep in tube:
            for y, yrep in tube:
                assert hom_dim_linear(t, lam, xrep, yrep) == hom_dim_tube(t, x, y), (x, y)
    rng = random.Random(f"{arms}/{level}")
    for _ in range(200):
        (x, xrep), (y, yrep) = (rng.choice(tube) for tube in rng.sample(tubes, 2))
        assert hom_dim_linear(t, lam, xrep, yrep) == 0, (x, y)


@pytest.mark.parametrize("arms, lambdas", [
    ((2, 2, 2), None),
    ((2, 3, 4), (Fraction(-4, 7),)),
    ((2, 2, 3, 3), (Fraction(1, 3), Fraction(5, 2))),
    ((3, 3, 3), None),
])
def test_hom_dim_linear_matches_plain_solver(arms, lambdas):
    # _dense_hom keeps one block per vertex and one row per arrow entry, so
    # it checks the contraction of arrows on which both modules carry the
    # identity: uniserials through 0 and inf, homogeneous modules at two
    # parameters, cone points and direct sums of them all
    t = CanonicalType(arms)
    lam = LambdaChoice(lambdas) if lambdas else LambdaChoice.default_for(t)
    rng = random.Random(f"plain/{arms}")
    mods = [build_uniserial(t, lam, i, a, l)
            for i, mi in enumerate(t.m, start=1) for a in range(mi) for l in (1, 2, mi + 1)]
    mods += [build_homogeneous(t, lam, mu, s) for mu in (Fraction(7, 3), Fraction(-5))
             for s in (1, 2)]
    h = basis_h(t)
    mods += [random_cone_point(t, lam, d, rng) for d in (h + basis_e0(t), h + basis_einf(t))]
    mods += [direct_sum(*rng.sample(mods, 2)) for _ in range(4)]
    for _ in range(150):
        a, b = rng.choice(mods), rng.choice(mods)
        assert hom_dim_linear(t, lam, a, b) == _dense_hom(t, a, b), (a.dim, b.dim)


def test_homogeneous_pair_is_one_block(monkeypatch):
    # every arrow of a homogeneous module but the first of each arm is the
    # identity, and arm 2's first arrow is too, so Hom(J_s, J_s') has one
    # block of s*s' unknowns whatever the number of vertices
    t = CanonicalType((40, 40, 40))
    lam = LambdaChoice.default_for(t)
    a, b = build_homogeneous(t, lam, Fraction(3), 3), build_homogeneous(t, lam, Fraction(3), 2)
    systems = []
    rank = linalg.rank

    def capture(rows):
        systems.append(rows)
        return rank(rows)

    monkeypatch.setattr(linalg, "rank", capture)
    assert hom_dim_linear(t, lam, a, b) == hom_dim_linear(t, lam, b, a) == 2
    # two cut arrows (arms 1 and 3) of 3*2 entries each
    assert [max(c for row in rows for c in row) for rows in systems] == [5, 5]
    assert all(len(rows) <= 2 * 6 for rows in systems)


def test_zero_matrices_only_for_missing_arrows(monkeypatch):
    def refuse(rows, cols):
        raise AssertionError("a zero matrix was built")

    monkeypatch.setattr(linalg, "zeros", refuse)
    rep = build_homogeneous(T234, LAM, Fraction(2), 3)
    assert check_relations(T234, LAM, rep)
    with pytest.raises(AssertionError):
        MatrixRep(T234, rep.dim, {})


def test_relation_verdicts_are_found_without_hashing_fractions(monkeypatch):
    a, b = build_length_two(T234, LAM, 3, 0), build_homogeneous(T234, LAM, Fraction(2), 2)
    assert hom_dim_linear(T234, LAM, a, b) == 0
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(x):
        hashed.append(1)
        return fraction_hash(x)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    for _ in range(3):
        assert hom_dim_linear(T234, LAM, a, b) == hom_dim_linear(T234, LAM, b, a) == 0
    assert not hashed
    lam = LambdaChoice((Fraction(1),))
    assert hashed and check_relations(T234, lam, a)
