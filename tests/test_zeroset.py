import hashlib
import inspect
import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from canalg import checks, cones, forms, geometry, zeroset, zpstream
from canalg.cones import EnumerationCapExceeded, decompose_slope_one, enumerate_P, in_Q
from canalg.forms import (CanonicalType, DimVector, a_dim, basis_e, basis_e0, basis_einf,
                          basis_h, euler_form, euler_quadratic)
from canalg.geometry import is_normal
from canalg.tubes import (RegularModuleClass, TubeIndec, dim_vector, end_dim,
                          hom_to_simple_nonzero)
from canalg.zeroset import (OutsideProvenRange, ZeroSetReport, ZTriple,
                            _is_equality, check_wild_margin,
                            component_count_formula,
                            components_bruteforce, diff,
                            enumerate_Zp, equality_stratum_count,
                            plus_condition, strata, stratum_dim,
                            target_zero_dim, wild_margin, zeroset_is_ci,
                            zeroset_threshold)

T222 = CanonicalType((2, 2, 2))
T236 = CanonicalType((2, 3, 6))
T237 = CanonicalType((2, 3, 7))
T5 = CanonicalType((5, 5, 5, 5, 5))

SIMPLES_222 = RegularModuleClass(
    (TubeIndec(1, 1, 1), TubeIndec(2, 1, 1), TubeIndec(3, 1, 1)))
EXAMPLE_TRIPLE = ZTriple(basis_e0(T222), basis_einf(T222), SIMPLES_222, 1)


def test_z1_contains_example_triple():
    triples = list(enumerate_Zp(T222, 1))
    assert EXAMPLE_TRIPLE in triples
    assert len(triples) == 1
    assert all(not z.dprime.is_zero() for z in triples)
    assert EXAMPLE_TRIPLE.is_member(T222, 1)


def test_zp_sizes_and_membership():
    # sizes confirmed by two independently written enumerators
    sizes = {1: 1, 2: 94, 3: 2141}
    for p, want in sizes.items():
        triples = list(enumerate_Zp(T222, p))
        assert len(triples) == want
        assert all(z.is_member(T222, p) for z in triples)


def test_zp_canonical_order_deterministic():
    a = [z.to_dict() for z in enumerate_Zp(T222, 2)]
    b = [z.to_dict() for z in enumerate_Zp(T222, 2)]
    assert a == b
    qs = [z.q for z in enumerate_Zp(T222, 2)]
    assert qs == sorted(qs)


def test_zp_cap():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_Zp(T222, 3, cap=100))


def test_diff_examples():
    assert diff(T222, 3, EXAMPLE_TRIPLE) == 2
    assert diff(T222, 1, EXAMPLE_TRIPLE) == 0
    for z in enumerate_Zp(T222, 3):
        if euler_form(T222, z.dprime, basis_h(T222)) == 1:
            assert diff(T222, 3, z) == 3 - z.q


def test_stratum_dim_example():
    assert stratum_dim(T222, 1, EXAMPLE_TRIPLE) == 0
    assert target_zero_dim(T222, 1) == 0
    # a(4h) = 80 for (2,2,2): 16 per vertex minus (n-2)*16
    assert target_zero_dim(T222, 4) == 80 - 6 - 4 - 1 + 3


def test_component_count_formula_values():
    assert component_count_formula(T222, 4) == 20
    assert component_count_formula(T222, 3) == 12
    assert component_count_formula(T237, 5) == 125
    with pytest.raises(ValueError):
        component_count_formula(T222, 2)


def test_component_count_formula_matches_parametrized_count():
    # 2*2*m <= 30 bounds every arm by 7, and 2**5 > 30 bounds n by 4
    types = [arms for n in (3, 4)
             for arms in combinations_with_replacement(range(2, 8), n)
             if prod(arms) <= 30]
    assert (2, 2, 7) in types and (2, 2, 2, 3) in types
    for arms in types:
        t = CanonicalType(arms)
        for p in range(t.n, 9):
            assert component_count_formula(t, p) == equality_stratum_count(t, p)


def test_equality_stratum_count_values():
    # sum over offset vectors l of max(0, p - #nonzero offsets)
    assert equality_stratum_count(T222, 1) == 1
    assert equality_stratum_count(T222, 2) == 5
    assert equality_stratum_count(T222, 3) == 12
    assert equality_stratum_count(T222, 4) == 20
    assert equality_stratum_count(T237, 5) == (5 - 3) * 42 + (3 * 7 + 2 * 7 + 2 * 3)


def _subset_stratum_count(t: CanonicalType, p: int) -> int:
    """The parametrized count summed over the sets of arms with a nonzero offset."""
    return sum(prod(mi - 1 for mi in arms) * max(0, p - k)
               for k in range(t.n + 1) for arms in combinations(t.m, k))


@pytest.mark.parametrize("arms", [(2, 2, 2), (2, 3, 7), (3, 3, 4, 5), (5,) * 5,
                                  (2, 3, 2, 4, 6, 2)])
def test_equality_stratum_count_is_the_subset_sum(arms):
    t = CanonicalType(arms)
    for p in range(1, 9):
        assert equality_stratum_count(t, p) == _subset_stratum_count(t, p), p


def test_equality_stratum_count_on_many_arms():
    # 2^40 sets of arms: summed over them the count would not finish
    t = CanonicalType((2,) * 40)
    start = time.perf_counter()
    assert equality_stratum_count(t, 45) == component_count_formula(t, 45)
    assert time.perf_counter() - start < 1


def test_components_bruteforce_matches_parametrized_count():
    for p in (1, 2, 3, 4):
        plus = components_bruteforce(T222, p)
        assert len(plus) == equality_stratum_count(T222, p)
        for z in plus:
            assert z.q == p
            assert plus_condition(T222, p, z)


def test_plus_triples_have_slope_one_structure():
    for z in components_bruteforce(T222, 3):
        r, ls = decompose_slope_one(T222, z.dprime)
        assert z.dprime.dinf == r
        want = []
        for i, mi in enumerate(T222.m, start=1):
            for j in range(mi):
                if j != ls[i - 1]:
                    want.append(TubeIndec(i, j, 1))
        assert z.xclass == RegularModuleClass(tuple(want))
        assert stratum_dim(T222, 3, z) == target_zero_dim(T222, 3)


def test_thresholds():
    assert zeroset_threshold(T222) == 3
    assert zeroset_threshold(T236) == 4
    assert zeroset_threshold(T237) == 5
    with pytest.raises(OutsideProvenRange):
        zeroset_threshold(T5)
    # the closed count is asserted from one level past the threshold for
    # delta <= 0, from the threshold itself for wild types
    assert ZeroSetReport.compute(T222, 3).component_count is None
    assert ZeroSetReport.compute(T222, 4).component_count == 20
    assert ZeroSetReport.compute(T236, 4).component_count is None
    assert ZeroSetReport.compute(T236, 5).component_count == component_count_formula(T236, 5)
    assert ZeroSetReport.compute(T237, 5).component_count == 125


def test_wild_margin_values():
    assert wild_margin(T237, 5, 2) == Fraction(20, 21)
    assert wild_margin(T237, 5, 5) == Fraction(563, 84)
    assert check_wild_margin(T237, 5)
    with pytest.raises(ValueError):
        check_wild_margin(T222, 5)
    with pytest.raises(ValueError):
        check_wild_margin(T237, 4)


def test_wild_margin_endpoints_match_full_scan():
    # reference: the margin at every integer of [2, p], scaled by the
    # denominator b of delta = a/b to stay in integers
    cases = 0
    for n in (3, 4, 5):
        for m in combinations_with_replacement(range(2, 8), n):
            t = CanonicalType(m)
            a, b = t.delta.numerator, t.delta.denominator
            if not 0 < a < b:
                continue

            def scaled(p, x):
                return b * (x * (p - n) + n - p - 1) - a * x * x

            thr = zeroset_threshold(t)
            assert scaled(thr, 3) == b * wild_margin(t, thr, 3)
            for p in range(thr, thr + 31):
                scan = all(scaled(p, x) > 0 for x in range(2, p + 1))
                assert check_wild_margin(t, p) == scan, (m, p)
                cases += 1
    assert cases == 375 * 31


def test_zeroset_is_ci():
    assert zeroset_is_ci(T222, 4)
    assert zeroset_is_ci(T236, 5)
    assert zeroset_is_ci(T237, 5)
    assert not zeroset_is_ci(T222, 2)  # below threshold: negative deficiency exists
    assert not zeroset_is_ci(T236, 2)  # tubular below threshold: answered exactly
    with pytest.raises(ValueError):
        zeroset_is_ci(T5, 5)  # delta = 1: no proved bound
    with pytest.raises(OutsideProvenRange):
        zeroset_is_ci(T237, 4)  # wild below the proved threshold


def test_zeroset_report():
    rep = ZeroSetReport.compute(T222, 4)
    assert rep.to_dict() == {
        "p": 4, "is_ci": True, "component_count": 20,
        "threshold": 3, "target_dim": 72,
        "answered_by": "closed_form", "component_count_from": "closed_form",
    }
    rep3 = ZeroSetReport.compute(T222, 3)
    assert rep3.is_ci and rep3.component_count is None
    assert rep3.component_count_from is None


def test_zeroset_report_routes_and_witness():
    rep = ZeroSetReport.compute(T237, 5)
    assert rep.answered_by == "closed_form"
    assert rep.component_count_from == "closed_form"
    assert "witness" not in rep.to_dict()
    rep2 = ZeroSetReport.compute(T222, 2)
    assert not rep2.is_ci and rep2.answered_by == "closed_form"
    assert rep2.witness.q == 2
    assert rep2.witness.is_member(T222, 2) and diff(T222, 2, rep2.witness) < 0
    assert rep2.to_dict()["witness"] == rep2.witness.to_dict()


# (type, levels) inside the window, with both answers among them
NAIVE_CASES = ([((2, 2, 2), p) for p in range(1, 5)]
               + [(m, p) for m in ((2, 2, 3), (2, 3, 2), (3, 2, 2)) for p in range(1, 4)]
               + [(m, p) for m in ((2, 2, 4), (2, 3, 3), (2, 2, 5), (2, 2, 2, 2))
                  for p in (1, 2)])


def test_zeroset_is_ci_matches_naive_scan():
    answers = set()
    for arms, p in NAIVE_CASES:
        t = CanonicalType(arms)
        naive = all(diff(t, p, z) >= 0 for z in enumerate_Zp(t, p))
        assert zeroset_is_ci(t, p) == naive, (arms, p)
        witness = ZeroSetReport.compute(t, p).witness
        assert (witness is None) == naive, (arms, p)
        if witness is not None:
            assert witness.is_member(t, p) and diff(t, p, witness) < 0, (arms, p)
        answers.add(naive)
    assert answers == {True, False}


def test_strata_matches_per_triple_route():
    # Reference: the per-triple Euler forms and End dimension, cached per d'
    # and per module class only to keep the scan short.
    for arms, pmax in (((2, 2, 2), 4), ((2, 2, 2, 2), 3), ((2, 3, 3), 3)):
        t = CanonicalType(arms)
        h = basis_h(t)
        by_dprime, by_class = {}, {}
        for z, th, sd, pair, xx in strata(t, pmax):
            if z.dprime not in by_dprime:
                by_dprime[z.dprime] = (euler_form(t, z.dprime, h),
                                       euler_quadratic(t, z.dprime))
            if z.xclass not in by_class:
                by_class[z.xclass] = (dim_vector(t, z.xclass), end_dim(t, z.xclass))
            dim_x, end_x = by_class[z.xclass]
            assert (th, sd) == by_dprime[z.dprime], z
            assert (pair, xx) == (euler_form(t, z.dprime, dim_x), end_x), z
            for p in {z.q, pmax}:
                assert _is_equality(t, p, z.q, th, pair, xx) == plus_condition(t, p, z), z


def _literal_Zp(t, p):
    # Z_p as defined: d' a nonzero vector of P, X a multiset of tube
    # indecomposables and d'' = q*h - d' - dim X in Q, every simple d' pairs
    # to 0 covered by a top of X; the only pruning is d'' >= 0.  A module of
    # quasi-length above m_i*p has some composition factor more than p times.
    indecs = [(x, tuple(dim_vector(t, x).entries()))
              for x in (TubeIndec(i, a, qlen) for i, mi in enumerate(t.m, start=1)
                        for a in range(mi) for qlen in range(1, mi * p + 1))]
    out = set()
    for q in range(1, p + 1):
        for dprime in enumerate_P(t, q):
            if dprime.is_zero():
                continue
            unseen = [(i, j) for i, mi in enumerate(t.m, start=1) for j in range(mi)
                      if euler_form(t, dprime, basis_e(t, i, j)) == 0]

            def extend(start, entries, members):
                ddouble = DimVector.from_entries(t, entries)
                if in_Q(t, ddouble) and all(hom_to_simple_nonzero(t, members, i, j)
                                            for i, j in unseen):
                    out.add(ZTriple(dprime, ddouble, RegularModuleClass(tuple(members)), q))
                for k in range(start, len(indecs)):
                    rest = [a - b for a, b in zip(entries, indecs[k][1])]
                    if min(rest) >= 0:
                        extend(k, rest, members + [indecs[k][0]])

            extend(0, tuple((q * basis_h(t) - dprime).entries()), [])
    return out


@pytest.mark.parametrize("arms, p", [((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 2, 2), 3),
                                     ((2, 2, 3), 3), ((2, 2, 2, 2), 2)])
def test_strata_matches_literal_Zp(arms, p):
    # the reference shares no code with zpstream: no arm split, no tables
    t = CanonicalType(arms)
    got = list(enumerate_Zp(t, p))
    want = _literal_Zp(t, p)
    assert len(got) == len(want)
    assert set(got) == want


@pytest.mark.parametrize("arms, p, size, digest", [
    ((2, 2, 2), 3, 2141, "09de251db45f61271adddc751d3b04d602f5db7da88a0ca06b7fa8b0c95f236f"),
    ((2, 2, 2, 2), 2, 295, "7827bacb13d2eb6b188b9e62693a32ffd206699f64ae95a4c555d1762f81dc27"),
    ((2, 3, 3), 2, 648, "dbaa4b1a2be12750530c244cfe3464ddc7891d78299d55ee617f1bb56bacf228")])
def test_strata_stream_is_pinned(arms, p, size, digest):
    # the order of strata is part of its contract: edge_triples and the
    # end-bound check, and so the details verify prints, read it
    h, count = hashlib.sha256(), 0
    for z, *keys in strata(CanonicalType(arms), p):
        h.update(json.dumps([z.to_dict(), *keys]).encode() + b"\n")
        count += 1
    assert (count, h.hexdigest()) == (size, digest)


def _per_triple_tally(t, pmax):
    # the per-triple level loop the verify suite ran before it keyed its tally
    a_ph = {p: a_dim(t, p * basis_h(t)) for p in range(1, pmax + 1)}
    tgt = {p: target_zero_dim(t, p) for p in range(1, pmax + 1)}
    tally = Counter()
    for z, th, sd, pair, xx in strata(t, pmax):
        for p in range(z.q, pmax + 1):
            d = zeroset._deficiency(t, p, z.q, th, sd)
            plus = _is_equality(t, p, z.q, th, pair, xx)
            flat = d == 0 and a_ph[p] - zeroset._stratum_codim(
                p, z.q, th, sd, pair, xx) == tgt[p]
            tally["slope", p] += th == 1 and d != p - z.q
            tally["negative", p] += d < 0
            tally["plus", p] += plus
            tally["flat", p] += flat
            tally["split", p] += plus != flat
    return tally


@pytest.mark.parametrize("arms, pmax", [((2, 2, 2), 4), ((2, 2, 2, 2), 3), ((2, 3, 3), 3)])
def test_keyed_tally_matches_per_triple_loop(arms, pmax):
    # the tally holds every level p <= pmax
    t = CanonicalType(arms)
    keys = Counter((q, th, sd, pair, xx)
                   for q, _, th, sd, leaves in zpstream._ArmZp(t, pmax).blocks(10**9)
                   for *_, pair, xx in leaves)
    want = _per_triple_tally(t, pmax)
    assert {p for _, p in want} == set(range(1, pmax + 1))
    assert checks._level_tally(t, pmax, keys) == want


@pytest.mark.parametrize("arms, p", [
    ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2), 4), ((2, 2, 3), 3),
    ((3, 2, 2), 3), ((2, 3, 3), 3), ((2, 2, 2, 2), 1), ((2, 2, 2, 2), 2), ((2, 2, 2, 2), 3),
    ((2, 2, 2, 2, 2), 2), ((2, 3, 4), 2), ((2, 2, 5), 2)])
def test_arm_count_matches_search(arms, p):
    # the convolution of the arms' tallies against the join of their walks;
    # both are checked against the definition by test_strata_matches_literal_Zp.
    # (2,3,4) and (2,2,5) have arms of different lengths, which share no table
    zp = zpstream._ArmZp(CanonicalType(arms), p)
    joined = Counter((q, th, sd, pair, xx) for q, _, th, sd, leaves in zp.blocks(10**9)
                     for *_, pair, xx in leaves)
    assert zp.key_counts(10**9) == joined


def test_arm_count_cap_matches_search_cap():
    zp = zpstream._ArmZp(T222, 3)
    assert zp.key_counts(2141).total() == 2141
    with pytest.raises(EnumerationCapExceeded,
                       match=r"^cap 2140 exceeded enumerating Z_p for 2,2,2, p=3$"):
        zp.key_counts(2140)


def test_arm_count_reads_one_block_per_d0(monkeypatch):
    # (2,2,2,2), p = 5: the count reads the P-blocks (d0, 0) and calls
    # euler_quadratic once per base and chain, 1 + 4*(d0 + 1) for each
    # d0 <= 5; a count per vector draws the 3,718 nonzero vectors of P and
    # calls it for each
    def no_vectors(*args):
        raise AssertionError("key_counts drew a vector of P")

    calls = []
    quadratic = forms.euler_quadratic
    monkeypatch.setattr(cones, "enumerate_P", no_vectors)
    monkeypatch.setattr(forms, "euler_quadratic", lambda t, d: calls.append(d) or quadratic(t, d))
    keys = zpstream._ArmZp(CanonicalType((2, 2, 2, 2)), 5).key_counts(10**9)
    assert keys.total() == 2569458
    assert len(calls) <= 85


def test_edge_triples_join_only_the_heads_they_read(monkeypatch):
    # (2,2,2,2), p = 5 has 5,757 blocks; its first and last 200 triples lie
    # in 156 of them, and those are all that edge_triples reads
    read, joined = [], []
    heads, leaves = zpstream._ArmZp.heads, zpstream._ArmZp.leaves

    def counted_heads(self, *args):
        for head in heads(self, *args):
            read.append(head)
            yield head

    def counted_leaves(self, q, dprime):
        joined.append((q, dprime))
        return leaves(self, q, dprime)

    monkeypatch.setattr(zpstream._ArmZp, "heads", counted_heads)
    monkeypatch.setattr(zpstream._ArmZp, "leaves", counted_leaves)
    assert len(zpstream._ArmZp(CanonicalType((2, 2, 2, 2)), 5).edge_triples(200)) == 400
    assert read == joined
    assert len(read) == 156


def test_backward_heads_keep_the_P_cap():
    # the first block of P for thirty arms of length 2 holds 2^30 vectors
    heads = zpstream._ArmZp(CanonicalType((2,) * 30), 1).heads(True)
    with pytest.raises(EnumerationCapExceeded, match="while enumerating P"):
        next(heads)


EDGE_CASES = [((2, 2, 2), 3), ((2, 2, 2), 4), ((2, 2, 2, 2), 2), ((2, 2, 2, 2), 3),
              ((2, 3, 3), 2)]


@pytest.mark.parametrize("arms, p", EDGE_CASES)
def test_backward_heads_reverse_the_forward_heads(arms, p):
    zp = zpstream._ArmZp(CanonicalType(arms), p)
    assert list(zp.heads(True)) == list(reversed(list(zp.heads())))


@pytest.mark.parametrize("arms, p", EDGE_CASES)
def test_edge_triples_are_the_ends_of_strata(arms, p):
    t = CanonicalType(arms)
    stream = [(z.dprime, z.ddouble, z.xclass, z.q) for z, *_ in strata(t, p)]
    zp = zpstream._ArmZp(t, p)
    for k in (1, 7, 200, len(stream) + 1):
        assert zp.edge_triples(k) == stream[:k] + stream[-k:], k


def test_zpstream_binds_no_public_function_of_another_module():
    # a function bound by name would keep a wrapper rebound in its module
    foreign = [name for name, obj in vars(zpstream).items()
               if inspect.isfunction(obj) and obj.__module__ != zpstream.__name__
               and obj.__module__.startswith("canalg.") and not obj.__name__.startswith("_")]
    assert foreign == []


def test_strata_cap_is_exact():
    # the cap cuts inside a block: exactly cap triples come out, then the error
    for cap in (0, 1, 93, 100, 2140):
        got = []
        with pytest.raises(EnumerationCapExceeded):
            got.extend(strata(T222, 3, cap))
        assert len(got) == cap
    assert len(list(strata(T222, 3, 2141))) == 2141


def test_zeroset_witness_outside_enumeration_window():
    # domestic and tubular types whose Z_p is too large to enumerate here
    negatives = 0
    for arms in ((2, 3, 4), (2, 3, 5), (3, 3, 3), (2, 4, 4), (2, 3, 6), (2, 2, 9)):
        t = CanonicalType(arms)
        for p in range(1, 9):
            rep = ZeroSetReport.compute(t, p)
            if p >= zeroset_threshold(t):
                assert rep.is_ci, (arms, p)
            if not rep.is_ci:
                negatives += 1
                z = rep.witness
                assert z.q == p and z.is_member(t, p) and diff(t, p, z) < 0, (arms, p)
    assert negatives > 0


def test_witness_on_a_long_arm_lists_no_chains(monkeypatch):
    # slice 2 of the 997-arm has C(997, 2) least chains; the witness builds
    # only the first of each arm
    def listed(mi, s):
        raise AssertionError("least chains listed")

    monkeypatch.setattr(geometry, "_arm_min_chains", listed)
    t = CanonicalType((2, 2, 997))
    z = ZeroSetReport.compute(t, 2).witness
    assert z.is_member(t, 2) and diff(t, 2, z) < 0



def test_member_check_reads_each_top_once(monkeypatch):
    # the witness at (2,2,997) holds 995 tube simples; each top is read once,
    # not once per simple of the type
    calls = Counter()
    top = zeroset.top_index

    def counted(t, x):
        calls[x] += 1
        return top(t, x)

    t = CanonicalType((2, 2, 997))
    z = ZeroSetReport.compute(t, 2).witness
    monkeypatch.setattr(zeroset, "top_index", counted)
    assert z.is_member(t, 2)
    assert sum(calls.values()) == len(z.xclass) > 900


def test_member_check_matches_the_covering_condition():
    # moving one member of X into d'' keeps the sum; the triple stays in Z_p
    # exactly when d'' stays in Q and every simple orthogonal to d' is still
    # the top of a member of X
    t = CanonicalType((2, 3, 4))
    for z in list(enumerate_Zp(t, 2))[::7]:
        for k, x in enumerate(z.xclass.members):
            rest = RegularModuleClass(z.xclass.members[:k] + z.xclass.members[k + 1:])
            ddouble = z.ddouble + dim_vector(t, x)
            covered = all(hom_to_simple_nonzero(t, rest, i, j)
                          or euler_form(t, z.dprime, basis_e(t, i, j)) != 0
                          for i in range(1, t.n + 1) for j in range(t.m[i - 1]))
            assert ZTriple(z.dprime, ddouble, rest, z.q).is_member(t, 2) == \
                (in_Q(t, ddouble) and covered), (z, x)


def test_member_check_takes_no_pairing(monkeypatch):
    # <d', e_{i,j}> is read as a step of d' along arm i, never through
    # euler_form: every triple of Z_2 and each one-member-moved variant keeps
    # the verdict of the covering condition taken with euler_form
    t = CanonicalType((2, 3, 4))
    cases = []
    for z in enumerate_Zp(t, 2):
        cases.append((z, True))
        for k, x in enumerate(z.xclass.members):
            rest = RegularModuleClass(z.xclass.members[:k] + z.xclass.members[k + 1:])
            ddouble = z.ddouble + dim_vector(t, x)
            covered = all(hom_to_simple_nonzero(t, rest, i, j)
                          or euler_form(t, z.dprime, basis_e(t, i, j)) != 0
                          for i in range(1, t.n + 1) for j in range(t.m[i - 1]))
            cases.append((ZTriple(z.dprime, ddouble, rest, z.q), in_Q(t, ddouble) and covered))

    def no_pairing(*args):
        raise AssertionError("euler_form called")

    monkeypatch.setattr(zeroset, "euler_form", no_pairing)
    assert len(cases) > 1000 and {want for _, want in cases} == {True, False}
    for z, want in cases:
        assert z.is_member(t, 2) == want, z

def test_wild_closed_form_on_proved_range():
    for arms in ((2, 3, 7), (2, 3, 8), (2, 4, 5), (2, 5, 5), (3, 3, 4), (3, 4, 4),
                 (2, 2, 2, 3), (2, 2, 3, 3)):
        t = CanonicalType(arms)
        assert 0 < t.delta < 1
        thr = zeroset_threshold(t)
        assert all(zeroset_is_ci(t, p) for p in range(thr, thr + 51)), arms
        with pytest.raises(OutsideProvenRange):
            zeroset_is_ci(t, thr - 1)


def test_delta_below_one_is_normal_at_every_level():
    # <d,d> >= -delta*s^2 on slice s, so p*s + <d,d> >= s*(p - delta*s) > 0:
    # the zero-set criterion's irreducibility precondition always holds
    cases = 0
    for n in range(3, 6):
        for arms in combinations_with_replacement(range(2, 9), n):
            t = CanonicalType(arms)
            if t.delta >= 1:
                continue
            for p in range(1, 31):
                assert is_normal(t, p), (arms, p)
                cases += 1
    assert cases == 18690


def test_decision_takes_no_geometry_pass(monkeypatch):
    def no_pass(t, p):
        raise AssertionError("slice pass taken")

    monkeypatch.setattr(geometry, "_slices", no_pass)
    assert ZeroSetReport.compute(T222, 4).component_count == 20
    assert zeroset_is_ci(T237, 5)


def test_ztriple_membership_rejects():
    z = ZTriple(basis_e0(T222), basis_einf(T222), RegularModuleClass(()), 1)
    assert not z.is_member(T222, 1)  # uncovered simples
    bad_sum = ZTriple(basis_e0(T222), basis_e0(T222), SIMPLES_222, 1)
    assert not bad_sum.is_member(T222, 1)
    zero_dp = ZTriple(basis_e0(T222) - basis_e0(T222), basis_einf(T222), SIMPLES_222, 1)
    assert not zero_dp.is_member(T222, 1)
