import ast
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from canalg import checks, oracle, zeroset, zpstream
from canalg.cones import EnumerationCapExceeded, in_P
from canalg.forms import CanonicalType, basis_e


def _assert_all_ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, "; ".join(f"{r.name}: {r.details}" for r in bad)


def test_run_all_small_type():
    results = checks.run_all(CanonicalType((2, 3, 4)), pmax=3, seed=11, samples=60)
    assert results
    _assert_all_ok(results)


def test_run_all_boundary_type():
    # large product: naive scans and zero-set enumeration auto-skip,
    # the oracle battery drops to its reduced form
    results = checks.run_all(CanonicalType((3,) * 6), pmax=3, seed=5, samples=40)
    _assert_all_ok(results)
    names = " ".join(r.name for r in results)
    assert "boundary-count" in names


def test_wild_margin_suite_entry():
    results = checks.zeroset_suite(CanonicalType((2, 3, 7)), pmax=2)
    _assert_all_ok(results)
    names = [r.name for r in results]
    assert any("wild-margin" in n for n in names)


class _RandomOnly(random.Random):
    """A Random that counts its random() calls and refuses every other draw."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):  # behind randint, randrange, choice and shuffle
        raise AssertionError("a suite drew through getrandbits")


def test_draws_read_random_once_per_coordinate():
    for arms in ((2, 3, 7), (5, 5, 5, 5, 5)):
        t = CanonicalType(arms)
        rng = _RandomOnly(3)
        checks._rand_vector(t, rng)
        assert rng.calls == t.vertex_count
        rng.calls = 0
        checks._rand_P_vector(t, rng)
        assert rng.calls == t.vertex_count
        _assert_all_ok(checks.forms_suite(t, rng, 20) + checks.cones_suite(t, rng, 20))


def test_same_seed_draws_the_same_vectors():
    t = CanonicalType((2, 3, 7))

    def draws(seed):
        rng = random.Random(seed)
        return [f(t, rng) for _ in range(50) for f in (checks._rand_vector, checks._rand_P_vector)]

    assert draws(17) == draws(17) != draws(18)


def test_rand_vector_covers_its_range():
    t = CanonicalType((2, 2, 2))
    rng = random.Random(4)
    seen = Counter(x for _ in range(2000) for x in checks._rand_vector(t, rng).entries())
    assert set(seen) == set(range(-12, 13))


def test_rand_P_vector_lies_in_P_below_the_top():
    rng = random.Random(5)
    for arms in ((2, 2, 2), (2, 3, 7), (5, 5, 5, 5, 5)):
        t = CanonicalType(arms)
        for _ in range(500):
            d = checks._rand_P_vector(t, rng)
            assert in_P(t, d) and 0 <= d.dinf < d.d0 <= 9, d


def _forms_results(t):
    return {r.name: r for r in checks.forms_suite(t, random.Random(0), 50)}


def test_pairing_e_catches_a_form_wrong_on_one_tube_simple(monkeypatch):
    # wrong only when e_(2,1) is the first argument: one of the 2*|m| pairings
    t = CanonicalType((2, 3, 4))
    bad, form = basis_e(t, 2, 1), checks.euler_form
    monkeypatch.setattr(checks, "euler_form",
                        lambda t, x, y: form(t, x, y) + (x == bad))
    got = _forms_results(t)
    assert not got[f"forms/pairing-e[{t}]"].ok
    assert got[f"forms/pairing-e[{t}]"].details.startswith("<e_(2,1), d> wrong for d=")
    assert got[f"forms/pairing-h[{t}]"].ok


def test_pairings_make_every_form_call(monkeypatch):
    # per sample, pairing-h calls the form twice and pairing-e 2*|m| times
    t = CanonicalType((2, 3, 4))
    calls, form = [], checks.euler_form
    monkeypatch.setattr(checks, "euler_form", lambda *a: calls.append(a) or form(*a))
    _forms_results(t)
    assert len(calls) == 50 * (2 + 2 * t.total)


def test_decomposition_check_catches_a_half(monkeypatch):
    t = CanonicalType((2, 3, 4))
    quadratic = checks.quadratic_via_decomposition
    assert _forms_results(t)[f"forms/decomposition[{t}]"].ok
    monkeypatch.setattr(checks, "quadratic_via_decomposition",
                        lambda t, d: quadratic(t, d) + Fraction(1, 2))
    assert not _forms_results(t)[f"forms/decomposition[{t}]"].ok


def test_stats_shape():
    stats = list(zeroset.strata(CanonicalType((2, 2, 2)), 2))
    assert len(stats) == 94
    for z, th, sd, pair, xx in stats:
        assert th == z.dprime.d0 - z.dprime.dinf
        assert xx >= 0 and pair >= 0
    assert len(list(zeroset.strata(CanonicalType((2, 2, 2)), 2, cap=94))) == 94
    with pytest.raises(EnumerationCapExceeded):
        list(zeroset.strata(CanonicalType((2, 2, 2)), 2, cap=93))


def test_closed_form_decision_checked_against_stream():
    # (2,2,2): Z_2 has negative triples, Z_3 has none
    results = checks.zeroset_suite(CanonicalType((2, 2, 2)), pmax=3)
    _assert_all_ok(results)
    names = [r.name for r in results]
    for p in (1, 2, 3):
        assert f"zeroset/closed-form-decision[2,2,2,p={p}]" in names


def test_equality_strata_failure_names_a_key_that_splits():
    # verify --type 2,2,2,2 --pmax 5 fails this check, 52 flat strata against
    # 48 plus ones; the detail names the first key that splits the two
    t = CanonicalType((2, 2, 2, 2))
    [got] = [r for r in checks.zeroset_suite(t, 5)
             if r.name == "zeroset/equality-strata[2,2,2,2,p=5]"]
    found = re.fullmatch(r"(\d+) vs (\d+); first split key (\(.*\)): (\d+) triples, "
                         r"(flat, not plus|plus, not flat)", got.details)
    assert not got.ok and found, got.details
    key, count, flat = ast.literal_eval(found[3]), int(found[4]), found[5].startswith("flat")
    keys = zpstream._ArmZp(t, 5).key_counts(10**9)
    assert keys[key] == count
    one = checks._level_tally(t, 5, Counter({key: count}))
    assert (one["flat", 5], one["plus", 5]) == ((count, 0) if flat else (0, count))
    before = list(keys)[:list(keys).index(key)]
    assert not checks._level_tally(t, 5, Counter({k: keys[k] for k in before}))["split", 5]
    # no key splits at p = 4, where the helper names none
    assert checks._first_split(t, 4, keys) == ""


@pytest.mark.parametrize("arms, pmax", [((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 3)])
def test_membership_recheck_reads_the_ends_of_strata(monkeypatch, arms, pmax):
    # Z_2 of (2,2,2) holds 94 triples, so its head and tail overlap
    t = CanonicalType(arms)
    seen = []
    monkeypatch.setattr(zeroset.ZTriple, "is_member", lambda z, t, p: seen.append(z) or True)
    checks.zeroset_suite(t, pmax)
    triples = [z for z, *_ in zeroset.strata(t, pmax)]
    assert seen == triples[:200] + triples[-200:]


def _per_leaf_end_detail(t, pmax, least_xx):
    # the per-leaf loop the suite ran before it counted Z_p arm by arm
    for z, th, _, pair, xx in zeroset.strata(t, pmax):
        if xx < least_xx(th) or pair < 0:
            return (f"end bound fails at {z.to_dict()}" if xx < least_xx(th)
                    else f"pairing < 0 at {z.to_dict()}")
    return ""


@pytest.mark.parametrize("raised", [lambda th: 1, lambda th: th == 2],
                         ids=["everywhere", "at-th-2"])
def test_end_bound_fallback_names_the_per_leaf_failure(monkeypatch, raised):
    # a raised bound fails at the first triple, or first at triple 85 of Z_3
    t = CanonicalType((2, 2, 2))

    def least_xx(th):
        return t.total - t.n * th + raised(th)

    monkeypatch.setattr(checks, "_below_end", lambda t, th, xx: xx < least_xx(th))
    want = _per_leaf_end_detail(t, 3, least_xx)
    assert want.startswith("end bound fails at")
    [got] = [r for r in checks.zeroset_suite(t, 3) if r.name.startswith("zeroset/end-bound")]
    assert (got.ok, got.details) == (False, want)


def test_checks_report_their_first_counterexample(monkeypatch):
    # End is wrong at every module, so the first one the suite visits is named
    t = CanonicalType((2, 2, 2))
    monkeypatch.setattr(checks, "end_dim", lambda t, x: -1)
    got = {r.name: r for r in checks.tubes_suite(t)}[f"tubes/end-and-periodicity[{t}]"]
    assert (got.ok, got.details) == (False, "End(1:0:1) formula fails")
    monkeypatch.setattr(oracle, "hom_dim_linear", lambda t, lam, m, n: -1)
    got = {r.name: r for r in checks.oracle_suite(t, sizes=(1, 2), full=True)}
    assert got[f"oracle/homogeneous[{t}]"].details == "homogeneous size 1 not orthogonal to 1:0:1"
    assert got[f"oracle/hom-vs-tubes[{t}]"].details == "hom(1:0:1,1:0:1) = -1, tube model 1"


def test_oracle_hom_cone_pairing_present_and_passing():
    # rational lambda: a Hom that kept only the numerators of each row
    # agrees with the tube model on tube modules but not on this pairing
    t = CanonicalType((2, 3, 4))
    lam = oracle.LambdaChoice((Fraction(1, 3),))
    results = checks.oracle_suite(t, lam, Fraction(7, 3), sizes=(1, 2), full=True)
    _assert_all_ok(results)
    assert f"oracle/hom-cone-pairing[{t}]" in [r.name for r in results]
