"""Acceptance battery: the six exit criteria, one test and one printed
pass/fail line each.  All comparisons are exact; the stated runtime budgets
are asserted where given."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

from canalg import checks
from canalg.checks import equality_vectors_naive
from canalg.cones import in_P
from canalg.forms import (CanonicalType, basis_h, euler_quadratic,
                          format_dim_vector, gl_dim, slope_one_vector,
                          zero_vector)
from canalg.geometry import (boundary_component_count, ci_defect,
                             ci_failure_witness, component_count,
                             irreducible_components,
                             is_complete_intersection, is_normal)
from canalg.oracle import (LambdaChoice, build_exceptional_simple,
                           check_relations, direct_sum, hom_dim_linear,
                           random_cone_point)
from canalg.tubes import RegularModuleClass, TubeIndec, dim_vector
from canalg.zeroset import (ZTriple, component_count_formula,
                            components_bruteforce, strata, target_zero_dim,
                            zeroset_threshold)

SEED = 90210
SAMPLES = 1000
PROPERTY_TYPES = [(2, 2, 2), (2, 3, 6), (2, 3, 7), (5, 5, 5, 5, 5),
                  (2, 2, 2, 2), (3, 3, 3, 3, 3, 3)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)


@lru_cache(maxsize=None)
def _stats_222(pmax: int = 5):
    return tuple(strata(CanonicalType((2, 2, 2)), pmax))


def test_criterion_1_boundary_type_reproduction():
    t = CanonicalType((5, 5, 5, 5, 5))
    started = time.monotonic()
    ok = is_complete_intersection(t, 5) and not is_normal(t, 5)
    comps = irreducible_components(t, 5)
    second = "5;4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1;0"
    ok = ok and len(comps) == 2 and comps[0] == zero_vector(t) \
        and format_dim_vector(comps[1]) == second
    for p in (3, 4, 6, 7):
        ok = ok and is_complete_intersection(t, p) and is_normal(t, p) \
            and irreducible_components(t, p) == [zero_vector(t)]
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report(1, "divisibility dichotomy for (5,5,5,5,5)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_boundary_battery():
    ok = True
    for arms in [(2, 2, 2), (2, 3, 6), (2, 2, 2, 2)]:
        t = CanonicalType(arms)
        for p in range(1, 9):
            ok = ok and is_complete_intersection(t, p) and is_normal(t, p)

    t6 = CanonicalType((3,) * 6)
    for p in range(1, 7):
        ok = ok and is_complete_intersection(t6, p)
        ok = ok and component_count(t6, p) == boundary_component_count(t6, p)

    t7 = CanonicalType((3,) * 7)
    p, d = ci_failure_witness(t7)
    quad = euler_quadratic(t7, d)
    ok = ok and p == 3**7 and in_P(t7, d) and not d.is_zero()
    ok = ok and Fraction(quad) == -t7.delta * p * p
    ok = ok and quad + p * p < 0
    _report(2, "criterion batteries and explicit failure witness", ok)
    assert ok


def _equality_stratum_modules(t, p, lam, rng):
    """Each label r*h + e(l) with r + #{l_i > 0} <= p - 1, as a stratum triple
    and an explicit module P + X + Q over Q, where X sums the exceptional
    simples S_(i,j) with j != l_i and P, Q are random points of the cones."""
    for ls in product(*(range(mi) for mi in t.m)):
        for r in range(p - sum(1 for li in ls if li)):
            dprime = r * basis_h(t) + slope_one_vector(t, ls)
            xclass = RegularModuleClass(tuple(
                TubeIndec(i, j, 1) for i, mi in enumerate(t.m, start=1)
                for j in range(mi) if j != ls[i - 1]))
            ddouble = p * basis_h(t) - dprime - dim_vector(t, xclass)
            module = direct_sum(random_cone_point(t, lam, dprime, rng),
                                random_cone_point(t, lam, ddouble, rng))
            for x in xclass:
                module = direct_sum(
                    module, build_exceptional_simple(t, lam, x.arm, x.socle))
            yield ZTriple(dprime, ddouble, xclass, p), module


def test_criterion_3_zero_set_counts():
    t = CanonicalType((2, 2, 2))
    formula = component_count_formula(t, 4)
    started = time.monotonic()
    brute = components_bruteforce(t, 4)
    brute_elapsed = time.monotonic() - started

    # Orbit-dimension certificate, independent of the stratum model: every
    # equality stratum holds an explicit module that maps onto every
    # exceptional simple (so it lies in the zero set) and whose orbit has the
    # zero set's full dimension (dim End = dim GL - target).  The zero set is
    # a complete intersection of that dimension here, so each orbit closure
    # is a component, and the 20 pairwise non-isomorphic modules give 20.
    started = time.monotonic()
    lam = LambdaChoice((Fraction(1),))
    rng = random.Random(SEED)
    end_want = gl_dim(t, 4 * basis_h(t)) - target_zero_dim(t, 4)
    simples = [build_exceptional_simple(t, lam, i, j)
               for i, mi in enumerate(t.m, start=1) for j in range(mi)]
    labels = set()
    uncertified = []
    for z, module in _equality_stratum_modules(t, 4, lam, rng):
        labels.add(z)
        if not (check_relations(t, lam, module)
                and hom_dim_linear(t, lam, module, module) == end_want
                and all(hom_dim_linear(t, lam, module, s) > 0 for s in simples)):
            uncertified.append(z.to_dict())
    cert_ok = end_want == 8 and not uncertified and labels == set(brute)
    cert_elapsed = time.monotonic() - started

    diff_ok = True
    strict_ok = True
    for z, th, sd, pair, xx in _stats_222():
        if z.q > 4:
            continue
        d = (4 - z.q) * th + (4 - t.n) * (th - 1) + (sd - 1)
        if d < 0:
            diff_ok = False
        if th > 1 and d <= 0:
            strict_ok = False

    t237 = CanonicalType((2, 3, 7))
    threshold = zeroset_threshold(t237)
    recomputed = (5 - 3) * prod(t237.m) + sum(
        prod(c) for c in combinations(t237.m, 2))
    formula_237 = component_count_formula(t237, 5)

    ok = (formula == 20 and len(brute) == formula and cert_ok and diff_ok
          and strict_ok and threshold == 5 and formula_237 == 125
          and recomputed == formula_237 and brute_elapsed < 60.0
          and cert_elapsed < 30.0)
    _report(3, "zero-set counts", ok,
            f"formula={formula}, bruteforce={len(brute)}, "
            f"certified={len(labels)} ({cert_elapsed:.2f}s), diff>=0: {diff_ok}, "
            f"strict: {strict_ok}, threshold={threshold}, "
            f"formula(2,3,7;5)={formula_237}, {brute_elapsed:.2f}s")
    assert formula == 20
    assert len(brute) == formula
    assert end_want == 8 and labels == set(brute)
    assert not uncertified, uncertified
    assert diff_ok and strict_ok
    assert threshold == 5 and formula_237 == 125 and recomputed == 125
    assert brute_elapsed < 60.0
    assert cert_elapsed < 30.0


def test_criterion_4_property_suites():
    ok = True
    print(f"property suites: seed={SEED}, samples={SAMPLES} per type, "
          f"{len(PROPERTY_TYPES)} types")
    for arms in PROPERTY_TYPES:
        t = CanonicalType(arms)
        rng = random.Random(SEED)
        results = checks.forms_suite(t, rng, SAMPLES) + checks.cones_suite(t, rng, SAMPLES)
        for r in results:
            if not r.ok:
                print(f"  FAIL {r.name}: {r.details}")
                ok = False

    t222 = CanonicalType((2, 2, 2))
    for z, th, sd, pair, xx in _stats_222():
        if xx < t222.total - t222.n * th or pair < 0:
            ok = False
            break
    _report(4, "seeded identity suites and stratum bounds", ok)
    assert ok


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    ok = True
    lam = LambdaChoice((Fraction(1),))
    for arms in [(2, 2, 2), (2, 3, 4)]:
        t = CanonicalType(arms)
        results = checks.oracle_suite(t, lam, Fraction(2), sizes=(1, 2, 3), full=True)
        for r in results:
            if not r.ok:
                print(f"  FAIL {r.name}: {r.details}")
                ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    _report(5, "matrix oracle agrees with the tube model", ok, f"{elapsed:.2f}s")
    assert ok


def _small_types(product_limit: int = 30):
    """All nondecreasing arm tuples (n >= 3, arms >= 2) with product <= limit."""
    found = []

    def gen(prefix, prod_so_far, min_arm):
        if len(prefix) >= 3:
            found.append(tuple(prefix))
        mi = min_arm
        while prod_so_far * mi <= product_limit:
            gen(prefix + [mi], prod_so_far * mi, mi)
            mi += 1

    gen([], 1, 2)
    return sorted(found)


def test_criterion_6_dp_vs_naive():
    types = _small_types(30)
    assert (2, 2, 2) in types and (2, 2, 2, 3) in types and (3, 3, 3) in types
    ok = True
    for arms in types:
        t = CanonicalType(arms)
        for p in (1, 2, 3):
            naive_defect, naive_eq = equality_vectors_naive(t, p)
            if ci_defect(t, p) != naive_defect:
                ok = False
            dp_eq = irreducible_components(t, p) if naive_defect >= 0 else None
            if dp_eq is not None and \
                    [d.sort_key() for d in dp_eq] != sorted(d.sort_key() for d in naive_eq):
                ok = False
    _report(6, f"DP equals naive scan on {len(types)} small types", ok)
    assert ok
