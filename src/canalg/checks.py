"""Seeded invariant suites for every layer of the library.

Each suite returns a list of CheckResult; a check aggregates many sampled or
enumerated instances and reports the first counterexample if one exists.
These are the batteries behind the command-line ``verify`` and ``oracle``
subcommands, and the property-style portion of the test suite.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Iterator

from . import geometry, oracle
from .cones import DEFAULT_ZCAP, decompose_slope_one, in_P, in_Q
from .forms import (CanonicalType, DimVector, _Value, a_dim, basis_e, basis_e0, basis_h,
                    euler_form, euler_quadratic, gl_dim,
                    quadratic_lower_bound, quadratic_via_decomposition,
                    slope_one_vector, zero_vector)
from .tubes import (RegularModuleClass, TubeIndec, dim_vector, end_dim,
                    hom_dim_tube, hom_to_simple_nonzero, top_index)


class CheckResult(_Value):
    """One named check: whether it passed, and its first counterexample."""

    __slots__ = _fields = ("name", "ok", "details")
    __hash__ = None

    def __init__(self, name: str, ok: bool, details: str = "") -> None:
        self._set(name, ok, details)


def _first(name: str, failures: Iterator[str]) -> CheckResult:
    """The check ``name``, failed with the first detail ``failures`` yields;
    the rest of the generator is never run."""
    detail = next(failures, "")
    return CheckResult(name, not detail, detail)


_RAND_ENTRY = 12  # _rand_vector's entries lie in [-_RAND_ENTRY, _RAND_ENTRY]
_RAND_P_TOP = 9  # the largest d0 of _rand_P_vector


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """An int in [lo, hi], uniform up to float rounding, from one
    ``rng.random()`` call.  Every draw of the forms and cones suites comes
    from here: CPython keeps the stream of ``random()`` for a seed across
    versions, which it does not promise for ``randint``, and a draw runs one
    Python frame where ``randint`` runs three."""
    return lo + int(rng.random() * (hi - lo + 1))


def _rand_vector(t: CanonicalType, rng: random.Random) -> DimVector:
    lo, hi = -_RAND_ENTRY, _RAND_ENTRY
    return DimVector(_draw(rng, lo, hi), _draw(rng, lo, hi),
                     tuple(tuple(_draw(rng, lo, hi) for _ in range(mi - 1))
                           for mi in t.m))


def _rand_P_vector(t: CanonicalType, rng: random.Random) -> DimVector:
    dinf = _draw(rng, 0, _RAND_P_TOP - 1)
    d0 = _draw(rng, dinf + 1, _RAND_P_TOP)
    arms = []
    for mi in t.m:
        chain = []
        prev = d0
        for _ in range(mi - 1):
            prev = _draw(rng, dinf, prev)
            chain.append(prev)
        arms.append(tuple(chain))
    return DimVector(d0, dinf, tuple(arms))


def forms_suite(t: CanonicalType, rng: random.Random, samples: int = 1000) -> list[CheckResult]:
    out = []
    h = basis_h(t)

    def run(name, prop):
        bad = (prop(_rand_vector(t, rng)) for _ in range(samples))
        out.append(_first(f"forms/{name}[{t}]", filter(None, bad)))

    run("pairing-h", lambda d: None if (
        euler_form(t, d, h) == d.d0 - d.dinf
        and euler_form(t, h, d) == -(d.d0 - d.dinf)) else f"d={d}")

    # the tube simples e_{i,j}, j in [0, m_i), of each arm, built once
    simples = [[basis_e(t, i, j) for j in range(mi)] for i, mi in enumerate(t.m, start=1)]

    def pairing_e(d):
        for i, (es, c) in enumerate(zip(simples, d.chains()), start=1):
            mi = len(es)  # c is arm i's path, c[j] = d_{i,j} for j in [0, m_i]
            for j in range(1, mi):
                if euler_form(t, es[j], d) != c[j] - c[j - 1]:
                    return f"<e_({i},{j}), d> wrong for d={d}"
            if euler_form(t, es[0], d) != c[mi] - c[mi - 1]:
                return f"<e_({i},0), d> wrong for d={d}"
            for j in range(mi):
                if euler_form(t, d, es[j]) != c[j] - c[j + 1]:
                    return f"<d, e_({i},{j})> wrong for d={d}"
        return None

    run("pairing-e", pairing_e)
    run("decomposition", lambda d: None if (
        quadratic_via_decomposition(t, d) == euler_quadratic(t, d)) else f"d={d}")

    def bound(d):
        q = euler_quadratic(t, d)
        b, tight = quadratic_lower_bound(t, d)
        if not q >= b:
            return f"bound violated at d={d}"
        if (Fraction(q) == b) != tight:
            return f"tightness mismatch at d={d}"
        return None

    run("lower-bound", bound)
    run("h-translation", lambda d: None if (
        euler_quadratic(t, d + _draw(rng, 0, 6) * h) == euler_quadratic(t, d)) else f"d={d}")

    def a_identity(d):
        dd = DimVector(abs(d.d0), abs(d.dinf),
                       tuple(tuple(abs(x) for x in a) for a in d.arms))
        if a_dim(t, dd) != gl_dim(t, dd) - euler_quadratic(t, dd):
            return f"a(d) identity fails at d={dd}"
        return None

    run("a-dim-identity", a_identity)

    telescoped = all(
        sum((basis_e(t, i, j) for j in range(t.m[i - 1])), zero_vector(t)) == h
        for i in range(1, t.n + 1))
    out.append(CheckResult(f"forms/telescoping[{t}]", telescoped))
    return out


def cones_suite(t: CanonicalType, rng: random.Random, samples: int = 1000) -> list[CheckResult]:
    out = []
    h = basis_h(t)

    def run(name, prop):
        bad = (prop() for _ in range(samples))
        out.append(_first(f"cones/{name}[{t}]", filter(None, bad)))

    def duality():
        d = _rand_P_vector(t, rng)
        p = d.d0 + _draw(rng, 0, 4)
        comp = p * h - d
        if not in_Q(t, comp):
            return f"p*h - d not in Q for d={d}, p={p}"
        if euler_form(t, comp, d) != -p * (d.d0 - d.dinf) - euler_quadratic(t, d):
            return f"pairing identity fails for d={d}, p={p}"
        return None

    run("duality", duality)

    def translate():
        d = _rand_P_vector(t, rng)
        c = _draw(rng, 0, 5)
        if not in_P(t, d + c * h):
            return f"d + {c}h left P for d={d}"
        return None

    run("h-translate", translate)

    def slope_one():
        r = _draw(rng, 0, 6)
        ls = tuple(_draw(rng, 0, mi - 1) for mi in t.m)
        d = r * h + slope_one_vector(t, ls)
        got = decompose_slope_one(t, d)
        if got != (r, ls):
            return f"round trip failed: {(r, ls)} -> {got}"
        if euler_quadratic(t, d) != 1:
            return f"<d,d> != 1 for slope-one d={d}"
        return None

    run("slope-one", slope_one)

    def separation():
        d = _rand_P_vector(t, rng)
        if in_Q(t, d):
            return f"nonzero {d} in both cones"
        return None

    run("cone-separation", separation)
    return out


def geometry_suite(t: CanonicalType, pmax: int = 4) -> list[CheckResult]:
    out = []
    boundary, _ = geometry.classify_type(t)
    # one slice pass per level gives the defect, CI, normality and count
    summaries = {p: geometry.ci_summary(t, p) for p in range(1, pmax + 1)}
    # one exhaustive scan of P answers every level it is checked at
    naive = (geometry.equality_levels_naive(t, min(pmax, 4))
             if t.product <= 60 and pmax >= 1 else [])
    for p, summary in summaries.items():
        if t.product <= 60 and p <= 4:
            naive_defect, naive_eq = naive[p]
            defect = summary["defect"]
            ok = naive_defect == defect
            detail = "" if ok else f"p={p}: closed form {defect} vs naive {naive_defect}"
            if ok and defect >= 0:
                comps = geometry.irreducible_components(t, p)
                ok = [d.sort_key() for d in comps] == sorted(d.sort_key() for d in naive_eq)
                detail = "" if ok else f"p={p}: component sets differ"
            out.append(CheckResult(f"geometry/dp-vs-naive[{t},p={p}]", ok, detail))
    for p, summary in summaries.items():
        ci, normal = summary["is_ci"], summary["is_normal"]
        if boundary == "above_boundary":
            ok = ci and normal
            out.append(CheckResult(f"geometry/above-boundary[{t},p={p}]", ok,
                                   "" if ok else f"expected CI+normal, got {ci},{normal}"))
        elif boundary == "on_boundary":
            pred = geometry.boundary_component_count(t, p)
            got = summary["components"]
            ok = ci and got == pred
            out.append(CheckResult(f"geometry/boundary-count[{t},p={p}]", ok,
                                   "" if ok else f"predicted {pred}, got {got}"))
    if boundary != "above_boundary":
        p, d = geometry.ci_failure_witness(t)
        q = euler_quadratic(t, d)
        exact = Fraction(q) == -t.delta * p * (d.d0 - d.dinf)
        member = in_P(t, d) and not d.is_zero()
        weak = q + p * (d.d0 - d.dinf)
        violates = weak < 0 if boundary == "below_boundary" else weak == 0
        ok = exact and member and violates
        out.append(CheckResult(f"geometry/witness[{t}]", ok,
                               "" if ok else f"witness p={p} d={d} value {weak}"))
    return out


def tubes_suite(t: CanonicalType) -> list[CheckResult]:
    def euler_simples():
        for i, mi in enumerate(t.m, start=1):
            for j in range(mi):
                for jp in range(mi):
                    want = (1 if j == jp else 0) - (1 if jp == (j - 1) % mi else 0)
                    got = euler_form(t, basis_e(t, i, j), basis_e(t, i, jp))
                    if got != want:
                        yield f"<e_({i},{j}), e_({i},{jp})> = {got} != {want}"

    def cross_arm():
        for i in range(1, t.n + 1):
            for ip in range(1, t.n + 1):
                if i == ip:
                    continue
                for j in range(t.m[i - 1]):
                    for jp in range(t.m[ip - 1]):
                        if euler_form(t, basis_e(t, i, j), basis_e(t, ip, jp)) != 0:
                            yield f"cross-arm pairing nonzero ({i},{j}),({ip},{jp})"
                        if hom_dim_tube(t, TubeIndec(i, j, 1), TubeIndec(ip, jp, 1)) != 0:
                            yield f"cross-arm hom nonzero ({i},{j}),({ip},{jp})"

    def end_and_periodicity():
        h = basis_h(t)
        for i, mi in enumerate(t.m, start=1):
            for a in range(mi):
                for l in range(1, 3 * mi + 1):
                    x = TubeIndec(i, a, l)
                    if end_dim(t, x) != (l - 1) // mi + 1:
                        yield f"End({x}) formula fails"
                    if dim_vector(t, TubeIndec(i, a, l + mi)) != dim_vector(t, x) + h:
                        yield f"periodicity fails at {x}"
                    for j in range(mi):
                        want = top_index(t, x) == j
                        if hom_to_simple_nonzero(t, RegularModuleClass((x,)), i, j) != want:
                            yield f"top test fails at {x}, j={j}"

    return [_first(f"tubes/euler-simples[{t}]", euler_simples()),
            _first(f"tubes/cross-arm[{t}]", cross_arm()),
            _first(f"tubes/end-and-periodicity[{t}]", end_and_periodicity())]


def _below_end(t: CanonicalType, th: int, xx: int) -> bool:
    """Whether dim End X = xx is below |m| - n<d',h> for th = <d',h>."""
    return xx < t.total - t.n * th


def _key_levels(t: CanonicalType, pmax: int, keys: Counter) -> Iterator[tuple]:
    """Per key (q, th, sd, pair, xx) of ``keys`` and level p in [q, pmax]:
    the key, its count, p, the deficiency and whether the key is plus and flat.
    The conditions read only the key, so each is taken once per key and level."""
    from . import zeroset  # here and in the zero-set suite only: oracle never loads it
    for key, count in keys.items():
        q, th, sd, pair, xx = key
        for p in range(q, pmax + 1):
            yield (key, count, p, zeroset._deficiency(t, p, q, th, sd),
                   zeroset._is_equality(t, p, q, th, pair, xx),
                   zeroset._is_flat(t, p, q, th, sd, pair, xx))


def _level_tally(t: CanonicalType, pmax: int, keys: Counter) -> Counter:
    """Per level p <= pmax, how many triples counted in ``keys`` by their
    (q, th, sd, pair, xx) break the slope-one deficiency, are negative, plus
    or flat, or split plus from flat; each key is weighed by its count."""
    tally = Counter()
    for (q, th, *_), count, p, d, plus, flat in _key_levels(t, pmax, keys):
        tally["slope", p] += count * (th == 1 and d != p - q)
        tally["negative", p] += count * (d < 0)
        tally["plus", p] += count * plus
        tally["flat", p] += count * flat
        tally["split", p] += count * (plus != flat)
    return tally


def _first_split(t: CanonicalType, p: int, keys: Counter) -> str:
    """The first key of ``keys`` that is flat but not plus at level p, or
    plus but not flat, with its count and side; "" if there is none."""
    for key, count, level, _, plus, flat in _key_levels(t, p, keys):
        if level == p and plus != flat:
            side = "flat, not plus" if flat else "plus, not flat"
            return f"first split key {key}: {count} triples, {side}"
    return ""


def zeroset_suite(t: CanonicalType, pmax: int = 4,
                  cap: int = DEFAULT_ZCAP) -> list[CheckResult]:
    from . import zeroset
    out = []
    if 0 < t.delta < 1:
        thr = zeroset.zeroset_threshold(t)
        ok = all(zeroset.check_wild_margin(t, p) for p in range(thr, thr + 3))
        aux = 4 * t.delta + t.n + 1 < Fraction(t.n + 1) / (1 - t.delta)
        out.append(CheckResult(f"zeroset/wild-margin[{t}]", ok and aux))
    if t.product > zeroset.BRUTE_PRODUCT_LIMIT or pmax > zeroset.BRUTE_P_LIMIT:
        return out

    # Z_pmax is counted arm by arm, not listed: the tally reads how many
    # triples carry each (q, th, sd, pair, xx).  Only the blocks holding the
    # first and last 200 triples are listed for the membership recheck, and
    # all of strata only to name the first triple that breaks the end bound.
    from .zpstream import _ArmZp

    zp = _ArmZp(t, pmax)
    keys = zp.key_counts(cap)

    def end_failures():
        if any(_below_end(t, th, xx) or pair < 0 for _, th, _, pair, xx in keys):
            for z, th, _, pair, xx in zeroset.strata(t, pmax, cap):
                if _below_end(t, th, xx):
                    yield f"end bound fails at {z.to_dict()}"
                elif pair < 0:
                    yield f"pairing < 0 at {z.to_dict()}"

    levels = range(1, pmax + 1)
    tally = _level_tally(t, pmax, keys)
    ok = all(zeroset.ZTriple(*z).is_member(t, pmax) for z in zp.edge_triples(200))
    out.append(CheckResult(f"zeroset/membership-recheck[{t},p<={pmax}]", ok))
    out.append(_first(f"zeroset/end-bound[{t},p<={pmax}]", end_failures()))

    for p in levels:
        out.append(CheckResult(f"zeroset/slope-one-diff[{t},p={p}]", not tally["slope", p]))
        if p > t.n:
            # strictness range: equality strata = target-dimensional diff-0 strata
            ok = not tally["split", p]
            out.append(CheckResult(
                f"zeroset/equality-strata[{t},p={p}]", ok, "" if ok else
                f"{tally['flat', p]} vs {tally['plus', p]}; {_first_split(t, p, keys)}"))
        least = zeroset._least_deficiency(t, p)[0]
        ok = (tally["negative", p] == 0) == (least >= 0)
        out.append(CheckResult(f"zeroset/closed-form-decision[{t},p={p}]", ok,
                               "" if ok else f"least {least}, {tally['negative', p]} negative"))
        want = zeroset.equality_stratum_count(t, p)
        ok = tally["plus", p] == want
        out.append(CheckResult(f"zeroset/parametrized-count[{t},p={p}]", ok,
                               "" if ok else f"enumerated {tally['plus', p]}, parametrized {want}"))
        if t.delta < 1 and p >= zeroset.zeroset_threshold(t):
            out.append(CheckResult(f"zeroset/diff-nonneg[{t},p={p}]", not tally["negative", p]))
    return out


def oracle_suite(t: CanonicalType, lam: oracle.LambdaChoice | None = None,
                 mu: Fraction | None = None, sizes: tuple[int, ...] = (1, 2, 3),
                 full: bool | None = None) -> list[CheckResult]:
    out = []
    if lam is None:
        lam = oracle.LambdaChoice.default_for(t)
    if mu is None:
        mu = max(lam.rational_tube_points()) + 1
    if full is None:
        full = t.total <= 9

    tube_mods: list[tuple[TubeIndec, oracle.MatrixRep]] = []
    for i, mi in enumerate(t.m, start=1):
        for j in range(mi):
            tube_mods.append((TubeIndec(i, j, 1), oracle.build_exceptional_simple(t, lam, i, j)))
        for a in range(mi):
            tube_mods.append((TubeIndec(i, a, 2), oracle.build_length_two(t, lam, i, a)))
    homog = [(s, oracle.build_homogeneous(t, lam, mu, s)) for s in sizes]

    ok = all(oracle.check_relations(t, lam, rep) for _, rep in tube_mods) and \
        all(oracle.check_relations(t, lam, rep) for _, rep in homog)
    out.append(CheckResult(f"oracle/relations[{t}]", ok))

    dims = (f"dim mismatch for {x}" for x, rep in tube_mods if dim_vector(t, x) != rep.dim)
    out.append(_first(f"oracle/dims[{t}]", dims))

    if full:
        def hom_vs_tubes():
            for x, mrep in tube_mods:
                for y, nrep in tube_mods:
                    want = hom_dim_tube(t, x, y)
                    got = oracle.hom_dim_linear(t, lam, mrep, nrep)
                    if got != want:
                        yield f"hom({x},{y}) = {got}, tube model {want}"

        out.append(_first(f"oracle/hom-vs-tubes[{t}]", hom_vs_tubes()))

        # A generic point P of the cone-P vector h + e_0 lies in the class P
        # of the module category, and every tube module X is regular.  Modules
        # in P have projective dimension <= 1 and Hom(X, tau P) = 0, so
        # Ext^2(P, X) = 0 and, by the Auslander-Reiten formula,
        # Ext^1(P, X) = D Hom(X, tau P) = 0 (Ringel, Tame algebras and
        # integral quadratic forms, LNM 1099, 1984, Sect. 3.7); hence
        # dim Hom(P, X) = <dim P, dim X>.  Under rational lambdas P's arrows mix
        # integers with fractions, so a Hom that drops row denominators fails.
        d = basis_h(t) + basis_e0(t)
        prep = oracle.random_cone_point(t, lam, d, random.Random(0))

        def hom_cone_pairing():
            for x, xrep in tube_mods:
                got = oracle.hom_dim_linear(t, lam, prep, xrep)
                want = euler_form(t, d, dim_vector(t, x))
                if got != want:
                    yield f"hom(P, {x}) = {got}, <d, dim X> = {want}"

        out.append(_first(f"oracle/hom-cone-pairing[{t}]", hom_cone_pairing()))

        def homogeneous():
            for s, hrep in homog:
                for x, xrep in tube_mods:
                    if oracle.hom_dim_linear(t, lam, hrep, xrep) != 0 or \
                            oracle.hom_dim_linear(t, lam, xrep, hrep) != 0:
                        yield f"homogeneous size {s} not orthogonal to {x}"
                for s2, hrep2 in homog:
                    if oracle.hom_dim_linear(t, lam, hrep, hrep2) != min(s, s2):
                        yield f"hom(J{s}, J{s2}) != min"

        out.append(_first(f"oracle/homogeneous[{t}]", homogeneous()))

        if len(tube_mods) >= 3:
            a, b, c = tube_mods[0][1], tube_mods[1][1], tube_mods[2][1]
            ds = oracle.direct_sum(a, b)
            ok = (ds.dim == a.dim + b.dim
                  and oracle.check_relations(t, lam, ds)
                  and oracle.hom_dim_linear(t, lam, ds, c)
                  == oracle.hom_dim_linear(t, lam, a, c) + oracle.hom_dim_linear(t, lam, b, c))
            out.append(CheckResult(f"oracle/direct-sum[{t}]", ok))
    else:
        ok = oracle.hom_dim_linear(t, lam, homog[0][1], homog[0][1]) == sizes[0]
        out.append(CheckResult(f"oracle/homogeneous-end[{t}]", ok))

    # exactness: a single perturbed entry must break the relations
    s, hrep = homog[0]
    m11 = [list(r) for r in hrep.mat(1, 1)]
    m11[0][0] += 1
    bad = oracle.MatrixRep(t, hrep.dim, {**hrep.mats, (1, 1): tuple(map(tuple, m11))})
    out.append(CheckResult(f"oracle/perturbation[{t}]",
                           not oracle.check_relations(t, lam, bad)))
    return out


def run_all(t: CanonicalType, pmax: int = 4, seed: int = 0, samples: int = 1000,
            cap: int = DEFAULT_ZCAP) -> list[CheckResult]:
    """Every suite applicable to the type, with seeded randomness; the zero-set
    suite raises EnumerationCapExceeded past `cap` triples."""
    from .zeroset import BRUTE_P_LIMIT
    rng = random.Random(seed)
    results = []
    results += forms_suite(t, rng, samples)
    results += cones_suite(t, rng, samples)
    results += geometry_suite(t, pmax)
    results += tubes_suite(t)
    results += zeroset_suite(t, min(pmax, BRUTE_P_LIMIT), cap=cap)
    results += oracle_suite(t)
    return results
