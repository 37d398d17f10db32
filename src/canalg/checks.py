"""Seeded invariant suites for every layer of the library.

Each suite returns a list of CheckResult; a check aggregates many sampled or
enumerated instances and reports the first counterexample if one exists.
These are the batteries behind the command-line ``verify`` subcommand, and
the property-style portion of the test suite.  The oracle battery, with
CheckResult and _first, lives in ``oracle`` beside the solver it runs, so the
``oracle`` subcommand loads neither this module nor ``geometry``; it is
imported here for run_all and keeps its names ``checks.oracle_suite`` and
``checks.CheckResult``.

The references only verify runs live here too, with their windows.  The
exhaustive scan (equality_levels_naive) checks geometry's closed form against
every vector of P, read once up to the top level one (d0, dinf) block at a
time, level p being the blocks with d0 <= p; in a block the form is summed arm
by arm (cones._arm_forms).  It reads no h-shift, no balanced step and no
tight slice: euler_form is its only evaluator of the form.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import compress, islice, product
from typing import Iterator

from . import geometry
from .cones import (DEFAULT_CAP, DEFAULT_ZCAP, _arm_forms, _P_blocks, decompose_slope_one, in_P,
                    in_Q)
from .forms import (CanonicalType, DimVector, _normalised, a_dim, basis_e, basis_h,
                    euler_form, euler_quadratic, gl_dim,
                    quadratic_lower_bound, quadratic_via_decomposition,
                    slope_one_vector, zero_vector)
from .oracle import CheckResult, _first, oracle_suite
from .tubes import TubeIndec, dim_vector, end_dim, hom_dim_tube, top_index

_RAND_ENTRY = 12  # _rand_vector's entries lie in [-_RAND_ENTRY, _RAND_ENTRY]
_RAND_P_TOP = 9  # the largest d0 of _rand_P_vector


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """An int in [lo, hi], uniform up to float rounding, from one
    ``rng.random()`` call.  Every draw of the forms and cones suites reads
    ``random()`` this way (_rand_vector and _rand_P_vector inline the
    expression, one per coordinate): CPython keeps the stream of
    ``random()`` for a seed across versions, which it does not promise for
    ``randint`` or ``choices``, and a draw runs one Python frame where
    ``randint`` runs three."""
    return lo + int(rng.random() * (hi - lo + 1))


def _rand_vector(t: CanonicalType, rng: random.Random) -> DimVector:
    """A vector with each coordinate drawn from [-_RAND_ENTRY, _RAND_ENTRY],
    in ``entries`` order."""
    r, lo, width = rng.random, -_RAND_ENTRY, 2 * _RAND_ENTRY + 1
    d0, dinf, *inner = [lo + int(r() * width) for _ in range(t.vertex_count)]
    it = iter(inner)
    return _normalised(d0, dinf, tuple(tuple(islice(it, k)) for k in t.shape))


def _rand_P_vector(t: CanonicalType, rng: random.Random) -> DimVector:
    """A vector of P with 0 <= dinf < d0 <= _RAND_P_TOP: each arm steps down
    from d0 to a value drawn between dinf and the one before it."""
    r = rng.random
    dinf = int(r() * _RAND_P_TOP)
    d0 = dinf + 1 + int(r() * (_RAND_P_TOP - dinf))
    arms = []
    for mi in t.m:
        chain = []
        prev = d0
        for _ in range(mi - 1):
            prev = dinf + int(r() * (prev - dinf + 1))
            chain.append(prev)
        arms.append(tuple(chain))
    return _normalised(d0, dinf, tuple(arms))


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


# The windows (arm product, level) of the desk-scale references, which no
# decision reads: geometry/dp-vs-naive scans all of P, zeroset_suite all of Z_p.
NAIVE_PRODUCT_LIMIT = 60
NAIVE_P_LIMIT = 4
BRUTE_PRODUCT_LIMIT = 20
BRUTE_P_LIMIT = 6


def _block_forms(t: CanonicalType, d0: int, dinf: int,
                 chains: list[list[tuple[int, ...]]]) -> list[int]:
    """<d, d> for each d = DimVector(d0, dinf, combo) of a block of P, combo
    over product(*chains) in order, summed from cones._arm_forms."""
    return list(map(sum, product(*_arm_forms(t, d0, dinf, chains))))


def equality_levels_naive(t: CanonicalType, pmax: int) -> list[tuple[int, list[DimVector]]]:
    """Exhaustive reference for every level p in [0, pmax], from one scan of P.

    Entry p is equality_vectors_naive(t, p): the least of
    <d, d> + p*(d0 - dinf) over d in P with d0 <= p, and the d attaining 0,
    zero first and then in enumerate_P order.  Level p reads the blocks with
    d0 <= p: enumerate_P(t, p) is that prefix of enumerate_P(t, pmax).
    _P_blocks raises EnumerationCapExceeded past DEFAULT_CAP vectors, as in
    enumerate_P.
    """
    if pmax < 0:
        raise ValueError(f"p must be >= 0, got {pmax}")
    zero = zero_vector(t)
    least = [0] * (pmax + 1)
    eq = [[zero] for _ in range(pmax + 1)]
    for d0, dinf, chains in _P_blocks(t, pmax, DEFAULT_CAP):
        values = _block_forms(t, d0, dinf, chains)
        lo, slope = min(values), d0 - dinf
        for p in range(d0, pmax + 1):
            least[p] = min(least[p], lo + p * slope)
            if lo <= -p * slope:
                hits = map((-p * slope).__eq__, values)
                eq[p] += (DimVector(d0, dinf, c) for c in compress(product(*chains), hits))
    return list(zip(least, eq))


def equality_vectors_naive(t: CanonicalType, p: int) -> tuple[int, list[DimVector]]:
    """(defect, equality set) at level p: level p of equality_levels_naive."""
    return equality_levels_naive(t, p)[p]


def geometry_suite(t: CanonicalType, pmax: int = 4) -> list[CheckResult]:
    out = []
    boundary, _ = geometry.classify_type(t)
    # one slice pass per level gives the defect, CI, normality and count
    summaries = {p: geometry.ci_summary(t, p) for p in range(1, pmax + 1)}
    if t.product <= NAIVE_PRODUCT_LIMIT:
        # one exhaustive scan of P answers every level it is checked at
        naive = equality_levels_naive(t, min(pmax, NAIVE_P_LIMIT))
        for p, (naive_defect, naive_eq) in enumerate(naive[1:], start=1):
            defect = summaries[p]["defect"]
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
        w = geometry.witness_summary(t)
        p, d = w["p"], w["d"]
        exact = Fraction(w["quadratic"]) == -t.delta * p * (d.d0 - d.dinf)
        member = in_P(t, d) and not d.is_zero()
        want = "weak" if boundary == "below_boundary" else "strict_only"
        ok = exact and member and w["violates"] == want
        out.append(CheckResult(f"geometry/witness[{t}]", ok, "" if ok else
                               f"witness p={p} d={d} value {w['criterion_value']}"))
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
                        # x maps onto the simple (i, j) exactly when j is its top
                        if (top_index(t, x) == j) != (hom_dim_tube(t, x, TubeIndec(i, j, 1)) > 0):
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
    from . import zeroset  # where it is read, as in zeroset_suite
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
    # zeroset is imported where it is read: a type outside both the wild
    # margin and the window compiles none of it
    out = []
    if 0 < t.delta < 1:
        from . import zeroset
        thr = zeroset.zeroset_threshold(t)
        ok = all(zeroset.check_wild_margin(t, p) for p in range(thr, thr + 3))
        aux = 4 * t.delta + t.n + 1 < Fraction(t.n + 1) / (1 - t.delta)
        out.append(CheckResult(f"zeroset/wild-margin[{t}]", ok and aux))
    if t.product > BRUTE_PRODUCT_LIMIT:
        return out
    from . import zeroset

    pmax = min(pmax, BRUTE_P_LIMIT)  # the window's top level, as verify --help states

    # Z_pmax is counted one P-block (d0, 0) and level at a time, not listed:
    # the tally reads how many triples carry each (q, th, sd, pair, xx).  Only
    # the blocks holding the first and last 200 triples are joined, for the
    # membership recheck, and strata is read only to name the first triple
    # that breaks the end bound.
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


def run_all(t: CanonicalType, pmax: int = 4, seed: int = 0, samples: int = 1000,
            cap: int = DEFAULT_ZCAP) -> list[CheckResult]:
    """Every suite applicable to the type, with seeded randomness; the zero-set
    suite raises EnumerationCapExceeded past `cap` triples."""
    rng = random.Random(seed)
    results = []
    results += forms_suite(t, rng, samples)
    results += cones_suite(t, rng, samples)
    results += geometry_suite(t, pmax)
    results += tubes_suite(t)
    results += zeroset_suite(t, pmax, cap=cap)
    results += oracle_suite(t)
    return results
