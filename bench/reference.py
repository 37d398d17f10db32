"""Reference checks built apart from canalg.

Nothing here imports canalg.  Each check takes the query's arguments and the
program's parsed output (or, for the stream checks, plain tuples read off the
program's objects) and returns a list of error strings; an empty list means
the answer agrees with the reference.

Dimension vectors are kept as ``(d0, dinf, arms)`` with ``arms[i]`` the
interior values of arm i+1, the layout canalg prints as ``d0;a,b/c;dinf``.
Arrows run (i, j) -> (i, j-1) from the sink towards the source, and the n - 2
relations run from the sink to the source, so the Euler form is
``<x, y> = sum_v x_v y_v - sum_arrows x_tail y_head + (n - 2) x_inf y_0``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, comb, lcm, prod

Vec = tuple  # (d0, dinf, ((arm 1 interior), (arm 2 interior), ...))


# --- invariants ---------------------------------------------------------------

def delta(m) -> Fraction:
    return Fraction(len(m) - 2, 2) - sum(Fraction(1, x) for x in m) / 2


def threshold(m) -> int | None:
    """Proved zero-set level: n domestic, n + 1 tubular, ceil((n+1)/(1-delta)) wild."""
    d, n = delta(m), len(m)
    if d < 0:
        return n
    if d == 0:
        return n + 1
    if d < 1:
        return ceil(Fraction(n + 1) / (1 - d))
    return None


def parse_type(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def query_options(argv) -> dict:
    """``--key value`` pairs of a query; a bare flag maps to True."""
    out, k = {}, 1
    while k < len(argv):
        key = argv[k][2:]
        if k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            out[key] = argv[k + 1]
            k += 2
        else:
            out[key] = True
            k += 1
    return out


def check_classify(m, out: dict) -> list[str]:
    n, s = len(m), sum(Fraction(1, x) for x in m)
    d = delta(m)
    want = {
        "n": n,
        "delta": str(d),
        "boundary": ("above_boundary" if s > n - 4 else
                     "on_boundary" if s == n - 4 else "below_boundary"),
        "repr_type": "domestic" if d < 0 else ("tubular" if d == 0 else "wild"),
        "lcm": lcm(*m),
        "product": prod(m),
        "zeroset_threshold": threshold(m),
    }
    return [f"classify {key}: got {out.get(key)!r}, want {v!r}"
            for key, v in want.items() if out.get(key) != v]


# --- geometry: closed-form slice cost -----------------------------------------

def slice_cost(m, p: int, s: int) -> Fraction:
    """p*s - delta*s^2 + sum_i r_i (m_i - r_i) / (2 m_i), r_i = s mod m_i."""
    return (p * s - delta(m) * s * s
            + sum(Fraction((s % mi) * (mi - s % mi), 2 * mi) for mi in m))


def geometry_expect(m, p: int) -> dict:
    costs = {s: slice_cost(m, p, s) for s in range(1, p + 1)}
    low = min(costs.values())
    count = 1 + sum((p - s + 1) * prod(comb(mi, s % mi) for mi in m)
                    for s, c in costs.items() if c == 0)
    # The slice costs are integers: <d, d> + p*s at the minimising d.
    return {"defect": int(min(0, low)), "is_ci": low >= 0, "is_normal": low > 0,
            "count": count}


def parse_vec(text: str) -> Vec:
    d0, arms, dinf = text.split(";")
    return (int(d0), int(dinf),
            tuple(tuple(int(x) for x in a.split(",")) for a in arms.split("/")))


def _chain(d: Vec, i: int) -> tuple[int, ...]:
    """Values along arm i from the source to the sink: d0, interior, dinf."""
    return (d[0], *d[2][i], d[1])


def euler(m, x: Vec, y: Vec) -> int:
    n = len(m)
    total = x[0] * y[0] + x[1] * y[1] + (n - 2) * x[1] * y[0]
    for i in range(n):
        cx, cy = _chain(x, i), _chain(y, i)
        total += sum(a * b for a, b in zip(cx[1:-1], cy[1:-1]))
        total -= sum(cx[j] * cy[j - 1] for j in range(1, m[i] + 1))
    return total


def fits(m, d: Vec) -> bool:
    return len(d[2]) == len(m) and all(len(a) == mi - 1 for a, mi in zip(d[2], m))


def is_zero(d: Vec) -> bool:
    return d[0] == 0 and d[1] == 0 and not any(any(a) for a in d[2])


def in_P(m, d: Vec) -> bool:
    if is_zero(d):
        return True
    return d[0] > d[1] >= 0 and all(
        all(c[j] >= c[j + 1] for j in range(m[i])) for i, c in
        ((i, _chain(d, i)) for i in range(len(m))))


def in_Q(m, d: Vec) -> bool:
    if is_zero(d):
        return True
    return 0 <= d[0] < d[1] and all(
        all(c[j] <= c[j + 1] for j in range(m[i])) for i, c in
        ((i, _chain(d, i)) for i in range(len(m))))


def check_ci(m, p: int, out: dict) -> list[str]:
    want = geometry_expect(m, p)
    errs = []
    for key in ("defect", "is_ci", "is_normal"):
        if out.get(key) != want[key]:
            errs.append(f"ci {key}: got {out.get(key)!r}, want {want[key]!r}")
    comps = want["count"] if want["is_ci"] else None
    if out.get("components") != comps:
        errs.append(f"ci components: got {out.get('components')!r}, want {comps!r}")
    if out.get("p") != p:
        errs.append(f"ci p: got {out.get('p')!r}, want {p}")
    return errs


def check_components(m, p: int, out: dict) -> list[str]:
    want = geometry_expect(m, p)
    errs = []
    if not want["is_ci"]:
        return [f"components answered at a level that is not CI (p={p})"]
    listed = out.get("components", [])
    if out.get("count") != want["count"] or len(listed) != want["count"]:
        errs.append(f"components count: got {out.get('count')!r} listing "
                    f"{len(listed)}, want {want['count']}")
    seen = set()
    for text in listed:
        d = parse_vec(text)
        if text in seen:
            errs.append(f"component {text} listed twice")
        seen.add(text)
        if not fits(m, d):
            errs.append(f"component {text} does not fit type {m}")
            continue
        if not in_P(m, d):
            errs.append(f"component {text} is not in P")
        if d[0] > p:
            errs.append(f"component {text} has d0 > p = {p}")
        if euler(m, d, d) + p * (d[0] - d[1]) != 0:
            errs.append(f"component {text} misses <d,d> + p(d0 - dinf) = 0")
    return errs


# --- zero set -------------------------------------------------------------------

def equality_count(m, p: int) -> int:
    """Slope-one parametrisation sum_k N_k max(0, p - k), N_k over k-subsets of arms."""
    return sum(sum(prod(mi - 1 for mi in sub) for sub in combinations(m, k)) * max(0, p - k)
               for k in range(len(m) + 1))


def target_dim(m, p: int) -> int:
    n, total = len(m), sum(m)
    return p * p * (total - n + 2) - total - p - 1 + n


def check_zeroset(m, p: int, out: dict) -> list[str]:
    errs = []
    thr = threshold(m)
    if out.get("threshold") != thr:
        errs.append(f"zeroset threshold: got {out.get('threshold')!r}, want {thr}")
    if thr is not None and p >= thr and out.get("is_ci") is not True:
        errs.append(f"zeroset is_ci: got {out.get('is_ci')!r} at p={p} >= threshold {thr}")
    count = out.get("component_count")
    if count is not None and count != equality_count(m, p):
        errs.append(f"zeroset component_count: got {count}, want {equality_count(m, p)}")
    if out.get("target_dim") != target_dim(m, p):
        errs.append(f"zeroset target_dim: got {out.get('target_dim')!r}, "
                    f"want {target_dim(m, p)}")
    return errs


def unit(m, i: int, j: int) -> Vec:
    """e_{i,j} (arm index i from 0): the vertex unit for j >= 1, for j = 0 the
    remaining simple h - sum_{j >= 1} e_{i,j}."""
    if j == 0:
        return (1, 1, tuple(tuple(0 if k == i else 1 for _ in range(mk - 1))
                            for k, mk in enumerate(m)))
    return (0, 0, tuple(tuple(1 if (k == i and jj == j) else 0 for jj in range(1, mk))
                        for k, mk in enumerate(m)))


def flat(d: Vec) -> tuple[int, ...]:
    return (d[0], d[1], *(x for arm in d[2] for x in arm))


def add(x: Vec, y: Vec) -> Vec:
    return (x[0] + y[0], x[1] + y[1],
            tuple(tuple(a + b for a, b in zip(ax, ay)) for ax, ay in zip(x[2], y[2])))


def scale(c: int, m) -> Vec:
    return (c, c, tuple((c,) * (mi - 1) for mi in m))


def tube_dim(m, members) -> Vec:
    """Dimension vector of a sum of tube modules (arm from 1, socle, quasi-length)
    as the sum of its composition factors e_{arm, socle + u mod m}."""
    total = scale(0, m)
    for arm, socle, qlen in members:
        for u in range(qlen):
            total = add(total, unit(m, arm - 1, (socle + u) % m[arm - 1]))
    return total


def segment_hom(m, x, y) -> int:
    """dim Hom between tube modules: 0 across tubes, else the number of
    j <= min(qlen) with j = socle_x + qlen_x - socle_y mod m."""
    if x[0] != y[0]:
        return 0
    mi = m[x[0] - 1]
    return sum(1 for j in range(1, min(x[2], y[2]) + 1)
               if (j - (x[1] + x[2] - y[1])) % mi == 0)


class ZpStreamCheck:
    """Rechecks a stream of Z_p triples (d', d'', X members, q) one at a time."""

    def __init__(self, m, p: int):
        self.m, self.p = m, p
        self.h = scale(1, m)
        self.count = 0
        self.equality = 0
        self.seen: set = set()
        self.errors: list[str] = []
        self._dprime: dict = {}
        self._dd: dict = {}
        self._x: dict = {}

    def _error(self, text: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(text)

    def _dinfo(self, dp: Vec) -> tuple:
        """Whether d' is a nonzero P vector, <d', h>, and the tube simples
        (arm, j) it does not see, <d', e_{i,j}> = 0."""
        if dp not in self._dprime:
            m = self.m
            if not fits(m, dp):
                self._dprime[dp] = (False, None, frozenset(), ())
                return self._dprime[dp]
            unseen = frozenset((i, j) for i, mi in enumerate(m) for j in range(mi)
                               if euler(m, dp, unit(m, i, j)) == 0)
            self._dprime[dp] = (not is_zero(dp) and in_P(m, dp), euler(m, dp, self.h), unseen,
                                flat(dp))
        return self._dprime[dp]

    def _xinfo(self, members: tuple) -> tuple:
        if members not in self._x:
            m = self.m
            ok = all(1 <= a <= len(m) and 0 <= s < m[a - 1] and l >= 1 for a, s, l in members)
            if not ok:
                self._x[members] = None
            else:
                tops = {(a - 1, (s + l - 1) % m[a - 1]) for a, s, l in members}
                end = sum(segment_hom(m, x, y) for x in members for y in members)
                dim = tube_dim(m, members)
                self._x[members] = (dim, flat(dim), tops, end)
        return self._x[members]

    def add(self, dp: Vec, dd: Vec, members: tuple, q: int) -> None:
        m, p = self.m, self.p
        self.count += 1
        members = tuple(sorted(members))
        key = (dp, dd, members, q)
        bad = []
        if key in self.seen:
            bad.append("duplicate")
        self.seen.add(key)
        if not 1 <= q <= p:
            bad.append("q out of range")
        p_ok, pair_h, unseen, fdp = self._dinfo(dp)
        if not p_ok:
            bad.append("d' not a nonzero P vector")
        if dd not in self._dd:
            self._dd[dd] = (fits(m, dd) and in_Q(m, dd), flat(dd))
        q_ok, fdd = self._dd[dd]
        if not q_ok:
            bad.append("d'' not in Q")
        xinfo = self._xinfo(members)
        if xinfo is None:
            bad.append("bad tube module")
        else:
            dim_x, fdx, tops, end = xinfo
            if not (len(fdp) == len(fdd) == len(fdx)) or any(
                    a + b + c != q for a, b, c in zip(fdp, fdd, fdx)):
                bad.append("d' + d'' + dim X != q*h")
            if not unseen <= tops:
                bad.append("a tube simple is unseen")
            if (pair_h == 1 and q == p and end == sum(m) - len(m)
                    and euler(m, dp, dim_x) == 0):
                self.equality += 1
        if bad:
            self._error(f"{', '.join(bad)} in triple #{self.count} {key}")

    def finish(self, recorded: int | None) -> list[str]:
        errs = list(self.errors)
        want = equality_count(self.m, self.p)
        if self.equality != want:
            errs.append(f"equality strata: {self.equality}, parametrisation {want}")
        if recorded is None:
            errs.append(f"no recorded |Z_p| for {self.m}, p={self.p}")
        elif self.count != recorded:
            errs.append(f"|Z_p| = {self.count}, recorded {recorded}")
        return errs


# --- oracle and verify -------------------------------------------------------------

def check_oracle_output(m, out: dict) -> list[str]:
    errs = []
    if out.get("all_ok") is not True:
        bad = [r["name"] for r in out.get("results", []) if not r.get("ok")]
        errs.append(f"oracle all_ok is {out.get('all_ok')!r}; failed {bad}")
    names = {r["name"].split("[")[0] for r in out.get("results", [])}
    for want in ("oracle/hom-vs-tubes", "oracle/homogeneous"):
        if want not in names:
            errs.append(f"oracle --full result lacks {want}")
    return errs


def check_homs(m, sizes: int, tube_homs, homog_homs, mixed_homs) -> list[str]:
    """Compare Hom dimensions the program computed with the reference.

    tube_homs: ((x, y), dim) over tube modules x, y = (arm, socle, qlen);
    homog_homs: ((s, t), dim) over homogeneous quasi-lengths s, t;
    mixed_homs: (label, dim) for Hom between a homogeneous and a tube module.
    """
    errs = []
    for (x, y), got in tube_homs:
        if got != segment_hom(m, x, y):
            errs.append(f"Hom({x}, {y}) = {got}, segment count {segment_hom(m, x, y)}")
    for (s, t), got in homog_homs:
        if got != min(s, t):
            errs.append(f"Hom(J{s}, J{t}) = {got}, want {min(s, t)}")
    for label, got in mixed_homs:
        if got != 0:
            errs.append(f"{label} = {got}, want 0")
    if len(homog_homs) != sizes * sizes:
        errs.append(f"{len(homog_homs)} homogeneous pairs, want {sizes * sizes}")
    return errs


ZEROSET_PRODUCT_LIMIT = 20


def check_verify(m, seed: int, out: dict) -> list[str]:
    errs = []
    if out.get("all_ok") is not True:
        bad = [r["name"] for r in out.get("results", []) if not r.get("ok")]
        errs.append(f"verify all_ok is {out.get('all_ok')!r}; failed {bad}")
    if out.get("seed") != seed:
        errs.append(f"verify seed: got {out.get('seed')!r}, want {seed}")
    names = [r["name"] for r in out.get("results", [])]
    enum = [x for x in names if x.startswith("zeroset/") and not x.startswith("zeroset/wild-margin")]
    if bool(enum) != (prod(m) <= ZEROSET_PRODUCT_LIMIT):
        errs.append(f"zero-set checks {'present' if enum else 'absent'} for arm product {prod(m)}")
    margin = any(x.startswith("zeroset/wild-margin") for x in names)
    if margin != (0 < delta(m) < 1):
        errs.append(f"wild-margin check {'present' if margin else 'absent'} at delta {delta(m)}")
    return errs


def check_query(argv, code: int, out: dict | None) -> list[str]:
    """Check one query's exit code and parsed JSON output against the reference."""
    if code != 0:
        return [f"exit code {code}"]
    if out is None:
        return ["no JSON output"]
    opts = query_options(argv)
    m = parse_type(opts["type"])
    cmd = argv[0]
    if cmd == "classify":
        return check_classify(m, out)
    if cmd == "ci":
        return check_ci(m, int(opts["p"]), out)
    if cmd == "components":
        return check_components(m, int(opts["p"]), out)
    if cmd == "zeroset":
        return check_zeroset(m, int(opts["p"]), out)
    if cmd == "oracle":
        return check_oracle_output(m, out)
    if cmd == "verify":
        return check_verify(m, int(opts["seed"]), out)
    return [f"no reference check for {cmd}"]
