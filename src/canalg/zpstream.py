"""The model of Z_p and nothing else: the search of its triples and the count
of their keys, both read off one walk per tube.

Its consumers, zeroset.strata (the one reader of ``blocks``) and the verify
zero-set suite in checks, keep what they conclude from Z_p; it imports
nothing of zeroset.  strata reads the leaves of each (q, d') block as ints
and tuples, and ``triple`` gives a leaf as (d', d'', X, q), which it wraps
as a zeroset.ZTriple where it hands it out.  Only those consumers import
this module, inside the functions, so the queries that never enumerate Z_p
do not compile it.  It calls the public functions of the other modules
through their modules, so a wrapper rebound there is seen here and undone
with it.

Fix a block (q, d') and write X = X_1 + ... + X_n with X_i the members of X
in tube i.

- Hom between different tubes is 0 (Ringel, Tame algebras and integral
  quadratic forms, LNM 1099, 1984, 3.7), so dim End X is the sum of the
  dim End X_i; <d', dim X> is the sum of the <d', dim X_i> as the form is
  linear.
- e_{i,0} is h less the interior units of arm i, so a tube-i module with r_i
  composition factors e_{i,0} has dim X_i = r_i*h + v_i with v_i on arm i's
  interior.  With R = r_1 + ... + r_n, d'' = q*h - d' - dim X equals
  (q - R)*h - d' - (v_1 + ... + v_n).  On arm i's path this is the path of
  q*h - d' - dim X_i shifted by the constant r_i - R, so it is
  nondecreasing exactly when that path is: a condition on arm i alone that
  does not read R.  A nondecreasing path is nonnegative once its first
  entry d''_0 = q - R - d'_0 is, that is when R <= q - d'_0.
- d'' is never zero: d''_inf - d''_0 = d'_0 - d'_inf > 0 for a nonzero d'
  of P.  So d'' lies in Q exactly when both conditions above hold.
- A tube simple (i, j) must be covered when <d', e_{i,j}> = 0, and only a
  tube-i member of X can have it as its top.

So the triples of a block are the choices of one multiset X_i per arm that
passes the arm's tests, with R <= q - d'_0.  One walk per arm lists those
multisets with their (r_i, <d', dim X_i>, dim End X_i).  The search
(``leaves``) joins the arms' lists grouped by r_i under that bound and sorts
the block's triples by member index.  A walk reads only the arm and the
arm's path of q*h - d', which holds q - d'_0 and the pairings <d', e_{i,j}>
as its rises; per path its list is kept per stream, its tally per count.

The count (``key_counts``) reads no vector of P.  (q, d') and
(q + c, d' + c*h) have the same arm paths, as (q + c)*h - (d' + c*h) =
q*h - d', and the same <d', h> and <d', d'>: the latter changes by
c*(<d', h> + <h, d'>) + c^2*<h, h> = 0.  So the blocks with d'_inf = c are
those with d'_inf = 0 at level q - c.  For each P-block (d0, 0) and level q
the count convolves one table per arm under R <= q - d0, keyed by (r_i,
<d', dim X_i>, dim End X_i, arm i's term of <d', d'> in cones._arm_forms),
and adds the result at every level q..p.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import islice, pairwise, product
from operator import itemgetter, mul, sub

from . import cones, forms, tubes
from .cones import EnumerationCapExceeded
from .forms import CanonicalType, DimVector
from .tubes import RegularModuleClass, TubeIndec


def _arm_candidates(t: CanonicalType, i: int, level: int):
    """The tube-i indecomposables with every coordinate <= level, by socle
    and quasi-length, each with its dimensions along arm i's path.

    Off that path a tube-i module has its count of e_{i,0}, its entry at the
    source, so the path holds its largest coordinate.  Along the path the
    coordinates count the composition factors by residue mod m_i, so the
    largest is ceil(qlen/m_i), which fits ``level`` exactly when
    qlen <= m_i*level.  Each count grows with qlen at a fixed socle, so a
    candidate that does not fit is followed by none of its socle that does.
    """
    mi = t.m[i - 1]
    xs = [TubeIndec(i, a, qlen) for a in range(mi) for qlen in range(1, mi * level + 1)]
    return [(x, tubes.dim_vector(t, x).chains()[i - 1]) for x in xs]


class _ArmZp:
    """Z_p at level p, searched and counted arm by arm (module docstring);
    objects are built only by triple.

    The candidates of all arms are numbered arm after arm, so X is the tuple
    of its member numbers in nondecreasing order.
    """

    def __init__(self, t: CanonicalType, p: int):
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        self.t, self.p = t, p
        self.indecs, self.offsets = [], []
        # per arm length, the candidates of one arm of that length as (dims
        # along the arm path, top bit, Hom both ways to each candidate of the
        # arm, dim End); arms of equal length have equal lists
        self.arm_cands = {}
        for i, mi in enumerate(t.m, start=1):
            arm = _arm_candidates(t, i, p)
            self.offsets.append(len(self.indecs))
            self.indecs += [x for x, _ in arm]
            if mi not in self.arm_cands:
                hom = [[tubes.hom_dim_tube(t, x, y) for y, _ in arm] for x, _ in arm]
                self.arm_cands[mi] = [
                    (dims, 1 << tubes.top_index(t, x),
                     [a + b for a, b in zip(hom[k], (row[k] for row in hom))], hom[k][k])
                    for k, (x, dims) in enumerate(arm)]
        # d'' and X repeat across the leaves, so each is built once per stream
        self.vector = cache(lambda entries: DimVector.from_entries(t, entries))
        self.xclass = cache(lambda members: RegularModuleClass(
            tuple(self.indecs[k] for k in members)))
        self.arm_lists = {}

    def triple(self, q: int, dprime: DimVector, entries: tuple, members: tuple) -> tuple:
        """One leaf of blocks as (d', d'', X, q), in zeroset.ZTriple's order."""
        return dprime, self.vector(entries), self.xclass(members), q

    def heads(self, backward: bool = False):
        """(q, d') of every block in enumerate_Zp order, or reversed when
        ``backward``: d' over the cones._P_blocks of level q for q <= p, under
        cones.DEFAULT_CAP both ways; one step flips levels, blocks and chains.
        Each level reads P afresh: keeping one pass's vectors for the later
        levels would hold all of P in memory to save only their rebuilding."""
        step = -1 if backward else 1
        for q in range(1, self.p + 1)[::step]:
            blocks = cones._P_blocks(self.t, q, cones.DEFAULT_CAP)
            for d0, dinf, chains in list(blocks)[::-1] if backward else blocks:
                for combo in product(*(c[::step] for c in chains)):
                    yield q, DimVector(d0, dinf, combo)

    def _arm_walk(self, mi: int, path: tuple[int, ...]) -> list:
        """The multisets X_i of the candidates of an arm of length mi that fit
        ``path``, the arm's path of q*h - d', leave it nondecreasing and
        cover the arm's simples d' pairs to 0, in nondecreasing index order.

        Each is (candidate indices, r_i, <d', dim X_i>, dim End X_i, interior
        of the arm path of q*h - d' - v_i), with r_i its count of e_{i,0} and
        dim X_i = r_i*h + v_i.
        """
        cands = self.arm_cands[mi]
        per = len(cands) // mi  # the candidates of one socle
        pe = [b - a for a, b in pairwise(path)]  # <d', e_{i,j}> for j in [0, mi)
        needed = sum(1 << j for j, v in enumerate(pe) if v == 0)
        pairs = [sum(map(mul, dims, pe)) for dims, *_ in cands]
        out = []

        def extend(start, rest, covered, members, pair, xx):
            if covered & needed == needed and all(a <= b for a, b in pairwise(rest)):
                r = path[0] - rest[0]
                out.append((tuple(members), r, pair, xx, tuple(v + r for v in rest[1:-1])))
            k = start
            while k < len(cands):
                dims, top, both, own = cands[k]
                left = tuple(map(sub, rest, dims))
                if min(left) < 0:  # nor do the longer ones of its socle
                    k = (k // per + 1) * per
                    continue
                new_xx = xx + own + sum(map(both.__getitem__, members))
                members.append(k)
                extend(k, left, covered | top, members, pair + pairs[k], new_xx)
                members.pop()
                k += 1

        extend(0, path, 0, [], 0, 0)
        return out

    def _arm_list(self, i: int, path: tuple[int, ...]) -> list:
        """The walk of arm i + 1 on ``path`` as (r_i, [(member numbers,
        interior, pair, xx)]) by ascending r_i.  Kept per (arm, path)."""
        if (i, path) not in self.arm_lists:
            groups = defaultdict(list)
            off = self.offsets[i]
            for members, r, pair, xx, left in self._arm_walk(self.t.m[i], path):
                groups[r].append((tuple(k + off for k in members), left, pair, xx))
            self.arm_lists[i, path] = sorted(groups.items())
        return self.arm_lists[i, path]

    def leaves(self, q: int, dprime: DimVector) -> list:
        """The triples of the block (q, d') in enumerate_Zp order, each
        (entries of d'', member numbers of X, <d',dim X>, dim End X).

        The arms' walks are joined arm by arm, a partial choice kept only
        while R <= q - d'_0, carrying d''+R*h and the sums of pair and xx.
        Sorting by member numbers gives the order of a search over their
        nondecreasing sequences, which visits a sequence before its
        extensions.
        """
        bound = q - dprime.d0
        partial = [(0, (), (q - dprime.d0, q - dprime.dinf), 0, 0)]
        for i, chain in enumerate(dprime.chains()):
            groups = self._arm_list(i, tuple(q - v for v in chain))
            partial = [(big_r + r, members + more, left + inner, pair + pi, xx + xi)
                       for big_r, members, left, pair, xx in partial
                       for r, group in groups if big_r + r <= bound
                       for more, inner, pi, xi in group]
        return sorted(((tuple(v - big_r for v in left), members, pair, xx)
                       for big_r, members, left, pair, xx in partial), key=itemgetter(1))

    def blocks(self, cap: int):
        """Per block, (q, d', th, sd, leaves) with th = <d',h> = d0 - dinf,
        sd = <d',d'> and leaves as ``leaves`` gives them.  Past ``cap``
        triples the stream yields what fits and raises
        EnumerationCapExceeded."""
        emitted = 0
        for q, dprime in self.heads():
            leaves = self.leaves(q, dprime)
            emitted += len(leaves)
            block = (q, dprime, dprime.d0 - dprime.dinf, forms.euler_quadratic(self.t, dprime))
            if emitted > cap:
                yield *block, leaves[:len(leaves) - emitted + cap]
                raise self._over(cap)
            yield *block, leaves

    def _over(self, cap: int) -> EnumerationCapExceeded:
        return EnumerationCapExceeded(
            f"cap {cap} exceeded enumerating Z_p for {self.t}, p={self.p}")

    def _arm_tally(self, mi: int, path: tuple[int, ...]) -> Counter:
        """Counter of (r_i, <d', dim X_i>, dim End X_i) over the walk of an
        arm of length mi on ``path``: a tally keeps no members."""
        return Counter((r, pair, xx) for _, r, pair, xx, _ in self._arm_walk(mi, path))

    def key_counts(self, cap: int) -> Counter:
        """How many triples of blocks carry each (q, th, sd, pair, xx): per
        P-block (d0, 0) and level q the arms' tables convolved under
        R <= q - d0, added at every level q..p (module docstring).  Raises
        EnumerationCapExceeded once the count passes ``cap``, as blocks does."""
        keys, total, arm_tally = Counter(), 0, cache(self._arm_tally)
        for d0, dinf, chains in cones._P_blocks(self.t, self.p):
            if dinf:
                continue
            arm_forms = cones._arm_forms(self.t, d0, 0, chains)
            for q in range(d0, self.p + 1):
                bound = q - d0
                acc = {0: Counter({(0, 0, 0): 1})}  # R -> (pair, xx, sd)
                for mi, arm_chains, sds in zip(self.t.m, chains, arm_forms):
                    table = defaultdict(Counter)
                    for chain, si in zip(arm_chains, sds):
                        path = (bound, *(q - v for v in chain), q)
                        for (ri, pi, xi), ci in arm_tally(mi, path).items():
                            table[ri][pi, xi, si] += ci
                    step = defaultdict(Counter)
                    for r, part in acc.items():
                        for ri, arm_part in table.items():
                            if r + ri <= bound:
                                out = step[r + ri]
                                for (pair, xx, sd), count in part.items():
                                    for (pi, xi, si), ci in arm_part.items():
                                        out[pair + pi, xx + xi, sd + si] += count * ci
                    acc = step
                block = sum(acc.values(), Counter())
                total += block.total() * (self.p + 1 - q)
                if total > cap:
                    raise self._over(cap)
                for level in range(q, self.p + 1):
                    keys.update({(level, d0, sd, pair, xx): count
                                 for (pair, xx, sd), count in block.items()})
        return keys

    def edge_triples(self, k: int) -> list[tuple]:
        """The first k and then the last k triples of blocks, as ``triple``
        gives them; the two overlap when there are fewer than 2k.  Each end
        is the first k of a stream of leaves over ``heads`` (backward, each
        block's leaves reversed too), so only the blocks read are joined."""
        def stream(step):
            for head in self.heads(step < 0):
                yield from ((*head, leaf) for leaf in self.leaves(*head)[::step])

        ends = [*islice(stream(1), k), *reversed(list(islice(stream(-1), k)))]
        return [self.triple(q, dprime, entries, members)
                for q, dprime, (entries, members, _, _) in ends]
