"""The model of Z_p and nothing else: the search of its triples and the count
of their keys, both read off one walk per tube.

Its consumers, zeroset.strata (the one reader of ``blocks``) and the verify
zero-set suite in checks, keep what they conclude from Z_p; it imports
nothing of zeroset.  strata reads the leaves of each (q, d') block as ints
and tuples, and ``triple`` gives a leaf as (d', d'', X, q), which it wraps
as a zeroset.ZTriple where it hands it out.  Only those consumers
import this module, inside the functions, so the queries that never
enumerate Z_p do not compile it.  It calls the public functions of the other
modules through their modules, so a wrapper rebound there is seen here and
undone with it.

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
the block's triples by member index; the count (``key_counts``) convolves
the arms' tallies of (r_i, <d', dim X_i>, dim End X_i) under the same bound.
A walk reads only the arm and the arm's path of q*h - d', which holds
q - d'_0 and the pairings <d', e_{i,j}> as its rises; a convolution reads
only the multiset of its tallies.  Both are kept per stream, so blocks that
differ by a shift of d' by h, or by a permutation of equal arms, share them.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from functools import cache
from itertools import pairwise
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
        self.arm_tables = {}
        self.block_sums = {}

    def triple(self, q: int, dprime: DimVector, entries: tuple, members: tuple) -> tuple:
        """One leaf of blocks as (d', d'', X, q), in zeroset.ZTriple's order."""
        return dprime, self.vector(entries), self.xclass(members), q

    def heads(self):
        """(q, d') of every block in enumerate_Zp order: each nonzero d' of
        enumerate_P(t, q), for q <= p.  Each level reads P afresh: keeping
        one pass's vectors for the later levels would hold all of P in
        memory to save only their rebuilding."""
        for q in range(1, self.p + 1):
            for dprime in cones.enumerate_P(self.t, q):
                if not dprime.is_zero():
                    yield q, dprime

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

    def _block(self, q: int, dprime: DimVector) -> tuple:
        """The multiset of (arm length, arm path of q*h - d') of the block
        (q, d'), sorted: all that its count reads."""
        return tuple(sorted((mi, tuple(q - v for v in chain))
                            for mi, chain in zip(self.t.m, dprime.chains())))

    def _block_sum(self, arms: tuple) -> tuple[Counter, int]:
        """Counter of (<d', dim X>, dim End X) over the triples of a block
        with ``arms`` as ``_block`` gives them, and its total: the tallies of
        its arms' walks convolved under R <= q - d'_0, the first entry of
        every arm path.  Kept per ``arms``; a tally keeps no members."""
        if arms in self.block_sums:
            return self.block_sums[arms]
        bound = arms[0][1][0]
        acc = Counter({(0, 0, 0): 1})
        for arm in arms:
            if arm not in self.arm_tables:
                self.arm_tables[arm] = Counter(
                    (r, pair, xx) for _, r, pair, xx, _ in self._arm_walk(*arm))
            step = Counter()
            for (r, pair, xx), count in acc.items():
                for (ri, pi, xi), ci in self.arm_tables[arm].items():
                    if r + ri <= bound:
                        step[r + ri, pair + pi, xx + xi] += count * ci
            acc = step
        out = Counter()
        for (_, pair, xx), count in acc.items():
            out[pair, xx] += count
        self.block_sums[arms] = out, out.total()
        return self.block_sums[arms]

    def key_counts(self, cap: int) -> Counter:
        """How many triples of blocks carry each (q, th, sd, pair, xx), counted
        by convolution without joining the arms.  The count needs no order,
        so one pass of enumerate_P(t, p) takes each d' at every level
        q >= d'_0, and th and sd once.  The pass counts how many (d', q)
        share each (q, th, sd, block); each group then adds its block's
        sum once, weighed by that number.  Raises EnumerationCapExceeded
        once the count passes ``cap``, as blocks does."""
        groups, total = Counter(), 0
        for dprime in cones.enumerate_P(self.t, self.p):
            if dprime.is_zero():
                continue
            th, sd = dprime.d0 - dprime.dinf, forms.euler_quadratic(self.t, dprime)
            for q in range(dprime.d0, self.p + 1):
                arms = self._block(q, dprime)
                groups[q, th, sd, arms] += 1
                total += self._block_sum(arms)[1]
            if total > cap:
                raise self._over(cap)
        keys = Counter()
        for (q, th, sd, arms), weight in groups.items():
            for (pair, xx), count in self._block_sum(arms)[0].items():
                keys[q, th, sd, pair, xx] += weight * count
        return keys

    def edge_triples(self, k: int) -> list[tuple]:
        """The first k and then the last k triples of blocks, as ``triple``
        gives them; the two overlap when there are fewer than 2k.  Block sizes
        are counted, so only the blocks at either end are joined."""
        head, tail, in_tail = [], deque(), 0
        for q, dprime in self.heads():
            if len(head) < k:
                head += [(q, dprime, leaf) for leaf in self.leaves(q, dprime)[:k - len(head)]]
            tail.append((q, dprime, self._block_sum(self._block(q, dprime))[1]))
            in_tail += tail[-1][2]
            while in_tail - tail[0][2] >= k:  # the fewest last blocks holding k triples
                in_tail -= tail.popleft()[2]
        tail = [(q, dprime, leaf) for q, dprime, _ in tail for leaf in self.leaves(q, dprime)]
        return [self.triple(q, dprime, entries, members)
                for q, dprime, (entries, members, _, _) in head + tail[-k:]]
