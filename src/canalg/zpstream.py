"""The flat search of Z_p behind zeroset.strata, zeroset.components_bruteforce
and the verify zero-set suite, and the arm-by-arm count the suite reads.

The completion search runs on ints and builds no object per triple: a
consumer reads the flat leaves of each (q, d') block and builds ZTriple
objects only where it hands them out.  Only those consumers import this
module, inside the functions, so the queries that never enumerate Z_p do not
compile it.  It calls the public functions of the other modules through
their modules, so a wrapper rebound there is seen here and undone with it.

The suite needs only how many triples carry each key
(q, <d',h>, <d',d'>, <d',dim X>, dim End X), and ``key_counts`` counts them
without the search.  Fix a block (q, d') and write X = X_1 + ... + X_n with
X_i the members of X in tube i.

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

So per block and arm a table counts the multisets X_i of that arm's
candidates that pass the arm's tests, by (r_i, <d', dim X_i>, dim End X_i),
and the block's count is the convolution of its tables under R <= q - d'_0.
A table reads only the arm length and the arm's path of q*h - d', which
holds q - d'_0 and the pairings <d', e_{i,j}> as its rises; the convolution
reads only the multiset of its tables.  Both are kept per stream, so blocks
that differ by a shift of d' by h, or by a permutation of equal arms, share
them.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cache
from itertools import pairwise
from operator import mul, sub

from . import cones, forms, tubes, zeroset
from .cones import EnumerationCapExceeded
from .forms import CanonicalType, DimVector
from .tubes import RegularModuleClass, TubeIndec
from .zeroset import ZTriple, _deficiency, _is_equality, _stratum_codim


def _tube_candidates(t: CanonicalType, level: int):
    """All (indec, dim entries, top bit, simples) with every coordinate <= level.

    The tube simple e_{i,j} is numbered m_1 + ... + m_{i-1} + j; the top bit
    is 1 << that number, and ``simples`` lists (number, multiplicity) over
    the composition factors.
    """
    base = {}
    acc = 0
    for i, mi in enumerate(t.m, start=1):
        base[i] = acc
        acc += mi
    out = []
    for i, mi in enumerate(t.m, start=1):
        for a in range(mi):
            for qlen in range(1, mi * (level + 1)):
                x = TubeIndec(i, a, qlen)
                dim = tuple(tubes.dim_vector(t, x).entries())
                if max(dim) > level:
                    break
                top = (a + qlen - 1) % mi
                simples = Counter(base[i] + (a + u) % mi for u in range(qlen))
                out.append((x, dim, 1 << (base[i] + top), tuple(simples.items())))
    return out


class _FlatZp:
    """The Z_p search at level p on flat ints; objects are built only by triple.

    A vector is packed into one int with w bits per vertex, in entries order.
    Entries of d'' and of the tube candidates lie in [0, p] < 2^(w-1), so
    biasing every field by 2^(w-1) keeps each field of a difference in
    [1, 2^w): fields never borrow from each other and a field's top (guard)
    bit is set exactly when it is >= 0.  That makes "candidate fits the
    budget" one subtraction, and "d'' is in Q" reads the guards of the rises
    d_b - d_a over the steps a -> b of every arm path of chain_index, which
    the search carries along with the budget.
    """

    def __init__(self, t: CanonicalType, p: int):
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        self.t, self.p, self.w = t, p, p.bit_length() + 1
        self.steps = [ab for index in t.chain_index for ab in pairwise(index)]
        self.guard = self.pack([1 << self.w - 1] * t.vertex_count)
        self.rise_guard = self.pack([1 << self.w - 1] * len(self.steps))
        self.cands = cands = _tube_candidates(t, p)
        # d'' and X repeat across the leaves, so each is built once per stream
        w, mask = self.w, (1 << self.w) - 1
        self.vector = cache(lambda packed: DimVector.from_entries(
            t, [packed >> w * i & mask for i in range(t.vertex_count)]))
        self.xclass = cache(lambda members: RegularModuleClass(
            tuple(cands[k][0] for k in members)))
        hom = [[tubes.hom_dim_tube(t, x, y) for y, *_ in cands] for x, *_ in cands]
        # per candidate: packed dim, packed rises, top bit, Hom(x, y) + Hom(y, x)
        # over all y, and dim End x
        self.table = [(self.pack(dim), self.rises(dim), top,
                       [a + b for a, b in zip(hom[k], (row[k] for row in hom))], hom[k][k])
                      for k, (_, dim, top, _) in enumerate(cands)]
        self.sizes = [c[0] for c in self.table]
        self.suffix_mask = [0] * (len(cands) + 1)
        for k in range(len(cands) - 1, -1, -1):
            self.suffix_mask[k] = self.suffix_mask[k + 1] | cands[k][2]
        # per arm length, the candidates of one arm of that length as (dims
        # along the arm path, local top bit, Hom both ways to each candidate of
        # the arm, dim End); arms of equal length have equal lists
        self.arm_cands = {}
        for i, (mi, index) in enumerate(zip(t.m, t.chain_index), start=1):
            if mi not in self.arm_cands:
                arm = [k for k, (x, *_) in enumerate(cands) if x.arm == i]
                self.arm_cands[mi] = [
                    (tuple(cands[k][1][v] for v in index), 1 << tubes.top_index(t, cands[k][0]),
                     [hom[k][kk] + hom[kk][k] for kk in arm], hom[k][k]) for k in arm]
        self.arm_tables = {}
        self.block_sums = {}

    def pack(self, values) -> int:
        return sum(v << self.w * i for i, v in enumerate(values))

    def rises(self, entries) -> int:
        """The packed d_b - d_a over the arm-path steps a -> b, unbiased."""
        return self.pack([entries[b] - entries[a] for a, b in self.steps])

    def in_Q(self, packed: int, rise: int) -> bool:
        """cones.in_Q of the vector with entries in [0, p] packed as ``packed``,
        given ``rise`` = rise_guard + rises(entries): every arm path is
        nondecreasing, and d0 != dinf unless the vector is zero."""
        return rise & self.rise_guard == self.rise_guard and (
            not packed or (packed ^ packed >> self.w) & (1 << self.w) - 1 != 0)

    def triple(self, q: int, dprime: DimVector, packed: int, members) -> ZTriple:
        """The ZTriple of one leaf of blocks."""
        return ZTriple(dprime, self.vector(packed), self.xclass(members), q)

    def heads(self):
        """(q, d') of every block in enumerate_Zp order: each nonzero d' of
        enumerate_P(t, q), for q <= p."""
        for q in range(1, self.p + 1):
            for dprime in cones.enumerate_P(self.t, q):
                if not dprime.is_zero():
                    yield q, dprime

    def leaves(self, q: int, dprime: DimVector) -> list:
        """The triples of the block (q, d') in enumerate_Zp order, each
        (packed d'', candidate indices of X, <d',dim X>, dim End X).

        The pairings of d' with the fitting candidates are taken once per
        block; pair (linear in X) and xx (bilinear in X, from a Hom table over
        the candidates) are carried through the search as each summand is
        added.
        """
        guard, in_q, table, sizes = self.guard, self.in_Q, self.table, self.sizes
        suffix_mask = self.suffix_mask
        entries = [q - b for b in dprime.entries()]
        budget = self.pack(entries)
        # <d', e_{i,j}> = d'_{i,j} - d'_{i,j+1}, one entry per tube simple
        pe = [a - b for chain in dprime.chains() for a, b in pairwise(chain)]
        needed = sum(1 << s for s, v in enumerate(pe) if v == 0)
        biased = budget | guard
        fits = [k for k, size in enumerate(sizes) if biased - size & guard == guard]
        pairs = [0] * len(table)
        for k in fits:
            pairs[k] = sum(c * pe[s] for s, c in self.cands[k][3])
        leaves = []

        def extend(fits, budget, rise, covered, members, pair, xx):
            if covered & needed == needed and in_q(budget, rise):
                leaves.append((budget, tuple(members), pair, xx))
            missing = needed & ~covered
            for pos, k in enumerate(fits):
                if missing & ~suffix_mask[k]:
                    break  # later candidates cannot supply the missing tops
                size, step, top, both, own = table[k]
                new_budget = budget - size
                new_xx = xx + own + sum(map(both.__getitem__, members))
                biased = new_budget | guard
                members.append(k)
                extend([kk for kk in fits[pos:] if biased - sizes[kk] & guard == guard],
                       new_budget, rise - step, covered | top, members, pair + pairs[k],
                       new_xx)
                members.pop()

        extend(fits, budget, self.rise_guard + self.rises(entries), 0, [], 0, 0)
        return leaves

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

    def _arm_table(self, mi: int, path: tuple[int, ...]) -> Counter:
        """Counter of (r, <d', dim X_i>, dim End X_i) over the multisets X_i of
        the candidates of an arm of length mi that fit ``path``, the arm's path
        of q*h - d', leave it nondecreasing and cover the arm's simples d'
        pairs to 0.  r counts the composition factors e_{i,0}."""
        cands = self.arm_cands[mi]
        pe = [b - a for a, b in pairwise(path)]  # <d', e_{i,j}> for j in [0, mi)
        needed = sum(1 << j for j, v in enumerate(pe) if v == 0)
        pairs = [sum(map(mul, dims, pe)) for dims, *_ in cands]
        out = Counter()

        def extend(start, rest, covered, members, pair, xx):
            if covered & needed == needed and all(a <= b for a, b in pairwise(rest)):
                out[path[0] - rest[0], pair, xx] += 1
            for k in range(start, len(cands)):
                dims, top, both, own = cands[k]
                left = tuple(map(sub, rest, dims))
                if min(left) < 0:
                    continue
                new_xx = xx + own + sum(map(both.__getitem__, members))
                members.append(k)
                extend(k, left, covered | top, members, pair + pairs[k], new_xx)
                members.pop()

        extend(0, path, 0, [], 0, 0)
        return out

    def _block_sum(self, q: int, dprime: DimVector) -> Counter:
        """Counter of (<d', dim X>, dim End X) over the triples of the block
        (q, d'): the tables of its arms convolved under R <= q - d'_0.  Kept
        per multiset of (arm length, arm path of q*h - d')."""
        arms = tuple(sorted((mi, tuple(q - v for v in chain))
                            for mi, chain in zip(self.t.m, dprime.chains())))
        if arms in self.block_sums:
            return self.block_sums[arms]
        bound = q - dprime.d0
        acc = Counter({(0, 0, 0): 1})
        for arm in arms:
            if arm not in self.arm_tables:
                self.arm_tables[arm] = self._arm_table(*arm)
            step = Counter()
            for (r, pair, xx), count in acc.items():
                for (ri, pi, xi), ci in self.arm_tables[arm].items():
                    if r + ri <= bound:
                        step[r + ri, pair + pi, xx + xi] += count * ci
            acc = step
        out = self.block_sums[arms] = Counter()
        for (_, pair, xx), count in acc.items():
            out[pair, xx] += count
        return out

    def key_counts(self, cap: int) -> Counter:
        """How many triples of blocks carry each (q, th, sd, pair, xx), counted
        arm by arm without the search (module docstring).  Raises
        EnumerationCapExceeded once the count passes ``cap``, as blocks does."""
        keys, total = Counter(), 0
        for q, dprime in self.heads():
            th, sd = dprime.d0 - dprime.dinf, forms.euler_quadratic(self.t, dprime)
            for (pair, xx), count in self._block_sum(q, dprime).items():
                keys[q, th, sd, pair, xx] += count
                total += count
            if total > cap:
                raise self._over(cap)
        return keys

    def edge_triples(self, k: int) -> list[ZTriple]:
        """The first k and then the last k triples of blocks, as ZTriples; the
        two overlap when there are fewer than 2k.  Block sizes are counted, so
        only the blocks at either end are searched."""
        head, tail, in_tail = [], deque(), 0
        for q, dprime in self.heads():
            if len(head) < k:
                head += [(q, dprime, leaf) for leaf in self.leaves(q, dprime)[:k - len(head)]]
            tail.append((q, dprime, self._block_sum(q, dprime).total()))
            in_tail += tail[-1][2]
            while in_tail - tail[0][2] >= k:  # the fewest last blocks holding k triples
                in_tail -= tail.popleft()[2]
        tail = [(q, dprime, leaf) for q, dprime, _ in tail for leaf in self.leaves(q, dprime)]
        return [self.triple(q, dprime, packed, members)
                for q, dprime, (packed, members, _, _) in head + tail[-k:]]

    def first_leaf(self, keys: Counter, fails):
        """The first triple of blocks whose fails(th, pair, xx) holds, as
        (ZTriple, th, pair, xx); None when no key of ``keys``, the key_counts
        of this stream, fails, and then nothing is searched."""
        if not any(fails(th, pair, xx) for _, th, _, pair, xx in keys):
            return None
        for q, dprime in self.heads():
            th = dprime.d0 - dprime.dinf
            for packed, members, pair, xx in self.leaves(q, dprime):
                if fails(th, pair, xx):
                    return self.triple(q, dprime, packed, members), th, pair, xx
        return None


def _level_tally(t: CanonicalType, pmax: int, keys: Counter) -> Counter:
    """Per level p <= pmax, how many triples counted in ``keys`` by their
    (q, th, sd, pair, xx) break the slope-one deficiency, are negative, plus
    or flat, or split plus from flat.  The conditions read only the key, so
    each is taken once per key and weighed by its count."""
    a_ph = {p: forms.a_dim(t, p * forms.basis_h(t)) for p in range(1, pmax + 1)}
    tgt = {p: zeroset.target_zero_dim(t, p) for p in range(1, pmax + 1)}
    tally = Counter()
    for (q, th, sd, pair, xx), count in keys.items():
        for p in range(q, pmax + 1):
            d = _deficiency(t, p, q, th, sd)
            plus = _is_equality(t, p, q, th, pair, xx)
            flat = d == 0 and a_ph[p] - _stratum_codim(
                p, q, th, sd, pair, xx) == tgt[p]
            tally["slope", p] += count * (th == 1 and d != p - q)
            tally["negative", p] += count * (d < 0)
            tally["plus", p] += count * plus
            tally["flat", p] += count * flat
            tally["split", p] += count * (plus != flat)
    return tally
