"""The flat search of Z_p behind zeroset.strata, zeroset.components_bruteforce
and the verify zero-set suite.

The completion search runs on ints and builds no object per triple: a
consumer reads the flat leaves of each (q, d') block and builds ZTriple
objects only where it hands them out.  Only those consumers import this
module, inside the functions, so the queries that never enumerate Z_p do not
compile it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import pairwise

from .cones import EnumerationCapExceeded, enumerate_P
from .forms import CanonicalType, DimVector, a_dim, basis_h, euler_quadratic
from .tubes import RegularModuleClass, TubeIndec, dim_vector, hom_dim_tube
from .zeroset import (ZTriple, _deficiency, _is_equality, _stratum_codim,
                      target_zero_dim)


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
                dim = tuple(dim_vector(t, x).entries())
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
        self.cands = _tube_candidates(t, p)
        # d'' and X repeat across the leaves, so each is built once per stream
        w, mask, cands = self.w, (1 << self.w) - 1, self.cands
        self.vector = cache(lambda packed: DimVector.from_entries(
            t, [packed >> w * i & mask for i in range(t.vertex_count)]))
        self.xclass = cache(lambda members: RegularModuleClass(
            tuple(cands[k][0] for k in members)))

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

    def blocks(self, cap: int):
        """Per nonzero d' of enumerate_P(t, q), q <= p, yields
        (q, d', th, sd, leaves) with th = <d',h> = d0 - dinf, sd = <d',d'> and
        leaves the block's triples in enumerate_Zp order, each
        (packed d'', candidate indices of X, <d',dim X>, dim End X).

        The pairings of d' with the fitting candidates are taken once per
        block; pair (linear in X) and xx (bilinear in X, from a Hom table over
        the candidates) are carried through the search as each summand is
        added.  Past ``cap`` triples the stream yields what fits and raises
        EnumerationCapExceeded.
        """
        t, p, cands, guard, in_q = self.t, self.p, self.cands, self.guard, self.in_Q
        suffix_mask = [0] * (len(cands) + 1)
        for k in range(len(cands) - 1, -1, -1):
            suffix_mask[k] = suffix_mask[k + 1] | cands[k][2]
        hom = [[hom_dim_tube(t, x, y) for y, *_ in cands] for x, *_ in cands]
        # per candidate: packed dim, packed rises, top bit, Hom(x, y) + Hom(y, x)
        # over all y, and dim End x
        table = [(self.pack(dim), self.rises(dim), top,
                  [a + b for a, b in zip(hom[k], (row[k] for row in hom))], hom[k][k])
                 for k, (_, dim, top, _) in enumerate(cands)]
        sizes = [c[0] for c in table]

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

        emitted = 0
        for q in range(1, p + 1):
            for dprime in enumerate_P(t, q):
                if dprime.is_zero():
                    continue
                entries = [q - b for b in dprime.entries()]
                budget = self.pack(entries)
                # <d', e_{i,j}> = d'_{i,j} - d'_{i,j+1}, one entry per tube simple
                pe = [a - b for chain in dprime.chains() for a, b in pairwise(chain)]
                needed = sum(1 << s for s, v in enumerate(pe) if v == 0)
                biased = budget | guard
                fits = [k for k, size in enumerate(sizes) if biased - size & guard == guard]
                pairs = [0] * len(cands)
                for k in fits:
                    pairs[k] = sum(c * pe[s] for s, c in cands[k][3])
                leaves = []
                extend(fits, budget, self.rise_guard + self.rises(entries), 0, [], 0, 0)
                emitted += len(leaves)
                block = (q, dprime, dprime.d0 - dprime.dinf, euler_quadratic(t, dprime))
                if emitted > cap:
                    yield *block, leaves[:len(leaves) - emitted + cap]
                    raise EnumerationCapExceeded(
                        f"cap {cap} exceeded enumerating Z_p for {t}, p={p}")
                yield *block, leaves


def _level_tally(t: CanonicalType, pmax: int, keys: Counter) -> Counter:
    """Per level p <= pmax, how many triples counted in ``keys`` by their
    (q, th, sd, pair, xx) break the slope-one deficiency, are negative, plus
    or flat, or split plus from flat.  The conditions read only the key, so
    each is taken once per key and weighed by its count."""
    a_ph = {p: a_dim(t, p * basis_h(t)) for p in range(1, pmax + 1)}
    tgt = {p: target_zero_dim(t, p) for p in range(1, pmax + 1)}
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
