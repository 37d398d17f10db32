"""Membership and enumeration for the dimension-vector cones P and Q.

P collects the vectors of preprojective-like modules: zero, or d0 > dinf >= 0
with every arm chain nonincreasing from d0 down to dinf.  Q is the dual cone
(nondecreasing chains, d0 < dinf).  Nonzero vectors never lie in both.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, pairwise, product
from math import comb, prod
from typing import Iterator

from . import forms
from .forms import CanonicalType, DimVector, _check_shape, zero_vector

DEFAULT_CAP = 10**8  # vectors of P
DEFAULT_ZCAP = 5 * 10**6  # triples of Z_p


class EnumerationCapExceeded(RuntimeError):
    """Raised when an enumeration would emit more elements than the caller's cap."""


def in_P(t: CanonicalType, d: DimVector) -> bool:
    _check_shape(t, d)
    d0, dinf = d.d0, d.dinf
    if not d0 > dinf >= 0:
        return d.is_zero()
    return all(d0 >= a[0] and all(x >= y for x, y in pairwise(a)) and a[-1] >= dinf
               for a in d.arms)


def in_Q(t: CanonicalType, d: DimVector) -> bool:
    _check_shape(t, d)
    d0, dinf = d.d0, d.dinf
    if not 0 <= d0 < dinf:
        return d.is_zero()
    return all(d0 <= a[0] and all(x <= y for x, y in pairwise(a)) and a[-1] <= dinf
               for a in d.arms)


def _P_blocks(t: CanonicalType, p: int,
              cap: int | None = None) -> Iterator[tuple[int, int, list[list[tuple[int, ...]]]]]:
    """The nonzero part of P with d0 <= p, one block per (d0, dinf): the
    owner of P's order and of its cap.

    Yields (d0, dinf, chains) for 0 <= dinf < d0 <= p in lexicographic order,
    where chains[i-1] lists arm i's nonincreasing interior chains with values
    in [dinf, d0], in ascending lexicographic order; the block's vectors are
    DimVector(d0, dinf, combo) for combo in product(*chains).  With a cap it
    counts P from the zero vector, the block (0, 0) it does not yield, and
    raises EnumerationCapExceeded before a block that takes it past ``cap``.
    """
    seen = 0
    for d0 in range(p + 1):
        for dinf in range(max(d0, 1)):
            values = range(d0, dinf - 1, -1)
            chains = [list(combinations_with_replacement(values, mi - 1))[::-1] for mi in t.m]
            seen += prod(map(len, chains))
            if cap is not None and seen > cap:
                raise EnumerationCapExceeded(
                    f"cap {cap} exceeded while enumerating P for {t}, p={p}")
            if d0:
                yield d0, dinf, chains


def _arm_forms(t: CanonicalType, d0: int, dinf: int,
               chains: list[list[tuple[int, ...]]]) -> list[list[int]]:
    """<d, d> on a block of P split by arm: per arm i a list over chains[i],
    <d, d> being the sum of one entry of each.  Arms share no vertex and no
    arrow, so by bilinearity arm i's entry for A is <B + A, B + A> - <B, B>,
    B = (d0, dinf, zero arms), with <B, B> added on the first arm; one
    euler_quadratic call per base and chain."""
    arms = zero_vector(t).arms
    base = forms.euler_quadratic(t, DimVector(d0, dinf, arms))
    return [[forms.euler_quadratic(t, DimVector(d0, dinf, (*arms[:i], c, *arms[i + 1:])))
             - (i > 0) * base for c in arm_chains] for i, arm_chains in enumerate(chains)]


def enumerate_P(t: CanonicalType, p: int, cap: int = DEFAULT_CAP) -> Iterator[DimVector]:
    """All d in P with d0 <= p, each exactly once: the zero vector, then the
    vectors of each _P_blocks block.

    Every coordinate of such a vector lies in [0, p], so the stream is finite.
    Order is lexicographic in (d0, dinf, arm entries), which keeps golden tests
    stable; so the stream at p is the prefix with d0 <= p of the stream at any
    larger level.  _P_blocks holds the cap: past ``cap`` elements it raises
    EnumerationCapExceeded at the boundary of the block that passes it.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    yield zero_vector(t)
    for d0, dinf, chains in _P_blocks(t, p, cap):
        yield from (DimVector(d0, dinf, combo) for combo in product(*chains))


def count_P(t: CanonicalType, p: int) -> int:
    """Cardinality of the enumerate_P stream, without materializing it."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    # per arm, the nonincreasing chains of length m_i - 1 over d0 - dinf + 1
    # values: a multiset coefficient
    return 1 + sum(prod(comb(mi - 1 + d0 - dinf, mi - 1) for mi in t.m)
                   for d0 in range(1, p + 1) for dinf in range(d0))


def decompose_slope_one(t: CanonicalType, d: DimVector) -> tuple[int, tuple[int, ...]]:
    """Write d in P with d0 - dinf = 1 as r*h + e(l_1, ..., l_n).

    Such a vector takes only the values r and r+1, each arm starting at r+1
    and dropping once, so r = dinf and l_i counts the leading r+1 entries.
    The result round-trips exactly and always satisfies <d, d> = 1.
    """
    _check_shape(t, d)
    if not in_P(t, d):
        raise ValueError(f"{d} is not in the cone P")
    if d.d0 - d.dinf != 1:
        raise ValueError(f"{d} does not pair to 1 against h (d0-dinf={d.d0 - d.dinf})")
    r = d.dinf
    ls = tuple(sum(1 for x in arm if x == r + 1) for arm in d.arms)
    return r, ls
