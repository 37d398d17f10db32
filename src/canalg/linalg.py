"""Small exact linear algebra kit.

Matrices are tuples of row tuples of `fractions.Fraction`; `rank` takes sparse
integer rows instead and eliminates them sparsest row first, each pivot
leading at its highest column.  Zero-dimensional shapes (no rows, or rows of
length zero) are legal and arise constantly from vertices carrying the zero
space; callers that compose chains through zero spaces must short-circuit to
an explicit zero matrix since an empty matrix carries no column count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Matrix = tuple[tuple[Fraction, ...], ...]
SparseRow = dict[int, int]


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def eye(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product of a and b; zero entries of either factor are skipped."""
    if not a:
        return ()
    nca = len(a[0])
    if nca != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{nca} @ {len(b)}x?")
    ncb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * ncb
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def combine(a: Matrix, c, b: Matrix) -> Matrix:
    """a + c*b for a scalar c and matrices a and b of one shape."""
    return tuple(tuple(x + c * y for x, y in zip(ra, rb, strict=True))
                 for ra, rb in zip(a, b, strict=True))


def block_diag(a: Matrix, b: Matrix, acols: int, bcols: int) -> Matrix:
    """Block-diagonal sum; column counts are explicit so blocks with zero rows
    still pad correctly."""
    out = []
    for row in a:
        out.append(tuple(row) + tuple(Fraction(0) for _ in range(bcols)))
    for row in b:
        out.append(tuple(Fraction(0) for _ in range(acols)) + tuple(row))
    return tuple(out)


def rank(rows: list[SparseRow]) -> int:
    """Rank of sparse integer rows {column: nonzero int}, by exact elimination.

    Fraction-free: each pivot is keyed by its leading (highest) column and
    divided by the gcd of its entries; an incoming row is reduced by
    a*row - b*pivot with a/b the pivot's and the row's leading entries over
    their gcd, until it vanishes or leads at a column with no pivot yet.
    Rows enter sparsest first (a stable sort on their nonzero count) and
    lead at their highest column, so short rows become pivots before long
    ones are reduced and the low columns are eliminated last.  For the Hom
    systems of `oracle.hom_dim_linear` the lowest columns are the block that
    holds 0, and the next the one that holds inf unless an arm joins the
    two.  Those blocks are the ones every arm touches: on the contracted
    quiver each arm's first cut reads 0's block and its last reads inf's,
    while an inner block lies on one arm between two cuts.  Eliminating the
    shared blocks last keeps the reduced rows from filling in (a static
    Markowitz order).
    """
    pivots: dict[int, SparseRow] = {}
    for row in sorted(rows, key=len):
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                pivots[lead] = {c: x // g for c, x in row.items()}
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            reduced = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                y = reduced.get(c, 0) - b * x
                if y:
                    reduced[c] = y
                else:
                    del reduced[c]
            row = reduced
    return len(pivots)
