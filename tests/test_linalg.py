import random
from fractions import Fraction
from math import gcd

import pytest

from canalg import checks, linalg
from canalg.forms import CanonicalType
from canalg.linalg import eye, matmul, rank, zeros


def dense_rank(rows) -> int:
    """Naive reference: dense Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            ratio = rows[i][col] / rows[r][col]
            if ratio:
                for j in range(col, ncols):
                    rows[i][j] -= ratio * rows[r][j]
        r += 1
        if r == len(rows):
            break
    return r


def reference_rank(rows) -> int:
    """Reference elimination: rows in input order, each pivot leading at its
    least column; otherwise the same fraction-free steps as `rank`."""
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
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


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _random_matrix(rng: random.Random) -> list[list[int]]:
    nrows, ncols = rng.randint(0, 12), rng.randint(1, 14)
    spread = rng.choice((1, 3, 10**6))
    density = rng.choice((0.1, 0.3, 0.7, 1.0))
    rows = [[rng.randint(-spread, spread) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.5:
        # dependent rows: a duplicate, a zero row and an integer combination
        rows.append(list(rng.choice(rows)))
        rows.append([0] * ncols)
        a, b = rng.choice(rows), rng.choice(rows)
        k = rng.randint(-5, 5)
        rows.append([x + k * y for x, y in zip(a, b)])
        rng.shuffle(rows)
    return rows


def test_rank_matches_dense_reference():
    rng = random.Random(20261018)
    for _ in range(600):
        rows = _random_matrix(rng)
        sparse = _sparse(rows)
        copy = [dict(row) for row in sparse]
        want = dense_rank(rows)
        assert rank(sparse) == want, rows
        assert sparse == copy  # the input rows are left as they were
        # rank is invariant under a row permutation and a column relabelling
        relabel = list(range(len(rows[0]) if rows else 0))
        rng.shuffle(relabel)
        moved = [{relabel[c]: x for c, x in row.items()} for row in rng.sample(sparse, len(sparse))]
        assert rank(moved) == want, rows


def test_rank_matches_reference_on_oracle_systems(monkeypatch):
    """Every system the full (2,3,4) oracle suite with sizes 1-6 hands to
    rank: the sparsest-first order against the input-order reference, and
    against dense elimination where it is small."""
    systems = []

    def capture(rows):
        systems.append((rows, reference_rank(rows)))
        return systems[-1][1]

    monkeypatch.setattr(linalg, "rank", capture)
    results = checks.oracle_suite(CanonicalType((2, 3, 4)), sizes=tuple(range(1, 7)), full=True)
    monkeypatch.undo()
    assert all(r.ok for r in results)
    assert len(systems) > 500
    for rows, want in systems:
        assert rank(rows) == want
        ncols = max((max(row) for row in rows if row), default=-1) + 1
        if ncols <= 60:
            dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
            assert dense_rank(dense) == want


@pytest.mark.parametrize("rows, want", [
    ([], 0),
    ([{}, {}], 0),
    ([{3: 5}, {3: -10}, {3: 10**6}], 1),
    ([{0: 1, 1: 1}, {0: 1, 1: 1}], 1),
    ([{0: 2, 2: 4}, {1: 3}, {0: 1, 1: 1, 2: 2}], 2),
    ([{0: 10**6, 1: -10**6 + 1}, {0: -10**6 + 1, 1: 10**6}], 2),
])
def test_rank_edge_cases(rows, want):
    assert rank(rows) == want


def test_rank_full_on_identity_and_hilbert_scaled():
    n = 7
    assert rank([{i: 1} for i in range(n)]) == n
    # the Hilbert matrix cleared of denominators row by row is nonsingular
    rows = []
    for i in range(n):
        scale = 1
        for j in range(n):
            scale = scale * (i + j + 1)
        rows.append({j: scale // (i + j + 1) for j in range(n)})
    assert rank(rows) == n


def _dense_matmul(a, b):
    ncb = len(b[0]) if b else 0
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(ncb)) for i in range(len(a)))


def test_matmul_matches_definition():
    rng = random.Random(7)
    for _ in range(200):
        n, k, m = rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = tuple(tuple(Fraction(rng.choice((0, 0, 1, -2)), rng.randint(1, 3))
                        for _ in range(k)) for _ in range(n))
        b = tuple(tuple(Fraction(rng.choice((0, 0, 3, -1)), rng.randint(1, 3))
                        for _ in range(m)) for _ in range(k))
        if k == 0:
            b = ()
        got = matmul(a, b)
        assert got == _dense_matmul(a, b)
        assert all(isinstance(x, Fraction) for row in got for x in row)
    assert matmul(eye(3), zeros(3, 2)) == zeros(3, 2)
    assert matmul((), zeros(0, 4)) == ()
    with pytest.raises(ValueError):
        matmul(eye(2), eye(3))
