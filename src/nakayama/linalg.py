"""Exact linear algebra over the rationals, sized for tiny matrices.

Matrices are lists of rows with int or Fraction entries.  `rank` works on
sparse rows, each a ``{column: entry}`` dict holding its nonzero entries
(a dense row is read as its nonzeros), and is fraction-free: each row is
scaled by the lcm of its denominators, which keeps the rank, and the
integer rows are eliminated by gcd-reduced cross multiplication at each
row's lowest column.  Reduced row echelon form divides a row only at a
pivot other than 1, so integer input whose pivots are 1 stays integer.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list  # list[list[int | Fraction]]
Vector = list  # list[int | Fraction]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def is_zero_matrix(m: Matrix) -> bool:
    return all(not x for row in m for x in row)


def rank(rows) -> int:
    """Rank of the rows, each a ``{column: entry}`` dict or a dense list.

    Each row is scaled to integers and reduced against the pivot rows
    kept so far, at its lowest column, until it is zero or starts at a
    column no pivot row holds; then it becomes that column's pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {c: x for c, x in items if x}
        if any(type(x) is not int for x in r.values()):
            scale = lcm(*(x.denominator for x in r.values()))
            r = {c: x.numerator * (scale // x.denominator) for c, x in r.items()}
        while r:
            col = min(r)
            p = pivots.get(col)
            if p is None:
                pivots[col] = r
                break
            g = gcd(p[col], r[col])
            a, b = p[col] // g, r[col] // g
            if a != 1:
                r = {c: a * x for c, x in r.items()}
            for c, y in p.items():
                x = r.get(c, 0) - b * y
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


def _rref_inplace(m: Matrix) -> tuple[int, list[int]]:
    """Reduced row echelon form in place; returns (rank, pivot columns).

    A pivot row is divided only when its pivot is not 1.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank_], m[pivot] = m[pivot], m[rank_]
        p = m[rank_][col]
        if p != 1:
            inv = 1 / Fraction(p)
            m[rank_] = [x * inv for x in m[rank_]]
        for r in range(nrows):
            if r != rank_ and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == nrows:
            break
    return rank_, pivots


def nullspace(rows: Matrix, ncols: int) -> list[Vector]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Vector k is the int 1 at the k-th free column and the int 0 at the
    other free columns; at a pivot column it holds the negated reduced
    entry, an int when the input is integer and every pivot divided by
    was 1, and otherwise possibly a Fraction.  No rows give the unit vectors.
    """
    if not rows:
        return identity(ncols)
    m = [list(row) for row in rows]
    _, pivots = _rref_inplace(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -m[r][free]
        basis.append(v)
    return basis


def extend_basis_indices(vectors: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors completing span(vectors) to K^dim.

    They are the non-pivot columns of the reduced row echelon form.
    """
    m = [list(v) for v in vectors]
    _, pivots = _rref_inplace(m)
    return [i for i in range(dim) if i not in pivots]
