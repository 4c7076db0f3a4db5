"""Exact linear algebra over the rationals, sized for tiny matrices.

Matrices are lists of rows with int or Fraction entries.  One
fraction-free elimination, `_echelon`, serves `rank`, `nullspace` and
`extend_basis_indices`.  It works on sparse rows, each a ``{column:
entry}`` dict holding its nonzero entries (a dense row is read as its
nonzeros): each row is scaled by the lcm of its denominators, which keeps
the row space, and the integer rows are eliminated by gcd-reduced cross
multiplication at each row's lowest column.  No reduced form is built;
`nullspace` divides only as it back-substitutes, and keeps every integral
entry an int.  No floating point anywhere.
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


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Echelon form of the rows, each a ``{column: entry}`` dict or a dense list.

    Each row is scaled to integers and reduced against the pivot rows
    kept so far, at its lowest column, until it is zero or starts at a
    column no pivot row holds; then it becomes that column's pivot row.
    Returns the integer pivot rows keyed by their lowest column.
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
    return pivots


def rank(rows) -> int:
    """Rank of the rows, each a ``{column: entry}`` dict or a dense list."""
    return len(_echelon(rows))


def nullspace(rows, ncols: int) -> list[Vector]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Vector k is 1 at the k-th free column, 0 at the other free columns and
    after the k-th; the pivot entries are back-substituted from the
    highest pivot down.  Entries are ints wherever they are integral.
    """
    pivots = _echelon(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for col in order:
            if col > free:
                continue
            row = pivots[col]
            s = sum(y * v[c] for c, y in row.items())
            if type(s) is int and not s % row[col]:
                v[col] = -s // row[col]
            elif s:
                q = Fraction(-s, row[col])
                v[col] = q.numerator if q.denominator == 1 else q
        basis.append(v)
    return basis


def extend_basis_indices(vectors: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors completing span(vectors) to K^dim.

    They are the columns without a pivot, the same in every echelon form.
    """
    pivots = _echelon(vectors)
    return [i for i in range(dim) if i not in pivots]
