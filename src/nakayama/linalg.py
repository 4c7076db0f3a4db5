"""Dense exact linear algebra over the rationals, sized for tiny matrices.

Matrices are lists of rows with int or Fraction entries.  Ranks of
integer matrices use fraction-free elimination (much faster than Fraction
arithmetic and exact); everything needing actual division is done over
Fraction.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _rank_int(rows: list[list[int]]) -> int:
    """Fraction-free integer elimination (gcd-reduced cross multiplication)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            x = m[r][col]
            if x:
                row = m[r]
                prow = m[rank]
                g = gcd(p, x)
                a, b = p // g, x // g
                for j in range(col, ncols):
                    row[j] = a * row[j] - b * prow[j]
        rank += 1
        col += 1
    return rank


def rank(rows: Matrix) -> int:
    if not rows or not rows[0]:
        return 0
    if all(isinstance(x, int) for row in rows for x in row):
        return _rank_int(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    r, _ = _rref_inplace(m)
    return r


def _rref_inplace(m: list[list[Fraction]]) -> tuple[int, list[int]]:
    """Reduced row echelon form in place; returns (rank, pivot columns)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank_], m[pivot] = m[pivot], m[rank_]
        inv = 1 / m[rank_][col]
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
    """Basis of the right kernel {x : A x = 0}, as vectors of Fractions."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    m = [[Fraction(x) for x in row] for row in rows]
    rank_, pivots = _rref_inplace(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][free]
        basis.append(v)
    return basis


def extend_basis_indices(vectors: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors completing span(vectors) to K^dim.

    They are the non-pivot columns of the reduced row echelon form.
    """
    m = [[Fraction(x) for x in v] for v in vectors]
    _, pivots = _rref_inplace(m)
    return [i for i in range(dim) if i not in pivots]
