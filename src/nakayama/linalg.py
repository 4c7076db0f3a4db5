"""Dense exact linear algebra over the rationals, sized for tiny matrices.

Matrices are lists of rows with int or Fraction entries.  Every rank is
fraction-free: each row is scaled by the lcm of its denominators, which
keeps the rank, and the integer matrix is eliminated by gcd-reduced cross
multiplication.  Reduced row echelon form divides a row only at a pivot
other than 1, so integer input whose pivots are 1 stays integer.  No
floating point anywhere.
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


def _rank_int(m: list[list[int]]) -> int:
    """Fraction-free integer elimination (gcd-reduced cross multiplication), in place."""
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
    m = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    return _rank_int(m)


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
