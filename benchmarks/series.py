"""Seeded Kupisch series of both kinds, valid by construction.

The benchmark draws its random inputs here and hands the library only the
resulting series; `Algebra(kind, c)` re-validates each one when the
workload builds it.
"""

from __future__ import annotations

import random

KINDS = ("linear", "cyclic")


def linear_series(rng: random.Random, n: int, max_entry: int) -> tuple[int, ...]:
    """c[1] = 1, each entry at most one more than the last and at most its vertex index."""
    c = [1]
    for i in range(1, n):
        c.append(rng.randint(1, min(c[-1] + 1, i + 1, max_entry)))
    return tuple(c)


def cyclic_series(rng: random.Random, n: int, max_entry: int) -> tuple[int, ...]:
    """Entries >= 2, each at most one more than the last, going round the cycle.

    The lower bound at position i leaves room to climb back to c[1] - 1 by
    the last vertex, which closes the cycle.
    """
    c = [rng.randint(2, max_entry)]
    for i in range(1, n):
        c.append(rng.randint(max(2, c[0] - n + i), min(c[-1] + 1, max_entry)))
    return tuple(c)


def random_series(rng: random.Random, kind: str, n: int, max_entry: int) -> tuple[int, ...]:
    if kind == "linear":
        return linear_series(rng, n, max_entry)
    if kind == "cyclic":
        return cyclic_series(rng, n, max_entry)
    raise ValueError(f"unknown kind {kind!r}")


def series_of_dimension(rng: random.Random, kind: str, n: int, max_entry: int, dimension: int) -> tuple[int, ...]:
    """A random series whose entries sum to `dimension`, drawn until one does."""
    for _ in range(100_000):
        c = random_series(rng, kind, n, max_entry)
        if sum(c) == dimension:
            return c
    raise ValueError(f"no {kind} series of length {n}, entries <= {max_entry} and dimension {dimension} drawn")
