"""Per-algebra tables of homological invariants, and the clique engine.

`Tables` indexes the indecomposables of one algebra once, in the order of
`Algebra.indecomposables()` (by top, then length), and fills flat tables
by mapping the unvalidated kernels of `homology` over that index, so each
closed form has one copy.  Each table is built on first use and kept on
the `Tables` object, which `Algebra.tables` caches on the algebra
instance; nothing is kept at module level.  The test suite checks every
entry against an independent copy of the formulas and the oracle checks
the kernels through the public functions.

Modules entering from outside are validated once, by `indices`; code
behind that line works on table indices only.  The enumerators in
`tilting` and `tau_tilting` share one clique search, `cliques`; their
n-clique searches take the vertices adjacent to every candidate as given
and branch only on the rest, which is sound because neither graph has a
clique of more than n vertices.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet
from .homology import _dim_along, _hom, _syzygy, _tau


class Tables:
    """Hom/Ext^1/tau tables over the indecomposables of one algebra.

    `hom` and `ext1` are flat: entry `i * size + j` belongs to the pair
    (modules[i], modules[j]).  `syzygy` and `tau` hold table indices, None
    for zero.  `ext1_perp[i]` and `tau_perp[i]` are bitmasks over indices:
    bit j is set when the two modules are orthogonal both ways
    (Ext^1 in both directions vanishes; Hom(M_i, tau M_j) and
    Hom(M_j, tau M_i) vanish).
    """

    def __init__(self, A: Algebra) -> None:
        self.algebra = A
        self.modules: tuple[IndecModule, ...] = A.indecomposables().modules
        self.size = len(self.modules)
        self._offset = [0]
        for ci in A.c:
            self._offset.append(self._offset[-1] + ci)
        # Both enumerators need these; the rest is built on first use.
        self.projective = [m.length == A.c[m.top - 1] for m in self.modules]
        self.hom = [_hom(A, x, y) for x in self.modules for y in self.modules]
        self.tau = self._indices(_tau(A, m) for m in self.modules)

    def at(self, top: int, length: int) -> int:
        """Table index of M(top, length); the caller vouches that it is valid."""
        return self._offset[top - 1] + length - 1

    def _indices(self, mods: Iterable[IndecModule | None]) -> list[int | None]:
        return [None if m is None else self.at(m.top, m.length) for m in mods]

    @cached_property
    def index(self) -> dict[IndecModule, int]:
        return {m: i for i, m in enumerate(self.modules)}

    @cached_property
    def syzygy(self) -> list[int | None]:
        return self._indices(_syzygy(self.algebra, m) for m in self.modules)

    @cached_property
    def ext1(self) -> list[int]:
        """dim Ext^1(M, N) = hom(Omega M, N) - hom(P(top M), N) + hom(M, N)."""
        # Rows of the hom table, not homology._ext1 per pair: over iter_algebras(6, 4)
        # that is 0.03 s against 0.5 s (Python 3.11, one Xeon core).
        d, hom, c = self.size, self.hom, self.algebra.c
        out = []
        for i, (m, omega) in enumerate(zip(self.modules, self.syzygy)):
            if omega is None:
                out.extend([0] * d)
                continue
            o, p, row = omega * d, self.at(m.top, c[m.top - 1]) * d, i * d
            out.extend(hom[o + j] - hom[p + j] + hom[row + j] for j in range(d))
        return out

    @cached_property
    def pd(self) -> list[int | float]:
        """Projective dimension, math.inf when the syzygy orbit cycles."""
        return [_dim_along(_syzygy, self.algebra, m) for m in self.modules]

    @cached_property
    def projinj_socles(self) -> frozenset[int]:
        """Socle vertices of the projective-injective indecomposables."""
        A = self.algebra
        return frozenset(A.socle_vertex(A.projective(v)) for v in A.projective_injective_vertices())

    @cached_property
    def ext1_perp(self) -> list[int]:
        return self._perp(self.ext1)

    @cached_property
    def tau_perp(self) -> list[int]:
        d, hom = self.size, self.hom
        return self._perp([0 if t is None else hom[i * d + t] for i in range(d) for t in self.tau])

    def _perp(self, flat: list[int]) -> list[int]:
        """Bitmasks of the j with flat[i, j] == 0 == flat[j, i]."""
        d = self.size
        return [
            sum(1 << j for j in range(d) if not flat[i * d + j] and not flat[j * d + i])
            for i in range(d)
        ]

    def module_set(self, idx: Iterable[int]) -> ModuleSet:
        """The basic module with summands at increasing indices idx."""
        return ModuleSet(tuple([self.modules[i] for i in idx]))


def indices(A: Algebra, mods: Iterable[IndecModule]) -> list[int]:
    """Table indices of modules entering from outside, in the given order.

    Every valid module has an index, so the lookup is the validation: an
    invalid module raises the AlgebraError of `Algebra.check_module`.
    """
    index = A.tables.index
    out = []
    for m in mods:
        i = index.get(m)
        if i is None:
            A.check_module(m)
            raise AlgebraError(f"{m!r} is not an indecomposable module over {A}")
        out.append(i)
    return out


def mask(idx: Iterable[int]) -> int:
    bits = 0
    for i in idx:
        bits |= 1 << i
    return bits


def cliques(adj: Sequence[int], allowed: int, size: int | None = None) -> list[tuple[int, ...]]:
    """Cliques of the graph with neighbour bitmasks `adj`, inside the vertex mask `allowed`.

    Cliques are increasing index tuples in DFS pre-order, i.e. in
    lexicographic order for any fixed size.  With size=None every clique
    is returned, the empty one first; otherwise only those with exactly
    `size` vertices.

    A fixed size presumes that no clique inside `allowed` has more than
    `size` vertices.  Both callers pass n, the number of simples: a
    partial tilting module has at most n summands (Bongartz, Tilted
    algebras, LNM 903, 1981), and so has a tau-rigid module
    (Adachi-Iyama-Reiten, tau-tilting theory, Compos. Math. 150, 2014).
    Under that bound a forced vertex, one adjacent to every other allowed
    vertex, lies in every clique of `size` vertices, so the search takes
    the forced vertices as given and branches only on the rest.  Adding
    the same disjoint set to every clique keeps their lexicographic order.
    The self bit `adj[i] >> i & 1` is ignored.  More forced vertices than
    `size` form a larger clique, so they raise RuntimeError.
    """
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []
    forced: list[int] = []
    if size is not None:
        forced = [
            i for i in range(allowed.bit_length())
            if allowed >> i & 1 and not allowed & ~adj[i] & ~(1 << i)
        ]
        if len(forced) > size:
            raise RuntimeError(
                f"{len(forced)} vertices are adjacent to all others, but cliques were "
                f"bounded by {size} vertices"
            )
        allowed &= ~mask(forced)
        need = size - len(forced)

    def extend(allowed: int) -> None:
        if size is None:
            found.append(tuple(chosen))
        elif len(chosen) == need:
            found.append(tuple(sorted(forced + chosen)))
            return
        while allowed:
            if size is not None and allowed.bit_count() < need - len(chosen):
                return
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            extend(allowed & adj[i])
            chosen.pop()

    extend(allowed)
    return found
