"""Per-algebra candidate masks, the clique engine and the partner step.

`Tables` indexes the indecomposables of one algebra once, in the order of
`Algebra.indecomposables()` (by top, then length), so an index is
arithmetic on the Kupisch series (`at`), and holds what the enumerators
read: the socles of the projective-injectives, and the two compatibility
graphs `ext1_perp` and `tau_perp`, whose vertices are only their
candidates, the modules that can be a summand at all, numbered 0, 1, ...
in index order.  Each is built from the unvalidated kernels of `homology`
(pd <= 1 takes two syzygy steps), so each closed form has one copy, and
from local conflicts: a nonzero map X -> Y of uniserial modules has an
image with top X, so it needs top X in CF(Y), the composition factors of
Y.  By the Auslander-Reiten formula Ext^1(M, N) = D Hom-bar(N, tau M)
(Assem-Simson-Skowronski, Elements I, IV.2), Ext^1(M, N) != 0 and
Hom(N, tau M) != 0 both need top N in CF(tau M), min(len tau M, n)
vertices.  So `_perp` tests each candidate M only against those with top
in CF(tau M), at a cost of the candidates, times |CF(tau M)|, times the
candidates per top, not k^2: a module costs a scan, not a row.
Each is built on first use and kept on the `Tables` object, which
`Algebra.tables` caches on the algebra instance; nothing is kept at
module level.  The test suite checks every bit against an independent
copy of the formulas and the oracle checks the kernels through the
public functions.

Modules entering from outside are validated once, by `indices`, which
refuses a module that is not basic; code behind that line works on table
indices, or on positions among the candidates, only.  The enumerators in
`tilting` and `tau_tilting` share one clique search, `cliques`, whose
cliques come out as candidate positions, and every exchange in `tilting`
reads `ext1_perp` through the one partner step, `partners`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet
from .homology import _ext1, _hom, _syzygy, _tau


class Tables:
    """Candidate masks over the indecomposables of one algebra.

    `ext1_candidates` lists the increasing indices of the modules of
    projective dimension <= 1 without self-extension, `tau_candidates`
    those of the tau-rigid ones; `ext1_position` maps each index in the
    first list to its position.  `ext1_perp[a]` and `tau_perp[a]` are
    bitmasks over positions in that list: for i = cands[a] and j = cands[b],
    bit b of mask a is set when the modules are orthogonal both ways (Ext^1
    vanishes both ways; Hom(M_i, tau M_j) and Hom(M_j, tau M_i) vanish).
    """

    def __init__(self, A: Algebra) -> None:
        self.algebra = A
        self.modules: tuple[IndecModule, ...] = A.indecomposables().modules
        self._offset = [0]
        for ci in A.c:
            self._offset.append(self._offset[-1] + ci)

    def at(self, top: int, length: int) -> int:
        """Table index of M(top, length); the caller vouches that it is valid."""
        return self._offset[top - 1] + length - 1

    @cached_property
    def projinj_socles(self) -> frozenset[int]:
        """Socle vertices of the projective-injective indecomposables."""
        A = self.algebra
        return frozenset(A.down(v, A.c[v - 1] - 1) for v in A.projective_injective_vertices())

    @cached_property
    def ext1_candidates(self) -> list[int]:
        """Indices of the modules without self-extension that are projective
        or have a projective syzygy, i.e. have projective dimension <= 1."""
        A = self.algebra
        return [
            i
            for i, m in enumerate(self.modules)
            if ((s := _syzygy(A, m)) is None or _syzygy(A, s) is None) and not _ext1(A, m, m)
        ]

    @cached_property
    def ext1_position(self) -> dict[int, int]:
        return {i: a for a, i in enumerate(self.ext1_candidates)}

    @cached_property
    def ext1_perp(self) -> list[int]:
        A, mods = self.algebra, self.modules
        return self._perp(self.ext1_candidates, lambda i, t, j: _ext1(A, mods[i], mods[j]))

    @cached_property
    def tau_candidates(self) -> list[int]:
        """Indices of the tau-rigid modules."""
        A = self.algebra
        return [i for i, m in enumerate(self.modules) if (t := _tau(A, m)) is None or not _hom(A, m, t)]

    @cached_property
    def tau_perp(self) -> list[int]:
        A, mods = self.algebra, self.modules
        return self._perp(self.tau_candidates, lambda i, t, j: _hom(A, mods[j], t))

    def _perp(self, cands: list[int], conflict: Callable[[int, IndecModule, int], int]) -> list[int]:
        """Masks over positions in `cands`, full but for the conflicts: for i, j = cands[a], cands[b]
        with top M_j in CF(tau M_i), a true conflict(i, tau M_i, j) clears bits b of a and a of b."""
        A, mods = self.algebra, self.modules
        by_top: dict[int, list[int]] = {}
        for b, j in enumerate(cands):
            by_top.setdefault(mods[j].top, []).append(b)
        perp = [(1 << len(cands)) - 1] * len(cands)
        for a, i in enumerate(cands):
            if (t := _tau(A, mods[i])) is None:
                continue
            for k in range(min(t.length, A.n)):
                for b in by_top.get(A.down(t.top, k), ()):
                    if conflict(i, t, cands[b]):
                        perp[a] &= ~(1 << b)
                        perp[b] &= ~(1 << a)
        return perp

    def module_set(self, idx: Iterable[int]) -> ModuleSet:
        """The basic module with summands at increasing indices idx."""
        return ModuleSet([self.modules[i] for i in idx])


def indices(A: Algebra, ms: ModuleSet) -> list[int]:
    """Table indices of the summands of a basic module entering from outside.

    Each summand is validated by `Algebra.check_module`; one repeated or out
    of order raises AlgebraError too."""
    tab = A.tables
    out: list[int] = []
    for m in ms:
        A.check_module(m)
        i = tab.at(m.top, m.length)
        if out and i <= out[-1]:
            raise AlgebraError(
                f"{m} is repeated or out of order: a basic module lists its summands sorted, each once"
            )
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
    The search leans on that bound twice, and a caller who breaks it gets
    no guarantee about what is returned.  First, a forced vertex, one
    adjacent to every other allowed vertex, lies in every clique of
    `size` vertices, so the search takes the forced vertices as given and
    branches only on the rest.  Adding the same disjoint set to every
    clique keeps their lexicographic order.  More forced vertices than
    `size` form a larger clique, so they raise RuntimeError.  Second, the
    passed-vertex rule of Bron-Kerbosch, without its pivot: a branch keeps
    the vertices it has passed over that are adjacent to every chosen
    vertex, and is abandoned as soon as one of them is adjacent to every
    vertex still allowed, since any completion plus that vertex would be a
    clique of `size` + 1 vertices.  Neither cut drops a clique, so the
    order is that of the plain search.  The self bit `adj[i] >> i & 1` is
    ignored.
    """
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def every(allowed: int) -> None:
        found.append(tuple(chosen))
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            every(allowed & adj[i])
            chosen.pop()

    if size is None:
        every(allowed)
        return found
    forced = [i for i in range(allowed.bit_length()) if allowed >> i & 1 and not allowed & ~adj[i] & ~(1 << i)]
    if len(forced) > size:
        raise RuntimeError(
            f"{len(forced)} vertices are adjacent to all others, but cliques were "
            f"bounded by {size} vertices"
        )
    allowed &= ~mask(forced)
    need = size - len(forced)

    def extend(allowed: int, passed: int) -> None:
        # `passed`: vertices passed over, each adjacent to every chosen one.
        # For such a vertex x, allowed & ~adj[x] is the set of allowed
        # vertices x is not adjacent to; the loop drops the lowest allowed
        # vertex each step, so x is adjacent to all that is left once the
        # lowest allowed bit, as an integer, exceeds that set.  `stop` is the
        # least such set over the vertices passed so far.
        left = need - len(chosen)
        if left == 1:  # every allowed vertex completes a clique
            base = forced + chosen
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                found.append(tuple(sorted(base + [low.bit_length() - 1])))
            return
        stop = allowed
        rest = passed
        while rest:
            x = rest & -rest
            rest ^= x
            r = allowed & ~adj[x.bit_length() - 1]
            if r < stop:
                stop = r
        while allowed:
            low = allowed & -allowed
            if low > stop or allowed.bit_count() < left:
                return
            allowed ^= low
            i = low.bit_length() - 1
            a = adj[i]
            chosen.append(i)
            extend(allowed & a, passed & a)
            chosen.pop()
            passed |= low
            r = allowed & ~a
            if r < stop:
                stop = r

    if need:
        extend(allowed, 0)
    else:
        found.append(tuple(forced))
    return found


def partners(adj: Sequence[int], clique: Sequence[int]) -> list[int]:
    """Entry s: the vertices outside `clique` (increasing) adjacent to every
    member but clique[s], from one prefix and one suffix AND, about 3k mask
    operations for k members; with one member, every other vertex."""
    full = (1 << len(adj)) - 1
    own, common, suffix = 0, full, []
    for v in reversed(clique):  # suffix[-1 - s]: the AND over clique[s + 1:]
        suffix.append(common)
        common &= adj[v]
        own |= 1 << v
    prefix, out = full & ~own, []
    for v in clique:
        out.append(prefix & suffix.pop())
        prefix &= adj[v]
    return out
