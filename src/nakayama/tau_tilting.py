"""Support tau-tilting pairs over Nakayama algebras.

A support tau-tilting pair (M, P_kill) is enumerated by its kill set: for
every subset of vertices, the quotient algebra splits into linear
components, the tau-tilting modules of each component are the maximal
sincere tau-rigid cliques, and their products transport back to parent
coordinates.  `is_sttilt_pair` implements the equivalent pair-side
definition (tau-rigidity over the parent plus Hom(P(v), M) = 0 plus the
cardinality count); the test suite asserts the two roads agree.

The kill-set road reads each component's `Tables`: tau-compatibility of
two indecomposables is a bit of `Tables.tau_perp` (Hom into each other's
tau translate vanishes both ways), and tau-rigid sets are the cliques of
that graph found by the shared search `tables.cliques`.  The pair-side
road keeps the validated closed forms `hom_dim` and `tau`, so the two
roads share no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .algebra import Algebra, AlgebraError, ModuleSet, quotient_algebra
from .homology import hom_dim, tau
from .tables import cliques, mask


@dataclass(frozen=True)
class SupportPair:
    """Support tau-tilting pair: the module part plus the killed vertices."""

    modules: ModuleSet
    killed: frozenset[int]

    def sort_key(self):
        return (self.modules.modules, tuple(sorted(self.killed)))


def is_tau_rigid(A: Algebra, ms: ModuleSet) -> bool:
    """Hom(X, tau Y) = 0 for all ordered pairs of summands."""
    mods = list(ms)
    taus = [tau(A, y) for y in mods]
    for x in mods:
        for ty in taus:
            if ty is not None and hom_dim(A, x, ty):
                return False
    return True


def _rigid_candidates(A: Algebra) -> int:
    """Mask of the tau-rigid indecomposables of A, by table index."""
    perp = A.tables.tau_perp
    return mask(i for i in range(len(perp)) if perp[i] >> i & 1)


def enumerate_tau_tilting(B: Algebra) -> list[ModuleSet]:
    """tau-tilting modules of B: sincere tau-rigid cliques of size n(B)."""
    tab = B.tables
    # Composition factors of each indecomposable; vertex v is bit v - 1.
    support = [mask(B.down(m.top, k) - 1 for k in range(m.length)) for m in tab.modules]
    found = []
    for idx in cliques(tab.tau_perp, _rigid_candidates(B), B.n):
        covered = 0
        for i in idx:
            covered |= support[i]
        if covered == (1 << B.n) - 1:
            found.append(tab.module_set(idx))
    return found


def enumerate_tau_rigid_sets(A: Algebra) -> list[ModuleSet]:
    """All basic tau-rigid modules (cliques of every size, including empty)."""
    tab = A.tables
    return [tab.module_set(idx) for idx in cliques(tab.tau_perp, _rigid_candidates(A))]


def enumerate_sttilt_over(A: Algebra, base_killed=frozenset()) -> list[SupportPair]:
    """Support tau-tilting pairs of A/(base_killed), in parent coordinates.

    Kill sets in the result are relative: they range over subsets of the
    vertices surviving base_killed.  With base_killed empty this is the
    support tau-tilting fan of A itself, zero pair included.
    """
    base = frozenset(base_killed)
    for v in base:
        A.check_vertex(v)
    ambient = [v for v in A.vertices if v not in base]
    pairs: list[SupportPair] = []
    for r in range(len(ambient) + 1):
        for extra in combinations(ambient, r):
            killed_total = base | set(extra)
            q = quotient_algebra(A, killed_total)
            if not q.components:
                pairs.append(SupportPair(ModuleSet.of([]), frozenset(extra)))
                continue
            per_component = [enumerate_tau_tilting(comp) for comp in q.components]
            if any(not lst for lst in per_component):
                # The regular module is always tau-tilting, so this is a bug.
                raise RuntimeError(f"component of {A}/{sorted(killed_total)} has no tau-tilting module")
            for choice in product(*per_component):
                mods = []
                for ci, ms in enumerate(choice):
                    mods.extend(q.to_parent(ci, m) for m in ms)
                pairs.append(SupportPair(ModuleSet.of(mods), frozenset(extra)))
    by_modules: dict[ModuleSet, SupportPair] = {}
    for p in pairs:
        prev = by_modules.get(p.modules)
        if prev is not None:
            raise AlgebraError(
                f"kill sets {sorted(prev.killed)} and {sorted(p.killed)} share a module part"
            )
        by_modules[p.modules] = p
    return sorted(pairs, key=SupportPair.sort_key)


def enumerate_sttilt(A: Algebra) -> list[SupportPair]:
    """All support tau-tilting pairs of A (zero pair included)."""
    return enumerate_sttilt_over(A, frozenset())


def is_sttilt_pair(A: Algebra, ms: ModuleSet, killed) -> bool:
    """Pair-side support tau-tilting test over the parent algebra.

    Conditions: tau-rigid, no composition factor at a killed vertex
    (equivalently Hom(P(v), X) = 0 for killed v), and the summand count
    plus the kill count equals the number of simples.
    """
    killed_set = frozenset(killed)
    for v in killed_set:
        A.check_vertex(v)
    for m in ms:
        A.check_module(m)
        if set(A.layers(m)) & killed_set:
            return False
    for v in killed_set:
        for m in ms:
            if hom_dim(A, A.projective(v), m):
                return False
    if not is_tau_rigid(A, ms):
        return False
    return len(ms) + len(killed_set) == A.n
