"""Support tau-tilting pairs over Nakayama algebras.

A support tau-tilting pair (M, P_kill) is enumerated by its kill set: for
every subset of vertices, the quotient algebra splits into linear
components, the tau-tilting modules of each component are its tau-rigid
cliques of n summands (sincere without a check: one missing a vertex v
would be tau-rigid over the quotient by e_v, with n - 1 simples), and
their products transport back to parent coordinates.  `is_sttilt_pair`
implements the equivalent pair-side definition (tau-rigidity over the
parent plus Hom(P(v), M) = 0 plus the cardinality count); the test suite
asserts the two roads agree.

The kill-set road reads each component's `Tables`: tau-compatibility of
two tau-rigid indecomposables is a bit of `Tables.tau_perp` (Hom into
each other's tau translate vanishes both ways), and tau-rigid sets are
the cliques of that graph found by the shared search `tables.cliques`.
A tau-rigid module has at most n summands (Adachi-Iyama-Reiten), so the
search for tau-tilting modules takes the candidates compatible with every
candidate as given.  The pair-side road validates each summand once, in
`is_tau_rigid` by `tables.indices`, and then calls the kernels `_tau`
and `_hom`; the Hom(P(v), M) = 0 test calls `hom_dim`.  The two roads
share no candidate mask and no clique search.  Both rest on the one copy
of the Hom and tau closed forms, the kernels in `homology`; the tests
hold those to an independent reference and to the matrix oracle.

The same components recur across the 2^n kill sets.  `quotient_algebra`
builds each one once per run (a maximal chain of surviving vertices) and
keeps it on the parent algebra, and `enumerate_sttilt_over` keeps two
memos local to each call.  The first is keyed by the component `Algebra`
(equal series hash alike), so `enumerate_tau_tilting` runs once per
distinct series.  The second is keyed by the run, which fixes the
component within one call: each run's tau-tilting modules are placed
through its embedding as sorted tuples of parent table indices once per
call.  The parent's tables index modules in (top, length) order, so
sorted indices are the canonical `ModuleSet` order.  A kill set with one
component takes its run's tuples as they are; one with several takes
their product and sorts each choice.  All pairs of one kill set share a
single frozenset of killed vertices, and pairs are sorted on integers.
Validation happens once, at entry (the base kill set); the quotient
components and their modules come from tables, so they are valid by
construction and nothing is re-checked per module.

The kill-set road ends in a private sorted list of (index tuple, kill
set) items, `_sttilt_indices`.  `enumerate_sttilt_over` turns each item
into a `SupportPair`; `sttilt enumerate` on the command line renders the
items as they are, so it builds no `ModuleSet` per pair.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import NamedTuple

from .algebra import Algebra, ModuleSet, quotient_algebra
from .homology import _hom, _tau, hom_dim
from .tables import cliques, indices


class SupportPair(NamedTuple):
    """Support tau-tilting pair: the module part plus the killed vertices."""

    modules: ModuleSet
    killed: frozenset[int]

    def sort_key(self):
        return (self.modules, tuple(sorted(self.killed)))


def is_tau_rigid(A: Algebra, ms: ModuleSet) -> bool:
    """Hom(X, tau Y) = 0 for all ordered pairs of summands.

    `tables.indices` validates each summand once, and refuses one repeated
    or out of order; the Hom and tau kernels trust them.
    """
    indices(A, ms)
    taus = [ty for ty in (_tau(A, y) for y in ms) if ty is not None]
    return not any(_hom(A, x, ty) for x in ms for ty in taus)


def enumerate_tau_tilting(B: Algebra) -> list[ModuleSet]:
    """tau-tilting modules of B: tau-rigid cliques of size n(B).

    Each is sincere: if Hom(P(v), M) = 0, M is tau-rigid over B/<e_v>,
    which has n - 1 simples, so M has at most n - 1 summands
    (Adachi-Iyama-Reiten, tau-tilting theory, Compos. Math. 150, 2014, section 2).
    """
    tab = B.tables
    cands, perp = tab.tau_candidates, tab.tau_perp
    return [tab.module_set(cands[a] for a in at) for at in cliques(perp, (1 << len(perp)) - 1, B.n)]


def enumerate_tau_rigid_sets(A: Algebra) -> list[ModuleSet]:
    """All basic tau-rigid modules (cliques of every size, including empty)."""
    tab = A.tables
    cands, perp = tab.tau_candidates, tab.tau_perp
    return [tab.module_set(cands[a] for a in at) for at in cliques(perp, (1 << len(perp)) - 1)]


def _sttilt_indices(A: Algebra, base_killed=frozenset()) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Support tau-tilting pairs of A/(base_killed) as sorted
    (module part, kill set) items, the module part as increasing parent
    table indices; see `enumerate_sttilt_over`, which builds from them."""
    base = frozenset(base_killed)
    for v in base:
        A.check_vertex(v)
    ambient = [v for v in A.vertices if v not in base]
    tab = A.tables
    # tau-tilting modules of each component series met in this call.
    series: dict[Algebra, list[ModuleSet]] = {}
    # The same, placed on each run met in this call, as sorted tuples of
    # parent table indices; within one call the run fixes the component.
    placed: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    # Kill set of each module part, as parent table indices.
    kill_of: dict[tuple[int, ...], frozenset[int]] = {}
    for r in range(len(ambient) + 1):
        for extra in combinations(ambient, r):
            q = quotient_algebra(A, base.union(extra))
            per_component = []
            for comp, emb in zip(q.components, q.embeds):
                parts = placed.get(emb)
                if parts is None:
                    local = series.get(comp)
                    if local is None:
                        local = series[comp] = enumerate_tau_tilting(comp)
                    if not local:
                        # The regular module is always tau-tilting, so this is a bug.
                        raise RuntimeError(f"component of {A}/{sorted(q.killed)} has no tau-tilting module")
                    parts = placed[emb] = [tuple(sorted(tab.at(emb[m.top - 1], m.length) for m in ms)) for ms in local]
                per_component.append(parts)
            if len(per_component) == 1:
                module_parts = per_component[0]
            else:
                module_parts = [tuple(sorted(chain.from_iterable(choice))) for choice in product(*per_component)]
            killed = frozenset(extra)
            for idx in module_parts:
                if idx in kill_of:
                    # The module part of a support pair fixes its kill set, so this is a bug.
                    raise RuntimeError(f"kill sets {sorted(kill_of[idx])} and {sorted(killed)} share a module part")
                kill_of[idx] = killed
    # Table indices follow the (top, length) order of the modules, so this
    # is the order of SupportPair.sort_key.
    return [(idx, kill_of[idx]) for idx in sorted(kill_of)]


def enumerate_sttilt_over(A: Algebra, base_killed=frozenset()) -> list[SupportPair]:
    """Support tau-tilting pairs of A/(base_killed), in parent coordinates.

    Kill sets in the result are relative: they range over subsets of the
    vertices surviving base_killed.  With base_killed empty this is the
    support tau-tilting fan of A itself, zero pair included.
    """
    items = _sttilt_indices(A, base_killed)
    module_set = A.tables.module_set
    return [SupportPair(module_set(idx), killed) for idx, killed in items]


def enumerate_sttilt(A: Algebra) -> list[SupportPair]:
    """All support tau-tilting pairs of A (zero pair included)."""
    return enumerate_sttilt_over(A, frozenset())


def is_sttilt_pair(A: Algebra, ms: ModuleSet, killed) -> bool:
    """Pair-side support tau-tilting test over the parent algebra.

    Conditions: tau-rigid, Hom(P(v), X) = 0 for killed v (no composition
    factor of X at a killed vertex), and the summand count plus the kill
    count equals the number of simples.  The tau-rigidity test comes
    first, so every summand is validated whatever the kill set.
    """
    killed_set = frozenset(killed)
    for v in killed_set:
        A.check_vertex(v)
    if not is_tau_rigid(A, ms):
        return False
    projectives = [A.projective(v) for v in killed_set]
    if any(hom_dim(A, P, m) for P in projectives for m in ms):
        return False
    return len(ms) + len(killed_set) == A.n
