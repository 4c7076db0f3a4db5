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
through its embedding once per call, as increasing parent table indices
((top, length) order, the canonical `ModuleSet` order).  Runs come in
order of their least vertex and only the first can wrap past vertex n
(it then holds vertex 1), so a module part joins the first run's
summands at tops up to its last vertex, the other runs' in order and the
first run's at the tops above.  All pairs of one kill set share one
frozenset of killed vertices, and all pairs are sorted once, on integers.
Validation happens once, at entry (the base kill set); the quotient
components and their modules come from tables, so they are valid by
construction and nothing is re-checked per module.

The kill-set road ends in `_sttilt_indices`: two private aligned lists,
the module parts as plain tuples of table indices, ordered by one argsort,
and the kill set of each, one frozenset shared per kill set.  The cyclic
garbage collector stops tracking a tuple of ints at the first collection
that sees it, where a (part, kill set) pair would stay tracked.
`enumerate_sttilt_over` builds a `SupportPair` from each; `sttilt
enumerate` renders the two lists as they are, with no `ModuleSet` per pair.

A second road, `_support_parts`, returns the same module parts with no
kill set and no quotient, and the support mask of each.  The module parts
of the support tau-tilting pairs are exactly the tau-rigid sets C with as
many summands as composition factors, |C| = |supp C|, and each kills the
vertices outside supp C (Adachi-Iyama-Reiten, Prop 2.3; a tau-tilting
module is sincere).  A base kill set B, given as a mask, only drops the
candidates whose support meets B (AIR, Lemma 2.1).  It walks every clique
of `tau_perp` with the shared search, in DFS pre-order over increasing
positions, which is lexicographic order, so the lists need no sort.  The
verification battery reads this road: the semisimple support-pair count,
and the bijection check with the projective-injectives as B.
`enumerate_sttilt` and `sttilt enumerate` read the kill-set road, and the
tests hold the two roads to each other.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, compress, count, islice, repeat
from operator import eq
from typing import NamedTuple

from .algebra import Algebra, ModuleSet, quotient_algebra
from .homology import _hom, _tau, hom_dim
from .tables import cliques, indices, mask


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


def _sttilt_indices(A: Algebra, base_killed=frozenset()) -> tuple[list[tuple[int, ...]], list[frozenset[int]]]:
    """Support tau-tilting pairs of A/(base_killed) as two aligned sorted
    lists: the module parts, as increasing parent table indices, and the
    kill set of each; see `enumerate_sttilt_over`, which builds from them.
    Module parts are joined in parent order, run by run, and sorted once."""
    base = frozenset(base_killed)
    for v in base:
        A.check_vertex(v)
    ambient = [v for v in A.vertices if v not in base]
    tab = A.tables
    # tau-tilting modules of each component series met in this call.
    series: dict[Algebra, list[ModuleSet]] = {}
    # The same, placed on each run met in this call as increasing parent
    # table indices split into lows and highs: the summands at tops up to
    # the run's last vertex and those above, none unless the run wraps.
    placed: dict[tuple[int, ...], tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = {}
    parts, kills = [], []  # module parts and, aligned, their kill sets
    for r in range(len(ambient) + 1):
        for extra in combinations(ambient, r):
            q = quotient_algebra(A, base.union(extra))
            per_run = []
            for comp, emb in zip(q.components, q.embeds):
                split = placed.get(emb)
                if split is None:
                    local = series.get(comp)
                    if local is None:
                        local = series[comp] = enumerate_tau_tilting(comp)
                    if not local:
                        # The regular module is always tau-tilting, so this is a bug.
                        raise RuntimeError(f"component of {A}/{sorted(q.killed)} has no tau-tilting module")
                    # Local M(t, l) is parent index offset[t - 1] + l; local
                    # tops up to `wrap` lie above the run's last vertex.
                    offset = [tab.at(v, 1) - 1 for v in emb]
                    wrap = sum(v > emb[-1] for v in emb)
                    split = placed[emb] = ([], [])
                    for ms in local:
                        idx = tuple([offset[t - 1] + length for t, length in ms])
                        cut = bisect_left(ms, (wrap + 1,))
                        split[0].append(idx[cut:])
                        split[1].append(idx[:cut])
                per_run.append(split)
            killed = q.killed if not base else frozenset(extra)
            (module_parts, highs), *rest = per_run or [([()], [()])]  # no run: the zero module
            middles = [()]
            for others, _ in rest:
                middles = [m + low for m in middles for low in others]
            if rest or any(highs):  # else a single run's parts stand as they are
                module_parts = [low + m + high for low, high in zip(module_parts, highs) for m in middles]
            parts += module_parts
            kills += repeat(killed, len(module_parts))
    # Table indices follow the (top, length) order of the modules, so this
    # is the order of SupportPair.sort_key.
    order = sorted(range(len(parts)), key=parts.__getitem__)
    parts = [parts[k] for k in order]
    kills = [kills[k] for k in order]
    for k in compress(count(), map(eq, parts, islice(parts, 1, None))):
        # The module part of a support pair fixes its kill set, so this is a bug.
        raise RuntimeError(f"kill sets {sorted(kills[k])} and {sorted(kills[k + 1])} share a module part")
    return parts, kills


def _support_parts(A: Algebra, base: int = 0) -> tuple[list[tuple[int, ...]], list[int]]:
    """The module parts of `_sttilt_indices(A, B)` and the support mask of
    each, B the vertices of the mask `base` (vertex v at bit v - 1), with no
    kill set and no quotient: the tau-rigid sets C with |C| = |supp C|
    (Adachi-Iyama-Reiten, Prop 2.3) among the candidates with support off
    B (AIR, Lemma 2.1), each killing the vertices outside B and supp C.
    Every clique of `tau_perp` is walked in DFS pre-order over increasing
    positions, which is lexicographic order, so the lists come out sorted."""
    tab, n = A.tables, A.n
    cands = tab.tau_candidates
    supp = []  # composition factors of each candidate, vertex v at bit v - 1
    for i in cands:
        top, length = tab.modules[i]
        bits = 0
        for k in range(min(length, n)):
            bits |= 1 << A.down(top, k) - 1
        supp.append(bits)
    parts, supports = [], []
    for at in cliques(tab.tau_perp, mask(a for a, bits in enumerate(supp) if not bits & base)):
        bits = 0
        for a in at:
            bits |= supp[a]
        if len(at) == bits.bit_count():
            parts.append(tuple([cands[a] for a in at]))
            supports.append(bits)
    return parts, supports


def enumerate_sttilt_over(A: Algebra, base_killed=frozenset()) -> list[SupportPair]:
    """Support tau-tilting pairs of A/(base_killed), in parent coordinates.

    Kill sets in the result are relative: they range over subsets of the
    vertices surviving base_killed.  With base_killed empty this is the
    support tau-tilting fan of A itself, zero pair included.
    """
    # tuple.__new__ skips the Python-level NamedTuple constructor.
    parts, kills = _sttilt_indices(A, base_killed)
    mods, new = A.tables.modules, tuple.__new__
    return [new(SupportPair, (ModuleSet([mods[i] for i in idx]), killed)) for idx, killed in zip(parts, kills)]


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
