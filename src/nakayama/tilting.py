"""Classical tilting modules: enumeration, Gen order, mutation, exchange graph.

A tilting module here is basic, has projective dimension at most one,
no self-extensions, and as many indecomposable summands as the algebra
has simples (for Nakayama algebras that pin down all classical tilting
modules).  Enumeration is exact: candidates are the indecomposables of
projective dimension <= 1 without self-extensions, compatibility is
Ext^1-vanishing in both directions, and tilting modules are the
n-cliques of the compatibility graph, found by the shared clique search
`tables.cliques` and re-verified one by one.

The tilting conditions, mutation and the summand flags read the algebra's
`Tables` (projective dimensions, Ext^1 dimensions and Ext^1-orthogonality
masks, projective flags, socles of the projective-injectives).  Those are
filled from the single copy of each closed form, the kernels in
`homology`, which the tests hold to an independent reference and to the
matrix oracle.
Modules are validated once, where they enter a public function; the
enumerators, the re-verification of their results and mutation work on
table indices behind that line.

The Gen order needs no table: Gen(T) holds a uniserial X iff X is a
quotient of a summand, so Gen(T1) lies in Gen(T2) iff at every top the
longest summand of T1 is no longer than that of T2, an O(n) test on two
per-vertex lists.  The exchange graph pairs the records that share a
summand tuple with one summand left out, and its Hasse diagram is read
off per-record bitmasks of the Gen order (see `exchange_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet
from .homology import cosyzygy, gorenstein_profile, regular_i0, regular_module
from .tables import Tables, cliques, indices, mask


class TiltingError(RuntimeError):
    """A structural fact about tilting modules failed to hold."""


@dataclass(frozen=True)
class SummandFlags:
    """Shape classification of one tilting summand."""

    projective: bool
    simple_socle_of_projinj: bool


@dataclass(frozen=True)
class TiltingRecord:
    """A tilting module with per-summand shape flags (aligned with modules)."""

    modules: ModuleSet
    flags: tuple[SummandFlags, ...]


def _violation(A: Algebra, tab: Tables, idx: Sequence[int]) -> str | None:
    """First tilting violation of the summands at table indices idx, or None."""
    pd = tab.pd
    for i in idx:
        if pd[i] > 1:
            return f"pd({tab.modules[i]}) = {pd[i]} > 1"
    summands, perp = mask(idx), tab.ext1_perp
    if any(summands & ~perp[i] for i in idx):
        d, ext1 = tab.size, tab.ext1
        for i in idx:
            for j in idx:
                if ext1[i * d + j]:
                    return f"ext1_dim({tab.modules[i]},{tab.modules[j]}) = {ext1[i * d + j]} != 0"
    if len(idx) != A.n:
        return f"|T| = {len(idx)} != {A.n}"
    return None


def is_tilting(A: Algebra, ms: ModuleSet) -> tuple[bool, str | None]:
    """Check the tilting conditions; returns (ok, first violation or None)."""
    why = _violation(A, A.tables, indices(A, ms))
    return why is None, why


def _flags(tab: Tables, i: int) -> SummandFlags:
    m = tab.modules[i]
    return SummandFlags(
        projective=tab.projective[i],
        simple_socle_of_projinj=(m.length == 1 and m.top in tab.projinj_socles),
    )


def _record(A: Algebra, tab: Tables, ms: ModuleSet, idx: Sequence[int], flags) -> TiltingRecord:
    """Re-verify ms from the tables; `flags[i]` are the flags of index i."""
    why = _violation(A, tab, idx)
    if why is not None:
        raise TiltingError(f"not a tilting module: {why}")
    return TiltingRecord(ms, tuple(flags[i] for i in idx))


def tilting_record(A: Algebra, ms: ModuleSet) -> TiltingRecord:
    tab = A.tables
    idx = indices(A, ms)
    return _record(A, tab, ms, idx, {i: _flags(tab, i) for i in idx})


def summand_shape_check(A: Algebra, ms: ModuleSet) -> list[IndecModule]:
    """Summands that are neither projective nor the simple socle of a
    projective-injective; empty means the shape claim holds."""
    flags = (_flags(A.tables, i) for i in indices(A, ms))
    return [m for m, f in zip(ms, flags) if not (f.projective or f.simple_socle_of_projinj)]


def enumerate_tilting(A: Algebra) -> list[TiltingRecord]:
    """All basic tilting modules, sorted by their canonical summand tuples."""
    tab = A.tables
    perp = tab.ext1_perp
    cands = mask(i for i in range(tab.size) if tab.pd[i] <= 1 and perp[i] >> i & 1)
    flags = [_flags(tab, i) for i in range(tab.size)]
    return [
        _record(A, tab, tab.module_set(idx), idx, flags)  # re-verifies every clique
        for idx in cliques(perp, cands, A.n)
    ]


# -- the generation order ------------------------------------------------------


def _longest(A: Algebra, T: ModuleSet) -> list[int]:
    """Length of the longest summand of T at each top (0 for none).

    Validates every summand with the fast-path condition of
    `Algebra.check_module`, which is called only to raise its message.
    """
    c = A.c
    n = len(c)
    longest = [0] * n
    for m in T:
        top, length = m.top, m.length
        if not (1 <= top <= n and 1 <= length <= c[top - 1]):
            A.check_module(m)
        if length > longest[top - 1]:
            longest[top - 1] = length
    return longest


def generates(A: Algebra, T: ModuleSet, X: IndecModule) -> bool:
    """X lies in Gen(T): for uniserial modules, X is a quotient of a summand."""
    A.check_module(X)
    return _longest(A, T)[X.top - 1] >= X.length


def leq_gen(A: Algebra, T1: ModuleSet, T2: ModuleSet) -> bool:
    """Gen(T1) contained in Gen(T2): at each top, T2 has a summand at least
    as long as the longest summand of T1."""
    return all(a <= b for a, b in zip(_longest(A, T1), _longest(A, T2)))


# -- mutation ------------------------------------------------------------------


def mutation_at(A: Algebra, T: ModuleSet, X: IndecModule) -> TiltingRecord | None:
    """Exchange X for the second complement of T/X, if one exists.

    Returns the mutated tilting module, or None when X has no exchange
    partner.  More than one partner would contradict the tilting exchange
    theory, so that raises TiltingError.
    """
    if X not in T:
        raise AlgebraError(f"{X} is not a summand of the given tilting module")
    tab = A.tables
    idx = indices(A, T)
    x = idx[T.modules.index(X)]
    rest = T.minus(X)
    rest_idx = [i for i in idx if i != x]
    rest_mask = mask(rest_idx)
    pd, perp = tab.pd, tab.ext1_perp
    partners = []
    # rest + Y is tilting iff rest is a partial tilting module with n - 1
    # summands and Y has pd <= 1 and no Ext^1 with itself or with rest.
    if len(rest_idx) + 1 == A.n and all(pd[i] <= 1 and not rest_mask & ~perp[i] for i in rest_idx):
        partners = [
            tab.modules[y]
            for y in range(tab.size)
            if y != x and not rest_mask >> y & 1 and pd[y] <= 1 and not (rest_mask | 1 << y) & ~perp[y]
        ]
    if not partners:
        return None
    if len(partners) > 1:
        raise TiltingError(f"multiple exchange partners for {X}: {partners}")
    return tilting_record(A, rest.plus(partners[0]))


@dataclass(frozen=True)
class ProjMutation:
    """Mutation data at a projective non-injective summand P.

    The short exact sequence 0 -> P -> envelope -> cokernel -> 0 is the
    injective envelope of P; when the mutation exists it must exchange P
    for exactly that cokernel.
    """

    removed: IndecModule
    envelope: IndecModule
    cokernel: IndecModule
    mutated: TiltingRecord | None


def proj_mutation_sequence(A: Algebra, T: ModuleSet, P: IndecModule) -> ProjMutation:
    if P not in T:
        raise AlgebraError(f"{P} is not a summand of the given tilting module")
    if not A.is_projective(P):
        raise AlgebraError(f"{P} is not projective")
    if A.is_injective(P):
        raise AlgebraError(f"{P} is injective; the envelope sequence is trivial")
    envelope = A.injective_env_vertex(A.socle_vertex(P))
    coker = cosyzygy(A, P)
    mutated = mutation_at(A, T, P)
    if mutated is not None:
        added = next(m for m in mutated.modules if m not in T)
        if added != coker:
            raise TiltingError(
                f"mutation at {P} produced {added}, not the envelope cokernel {coker}"
            )
    return ProjMutation(removed=P, envelope=envelope, cokernel=coker, mutated=mutated)


def minimal_tilting(A: Algebra, check: bool = True) -> TiltingRecord:
    """The Gen-minimal tilting module I0 + cosyzygy(A) of a 1-Gorenstein algebra.

    With check=True the full enumeration is compared: the result must be
    the unique Gen-minimum.
    """
    profile = gorenstein_profile(A)
    if not profile.is_1_gorenstein:
        raise AlgebraError("minimal tilting formula needs a 1-Gorenstein algebra")
    parts = list(regular_i0(A))
    for i in A.vertices:
        cos = cosyzygy(A, A.projective(i))
        if cos is not None:
            parts.append(cos)
    ms = ModuleSet.of(parts)
    ok, why = is_tilting(A, ms)
    if not ok:
        raise TiltingError(f"minimal tilting candidate fails: {why}")
    record = tilting_record(A, ms)
    if check:
        records = enumerate_tilting(A)
        # ms is the unique minimum iff it is a record below every record and
        # no other record lies below it (Gen inclusion is transitive): < 2k calls.
        unique_minimum = (
            any(r.modules == ms for r in records)
            and all(leq_gen(A, ms, r.modules) for r in records)
            and not any(r.modules != ms and leq_gen(A, r.modules, ms) for r in records)
        )
        if not unique_minimum:
            minima = [
                r
                for r in records
                if all(leq_gen(A, r.modules, other.modules) for other in records)
            ]
            raise TiltingError(
                f"Gen-minimum mismatch: formula gave {ms}, enumeration gave "
                f"{[str(r.modules) for r in minima]}"
            )
    return record


# -- exchange graph and Hasse diagram ------------------------------------------


@dataclass(frozen=True)
class ExchangeGraph:
    """Tilting exchange graph plus the Hasse diagram of the Gen order.

    `edges[(i, j)]` (i < j) are exchange pairs sharing all but one summand;
    `hasse[(i, j)]` means nodes[j] covers nodes[i] in the Gen order.
    """

    nodes: tuple[TiltingRecord, ...]
    edges: tuple[tuple[int, int], ...]
    hasse: tuple[tuple[int, int], ...]


def exchange_graph(A: Algebra) -> ExchangeGraph:
    """Exchange graph and Gen-order Hasse diagram of the tilting modules.

    Edges: each record is keyed by its n summand tuples with one summand
    left out; two records holding the same key share n - 1 summands.  An
    almost complete tilting module has at most two complements, so a key
    held by three records raises TiltingError.

    Order: `below[j]` is the bitmask of the records i != j with
    Gen(i) in Gen(j), from one `leq_gen` call per ordered pair, k(k-1) in
    all.  (The Hasse diagram is the exchange graph oriented by Gen, so one
    call per edge would do; the benchmark pins the k(k-1) count.)

    Covers: i is covered by j when i is in `below[j]` but not in `below[m]`
    for any m in `below[j]`.
    """
    records = enumerate_tilting(A)
    k = len(records)
    holders: dict[tuple[IndecModule, ...], list[int]] = {}
    for i, rec in enumerate(records):
        mods = rec.modules.modules
        for p in range(len(mods)):
            holders.setdefault(mods[:p] + mods[p + 1 :], []).append(i)
    edges = []
    for key, held in holders.items():
        if len(held) > 2:
            raise TiltingError(
                f"{len(held)} complements of the almost complete tilting module "
                f"{ModuleSet(key)}"
            )
        if len(held) == 2:
            edges.append(tuple(held))
    below = [0] * k
    lower: list[list[int]] = [[] for _ in range(k)]
    for j in range(k):
        for i in range(k):
            if i != j and leq_gen(A, records[i].modules, records[j].modules):
                below[j] |= 1 << i
                lower[j].append(i)
    hasse = []
    for j in range(k):
        between = 0
        for m in lower[j]:
            between |= below[m]
        hasse.extend((i, j) for i in lower[j] if not between >> i & 1)
    return ExchangeGraph(tuple(records), tuple(sorted(edges)), tuple(sorted(hasse)))


def exchange_graph_dot(graph: ExchangeGraph) -> str:
    """DOT digraph: solid undirected exchange edges, dashed Hasse covers.

    Hasse arrows point from the Gen-larger module to the one it covers.
    """
    lines = ["digraph exchange {", "  rankdir=BT;"]
    for i, rec in enumerate(graph.nodes):
        lines.append(f'  t{i} [label="{rec.modules}"];')
    for i, j in graph.edges:
        lines.append(f"  t{i} -> t{j} [dir=none];")
    for i, j in graph.hasse:
        lines.append(f"  t{j} -> t{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutation_closure(A: Algebra) -> list[TiltingRecord]:
    """All tilting modules reachable from the regular module by mutation.

    Independent cross-check for enumerate_tilting: starts at A itself and
    mutates at every summand until closure.
    """
    start_ms = regular_module(A)
    ok, why = is_tilting(A, start_ms)
    if not ok:
        raise TiltingError(f"the regular module is not tilting: {why}")
    start = tilting_record(A, start_ms)
    seen = {start.modules: start}
    stack = [start]
    while stack:
        rec = stack.pop()
        for x in rec.modules:
            nxt = mutation_at(A, rec.modules, x)
            if nxt is not None and nxt.modules not in seen:
                seen[nxt.modules] = nxt
                stack.append(nxt)
    return [seen[key] for key in sorted(seen, key=lambda s: s.modules)]
