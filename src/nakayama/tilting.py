"""Classical tilting modules: enumeration, Gen order, mutation, exchange graph.

A tilting module here is basic, has projective dimension at most one,
no self-extensions, and as many indecomposable summands as the algebra
has simples (for Nakayama algebras that pin down all classical tilting
modules).  Enumeration is exact: candidates are the indecomposables of
projective dimension <= 1 without self-extensions, compatibility is
Ext^1-vanishing in both directions, and tilting modules are the
n-cliques of the compatibility graph, found by the shared clique search
`tables.cliques`.  Each clique is re-verified on its candidate positions
(n summands, one summand mask against `ext1_perp`) and the `ModuleSet` is
built straight from those positions; a clique that fails is mapped back
to table indices only to name its violation.  A partial tilting module
has at most n summands (Bongartz), so a candidate with no Ext^1 against
any candidate is a summand of every tilting module, and the search takes
it as given.  For the same reason a branch of the search dies as soon as
a candidate it passed over has no Ext^1 against the summands chosen and
every candidate still allowed: any completion plus that candidate would
be partial tilting with n + 1 summands.
`check_gen_minimum` tests the minimal tilting module against tilting
modules already enumerated, so a caller holding them enumerates once.

The tilting conditions and mutation read the algebra's `Tables`; only a
summand that is not an Ext^1 candidate has its projective dimension walked
(kernel `_dim_along`), and a violation names its Ext^1 dimension from the
kernel `_ext1`.  Both rest on the single copy of each closed form, the
kernels in `homology`, which the tests hold to an independent reference
and to the matrix oracle.  Modules are validated once, where they enter a
public function; the enumerators, the re-verification of their results and
mutation work on table indices or candidate positions behind that line.

The Gen order needs no table: Gen(T) holds a uniserial X iff X is a
quotient of a summand, so Gen(T1) lies in Gen(T2) iff at every top the
longest summand of T1 is no longer than that of T2.  That per-top profile
is packed into one integer, a field per top with a guard bit above it,
so the test on all n tops is one subtraction and a mask.  A module keeps
its packed profile for the Kupisch series that last validated it, so a
module compared many times is walked once per series.  The exchange
graph pairs the tilting modules that share a summand tuple with one
summand left out, keyed on their table indices; its Hasse diagram is
that graph oriented by Gen.  Mutation and its closure share `_exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet
from .homology import _dim_along, _envelope, _ext1, _syzygy, cosyzygy, regular_i0, regular_module
from .tables import cliques, indices, mask


class TiltingError(RuntimeError):
    """A structural fact about tilting modules failed to hold."""


def _violation(A: Algebra, idx: Sequence[int]) -> str | None:
    """First tilting violation of the summands at table indices idx, or None."""
    tab = A.tables
    pos, perp = tab.ext1_position, tab.ext1_perp
    for i in idx:
        if i not in pos and (pd := _dim_along(_syzygy, A, tab.modules[i])) > 1:
            return f"pd({tab.modules[i]}) = {pd} > 1"
    at = [pos[i] for i in idx if i in pos]
    summands = mask(at)
    if len(at) < len(idx) or any(summands & ~perp[a] for a in at):
        mods = [tab.modules[i] for i in idx]
        for x in mods:
            for y in mods:
                e = _ext1(A, x, y)
                if e:
                    return f"ext1_dim({x},{y}) = {e} != 0"
    if len(idx) != A.n:
        return f"|T| = {len(idx)} != {A.n}"
    return None


def is_tilting(A: Algebra, ms: ModuleSet) -> tuple[bool, str | None]:
    """Check the tilting conditions; returns (ok, first violation or None)."""
    why = _violation(A, indices(A, ms))
    return why is None, why


def _record(A: Algebra, ms: ModuleSet, idx: Sequence[int], fails: str = "not a tilting module") -> ModuleSet:
    """Re-verify ms from the tables and return it; errors read `fails: <violation>`."""
    why = _violation(A, idx)
    if why is not None:
        raise TiltingError(f"{fails}: {why}")
    return ms


def tilting_record(A: Algebra, ms: ModuleSet) -> ModuleSet:
    """ms itself once verified as tilting; TiltingError names the violation."""
    return _record(A, ms, indices(A, ms))


def summand_shape_check(A: Algebra, ms: ModuleSet) -> list[IndecModule]:
    """Summands that are neither projective nor the simple socle of a
    projective-injective; empty means the shape claim holds."""
    indices(A, ms)  # validates ms
    c, socles = A.c, A.tables.projinj_socles
    return [m for m in ms if not (m.length == c[m.top - 1] or (m.length == 1 and m.top in socles))]


def enumerate_tilting(A: Algebra) -> list[ModuleSet]:
    """All basic tilting modules, sorted by their canonical summand tuples.

    Every clique is re-verified on its candidate positions, the check
    `_violation` makes once it has mapped table indices to positions: n
    summands, each orthogonal to the others in `ext1_perp` (whose self
    bits are set).  A failing clique raises TiltingError with
    `_violation`'s certificate."""
    tab = A.tables
    cands, perp = tab.ext1_candidates, tab.ext1_perp
    mods = [tab.modules[i] for i in cands]
    found = []
    for at in cliques(perp, (1 << len(perp)) - 1, A.n):
        summands, common = 0, -1
        for a in at:
            summands |= 1 << a
            common &= perp[a]
        if summands & ~common or len(at) != A.n:
            raise TiltingError(f"not a tilting module: {_violation(A, [cands[a] for a in at])}")
        found.append(ModuleSet([mods[a] for a in at]))
    return found


# -- the generation order ------------------------------------------------------


def _gen_profile(A: Algebra, T: ModuleSet) -> tuple[tuple[int, ...], int, int, int]:
    """T's Gen profile for the series of A, as `(A.c, packed, guard, width)`.

    Field v - 1 of `packed` (bits (v - 1) * width up) holds the length of
    the longest summand of T at top v, 0 for none.  A field is
    `width = max(c).bit_length() + 1` bits wide, so every length stays
    below its top bit; `guard` sets the top bit of every field.  Every
    summand is validated by `Algebra.check_module`.  Both the validity and
    the profile depend only on the Kupisch series, and a ModuleSet is
    immutable, so the profile of the last series that validated T is kept
    in T's instance dict, like the cached `Algebra.tables`; equality and
    hash read only the summands.
    """
    c = A.c
    memo = T.__dict__.get("_gen")
    if memo is not None and memo[0] == c:
        return memo
    longest = [0] * len(c)
    for m in T:
        A.check_module(m)
        if m.length > longest[m.top - 1]:
            longest[m.top - 1] = m.length
    width = max(c).bit_length() + 1
    packed = 0
    for length in reversed(longest):
        packed = packed << width | length
    # 1 at the top bit of each of the len(c) fields: a base-2^width repunit.
    guard = ((1 << len(c) * width) - 1) // ((1 << width) - 1) << width - 1
    memo = T.__dict__["_gen"] = (c, packed, guard, width)
    return memo


def generates(A: Algebra, T: ModuleSet, X: IndecModule) -> bool:
    """X lies in Gen(T): for uniserial modules, X is a quotient of a summand."""
    A.check_module(X)
    _, packed, _, width = _gen_profile(A, T)
    return packed >> (X.top - 1) * width & (1 << width) - 1 >= X.length


def leq_gen(A: Algebra, T1: ModuleSet, T2: ModuleSet) -> bool:
    """Gen(T1) contained in Gen(T2): at each top, T2 has a summand at least
    as long as the longest summand of T1.

    One subtraction compares every top: with the guard bits set in T2's
    packed profile, field v keeps its guard bit after T1's field is
    subtracted iff T2's length at v is at least T1's, and no field borrows
    from the next.  Both memos are read inline; `_gen_profile` runs only
    when one is missing or was kept for another series.
    """
    c = A.c
    m1 = T1.__dict__.get("_gen")
    m2 = T2.__dict__.get("_gen")
    if m1 is None or m1[0] is not c:
        m1 = _gen_profile(A, T1)
    if m2 is None or m2[0] is not c:
        m2 = _gen_profile(A, T2)
    guard = m1[2]
    return ((m2[1] | guard) - m1[1]) & guard == guard


# -- mutation ------------------------------------------------------------------


def _exchange(A: Algebra, idx: Sequence[int], s: int) -> tuple[int, ...] | None:
    """Table indices of the mutation at summand idx[s]; None without a partner.

    idx are the increasing table indices of a module its caller verified as
    tilting.  Several partners raise TiltingError, as in `mutation_at`."""
    # T is tilting, so its summands are candidates, T/X is partial tilting
    # with n - 1 summands, and T/X + Y is tilting iff Y is a candidate
    # (pd Y <= 1, no self-extension) with no Ext^1 against T/X: a bit set in
    # the `ext1_perp` mask of every kept summand (the masks are symmetric and
    # hold their self bits, so the kept summands and X are taken out).
    tab = A.tables
    cands, pos, perp = tab.ext1_candidates, tab.ext1_position, tab.ext1_perp
    i = idx[s]
    kept = [j for j in idx if j != i]
    common = (1 << len(perp)) - 1  # with nothing kept, every candidate
    for j in kept:
        common &= perp[pos[j]]
    partners = common & ~mask(pos[j] for j in idx)
    if not partners:
        return None
    if partners & partners - 1:
        found = [tab.modules[cands[b]] for b in range(partners.bit_length()) if partners >> b & 1]
        raise TiltingError(f"multiple exchange partners for {tab.modules[i]}: {found}")
    return tuple(sorted(kept + [cands[partners.bit_length() - 1]]))


def mutation_at(A: Algebra, T: ModuleSet, X: IndecModule) -> ModuleSet | None:
    """Exchange X for the second complement of T/X, if one exists.

    Returns the mutated tilting module, or None when X has no exchange
    partner.  A T that is not tilting raises AlgebraError.  More than one
    partner would contradict the tilting exchange theory, so that raises
    TiltingError.

    T is validated once, where it enters, by `indices` and `_violation`.
    The partner step `_exchange` trusts it, and the mutated module is
    re-verified from its table indices by `_record`.
    """
    if X not in T:
        raise AlgebraError(f"{X} is not a summand of the given tilting module")
    idx = indices(A, T)
    why = _violation(A, idx)
    if why is not None:
        raise AlgebraError(f"not a tilting module: {why}")
    new = _exchange(A, idx, T.index(X))
    return None if new is None else _record(A, A.tables.module_set(new), new)


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
    mutated: ModuleSet | None


def proj_mutation_sequence(A: Algebra, T: ModuleSet, P: IndecModule) -> ProjMutation:
    """The envelope sequence of P and the mutation of T at P.

    P is validated once; its projectivity, its envelope and the cokernel
    are then read off its coordinates.  T is validated by `mutation_at`.
    """
    if P not in T:
        raise AlgebraError(f"{P} is not a summand of the given tilting module")
    A.check_module(P)
    if P.length != A.c[P.top - 1]:
        raise AlgebraError(f"{P} is not projective")
    envelope = _envelope(A, P)
    if envelope == P:
        raise AlgebraError(f"{P} is injective; the envelope sequence is trivial")
    coker = IndecModule(envelope.top, envelope.length - P.length)
    mutated = mutation_at(A, T, P)
    if mutated is not None:
        added = next(m for m in mutated if m not in T)
        if added != coker:
            raise TiltingError(
                f"mutation at {P} produced {added}, not the envelope cokernel {coker}"
            )
    return ProjMutation(removed=P, envelope=envelope, cokernel=coker, mutated=mutated)


def minimal_tilting(A: Algebra) -> ModuleSet:
    """The Gen-minimal tilting module I0 + cosyzygy(A), verified as tilting.

    Every Nakayama algebra is 1-Gorenstein: the injective envelope of P(i)
    is some M(j, c(i) + j - i), and c(i+1) <= c(i) + 1 forces c(j) to be
    c(i) + j - i, so I0 is projective.  `check_gen_minimum` checks that the
    result is the unique Gen-minimum of an enumeration.
    """
    parts = list(regular_i0(A))
    for i in A.vertices:
        cos = cosyzygy(A, A.projective(i))
        if cos is not None:
            parts.append(cos)
    ms = ModuleSet.of(parts)
    return _record(A, ms, indices(A, ms), "minimal tilting candidate fails")


def check_gen_minimum(A: Algebra, ms: ModuleSet, tilting: Sequence[ModuleSet]) -> None:
    """Raise TiltingError unless ms is the unique Gen-minimum of `tilting`.

    ms is the unique minimum iff it is listed, lies below every listed
    module and no other listed module lies below it (Gen inclusion is
    transitive): fewer than 2k `leq_gen` calls for k modules.
    """
    unique_minimum = (
        ms in tilting
        and all(leq_gen(A, ms, T) for T in tilting)
        and not any(T != ms and leq_gen(A, T, ms) for T in tilting)
    )
    if not unique_minimum:
        minima = [T for T in tilting if all(leq_gen(A, T, other) for other in tilting)]
        raise TiltingError(
            f"Gen-minimum mismatch: formula gave {ms}, enumeration gave "
            f"{[str(T) for T in minima]}"
        )


# -- exchange graph and Hasse diagram ------------------------------------------


@dataclass(frozen=True)
class ExchangeGraph:
    """Tilting exchange graph plus the Hasse diagram of the Gen order.

    `edges[(i, j)]` (i < j) are exchange pairs sharing all but one summand;
    `hasse[(i, j)]` means nodes[j] covers nodes[i] in the Gen order.
    """

    nodes: tuple[ModuleSet, ...]
    edges: tuple[tuple[int, int], ...]
    hasse: tuple[tuple[int, int], ...]


def exchange_graph(A: Algebra) -> ExchangeGraph:
    """Exchange graph and Gen-order Hasse diagram of the tilting modules.

    Edges: each tilting module is keyed by its n tuples of summand table
    indices with one summand left out; two modules holding the same key
    share n - 1 summands.  An almost complete tilting module has at most
    two complements, so a key held by three modules raises TiltingError.

    Order: `below[j]` is the bitmask of the nodes i != j with
    Gen(i) in Gen(j), from one `leq_gen` call per ordered pair, k(k-1) in
    all; each call is three integer operations on two kept packed
    profiles, so every node is walked and validated once.  (One call per
    edge would do; the benchmark pins the k(k-1) count.)

    Covers: the Hasse diagram is the exchange graph oriented by Gen
    (Happel-Unger, Algebr. Represent. Theory 8, 2005): edge (i, j) is the
    cover (i, j) when i is in `below[j]`, else (j, i).  A pair with neither
    below the other contradicts the theorem and raises TiltingError.
    """
    nodes = enumerate_tilting(A)
    tab = A.tables
    at = tab.at
    holders: dict[tuple[int, ...], list[int]] = {}
    for i, T in enumerate(nodes):
        idx = tuple([at(m.top, m.length) for m in T])
        for p in range(len(idx)):
            holders.setdefault(idx[:p] + idx[p + 1 :], []).append(i)
    edges = []
    for key, held in holders.items():
        if len(held) > 2:
            raise TiltingError(
                f"{len(held)} complements of the almost complete tilting module "
                f"{tab.module_set(key)}"
            )
        if len(held) == 2:
            edges.append(tuple(held))
    below = [0] * len(nodes)
    for j, Tj in enumerate(nodes):
        for i, Ti in enumerate(nodes):
            if i != j and leq_gen(A, Ti, Tj):
                below[j] |= 1 << i
    for i, j in edges:
        if not (below[j] >> i | below[i] >> j) & 1:
            raise TiltingError(f"the exchange pair {nodes[i]} and {nodes[j]} is incomparable in the Gen order")
    hasse = [(i, j) if below[j] >> i & 1 else (j, i) for i, j in edges]
    return ExchangeGraph(tuple(nodes), tuple(sorted(edges)), tuple(sorted(hasse)))


def exchange_graph_dot(graph: ExchangeGraph) -> str:
    """DOT digraph: solid undirected exchange edges, dashed Hasse covers.

    Hasse arrows point from the Gen-larger module to the one it covers.
    """
    lines = ["digraph exchange {", "  rankdir=BT;"]
    for i, T in enumerate(graph.nodes):
        lines.append(f'  t{i} [label="{T}"];')
    for i, j in graph.edges:
        lines.append(f"  t{i} -> t{j} [dir=none];")
    for i, j in graph.hasse:
        lines.append(f"  t{j} -> t{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutation_closure(A: Algebra) -> list[ModuleSet]:
    """All tilting modules reachable from the regular module by mutation.

    Independent cross-check for enumerate_tilting: starts at A itself and
    mutates at every summand until closure, by `_exchange` on table
    indices; each module is verified once, when it is first reached.
    """
    start = regular_module(A)
    idx = tuple(indices(A, start))
    seen = {idx: _record(A, start, idx, "the regular module is not tilting")}
    stack = [idx]
    tab = A.tables
    while stack:
        idx = stack.pop()
        for s in range(len(idx)):
            new = _exchange(A, idx, s)
            if new is not None and new not in seen:
                seen[new] = _record(A, tab.module_set(new), new)
                stack.append(new)
    return [seen[t] for t in sorted(seen)]
