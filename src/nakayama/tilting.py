"""Classical tilting modules: enumeration, Gen order, mutation, exchange graph.

A tilting module here is basic, has projective dimension at most one,
no self-extensions, and as many indecomposable summands as the algebra
has simples (for Nakayama algebras that pin down all classical tilting
modules).  Enumeration is exact: candidates are the indecomposables of
projective dimension <= 1 without self-extensions, compatibility is
Ext^1-vanishing in both directions, and tilting modules are the
n-cliques of the compatibility graph, found by the shared clique search
`tables.cliques` (whose cuts rest on Bongartz's bound: a partial tilting
module has at most n summands) and re-verified on their candidate
positions by `_tilting_cliques`.  `tilt enumerate` renders those positions
as they are; `enumerate_tilting` builds a `ModuleSet` from each.
`check_gen_minimum` tests the minimal tilting module against tilting
modules already enumerated, so a caller holding them enumerates once;
for modules already verified, `_shape_offenders` and `_gen_minimum` run
the shape and Gen-minimum checks on summand bitmasks (`_summand_masks`).

The tilting conditions and mutation read the algebra's `Tables`; only a
summand that is not an Ext^1 candidate has its projective dimension walked
(kernel `_dim_along`), and a violation names its Ext^1 dimension from the
kernel `_ext1`.  Both rest on the single copy of each closed form, the
kernels in `homology`, which the tests hold to an independent reference
and to the matrix oracle.  Modules are validated once, where they enter a
public function (a tilting module by the one check `_tilting_indices`); the
enumerators, re-verification and mutation work on indices behind that line.

The Gen order needs no table: Gen(T) holds a uniserial X iff X is a
quotient of a summand, so Gen(T1) lies in Gen(T2) iff at every top the
longest summand of T1 is no longer than that of T2.  That per-top profile
is packed into one integer, a field per top with a guard bit above it,
so the test on all n tops is one subtraction and a mask.  A module keeps
its packed profile for the Kupisch series that last validated it, so a
module compared many times is walked once per series.

Every exchange reads the partner masks of all summands of a module at
once, from `tables.partners` on candidate positions: mutation one entry,
`mutation_closure` and the exchange graph one call per module.  The Hasse
diagram is the exchange graph oriented by Gen.
`proj_mutation_sequence` validates its projective and its module, then
hands them to the trusted core `_proj_mutation`, which the verification
battery calls directly on the modules `enumerate_tilting` verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, AlgebraError, IndecModule, ModuleSet
from .homology import _cosyzygy, _dim_along, _envelope, _ext1, _syzygy, regular_module
from .tables import cliques, indices, mask, partners


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


def _tilting_indices(A: Algebra, T: ModuleSet) -> list[int]:
    """Table indices of T from outside, checked once: AlgebraError unless tilting."""
    idx = indices(A, T)
    why = _violation(A, idx)
    if why is not None:
        raise AlgebraError(f"not a tilting module: {why}")
    return idx


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


def _fields(A: Algebra) -> list[int]:
    """Where each top's field starts in a `_summand_masks` mask: M(v, l) is
    bit start[v - 1] + l - 1, and bit start[v - 1] + c(v), above the modules
    at top v, is a guard that no module sets."""
    start, bit = [], 0
    for ci in A.c:
        start.append(bit)
        bit += ci + 1
    return start


def _summand_masks(A: Algebra, tilting: Sequence[ModuleSet]) -> list[int]:
    """Each module's summands as one bitmask laid out by `_fields`, for
    modules a caller has verified: a summand's bit is read off a dict keyed
    by the modules, and nothing is validated."""
    start = _fields(A)
    bit = {m: 1 << start[m.top - 1] + m.length - 1 for m in A.tables.modules}
    return [sum(map(bit.__getitem__, T)) for T in tilting]


def _shape_offenders(
    A: Algebra, tilting: Sequence[ModuleSet], masks: Sequence[int]
) -> list[tuple[ModuleSet, list[IndecModule]]]:
    """Each module of `tilting` with the summands `summand_shape_check`
    flags, for modules a caller has verified, with their `_summand_masks`:
    a module offends iff its mask leaves the one mask of the projectives
    and the simple socles of the projective-injectives."""
    start, c = _fields(A), A.c
    good = mask([start[v - 1] + c[v - 1] - 1 for v in A.vertices] + [start[v - 1] for v in A.tables.projinj_socles])
    return [
        (T, [m for m in T if not good >> start[m.top - 1] + m.length - 1 & 1])
        for T, bits in zip(tilting, masks)
        if bits & ~good
    ]


def _tilting_cliques(A: Algebra) -> list[tuple[int, ...]]:
    """All basic tilting modules as increasing Ext^1 candidate positions,
    sorted as their canonical summand tuples: the `tables.cliques` order.

    Every clique is re-verified on its candidate positions, the check
    `_violation` makes once it has mapped table indices to positions: n
    summands, each orthogonal to the others in `ext1_perp` (whose self
    bits are set).  A failing clique raises TiltingError with
    `_violation`'s certificate."""
    tab = A.tables
    cands, perp = tab.ext1_candidates, tab.ext1_perp
    found = cliques(perp, (1 << len(perp)) - 1, A.n)
    for at in found:
        summands, common = 0, -1
        for a in at:
            summands |= 1 << a
            common &= perp[a]
        if summands & ~common or len(at) != A.n:
            raise TiltingError(f"not a tilting module: {_violation(A, [cands[a] for a in at])}")
    return found


def enumerate_tilting(A: Algebra) -> list[ModuleSet]:
    """All basic tilting modules, sorted: the verified cliques of `_tilting_cliques` as modules."""
    tab = A.tables
    mods = [tab.modules[i] for i in tab.ext1_candidates]
    return [ModuleSet([mods[a] for a in at]) for at in _tilting_cliques(A)]


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


def _mutation(A: Algebra, at: Sequence[int], s: int, found: int) -> tuple[int, ...] | None:
    """Candidate positions of the mutation at X = T[s], T tilting at positions
    `at`, from X's `tables.partners` mask `found` (the Y with T/X + Y tilting);
    None without one.  An almost complete tilting module has at most two
    complements (Happel-Unger), so several raise TiltingError."""
    if found & found - 1:
        tab = A.tables
        cands = tab.ext1_candidates
        named = [tab.modules[cands[b]] for b in range(found.bit_length()) if found >> b & 1]
        raise TiltingError(f"multiple exchange partners for {tab.modules[cands[at[s]]]}: {named}")
    return tuple(sorted([*at[:s], *at[s + 1 :], found.bit_length() - 1])) if found else None


def _verified(A: Algebra, at: Sequence[int]) -> ModuleSet:
    """The module at candidate positions `at`, re-verified by `_record`."""
    tab = A.tables
    idx = [tab.ext1_candidates[a] for a in at]
    return _record(A, tab.module_set(idx), idx)


def _entry(A: Algebra, T: ModuleSet, X: IndecModule) -> tuple[list[int], int, int]:
    """T's candidate positions, X's place in T and X's partner mask; T is checked once."""
    tab = A.tables
    at = [tab.ext1_position[i] for i in _tilting_indices(A, T)]
    s = T.index(X)
    return at, s, partners(tab.ext1_perp, at)[s]


def mutation_at(A: Algebra, T: ModuleSet, X: IndecModule) -> ModuleSet | None:
    """Exchange X for the second complement of T/X, if one exists.

    Returns the mutated tilting module, or None when X has no exchange
    partner.  A T that is not tilting raises AlgebraError, once, where it
    enters (`_tilting_indices`); the mutated module is re-verified.  More
    than one partner would contradict the tilting exchange theory, so that
    raises TiltingError.
    """
    if X not in T:
        raise AlgebraError(f"{X} is not a summand of the given tilting module")
    new = _mutation(A, *_entry(A, T, X))
    return None if new is None else _verified(A, new)


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

    P is validated once; its projectivity and its envelope are then read
    off its coordinates.  T is validated once, by `_tilting_indices` as in
    `mutation_at`, and the trusted core `_proj_mutation` does the rest.
    """
    if P not in T:
        raise AlgebraError(f"{P} is not a summand of the given tilting module")
    A.check_module(P)
    if P.length != A.c[P.top - 1]:
        raise AlgebraError(f"{P} is not projective")
    if _envelope(A, P) == P:
        raise AlgebraError(f"{P} is injective; the envelope sequence is trivial")
    return _proj_mutation(A, T, *_entry(A, T, P))


def _proj_mutation(A: Algebra, T: ModuleSet, at: Sequence[int], s: int, found: int) -> ProjMutation:
    """`proj_mutation_sequence` at the summand T[s], behind its checks.

    T, at candidate positions `at`, is verified as tilting, T[s] is projective
    and not injective, and `found` is its partner mask.  The mutated module is
    re-verified; a partner other than the envelope cokernel raises TiltingError."""
    P = T[s]
    envelope = _envelope(A, P)
    coker = IndecModule(envelope.top, envelope.length - P.length)
    new = _mutation(A, at, s, found)
    mutated = None
    if new is not None:
        mutated = _verified(A, new)
        added = A.tables.modules[A.tables.ext1_candidates[found.bit_length() - 1]]
        if added != coker:
            raise TiltingError(f"mutation at {P} produced {added}, not the envelope cokernel {coker}")
    return ProjMutation(removed=P, envelope=envelope, cokernel=coker, mutated=mutated)


def minimal_tilting(A: Algebra) -> ModuleSet:
    """The Gen-minimal tilting module I0 + cosyzygy(A), verified as tilting.

    Every Nakayama algebra is 1-Gorenstein: the injective envelope of P(i)
    is some M(j, c(i) + j - i), and c(i+1) <= c(i) + 1 forces c(j) to be
    c(i) + j - i, so I0 is projective.  `check_gen_minimum` checks that the
    result is the unique Gen-minimum of an enumeration.
    """
    parts = set()
    for v, ci in enumerate(A.c, 1):  # the kernels build both from P(v): no module is validated
        P = IndecModule(v, ci)
        parts.add(_envelope(A, P))
        parts.add(_cosyzygy(A, P))
    parts.discard(None)
    idx = sorted(A.tables.at(*m) for m in parts)
    return _record(A, A.tables.module_set(idx), idx, "minimal tilting candidate fails")


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


def _gen_minimum(A: Algebra, ms: ModuleSet, tilting: Sequence[ModuleSet], masks: Sequence[int]) -> None:
    """`check_gen_minimum` for modules a caller has verified, ms among them,
    with the `_summand_masks` of `tilting`.

    A mask is the unary form of the packed profile of `_gen_profile`: the
    field of top v holds a bit per summand at v, by length.  T lies below
    ms iff its mask has no bit `outside` the modules at each top no longer
    than the longest summand of ms there.  ms lies below T iff each field
    of T reaches `least`, the bit of the longest summand of ms there, which
    one subtraction tests on every field: with the guard bits set, field v
    keeps its guard bit iff it is at least `least`'s field, and no field
    borrows from the next.  A failure runs `check_gen_minimum`, whose error
    names the minima.
    """
    start, c = _fields(A), A.c
    guard = mask(start[v - 1] + c[v - 1] for v in A.vertices)
    own, longest = 0, {}
    for top, length in ms:  # by top, then length: the longest at a top comes last
        own |= 1 << start[top - 1] + length - 1
        longest[top] = length
    least = sum(1 << start[top - 1] + length - 1 for top, length in longest.items())
    outside = ~sum(((1 << length) - 1) << start[top - 1] for top, length in longest.items())
    below = [bits for bits in masks if not bits & outside]
    if (
        own in masks
        and below.count(own) == len(below)
        and all(((bits | guard) - least) & guard == guard for bits in masks)
    ):
        return
    check_gen_minimum(A, ms, tilting)
    raise RuntimeError(f"the Gen-minimum checks on masks and on profiles disagree on {ms}")


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

    Edges: each module is keyed by its summand mask over the candidates,
    and its neighbour at summand s swaps s for its `tables.partners` partner.
    Several partners for a summand, or a neighbour not listed, raise TiltingError.

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
    cands, pos, perp = tab.ext1_candidates, tab.ext1_position, tab.ext1_perp
    clique = [[pos[tab.at(m.top, m.length)] for m in T] for T in nodes]
    keys = [mask(at) for at in clique]
    node = {bits: i for i, bits in enumerate(keys)}
    edges = []
    for i, (at, bits) in enumerate(zip(clique, keys)):
        for s, found in enumerate(partners(perp, at)):
            if not found:
                continue
            j = node.get(bits ^ 1 << at[s] | found)
            if j is None:  # no key has more than n bits, so several partners raise here
                missing = tab.module_set([cands[a] for a in _mutation(A, at, s, found)])
                raise TiltingError(f"the mutation of {nodes[i]} at {nodes[i][s]}, {missing}, is not enumerated")
            if i < j:
                edges.append((i, j))
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
    mutates at every summand until closure, one `tables.partners` call per
    module, keyed by summand masks; each module is verified once, when reached.
    """
    start = regular_module(A)
    idx = indices(A, start)
    ms = _record(A, start, idx, "the regular module is not tilting")
    at = tuple(A.tables.ext1_position[i] for i in idx)
    seen, stack = {mask(at): (at, ms)}, [at]
    while stack:
        at = stack.pop()
        bits = mask(at)
        for s, found in enumerate(partners(A.tables.ext1_perp, at)):
            # several partners give a key of n + 1 bits, never seen: `_mutation` raises
            if found and (key := bits ^ 1 << at[s] | found) not in seen:
                new = _mutation(A, at, s, found)
                seen[key] = new, _verified(A, new)
                stack.append(new)
    return [ms for _, ms in sorted(seen.values())]
