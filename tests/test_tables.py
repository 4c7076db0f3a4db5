"""The per-algebra candidate masks and the public closed forms against an
independent reference, and the clique engine."""

import math
import random
import re
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nakayama import homology as H, tables
from nakayama.algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    ModuleSet,
    iter_algebras,
    make_rsz_nakayama,
)
from nakayama.auslander import auslander_algebra
from nakayama.tables import cliques, mask
from nakayama.tau_tilting import enumerate_sttilt, is_sttilt_pair, is_tau_rigid
from nakayama.tilting import enumerate_tilting, is_tilting, summand_shape_check, tilting_record

M = IndecModule


# An independent copy of the closed forms, written in module space with the
# algebra's own validated accessors.  `homology` keeps one copy of each
# formula, as unvalidated kernels that both the public functions and the
# tables use; this copy is what those kernels are held to.


def ref_hom(A, x, y):
    """Count the k <= min(lengths) with top(y) - len(y) + k = top(x) as vertices."""
    total = 0
    for k in range(1, min(x.length, y.length) + 1):
        diff = y.top - y.length + k - x.top
        if (diff % A.n == 0) if A.kind == "cyclic" else (diff == 0):
            total += 1
    return total


def ref_syzygy(A, x):
    if A.is_projective(x):
        return None
    return M(A.down(x.top, x.length), A.kupisch(x.top) - x.length)


def ref_tau(A, x):
    return None if A.is_projective(x) else M(A.down(x.top), x.length)


def ref_pd(A, x):
    seen, d = set(), 0
    while not A.is_projective(x):
        if x in seen:
            return math.inf
        seen.add(x)
        x = ref_syzygy(A, x)
        d += 1
    return d


def ref_ext1(A, x, y):
    """hom(Omega x, y) - hom(P(top x), y) + hom(x, y)."""
    omega = ref_syzygy(A, x)
    if omega is None:
        return 0
    return ref_hom(A, omega, y) - ref_hom(A, A.projective(x.top), y) + ref_hom(A, x, y)


def ref_projinj_socles(A):
    return frozenset(A.socle_vertex(A.projective(v)) for v in A.projective_injective_vertices())


def ref_tau_vanishes(A, x, y):
    """Hom(x, tau y) = 0."""
    t = ref_tau(A, y)
    return t is None or not ref_hom(A, x, t)


def assert_tables_match_closed_forms(A: Algebra) -> None:
    tab = A.tables
    mods = list(A.indecomposables())
    assert list(tab.modules) == mods
    d = len(mods)
    ext1 = [[ref_ext1(A, x, y) for y in mods] for x in mods]
    tau_zero = [[ref_tau_vanishes(A, x, y) for y in mods] for x in mods]
    # The candidates: pd <= 1 without self-extension for ext1_perp, tau-rigid for tau_perp.
    tilt = [i for i, x in enumerate(mods) if ref_pd(A, x) <= 1 and not ext1[i][i]]
    rigid = [i for i in range(d) if tau_zero[i][i]]
    assert tab.ext1_candidates == tilt and tab.tau_candidates == rigid, A

    for i, x in enumerate(mods):
        assert H.proj_dim(A, x) == ref_pd(A, x), (A, x)
        assert H.tau(A, x) == ref_tau(A, x), (A, x)
        assert H.syzygy(A, x) == ref_syzygy(A, x), (A, x)
        for j, y in enumerate(mods):
            assert H.hom_dim(A, x, y) == ref_hom(A, x, y), (A, x, y)
            assert H.ext1_dim(A, x, y) == ext1[i][j], (A, x, y)
    # Every bit of both masks, over positions among the candidates.
    for cands, perp, vanish in (
        (tilt, tab.ext1_perp, lambda i, j: not ext1[i][j]),
        (rigid, tab.tau_perp, lambda i, j: tau_zero[i][j]),
    ):
        assert len(perp) == len(cands), A
        for a, i in enumerate(cands):
            assert perp[a] >> len(cands) == 0, (A, mods[i])
            for b, j in enumerate(cands):
                bit = vanish(i, j) and vanish(j, i)
                assert perp[a] >> b & 1 == bit, (A, mods[i], mods[j])
    assert tab.projinj_socles == ref_projinj_socles(A)


def test_tables_equal_closed_forms_exhaustively():
    for A in iter_algebras(6, 4):
        assert_tables_match_closed_forms(A)


@st.composite
def kupisch_algebras(draw, max_entry=8, peak=False, max_n=12):
    """Random valid Kupisch series of both kinds, N <= max_n, entries <= max_entry.

    With `peak` the largest entry is max_entry: a linear series opens with
    1, 2, ..., max_entry (so N may reach max_entry), a cyclic one with
    max_entry."""
    kind = draw(st.sampled_from(("linear", "cyclic")))
    if kind == "linear":
        n = draw(st.integers(max_entry, max(max_n, max_entry)) if peak else st.integers(1, max_n))
        c = [1]
        for i in range(2, n + 1):
            low = i if peak and i <= max_entry else 1
            c.append(draw(st.integers(low, min(c[-1] + 1, i, max_entry))))
    else:
        n = draw(st.integers(1, max_n))
        # Entries rise by at most one per step, and the last one must stay
        # within reach of c[N] >= c[1] - 1, which closes the cycle.
        c = [draw(st.integers(max_entry if peak else 2, max_entry))]
        for i in range(1, n):
            low = max(2, c[0] - 1 - (n - 1 - i))
            c.append(draw(st.integers(low, min(c[-1] + 1, max_entry))))
    return Algebra(kind, tuple(c))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(kupisch_algebras())
def test_tables_equal_closed_forms_on_random_series(A):
    assert_tables_match_closed_forms(A)


@st.composite
def wrapping_cyclic_series(draw):
    """Cyclic series on N <= 4 vertices with entries up to 3N, the first
    one 2N to 3N, so tau M runs round the cycle and its composition factors
    are every vertex, some of them twice."""
    n = draw(st.integers(1, 4))
    c = [draw(st.integers(max(2, 2 * n), 3 * n))]
    for i in range(1, n):
        c.append(draw(st.integers(max(2, c[0] - 1 - (n - 1 - i)), min(c[-1] + 1, 3 * n))))
    return Algebra("cyclic", tuple(c))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(wrapping_cyclic_series())
def test_tables_equal_closed_forms_when_tau_wraps_round_the_cycle(A):
    """The masks test only the pairs (M, N) with top N a composition factor
    of tau M; here those factors wrap round the cycle."""
    assert_tables_match_closed_forms(A)


def test_tables_are_cached_per_instance():
    A = Algebra("cyclic", (3, 2))
    assert A.tables is A.tables
    assert Algebra("cyclic", (3, 2)).tables is not A.tables


def test_invalid_module_raises_at_entry():
    A = Algebra("linear", (1, 2, 2))
    with pytest.raises(AlgebraError, match="length 3 invalid at vertex 2"):
        is_tilting(A, ModuleSet.of([M(1, 1), M(2, 3)]))
    with pytest.raises(AlgebraError, match="vertex 4 out of range"):
        is_tilting(A, ModuleSet.of([M(4, 1)]))


def test_module_that_is_not_basic_raises_at_entry():
    A = Algebra("linear", (1, 2))
    for summands in ((M(1, 1), M(1, 1)), (M(2, 2), M(1, 1))):
        ms = ModuleSet(summands)
        calls = (is_tilting, tilting_record, summand_shape_check, is_tau_rigid, lambda A, ms: is_sttilt_pair(A, ms, []))
        for call in calls:
            with pytest.raises(AlgebraError, match=re.escape(f"{summands[1]} is repeated or out of order")):
                call(A, ms)


class TestCliques:
    # The 4-cycle 0-1-2-3-0 plus the chord 0-2.
    ADJ = [0b1110, 0b0101, 0b1011, 0b0101]

    def test_every_clique_in_preorder(self):
        assert cliques(self.ADJ, 0b1111) == [
            (), (0,), (0, 1), (0, 1, 2), (0, 2), (0, 2, 3), (0, 3), (1,), (1, 2), (2,), (2, 3), (3,),
        ]

    def test_fixed_size_in_lexicographic_order(self):
        assert cliques(self.ADJ, 0b1111, 3) == [(0, 1, 2), (0, 2, 3)]
        assert cliques(self.ADJ, 0b1110, 2) == [(1, 2), (2, 3)]
        assert cliques(self.ADJ, 0b1111, 4) == []

    def test_more_forced_vertices_than_size_raise(self):
        # Every vertex of a triangle is adjacent to the two others, so a
        # 2-clique bound is broken; the self bits of ext1_perp do not count.
        with pytest.raises(RuntimeError, match="3 vertices are adjacent to all others"):
            cliques([0b110, 0b101, 0b011], 0b111, 2)
        with pytest.raises(RuntimeError, match="bounded by 2 vertices"):
            cliques([0b111, 0b111, 0b111], 0b111, 2)


def unpruned_cliques(adj, allowed, size):
    """The fixed-size search without forced vertices: the reference for `cliques`."""
    found, chosen = [], []

    def extend(allowed):
        if len(chosen) == size:
            found.append(tuple(chosen))
            return
        while allowed:
            if allowed.bit_count() < size - len(chosen):
                return
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            extend(allowed & adj[i])
            chosen.pop()

    extend(allowed)
    return found


@pytest.fixture(scope="module")
def clique_universe():
    """iter_algebras(6, 4), then the Auslander algebras for n <= 8 of both kinds."""
    gammas = [
        auslander_algebra(make_rsz_nakayama(n, kind)).gamma
        for n in range(1, 9)
        for kind in ("linear", "cyclic")
    ]
    return list(iter_algebras(6, 4)) + gammas


@pytest.mark.parametrize("graph", ["ext1", "tau"])
def test_forced_vertices_keep_the_n_cliques_and_their_order(clique_universe, graph):
    """The fixed-size searches of both enumerators, Ext^1 on the tilting
    candidates and tau on the rigid ones, give the unpruned n-cliques in
    the same order."""
    for A in clique_universe:
        adj = getattr(A.tables, f"{graph}_perp")
        allowed = mask(a for a in range(len(adj)) if adj[a] >> a & 1)
        assert cliques(adj, allowed, A.n) == unpruned_cliques(adj, allowed, A.n), A


@st.composite
def graphs_with_allowed(draw):
    """A random symmetric graph on at most 12 vertices, as neighbour masks
    with random self bits, and a random vertex mask.  Edges are drawn at a
    random density, or (density None) as a union of a few cliques of one
    size, which gives many overlapping largest cliques.  Hubs are adjacent
    to every vertex, so an allowed hub is a forced vertex."""
    n = draw(st.integers(0, 12))
    density = draw(st.sampled_from((None, 0.2, 0.5, 0.8, 0.95)))
    dropped = draw(st.sampled_from((0.0, 0.2, 0.5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {(u, v) for u, v in combinations(range(n), 2) if density is not None and rng.random() < density}
    if density is None and n:
        k = rng.randint(1, n)
        for _ in range(rng.randint(1, 6)):
            edges.update(combinations(sorted(rng.sample(range(n), k)), 2))
    hubs = {v for v in range(n) if rng.random() < 0.15}
    edges.update((u, v) for u, v in combinations(range(n), 2) if u in hubs or v in hubs)
    adj = [int(rng.random() < 0.5) << v for v in range(n)]
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj, mask(v for v in range(n) if rng.random() >= dropped)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graphs_with_allowed())
def test_fixed_size_cliques_are_every_clique_of_the_clique_number(graph):
    """With `size` the clique number inside `allowed`, so that no larger
    clique exists, the search returns every clique of that size in
    lexicographic order.  The reference extends each clique, in order, by
    every larger allowed vertex adjacent to all of it."""
    adj, allowed = graph
    verts = [v for v in range(len(adj)) if allowed >> v & 1]
    largest = [()]
    while bigger := [
        c + (v,) for c in largest for v in verts if v > (c[-1] if c else -1) and all(adj[u] >> v & 1 for u in c)
    ]:
        largest = bigger
    assert cliques(adj, allowed, len(largest[0])) == largest


def test_partners_are_the_and_over_the_other_members():
    """The prefix/suffix partner step against the plain AND over the other
    members, on seeded random symmetric graphs (random self bits) and random
    cliques; a one-member clique keeps nothing, so every other vertex is a
    partner."""
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 14)
        density = rng.choice((0.3, 0.6, 0.9))
        adj = [int(rng.random() < 0.5) << v for v in range(n)]
        for u, v in combinations(range(n), 2):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        full = (1 << n) - 1
        clique: list[int] = []
        for v in rng.sample(range(n), n):
            if all(adj[u] >> v & 1 for u in clique) and rng.random() < 0.8:
                clique.append(v)
        clique.sort()
        naive = []
        for s in clique:
            common = full & ~mask(clique)
            for u in clique:
                if u != s:
                    common &= adj[u]
            naive.append(common)
        assert tables.partners(adj, clique) == naive, (adj, clique)
        v = rng.randrange(n)
        assert tables.partners(adj, [v]) == [full & ~(1 << v)]


def test_projinj_socles_validate_nothing_more(monkeypatch):
    """Reading the socles makes no `check_module` call beyond those of
    `projective_injective_vertices`: each socle is Kupisch arithmetic."""
    calls = 0
    check = Algebra.check_module

    def counted(self, m):
        nonlocal calls
        calls += 1
        return check(self, m)

    monkeypatch.setattr(Algebra, "check_module", counted)
    for n in range(1, 7):
        for kind in ("linear", "cyclic"):
            gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
            calls = 0
            Algebra(gamma.kind, gamma.c).projective_injective_vertices()
            expected, calls = calls, 0
            A = Algebra(gamma.kind, gamma.c)
            socles = A.tables.projinj_socles
            assert calls == expected, A
            assert socles == ref_projinj_socles(gamma)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the calls `tables` makes to the `homology` kernels; set
    `budget` and zero `calls` before each build.  A call past the budget
    fails at once, not after a quadratic build."""
    counter = SimpleNamespace(calls=0, budget=0)

    def counted(kernel):
        def wrapper(*args):
            counter.calls += 1
            assert counter.calls <= counter.budget, f"more than {counter.budget} kernel calls"
            return kernel(*args)

        return wrapper

    kernels = {name: f for name, f in vars(tables).items() if getattr(f, "__module__", None) == H.__name__}
    assert {"_hom", "_tau"} <= kernels.keys()
    for name, kernel in kernels.items():
        monkeypatch.setattr(tables, name, counted(kernel))
    return counter


def test_kernel_calls_grow_linearly_in_the_dimension(kernel_calls):
    """The one simple of cyclic (d,) has d indecomposables but a single
    tilting and a single tau-rigid candidate, the projective, so the masks
    cost a scan of the modules, not a d x d table.  Over the self-injective
    cyclic (d,)*12 the syzygy orbits have six modules, but a tilting
    candidate is decided in two syzygy steps, so the regular module, the one
    tilting module, costs at most 3 kernel calls per module."""
    counts = {}
    for d in (1000, 2000):
        kernel_calls.calls, kernel_calls.budget = 0, 20 * d
        A = Algebra("cyclic", (d,))
        P = ModuleSet.of([M(1, d)])
        assert enumerate_tilting(A) == [P]
        assert [(p.modules, p.killed) for p in enumerate_sttilt(A)] == [
            (ModuleSet.of([]), {1}),
            (P, set()),
        ]
        counts[d] = kernel_calls.calls
    assert counts[2000] <= 2.2 * counts[1000], counts
    for d in (1000, 2000):
        A = Algebra("cyclic", (d,) * 12)
        kernel_calls.calls, kernel_calls.budget = 0, 3 * A.dimension()
        assert enumerate_tilting(A) == [H.regular_module(A)]
        counts[d, 12] = kernel_calls.calls
    assert counts[2000, 12] <= 2.2 * counts[1000, 12], counts


def test_masks_test_only_local_conflicts(kernel_calls):
    """Gamma of rsz cyclic n has 5n indecomposables, 3n tilting and 5n
    tau-rigid candidates.  A conflict lies among the candidates whose top is
    a composition factor of tau M, at most two vertices here, so both
    masks cost a few kernel calls per module, where testing all pairs costs
    about 24 n^2 (239,402 calls at n = 100)."""
    counts = {}
    for n in (100, 200):
        gamma = auslander_algebra(make_rsz_nakayama(n, "cyclic")).gamma
        A = Algebra(gamma.kind, gamma.c)
        kernel_calls.calls, kernel_calls.budget = 0, 10 * A.dimension()
        tab = A.tables
        assert (len(tab.ext1_perp), len(tab.tau_perp)) == (3 * n, 5 * n)
        counts[n] = kernel_calls.calls
    assert counts[200] <= 2.2 * counts[100], counts
