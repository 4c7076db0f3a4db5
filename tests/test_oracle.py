import ast
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nakayama.algebra import Algebra, AlgebraError, IndecModule, iter_algebras, make_rsz_nakayama
from nakayama.homology import ext1_dim, hom_dim, syzygy, tau
from nakayama import linalg, oracle
from nakayama.oracle import (
    WORKSPACES,
    OracleError,
    _workspace,
    arrow_sources,
    check_relations,
    cover_data,
    end_algebra,
    ext1_space_dim,
    hom_space,
    hom_space_dim,
    identify_module,
    quiver_of,
    syzygy_oracle,
    tau_via_dtr,
    to_representation,
)
from nakayama.verification import oracle_sweep_assertions
from test_tables import kupisch_algebras

M = IndecModule


class TestLinalg:
    def test_rank_and_nullspace(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert linalg.rank(rows) == 2
        null = linalg.nullspace(rows, 3)
        assert len(null) == 1
        v = null[0]
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0

    def test_rank_fraction_entries(self):
        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert linalg.rank(singular) == 1
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 1)]]
        assert linalg.rank(rows) == 2

    def test_nullspace_keeps_ints_without_division(self):
        # Units and zeros are ints, and so is every integral entry, whatever
        # the pivot divided by.
        for rows, n in (([], 2), ([[1, -1, 0]], 3), ([[0, 1, 0, 0], [0, 0, 1, -1]], 4), ([[2, 4]], 2)):
            basis = linalg.nullspace(rows, n)
            assert all(type(x) is int for vec in basis for x in vec), basis
        assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
        assert linalg.nullspace([[2, 4]], 2) == [[-2, 1]]
        assert linalg.nullspace([[2, 1]], 2) == [[Fraction(-1, 2), 1]]


# Rational entries: numerators -3..3 over denominators 1..4, mixed with ints.
rationals = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction, the reference for `linalg.rank`."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            factor = m[i][col] / m[r][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 5))
    row = st.one_of(st.just([0] * ncols), st.lists(rationals, min_size=ncols, max_size=ncols))
    return draw(st.lists(row, max_size=5))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rational_matrices())
def test_fraction_free_rank_matches_fraction_elimination(rows):
    assert linalg.rank(rows) == fraction_rank(rows)


@st.composite
def sparse_rows(draw):
    """``{column: entry}`` rows: empty rows, explicit zero entries, and rows
    that combine two earlier rows, so that entries cancel in elimination."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), rationals, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(rationals), draw(rationals)
        rows.append({c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()})
    return rows, ncols


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sparse_rows())
def test_sparse_rank_matches_fraction_elimination(case):
    rows, ncols = case
    assert linalg.rank(rows) == fraction_rank([[row.get(c, 0) for c in range(ncols)] for row in rows])


@st.composite
def spanning_sets(draw):
    dim = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=5))
    return vectors, dim


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spanning_sets())
def test_extend_basis_completes_the_span(case):
    vectors, dim = case
    chosen = linalg.extend_basis_indices(vectors, dim)
    assert len(chosen) == dim - linalg.rank(vectors)
    units = [[int(i == j) for j in range(dim)] for i in chosen]
    assert linalg.rank(vectors + units) == dim


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), max_size=4))
    return rows, ncols


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_matrices(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_nullspace_basis_is_unit_at_the_free_columns(case, weights):
    """The basis form `_kernel` reads coordinates from."""
    rows, n = case
    basis = linalg.nullspace(rows, n)
    assert linalg.nullspace([{c: x for c, x in enumerate(row) if x} for row in rows], n) == basis
    free = linalg.extend_basis_indices(rows, n)
    assert len(free) == len(basis)
    for k, vec in enumerate(basis):
        assert [vec[j] for j in free] == [int(i == k) for i in range(len(free))]
        assert max(i for i, x in enumerate(vec) if x) == free[k]
    # Any kernel vector is the combination of the basis by its free entries.
    x = [sum(w * vec[j] for w, vec in zip(weights, basis)) for j in range(n)]
    assert all(sum(r * y for r, y in zip(row, x)) == 0 for row in rows)
    assert x == [sum(x[free[k]] * vec[j] for k, vec in enumerate(basis)) for j in range(n)]


def test_oracle_is_independent_of_the_closed_forms():
    """The oracle road imports no closed-form module and calls no closed form."""
    closed_modules = {"homology", "tables", "tilting", "tau_tilting", "auslander"}
    closed_forms = {"injective_env_vertex", "injective_envelopes", "is_injective", "socle_vertex"}
    src = Path(oracle.__file__).parent
    for name in ("oracle.py", "linalg.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            else:
                imported = set()
            assert not {part for mod in imported for part in mod.split(".")} & closed_modules, (name, ast.dump(node))
            called = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert called not in closed_forms, (name, node.lineno)


class TestRepresentations:
    def test_dims_and_relations(self, gamma_lin3):
        rep = to_representation(gamma_lin3, M(4, 3))
        assert rep.dims == [0, 1, 1, 1, 0]
        assert check_relations(gamma_lin3, rep)

    def test_cyclic_wrap_dims(self, dual_numbers_gamma):
        # M(1,3) passes vertex 1 twice: dimension vector (2, 1).
        rep = to_representation(dual_numbers_gamma, M(1, 3))
        assert rep.dims == [2, 1]
        assert check_relations(dual_numbers_gamma, rep)

    def test_arrow_sources(self):
        assert arrow_sources(Algebra("linear", (1, 1, 2))) == [3]
        assert arrow_sources(make_rsz_nakayama(3, "cyclic")) == [1, 2, 3]

    def test_all_representations_satisfy_relations(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                assert check_relations(A, to_representation(A, m))

    def test_relation_violation_detected(self):
        A = Algebra("cyclic", (2, 2))
        rep = to_representation(A, M(1, 2))
        # Force the length-2 composite around the cycle to be nonzero.
        rep.maps[1] = [[1]]
        rep.maps[2] = [[1]]
        assert not check_relations(A, rep)

    def test_identify_module(self, gamma_lin3):
        for m in gamma_lin3.indecomposables():
            assert identify_module(gamma_lin3, to_representation(gamma_lin3, m)) == m

    def test_identify_module_rejects_a_decomposable(self):
        # S(1) + S(2) on linear (1, 2): the arrow 2 -> 1 acts as zero.
        A = Algebra("linear", (1, 2))
        rep = oracle.Representation([1, 1], {2: [[0]]})
        with pytest.raises(OracleError, match=r"^representation is not uniserial: tops \[\(1, 1\), \(2, 1\)\]$"):
            identify_module(A, rep)

    def test_kernel_of_a_non_morphism_is_refused(self):
        # On P(2) of linear (1, 2), f is zero at 2 and injective at 1, so
        # the kernel at 2 maps under the arrow outside the kernel at 1.
        A = Algebra("linear", (1, 2))
        ws = _workspace(A)
        with pytest.raises(OracleError, match="^kernel is not arrow-stable$"):
            oracle._kernel(ws, ws.rep(M(2, 2)), [[[1]], [[0]]])

    def test_kernel_stability_is_checked_next_to_a_zero_vertex(self):
        # P(3) of linear (1, 2, 2) is zero at vertex 1, which the kernel
        # skips; f is zero at 3 and injective at 2, so the kernel at 3 still
        # maps under the arrow 3 -> 2 outside the kernel at 2.
        A = Algebra("linear", (1, 2, 2))
        ws = _workspace(A)
        X = ws.rep(M(3, 2))
        assert X.dims == [0, 1, 1]
        with pytest.raises(OracleError, match="^kernel is not arrow-stable$"):
            oracle._kernel(ws, X, [[], [[1]], [[0]]])


class TestOracleAgreement:
    def test_hom_agrees(self, small_universe):
        for A in small_universe:
            mods = A.indecomposables()
            for m in mods:
                for nmod in mods:
                    assert hom_space_dim(A, m, nmod) == hom_dim(A, m, nmod)

    def test_ext1_agrees(self, small_universe):
        for A in small_universe:
            mods = A.indecomposables()
            for m in mods:
                for nmod in mods:
                    assert ext1_space_dim(A, m, nmod) == ext1_dim(A, m, nmod)

    def test_syzygy_agrees(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                assert syzygy_oracle(A, m) == syzygy(A, m)

    def test_tau_agrees(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                assert tau_via_dtr(A, m) == tau(A, m)

    def test_nu_projective_is_the_injective_envelope(self, small_universe):
        # The oracle walks the paths ending at j; the closed form is the
        # longest uniserial with socle j.
        for A in small_universe:
            for j in A.vertices:
                assert oracle._nu_projective(A, j) == A.injective_env_vertex(j), (A, j)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kupisch_algebras())
def test_oracle_agrees_on_random_series(A):
    mods = list(A.indecomposables())
    for m in mods:
        assert syzygy_oracle(A, m) == syzygy(A, m), (A, m)
        assert tau_via_dtr(A, m) == tau(A, m), (A, m)
    pairs = list(itertools.product(mods, repeat=2))
    for m, nmod in random.Random(str(A)).sample(pairs, min(64, len(pairs))):
        assert hom_space_dim(A, m, nmod) == hom_dim(A, m, nmod), (A, m, nmod)
        assert ext1_space_dim(A, m, nmod) == ext1_dim(A, m, nmod), (A, m, nmod)


# Every public function that takes modules, called with one invalid module
# of the cyclic series (2, 2).  M(1, 2) is projective, so without validation
# `ext1_space_dim(P, bad)` would return 0 without looking at `bad`.
ENTRY_POINTS = {
    "hom_space_dim(bad, M)": lambda A, bad: hom_space_dim(A, bad, M(1, 1)),
    "hom_space_dim(M, bad)": lambda A, bad: hom_space_dim(A, M(1, 1), bad),
    "hom_space(bad, M)": lambda A, bad: hom_space(A, bad, M(1, 1)),
    "hom_space(M, bad)": lambda A, bad: hom_space(A, M(1, 1), bad),
    "ext1_space_dim(bad, M)": lambda A, bad: ext1_space_dim(A, bad, M(1, 1)),
    "ext1_space_dim(P, bad)": lambda A, bad: ext1_space_dim(A, M(1, 2), bad),
    "syzygy_oracle": lambda A, bad: syzygy_oracle(A, bad),
    "cover_data": lambda A, bad: cover_data(A, bad),
    "tau_via_dtr": lambda A, bad: tau_via_dtr(A, bad),
    "end_algebra": lambda A, bad: end_algebra(A, [M(1, 1), bad]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize(
    "bad, message",
    [(M(3, 1), "vertex 3 out of range 1..2"), (M(1, 10), "length 10 invalid at vertex 1: need 1..2")],
    ids=["top", "length"],
)
def test_invalid_module_raises_at_entry(entry, bad, message):
    A = Algebra("cyclic", (2, 2))
    # Twice: a rejected module must not have been cached by the first call.
    for _ in range(2):
        with pytest.raises(AlgebraError, match=message):
            entry(A, bad)
    assert not [key for key in _workspace(A).hom_dims if bad in key]


def ext1_by_restriction(A, M, N) -> int:
    """dim Hom(K, N) minus the rank of a Hom(P0, N) basis restricted to K.

    Hom(-, N) is left exact on 0 -> K -> P0 -> M -> 0, so Ext^1(M, N) is
    Hom(K, N) modulo the restrictions along the kernel inclusion `incl`.
    """
    ws = _workspace(A)
    data = cover_data(A, M)
    Nrep = ws.rep(N)
    if data.kernel_rep.total_dim() == 0:
        return 0
    hom_k = oracle._rep_hom_dim(ws, data.kernel_rep, Nrep)
    if hom_k == 0:
        return 0
    basis = hom_space(A, data.cover_module, N)
    restricted = [oracle._flatten_maps([linalg.mat_mul(h[v], data.incl[v]) for v in range(A.n)]) for h in basis]
    return hom_k - linalg.rank(restricted)


def test_ext1_equals_the_restriction_road():
    """Three Hom dimensions against Hom(K, N) modulo restricted Hom(P0, N)."""
    for A in iter_algebras(4, 4):
        for m, nmod in itertools.product(A.indecomposables(), repeat=2):
            assert ext1_space_dim(A, m, nmod) == ext1_by_restriction(A, m, nmod), (A, m, nmod)


def dense_hom_system(ws, X, Y):
    """The intertwiner system with one dense row of length `total` per
    nonzero equation: the reference for the sparse `oracle._hom_system`."""
    offsets = [0] * ws.n
    total = 0
    for v in range(ws.n):
        offsets[v] = total
        total += Y.dims[v] * X.dims[v]
    rows = []
    for src, tgt in ws.arrows:
        Xa, Ya = X.maps[src], Y.maps[src]
        dXs, dXt = X.dims[src - 1], X.dims[tgt - 1]
        dYs, dYt = Y.dims[src - 1], Y.dims[tgt - 1]
        for i in range(dYt):
            for j in range(dXs):
                row = [0] * total
                for k in range(dXt):
                    if Xa[k][j]:
                        row[offsets[tgt - 1] + i * dXt + k] += Xa[k][j]
                for k in range(dYs):
                    if Ya[i][k]:
                        row[offsets[src - 1] + k * dXs + j] -= Ya[i][k]
                if any(row):
                    rows.append(row)
    return rows, total, offsets


def densified(ws, X, Y):
    """`oracle._hom_system` with its rows written out densely."""
    rows, total, offsets = oracle._hom_system(ws, X, Y)
    assert all(all(row.values()) for row in rows), "a row holds a zero entry"
    return [[row.get(c, 0) for c in range(total)] for row in rows], total, offsets


@st.composite
def representations(draw):
    """Any two representations of cyclic (3, 3, 2) or of the loop cyclic (3,),
    where the two sides of an equation share columns, relations or not,
    with entries -2..2: several nonzeros per row and column of a matrix."""
    ws = _workspace(Algebra("cyclic", draw(st.sampled_from([(3, 3, 2), (3,)]))))

    def one():
        dims = draw(st.lists(st.integers(0, 2), min_size=ws.n, max_size=ws.n))
        maps = {src: [[draw(st.integers(-2, 2)) for _ in range(dims[src - 1])] for _ in range(dims[tgt - 1])]
                for src, tgt in ws.arrows}
        return oracle.Representation(dims, maps)

    return ws, one(), one()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(representations())
def test_sparse_hom_system_is_the_dense_one_on_any_representations(case):
    ws, X, Y = case
    assert densified(ws, X, Y) == dense_hom_system(ws, X, Y)


def test_sparse_hom_system_matches_the_dense_reference():
    """Hom dimensions from sparse rows against dense rows, on every ordered
    pair of modules and of each cover's kernel against every module."""
    for A in iter_algebras(4, 4):
        ws = _workspace(A)
        mods = list(A.indecomposables())
        reps = [ws.rep(m) for m in mods]
        kernels = [cover_data(A, m).kernel_rep for m in mods]
        for X, Y in itertools.product(reps + kernels, reps):
            rows, total, offsets = dense_hom_system(ws, X, Y)
            assert densified(ws, X, Y) == (rows, total, offsets), (A, X.dims, Y.dims)
            assert oracle._rep_hom_dim(ws, X, Y) == total - fraction_rank(rows), (A, X.dims, Y.dims)
        for m, nmod in itertools.product(mods, repeat=2):
            assert len(hom_space(A, m, nmod)) == hom_space_dim(A, m, nmod), (A, m, nmod)


@pytest.mark.parametrize("ext1_first", [True, False], ids=["ext1-first", "hom-first"])
@pytest.mark.parametrize("A", [Algebra("cyclic", (3, 3, 2)), Algebra("linear", (1, 2, 3, 2))], ids=str)
def test_hom_is_solved_only_on_module_representations(A, ext1_first, monkeypatch):
    """Ext^1 reads Hom(Omega M, N) from `hom_dims`: every Hom system solved
    is one of the workspace's module representations, once per key, and
    each cover's kernel is identified once."""
    _workspace.cache_clear()
    ws = _workspace(A)
    solved, identified = [], []
    rep_hom_dim, identify = oracle._rep_hom_dim, oracle.identify_module

    def spy_solve(ws_, X, Y):
        solved.append(X)
        return rep_hom_dim(ws_, X, Y)

    def spy_identify(A_, rep):
        identified.append(rep)
        return identify(A_, rep)

    monkeypatch.setattr(oracle, "_rep_hom_dim", spy_solve)
    monkeypatch.setattr(oracle, "identify_module", spy_identify)
    pairs = list(itertools.product(A.indecomposables(), repeat=2))
    for road in (ext1_space_dim, hom_space_dim) if ext1_first else (hom_space_dim, ext1_space_dim):
        for x, y in pairs:
            road(A, x, y)
    module_reps = {id(rep) for rep in ws.reps.values()}
    assert all(id(X) in module_reps for X in solved)
    assert len(solved) == len(ws.hom_dims)
    kernels = {id(data.kernel_rep) for data in ws.covers.values()}
    identified_ids = Counter(map(id, identified))
    assert set(identified_ids) <= kernels and max(identified_ids.values()) == 1


def test_cover_work_does_not_grow_with_the_number_of_vertices(monkeypatch):
    """Kernels and tops work only where a representation is nonzero: the
    syzygy and tau of S(1) make as many linear-algebra calls on 50 vertices
    as on 20."""
    _workspace.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(linalg, "nullspace", counted("nullspace", linalg.nullspace))
    monkeypatch.setattr(linalg, "extend_basis_indices", counted("extend_basis_indices", linalg.extend_basis_indices))
    monkeypatch.setattr(oracle, "mat_mul", counted("mat_mul", oracle.mat_mul))
    counts = []
    for n in (20, 50):
        A = make_rsz_nakayama(n, "cyclic")
        calls.clear()
        assert syzygy_oracle(A, M(1, 1)) == M(n, 1)
        assert tau_via_dtr(A, M(1, 1)) == M(n, 1)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"nullspace", "extend_basis_indices", "mat_mul"}


class TestWorkspaceScope:
    @staticmethod
    def roads(A):
        pairs = itertools.product(A.indecomposables(), repeat=2)
        return [(hom_space_dim(A, x, y), ext1_space_dim(A, x, y)) for x, y in pairs]

    @staticmethod
    def wreck(A):
        for m in A.indecomposables():
            rep = to_representation(A, m)
            rep.dims[:] = [0] * len(rep.dims)
            rep.maps.clear()

    def test_returned_representations_are_not_the_cached_ones(self):
        A = Algebra("cyclic", (3, 3, 2))
        _workspace.cache_clear()
        self.wreck(A)
        expected = [(hom_dim(A, x, y), ext1_dim(A, x, y)) for x, y in itertools.product(A.indecomposables(), repeat=2)]
        assert self.roads(A) == expected
        self.wreck(A)
        assert self.roads(A) == expected

    @pytest.mark.parametrize("A", [Algebra("cyclic", (3, 3, 2)), Algebra("linear", (1, 2, 3, 2))], ids=str)
    def test_ext1_before_any_hom_dim(self, A):
        # Ext^1 fills `hom_dims` with Hom(P0, N) and Hom(M, N) first; the
        # Hom dimensions read afterwards from the same cache must not care.
        _workspace.cache_clear()
        pairs = list(itertools.product(A.indecomposables(), repeat=2))
        ext1s = [ext1_space_dim(A, x, y) for x, y in pairs]
        homs = [hom_space_dim(A, x, y) for x, y in pairs]
        assert ext1s == [ext1_dim(A, x, y) for x, y in pairs]
        assert homs == [hom_dim(A, x, y) for x, y in pairs]

    def test_equal_algebras_built_separately_agree(self):
        A, B = Algebra("linear", (1, 2, 3, 2)), Algebra("linear", (1, 2, 3, 2))
        assert A is not B
        assert self.roads(A) == self.roads(B)
        assert [syzygy_oracle(A, m) for m in A.indecomposables()] == [syzygy_oracle(B, m) for m in B.indecomposables()]

    def test_live_workspaces_are_bounded(self):
        [record] = oracle_sweep_assertions(3, 3)
        assert record["passed"]
        assert record["detail"].startswith("algebras=22 ")
        assert _workspace.cache_info().maxsize == WORKSPACES
        assert _workspace.cache_info().currsize <= WORKSPACES < 22


class TestEndomorphismAlgebras:
    def test_total_dimension_is_hom_sum(self, gamma_lin3):
        mods = list(gamma_lin3.indecomposables())
        table = end_algebra(gamma_lin3, mods)
        expected = sum(hom_dim(gamma_lin3, a, b) for a in mods for b in mods)
        assert table.total_dim == expected

    def test_end_of_all_indecomposables_is_the_ar_quiver(self, small_universe):
        # Irreducible maps between uniserials are rad N -> N and N -> N/soc N
        # for each N of length >= 2.  Here quiver_of composes through zero
        # fibres, which the Auslander algebra tests never do.
        for A in small_universe:
            mods = list(A.indecomposables())
            index = {m: k for k, m in enumerate(mods, 1)}
            data = quiver_of(end_algebra(A, mods))
            assert data.total_dim == sum(hom_dim(A, x, y) for x in mods for y in mods), A
            expected = Counter()
            for m in mods:
                if m.length >= 2:
                    expected[(index[m], index[M(A.down(m.top), m.length - 1)])] += 1
                    expected[(index[M(m.top, m.length - 1)], index[m])] += 1
            assert data.arrow_counts == dict(expected), A

    def test_dual_numbers_mod_category_dimension(self, dual_numbers_gamma):
        # End of the sum of all K[x]/(x^2) modules transported to the cover:
        # the modules of the cyclic series (3,2) mapping to k and k[x]/(x^2).
        table = end_algebra(
            dual_numbers_gamma, [M(1, 1), M(1, 3)]
        )
        assert table.total_dim == 5

    def test_rejects_duplicate_summands(self, gamma_lin3):
        with pytest.raises(OracleError):
            end_algebra(gamma_lin3, [M(1, 1), M(1, 1)])


class TestQuiverExtraction:
    @pytest.mark.parametrize("kind", ["linear", "cyclic"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_auslander_quiver_matches_series(self, kind, n):
        from nakayama.auslander import auslander_algebra

        lam = make_rsz_nakayama(n, kind)
        res = auslander_algebra(lam)
        gamma = res.gamma
        mods = [res.dictionary[v] for v in gamma.vertices]
        data = quiver_of(end_algebra(lam, mods))

        assert data.num_vertices == gamma.n
        assert data.total_dim == gamma.dimension()
        expected_arrows = {
            (v, gamma.down(v)): 1
            for v in gamma.vertices
            if gamma.c[v - 1] >= 2
        }
        assert data.arrow_counts == expected_arrows
        for a in gamma.vertices:
            for b in gamma.vertices:
                assert data.block_dims[(a, b)] == gamma.path_count(b, a)
