import gc
from itertools import chain, combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from nakayama import tau_tilting
from nakayama.algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    ModuleSet,
    iter_algebras,
    make_rsz_nakayama,
    quotient_algebra,
)
from nakayama.tables import cliques
from nakayama.tau_tilting import (
    SupportPair,
    _sttilt_indices,
    _support_parts,
    enumerate_sttilt,
    enumerate_sttilt_over,
    enumerate_tau_rigid_sets,
    enumerate_tau_tilting,
    is_sttilt_pair,
    is_tau_rigid,
)
from nakayama.tilting import enumerate_tilting
from test_tables import kupisch_algebras

M = IndecModule


class TestTauRigidity:
    def test_projectives_are_tau_rigid(self, gamma_lin3):
        projs = ModuleSet.of(gamma_lin3.projective(v) for v in gamma_lin3.vertices)
        assert is_tau_rigid(gamma_lin3, projs)

    def test_tau_rigid_violation(self, dual_numbers_gamma):
        # tau(M(1,1)) = M(2,1) and Hom(M(2,1), M(2,1)) != 0.
        assert not is_tau_rigid(dual_numbers_gamma, ModuleSet.of([M(1, 1), M(2, 1)]))
        assert is_tau_rigid(dual_numbers_gamma, ModuleSet.of([M(1, 1)]))
        assert is_tau_rigid(dual_numbers_gamma, ModuleSet.of([M(2, 1)]))

    def test_tau_rigid_sets_include_tilting(self, gamma_lin3):
        sets = {ms.modules for ms in enumerate_tau_rigid_sets(gamma_lin3)}
        for T in enumerate_tilting(gamma_lin3):
            assert T.modules in sets


class TestTauTiltingModules:
    def test_semisimple_point(self):
        A = Algebra("linear", (1,))
        assert [set(ms) for ms in enumerate_tau_tilting(A)] == [{M(1, 1)}]

    def test_tilting_implies_tau_tilting(self, gamma_lin3, gamma_cyc3):
        for A in (gamma_lin3, gamma_cyc3):
            tau_tilts = [set(ms) for ms in enumerate_tau_tilting(A)]
            for T in enumerate_tilting(A):
                assert set(T) in tau_tilts

    def test_dual_numbers_gamma(self, dual_numbers_gamma):
        got = [set(ms) for ms in enumerate_tau_tilting(dual_numbers_gamma)]
        assert len(got) == 3
        for expected in (
            {M(1, 1), M(1, 3)},
            {M(1, 3), M(2, 2)},
            {M(2, 1), M(2, 2)},
        ):
            assert expected in got

    def test_sincerity(self, small_universe):
        # Every enumerated tau-tilting module touches every vertex.
        for A in small_universe:
            for ms in enumerate_tau_tilting(A):
                support = set()
                for m in ms:
                    support.update(A.layers(m))
                assert support == set(A.vertices)

    def test_every_tau_rigid_clique_of_n_summands_is_sincere(self):
        # Why `enumerate_tau_tilting` needs no sincerity filter, checked on
        # every clique of n summands in `tau_perp`, exhaustively up to n = 6.
        algebras = cliques_seen = 0
        for A in iter_algebras(6, 5):
            tab = A.tables
            mods = tab.module_set(tab.tau_candidates)
            for at in cliques(tab.tau_perp, (1 << len(tab.tau_perp)) - 1, A.n):
                assert set(chain.from_iterable(A.layers(mods.modules[a]) for a in at)) == set(A.vertices), (A, at)
                cliques_seen += 1
            algebras += 1
        assert (algebras, cliques_seen) == (1293, 91373)


class TestSupportPairs:
    def test_semisimple_counts(self):
        for n in range(1, 11):
            A = Algebra("linear", (1,) * n)
            pairs = enumerate_sttilt(A)
            assert len(pairs) == 2 ** n
            zero = [p for p in pairs if len(p.modules) == 0]
            assert len(zero) == 1
            assert zero[0].killed == frozenset(A.vertices)

    def test_dual_numbers_gamma_pairs(self, dual_numbers_gamma):
        pairs = enumerate_sttilt(dual_numbers_gamma)
        got = [(set(p.modules), set(p.killed)) for p in pairs]
        assert len(got) == 6
        for expected in [
            (set(), {1, 2}),
            ({M(1, 1)}, {2}),
            ({M(1, 1), M(1, 3)}, set()),
            ({M(1, 3), M(2, 2)}, set()),
            ({M(2, 1)}, {1}),
            ({M(2, 1), M(2, 2)}, set()),
        ]:
            assert expected in got

    def test_quotient_enumeration_example(self, gamma_lin3):
        pairs = enumerate_sttilt_over(gamma_lin3, {2, 4, 5})
        got = [(set(p.modules), set(p.killed)) for p in pairs]
        assert len(got) == 4
        for expected in [
            (set(), {1, 3}),
            ({M(1, 1)}, {3}),
            ({M(1, 1), M(3, 1)}, set()),
            ({M(3, 1)}, {1}),
        ]:
            assert expected in got

    def test_relative_kill_sets_avoid_base(self, gamma_cyc3):
        base = frozenset({1, 3, 5})
        for p in enumerate_sttilt_over(gamma_cyc3, base):
            assert p.killed.isdisjoint(base)
            for m in p.modules:
                assert not set(gamma_cyc3.layers(m)) & (base | p.killed)

    @pytest.mark.parametrize("v", [1.5, True])
    def test_non_integer_base_vertex_raises(self, v):
        with pytest.raises(AlgebraError, match="is not an integer"):
            enumerate_sttilt_over(make_rsz_nakayama(3, "linear"), {v})

    def test_module_parts_are_distinct(self, small_universe):
        # The module part determines the pair (the kill-set clash would raise).
        for A in small_universe:
            pairs = enumerate_sttilt(A)
            parts = [p.modules for p in pairs]
            assert len(set(parts)) == len(parts)


    def test_support_criterion_matches_the_kill_set_road(self):
        # A third road to the same lists, order and kill sets included: the
        # tau-rigid sets whose summands number their composition factors,
        # with a base kill set B given as a mask.  Each relative kill set is
        # rebuilt from its support mask: the vertices off B and off the support.
        algebras = [
            *iter_algebras(5, 4),
            *(make_rsz_nakayama(n, kind) for kind in ("linear", "cyclic") for n in range(1, 11)),
            *(Algebra("linear", (1,) * n) for n in range(1, 11)),
            Algebra("cyclic", (3, 3, 2, 2, 2, 3, 2, 3, 3, 2)),
        ]
        cases = 0
        for A in algebras:
            for base in (set(), {1}, {A.n}, set(A.vertices[::2])):
                bits = sum(1 << v - 1 for v in base)
                parts, supports = _support_parts(A, bits)
                kills = [frozenset(v for v in A.vertices if v not in base and not s >> v - 1 & 1) for s in supports]
                assert (parts, kills) == _sttilt_indices(A, base), (A, base)
                cases += 1
        assert cases == 1168


class TestPairFormEquivalence:
    def test_enumeration_matches_pair_side_definition(self, small_universe):
        # Brute force: every (tau-rigid set, kill set) combination passing
        # the pair-side test must be exactly the enumerated fan.
        for A in small_universe:
            if A.dimension() > 6:
                continue
            enumerated = {
                (p.modules.modules, p.killed) for p in enumerate_sttilt(A)
            }
            brute = set()
            rigid_sets = enumerate_tau_rigid_sets(A)
            for ms in rigid_sets:
                for r in range(A.n - len(ms) + 1):
                    for killed in combinations(A.vertices, r):
                        if is_sttilt_pair(A, ms, killed):
                            brute.add((ms.modules, frozenset(killed)))
            assert brute == enumerated

    def test_is_sttilt_pair_examples(self, dual_numbers_gamma):
        A = dual_numbers_gamma
        assert is_sttilt_pair(A, ModuleSet.of([M(1, 1)]), {2})
        assert not is_sttilt_pair(A, ModuleSet.of([M(1, 1)]), set())  # too small
        assert not is_sttilt_pair(A, ModuleSet.of([M(1, 3)]), {2})  # layer killed
        assert not is_sttilt_pair(A, ModuleSet.of([M(1, 1), M(2, 1)]), set())
        assert is_sttilt_pair(A, ModuleSet.of([]), {1, 2})

    @pytest.mark.parametrize("killed", [set(), {1}])
    def test_invalid_summand_raises_whatever_the_kill_set(self, killed):
        # M(2, 9) is no module of (3, 2); M(1, 1) has its layer at vertex 1.
        A = Algebra("cyclic", (3, 2))
        with pytest.raises(AlgebraError, match="length 9 invalid at vertex 2"):
            is_sttilt_pair(A, ModuleSet.of([M(1, 1), M(2, 9)]), killed)

    def test_sort_key_orders_pairs(self):
        a = SupportPair(ModuleSet.of([]), frozenset({1, 2}))
        b = SupportPair(ModuleSet.of([M(1, 1)]), frozenset({2}))
        assert sorted([b, a], key=SupportPair.sort_key)[0] is a


def pell_like(first: int, second: int, count: int) -> list[int]:
    """a(1), ..., a(count) with a(n) = 2 a(n-1) + a(n-2)."""
    out = [first, second]
    while len(out) < count:
        out.append(2 * out[-1] + out[-2])
    return out[:count]


class TestClosedFormCounts:
    def test_linear_rsz_pell(self):
        expected = pell_like(2, 5, 12)
        assert expected[-1] == 33461
        got = [len(enumerate_sttilt(make_rsz_nakayama(n, "linear"))) for n in range(1, 13)]
        assert got == expected

    def test_cyclic_rsz_pell_lucas(self):
        expected = pell_like(2, 6, 12)
        assert expected[-1] == 39202
        got = [len(enumerate_sttilt(make_rsz_nakayama(n, "cyclic"))) for n in range(1, 13)]
        assert got == expected

    def test_linear_path_algebra_catalan(self):
        # (1, 2, ..., n) is the path algebra of linearly oriented A_n: C_n tilting
        # modules, and C_{n+1} support tau-tilting pairs, one per cluster-tilting
        # object of type A_n (Adachi-Iyama-Reiten, Compos. Math. 150 (2014);
        # Buan-Marsh-Reineke-Reiten-Todorov, Adv. Math. 204 (2006)).
        catalan = [comb(2 * k, k) // (k + 1) for k in range(11)]
        assert catalan[10] == 16796
        for n in range(1, 10):
            A = Algebra("linear", tuple(range(1, n + 1)))
            assert len(enumerate_tilting(A)) == catalan[n]
            assert len(enumerate_sttilt(A)) == catalan[n + 1]

    def test_selfinjective_cyclic_central_binomial(self):
        # Adachi, J. Algebra 452 (2016): (c,)*n with c >= n has C(2n, n).
        for n in range(1, 6):
            for c in range(max(n, 2), n + 2):
                assert len(enumerate_sttilt(Algebra("cyclic", (c,) * n))) == comb(2 * n, n)


def _product_loop(A, base):
    """Support pairs of A/(base) over every kill set, in SupportPair.sort_key
    order, each component's tau-tilting modules placed in the parent."""
    ambient = [v for v in A.vertices if v not in base]
    series = {}
    pairs = []
    for r in range(len(ambient) + 1):
        for extra in combinations(ambient, r):
            q = quotient_algebra(A, base | set(extra))
            per_component = []
            for comp, emb in zip(q.components, q.embeds):
                if comp not in series:
                    series[comp] = enumerate_tau_tilting(comp)
                per_component.append([[M(emb[m.top - 1], m.length) for m in ms] for ms in series[comp]])
            for choice in product(*per_component):
                pairs.append((ModuleSet.of(chain.from_iterable(choice)), frozenset(extra)))
    return sorted(pairs, key=lambda p: (p[0].modules, sorted(p[1])))


@pytest.fixture
def tau_tilting_calls(monkeypatch):
    """The algebras enumerate_tau_tilting is called on, in call order."""
    seen = []
    inner = tau_tilting.enumerate_tau_tilting

    def counting(B):
        seen.append(B)
        return inner(B)

    monkeypatch.setattr(tau_tilting, "enumerate_tau_tilting", counting)
    return seen


class TestKillSetMemo:
    def test_each_component_series_enumerated_once(self, tau_tilting_calls):
        pairs = enumerate_sttilt(make_rsz_nakayama(8, "cyclic"))
        assert len(pairs) == pell_like(2, 6, 8)[-1]
        expected = [make_rsz_nakayama(8, "cyclic")]
        expected += [make_rsz_nakayama(n, "linear") for n in range(1, 8)]
        assert sorted(tau_tilting_calls, key=lambda B: (B.kind, B.n)) == expected

    def test_memo_is_per_call(self, tau_tilting_calls):
        A = make_rsz_nakayama(3, "linear")
        enumerate_sttilt(A)
        first = len(tau_tilting_calls)
        enumerate_sttilt(A)
        assert len(tau_tilting_calls) == 2 * first

    @pytest.mark.parametrize("n, kind, runs", [(8, "cyclic", 8 * 7), (8, "linear", 8 * 9 // 2)])
    def test_each_run_validated_once(self, monkeypatch, n, kind, runs):
        # quotient_algebra builds the component of a run once per parent
        # instance, and no other Algebra is made while enumerating.
        A = make_rsz_nakayama(n, kind)
        validated = []
        inner = Algebra.__post_init__

        def counting(self):
            validated.append(self)
            inner(self)

        monkeypatch.setattr(Algebra, "__post_init__", counting)
        enumerate_sttilt(A)
        assert len(validated) == len(A.quotient_components) == runs
        enumerate_sttilt(A)
        assert len(validated) == runs

    def test_matches_the_product_loop(self):
        # A separate copy of the loop that takes the product over the
        # components of every kill set and sorts each choice.
        for A in iter_algebras(5, 4):
            for base in [()] + [(v,) for v in A.vertices]:
                got = [(p.modules, p.killed) for p in enumerate_sttilt_over(A, base)]
                assert got == _product_loop(A, frozenset(base)), (A, base)

    # Cyclic series with kill sets that leave a wrapping run and two others:
    # killing 2, 4 and 6 of eight vertices leaves (7, 8, 1), (3) and (5), and
    # in parent order the summands at top 1 come first, those at 7 and 8 last.
    @example((Algebra("cyclic", (2,) * 8), ()))
    @example((Algebra("cyclic", (3, 3, 2, 3, 3, 2, 2, 3, 3)), (4,)))
    @example((Algebra("cyclic", (2, 3, 3, 3, 2, 3, 3, 2, 3)), (2, 5)))
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        kupisch_algebras(max_entry=3, max_n=9)
        .filter(lambda A: A.n >= 5)
        .flatmap(lambda A: st.tuples(st.just(A), st.lists(st.sampled_from(A.vertices), max_size=2, unique=True)))
    )
    def test_join_order_matches_the_product_loop(self, case):
        A, base = case
        pairs = enumerate_sttilt_over(A, base)
        assert [(p.modules, p.killed) for p in pairs] == _product_loop(A, frozenset(base))
        # Each quotient has its regular module, so every kill set occurs.
        ambient = [v for v in A.vertices if v not in base]
        assert {p.killed for p in pairs} == {frozenset(s) for r in range(len(ambient) + 1) for s in combinations(ambient, r)}

    @pytest.mark.parametrize(
        "A",
        [make_rsz_nakayama(6, "cyclic"), Algebra("cyclic", (3, 3, 2, 2, 2, 3, 2, 3, 3, 2))],
        ids=["rsz-cyclic-6", "cyclic-3322232332"],
    )
    def test_indices_are_untracked_int_tuples_beside_shared_kill_sets(self, A):
        parts, kills = _sttilt_indices(A)
        assert type(parts) is list and type(kills) is list and len(parts) == len(kills)
        assert all(type(p) is tuple and all(type(i) is int for i in p) for p in parts)
        assert all(a < b for a, b in zip(parts, parts[1:]))
        # One frozenset per kill set, shared by all of its pairs.
        assert all(type(k) is frozenset for k in kills)
        assert len(set(map(id, kills))) == len(set(kills)) == 2**A.n
        # A tuple of ints is left untracked by the first collection that sees it.
        gc.collect()
        assert not any(map(gc.is_tracked, parts))
        mods = A.tables.modules
        rebuilt = [SupportPair(ModuleSet([mods[i] for i in p]), k) for p, k in zip(parts, kills)]
        pairs = enumerate_sttilt_over(A)
        assert pairs == rebuilt
        assert all(type(p) is SupportPair and type(p.modules) is ModuleSet for p in pairs)

    def test_component_without_tau_tilting_module_raises(self, monkeypatch):
        monkeypatch.setattr(tau_tilting, "enumerate_tau_tilting", lambda B: [])
        with pytest.raises(RuntimeError, match="has no tau-tilting module"):
            enumerate_sttilt(make_rsz_nakayama(3, "cyclic"))

    def test_shared_module_part_raises(self, monkeypatch):
        # Every component claims M(1,1) alone; the empty kill set and the
        # kill set {2} of the cyclic algebra then both give M(1,1).
        fixed = [ModuleSet.of([M(1, 1)])]
        monkeypatch.setattr(tau_tilting, "enumerate_tau_tilting", lambda B: fixed)
        with pytest.raises(RuntimeError, match="share a module part"):
            enumerate_sttilt(make_rsz_nakayama(2, "cyclic"))
