import json
from itertools import combinations

import pytest

from nakayama.algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    ModuleSet,
    algebra_from_json,
    algebra_to_json,
    iter_algebras,
    iter_kupisch_series,
    make_rsz_nakayama,
    module_literal,
    parse_module,
    quotient_algebra,
    validate_kupisch,
)

M = IndecModule


class TestKupischValidation:
    def test_rsz_series(self):
        assert make_rsz_nakayama(3, "linear").c == (1, 2, 2)
        assert make_rsz_nakayama(3, "cyclic").c == (2, 2, 2)
        assert make_rsz_nakayama(1, "linear").c == (1,)
        assert make_rsz_nakayama(1, "cyclic").c == (2,)

    def test_rsz_rejects_nonpositive(self):
        with pytest.raises(AlgebraError):
            make_rsz_nakayama(0, "linear")

    def test_valid_series(self):
        validate_kupisch("linear", (1, 2, 2, 3, 2))
        validate_kupisch("cyclic", (3, 2, 3, 2, 3, 2))
        validate_kupisch("cyclic", (5,))  # K[x]/(x^5)
        validate_kupisch("linear", (1, 1, 1))  # semisimple

    def test_linear_must_start_at_one(self):
        with pytest.raises(AlgebraError, match=r"c\[1\]"):
            validate_kupisch("linear", (2, 2))

    def test_kupisch_condition_reports_index(self):
        with pytest.raises(AlgebraError, match="i=2"):
            validate_kupisch("linear", (1, 3, 2))

    def test_cyclic_needs_at_least_two(self):
        with pytest.raises(AlgebraError, match=r"c\[2\]"):
            validate_kupisch("cyclic", (2, 1))

    def test_cyclic_wraparound_condition(self):
        with pytest.raises(AlgebraError, match="i=1"):
            validate_kupisch("cyclic", (4, 2, 2))
        validate_kupisch("cyclic", (3, 2, 2))

    def test_empty_series(self):
        with pytest.raises(AlgebraError):
            validate_kupisch("linear", ())

    def test_unknown_kind(self):
        with pytest.raises(AlgebraError):
            validate_kupisch("mixed", (1, 2))

    @pytest.mark.parametrize(
        "kind, c, message",
        [
            ("cyclic", (2.5, 2), r"c\[1\] = 2\.5"),
            ("linear", (True, True), r"c\[1\] = True"),
            ("cyclic", ("2", "2"), r"c\[1\] = '2'"),
            ("linear", (1, 2.0), r"c\[2\] = 2\.0"),
        ],
    )
    def test_entries_must_be_integers(self, kind, c, message):
        with pytest.raises(AlgebraError, match=f"^{message} is not an integer$"):
            Algebra(kind, c)


class TestModules:
    def test_projective_and_simple(self, gamma_lin3):
        assert gamma_lin3.projective(4) == M(4, 3)
        assert gamma_lin3.simple(4) == M(4, 1)
        assert gamma_lin3.is_projective(M(4, 3))
        assert not gamma_lin3.is_projective(M(4, 2))

    def test_module_validation(self, gamma_lin3):
        with pytest.raises(AlgebraError):
            gamma_lin3.module(4, 4)
        with pytest.raises(AlgebraError):
            gamma_lin3.module(6, 1)
        with pytest.raises(AlgebraError):
            gamma_lin3.module(3, 0)

    def test_layers_linear(self, gamma_lin3):
        assert gamma_lin3.layers(M(4, 3)) == (4, 3, 2)
        assert gamma_lin3.socle_vertex(M(4, 3)) == 2

    def test_layers_cyclic_wrap(self, dual_numbers_gamma):
        assert dual_numbers_gamma.layers(M(1, 3)) == (1, 2, 1)
        assert dual_numbers_gamma.socle_vertex(M(1, 3)) == 1

    def test_indecomposables_count(self, gamma_lin3, gamma_cyc3):
        # One indecomposable per vertex and length: sum of the series.
        assert len(gamma_lin3.indecomposables()) == 10
        assert len(gamma_cyc3.indecomposables()) == 15
        assert len(Algebra("linear", (1,)).indecomposables()) == 1

    def test_indecomposables_canonical_order(self, gamma_lin3):
        mods = list(gamma_lin3.indecomposables())
        assert mods == sorted(mods)
        assert mods[0] == M(1, 1)
        assert mods[-1] == M(5, 2)

    def test_indecomposables_equal_the_sorted_module_set(self):
        for A in iter_algebras(4, 4):
            mods = [M(top, length) for top in A.vertices for length in range(1, A.kupisch(top) + 1)]
            assert A.indecomposables() == ModuleSet.of(mods), A

    def test_submodule_quotient(self, gamma_lin3):
        assert gamma_lin3.submodule(M(4, 3), 2) == M(3, 2)
        assert gamma_lin3.submodule(M(4, 3), 3) == M(4, 3)
        assert gamma_lin3.submodule(M(4, 3), 0) is None
        assert gamma_lin3.quotient_top(M(4, 3), 1) == M(4, 1)
        with pytest.raises(AlgebraError):
            gamma_lin3.submodule(M(4, 3), 4)

    def test_submodule_cyclic(self, dual_numbers_gamma):
        assert dual_numbers_gamma.submodule(M(1, 3), 1) == M(1, 1)
        assert dual_numbers_gamma.submodule(M(1, 3), 2) == M(2, 2)

    def test_radical(self, gamma_lin3):
        assert gamma_lin3.radical(M(4, 3)) == M(3, 2)
        assert gamma_lin3.radical(M(1, 1)) is None

    def test_injective_envelopes(self, gamma_lin3, dual_numbers_gamma):
        assert gamma_lin3.injective_env_vertex(2) == M(4, 3)
        assert gamma_lin3.injective_env_vertex(4) == M(5, 2)
        assert dual_numbers_gamma.injective_env_vertex(1) == M(1, 3)

    def test_is_injective(self, gamma_lin3):
        assert gamma_lin3.is_injective(M(4, 3))
        assert not gamma_lin3.is_injective(M(3, 2))

    def test_projective_injective_vertices(self, gamma_lin3, gamma_cyc3):
        assert gamma_lin3.projective_injective_vertices() == frozenset({2, 4, 5})
        assert gamma_cyc3.projective_injective_vertices() == frozenset({1, 3, 5})

    def test_flags(self):
        assert make_rsz_nakayama(4, "cyclic").is_radical_square_zero()
        assert not Algebra("cyclic", (3, 2)).is_radical_square_zero()
        assert make_rsz_nakayama(3, "cyclic").is_selfinjective()
        assert Algebra("linear", (1, 1)).is_selfinjective()
        assert not make_rsz_nakayama(3, "linear").is_selfinjective()

    def test_path_count(self, gamma_lin3):
        # dim e_src G e_tgt: paths going down from src.
        assert gamma_lin3.path_count(4, 2) == 1
        assert gamma_lin3.path_count(4, 4) == 1
        assert gamma_lin3.path_count(2, 4) == 0
        assert gamma_lin3.dimension() == 10


class TestLayerInvariants:
    def test_layer_arithmetic_everywhere(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                layers = A.layers(m)
                assert len(layers) == m.length
                assert layers[0] == m.top
                assert layers[-1] == A.socle_vertex(m)
                for k in range(1, m.length):
                    assert layers[k] == A.down(layers[k - 1])

    def test_submodule_chain(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                for k in range(1, m.length + 1):
                    sub = A.submodule(m, k)
                    assert sub.length == k
                    assert A.socle_vertex(sub) == A.socle_vertex(m)

    def test_envelope_is_maximal(self, small_universe):
        # No valid uniserial module with the same socle is longer.
        for A in small_universe:
            for j in A.vertices:
                env = A.injective_env_vertex(j)
                assert A.socle_vertex(env) == j
                for m in A.indecomposables():
                    if A.socle_vertex(m) == j:
                        assert m.length <= env.length


class TestModuleSet:
    def test_canonical_order_and_dedup(self):
        ms = ModuleSet.of([M(3, 1), M(1, 2), M(3, 1), M(1, 1)])
        assert ms.modules == (M(1, 1), M(1, 2), M(3, 1))

    def test_set_operations(self):
        ms = ModuleSet.of([M(1, 1), M(2, 2)])
        assert M(1, 1) in ms
        assert ms.plus(M(3, 1)).modules == (M(1, 1), M(2, 2), M(3, 1))
        assert ms.minus(M(1, 1)).modules == (M(2, 2),)

    def test_str(self):
        assert str(ModuleSet.of([M(2, 1), M(1, 1)])) == "M(1,1) M(2,1)"
        assert str(ModuleSet.of([])) == "0"


class TestQuotientAlgebra:
    def test_kill_projinj_linear(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, {2, 4, 5})
        assert [c.c for c in q.components] == [(1,), (1,)]
        assert q.embeds == ((1,), (3,))

    def test_kill_projinj_cyclic(self, gamma_cyc3):
        q = quotient_algebra(gamma_cyc3, {1, 3, 5})
        assert [c.c for c in q.components] == [(1,), (1,), (1,)]
        assert q.embeds == ((2,), (4,), (6,))

    def test_kill_nothing_linear(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, set())
        assert len(q.components) == 1
        assert q.components[0] == gamma_lin3
        assert q.embeds == ((1, 2, 3, 4, 5),)

    def test_kill_nothing_cyclic_stays_cyclic(self, gamma_cyc3):
        q = quotient_algebra(gamma_cyc3, set())
        assert q.components == (gamma_cyc3,)

    def test_kill_everything(self, gamma_lin3):
        q = quotient_algebra(gamma_lin3, set(gamma_lin3.vertices))
        assert q.components == ()

    def test_wrapping_run(self):
        A = make_rsz_nakayama(6, "cyclic")
        q = quotient_algebra(A, {3})
        assert len(q.components) == 1
        assert q.embeds == ((4, 5, 6, 1, 2),)
        assert q.components[0].c == (1, 2, 2, 2, 2)

    def test_truncated_lengths(self):
        A = Algebra("cyclic", (3, 3, 3))
        q = quotient_algebra(A, {2})
        # Surviving run bottom 3, top 1: lengths capped by the position.
        assert q.embeds == ((3, 1),)
        assert q.components[0].c == (1, 2)

    def test_embeds_place_exactly_the_modules_without_killed_layers(self, small_universe):
        # A module of A survives A/(killed) iff none of its layers is killed.
        # Then its top lies in exactly one run, at a local position t >= its
        # length, the run carries its layers, and M(t, length) is a module of
        # that component; a module with a killed layer has no such place.
        for A in small_universe:
            for r in range(A.n + 1):
                for killed in combinations(A.vertices, r):
                    q = quotient_algebra(A, killed)
                    if not killed and A.kind == "cyclic":
                        # Nothing killed in a cyclic algebra: the algebra itself.
                        assert q.components == (A,) and q.embeds == (tuple(A.vertices),)
                        continue
                    for m in A.indecomposables():
                        runs = [(comp, emb) for comp, emb in zip(q.components, q.embeds) if m.top in emb]
                        places = []
                        for comp, emb in runs:
                            t = emb.index(m.top) + 1
                            if t >= m.length and comp.valid_module(M(t, m.length)):
                                places.append(emb[t - m.length : t][::-1])  # layers, top first
                        if set(A.layers(m)) & set(killed):
                            assert places == []
                        else:
                            assert len(runs) == 1 and places == [A.layers(m)]

    def test_invalid_vertex(self, gamma_lin3):
        with pytest.raises(AlgebraError):
            quotient_algebra(gamma_lin3, {9})


class TestLiteralsAndJson:
    def test_parse_module(self, gamma_lin3):
        assert parse_module(gamma_lin3, "M(4,3)") == M(4, 3)
        assert parse_module(gamma_lin3, "P(4)") == M(4, 3)
        assert parse_module(gamma_lin3, "S(2)") == M(2, 1)
        assert parse_module(gamma_lin3, " M( 4 , 3 ) ") == M(4, 3)

    def test_parse_errors(self, gamma_lin3):
        for bad in ("M(4)", "P(4,3)", "X(1,1)", "M(6,1)", "M(4,9)", "M4,3"):
            with pytest.raises(AlgebraError):
                parse_module(gamma_lin3, bad)

    def test_module_literal(self):
        assert module_literal(M(4, 3)) == "M(4,3)"
        assert module_literal(None) == "0"

    def test_json_round_trip(self, gamma_cyc3):
        blob = json.dumps(algebra_to_json(gamma_cyc3))
        assert algebra_from_json(json.loads(blob)) == gamma_cyc3

    def test_json_rejects_malformed(self):
        with pytest.raises(AlgebraError):
            algebra_from_json(["not", "an", "object"])
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear"})
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear", "kupisch": [1, "2"]})
        with pytest.raises(AlgebraError):
            algebra_from_json({"kind": "linear", "kupisch": [1, True]})


class TestUniverseGenerators:
    def test_small_counts(self):
        assert list(iter_kupisch_series("linear", 1, 4)) == [(1,)]
        assert list(iter_kupisch_series("cyclic", 1, 4)) == [(2,), (3,), (4,)]
        assert list(iter_kupisch_series("linear", 2, 4)) == [(1, 1), (1, 2)]

    def test_all_generated_series_are_valid(self, small_universe):
        # Construction validates; duplicates would be a generator bug.
        seen = set()
        for A in small_universe:
            key = (A.kind, A.c)
            assert key not in seen
            seen.add(key)

    def test_generator_is_exhaustive(self):
        # Brute force all tuples and keep the valid ones.
        from itertools import product as iproduct

        for kind in ("linear", "cyclic"):
            for n in range(1, 5):
                brute = set()
                for c in iproduct(range(1, 4), repeat=n):
                    try:
                        validate_kupisch(kind, c)
                    except AlgebraError:
                        continue
                    brute.add(c)
                generated = set(iter_kupisch_series(kind, n, 3))
                assert generated == brute


class TestPublicSurface:
    def test_every_export_resolves_once(self):
        import nakayama

        assert len(nakayama.__all__) == len(set(nakayama.__all__))
        assert [name for name in nakayama.__all__ if not hasattr(nakayama, name)] == []
