import pytest

from nakayama import algebra, auslander, tau_tilting
from nakayama.algebra import Algebra, AlgebraError, IndecModule, ModuleSet, make_rsz_nakayama
from nakayama.auslander import (
    auslander_algebra,
    auslander_family,
    thm25_map,
    verify_bijection,
    verify_counts,
)
from nakayama.homology import gorenstein_profile, hom_dim
from nakayama.tau_tilting import SupportPair, enumerate_sttilt_over
from nakayama import tilting
from nakayama.tilting import TiltingError, enumerate_tilting, mutation_at, proj_mutation_sequence

M = IndecModule


class TestConstruction:
    def test_linear_series(self):
        res = auslander_algebra(make_rsz_nakayama(3, "linear"))
        assert res.gamma == Algebra("linear", (1, 2, 2, 3, 2))
        assert res.projinj == frozenset({2, 4, 5})

    def test_linear_dictionary(self):
        lam = make_rsz_nakayama(3, "linear")
        res = auslander_algebra(lam)
        assert res.dictionary == {
            1: M(1, 1),
            2: M(2, 2),
            3: M(2, 1),
            4: M(3, 2),
            5: M(3, 1),
        }

    def test_cyclic_series(self):
        res = auslander_algebra(make_rsz_nakayama(3, "cyclic"))
        assert res.gamma == Algebra("cyclic", (3, 2, 3, 2, 3, 2))
        assert res.projinj == frozenset({1, 3, 5})

    def test_cyclic_dictionary(self):
        lam = make_rsz_nakayama(3, "cyclic")
        res = auslander_algebra(lam)
        assert res.dictionary == {
            1: M(1, 2),
            2: M(1, 1),
            3: M(2, 2),
            4: M(2, 1),
            5: M(3, 2),
            6: M(3, 1),
        }

    def test_point_algebra(self):
        res = auslander_algebra(Algebra("linear", (1,)))
        assert res.gamma == Algebra("linear", (1,))
        assert res.dictionary == {1: M(1, 1)}

    def test_dual_numbers(self):
        res = auslander_algebra(make_rsz_nakayama(1, "cyclic"))
        assert res.gamma == Algebra("cyclic", (3, 2))
        assert res.dictionary == {1: M(1, 2), 2: M(1, 1)}
        assert res.projinj == frozenset({1})

    def test_rejects_non_rsz(self):
        with pytest.raises(AlgebraError):
            auslander_algebra(Algebra("linear", (1, 2, 3)))
        with pytest.raises(AlgebraError):
            auslander_algebra(Algebra("cyclic", (3, 2)))

    def test_rejects_disconnected(self):
        with pytest.raises(AlgebraError):
            auslander_algebra(Algebra("linear", (1, 1, 2)))

    def test_dictionary_is_bijective_onto_indecomposables(self):
        for kind in ("linear", "cyclic"):
            for n in range(1, 6):
                lam = make_rsz_nakayama(n, kind)
                res = auslander_algebra(lam)
                values = list(res.dictionary.values())
                assert sorted(values) == sorted(lam.indecomposables())
                assert set(res.dictionary) == set(res.gamma.vertices)

    def test_projinj_matches_injective_images(self):
        # A vertex of gamma is projective-injective exactly when its
        # dictionary module is an injective over the base algebra.
        for kind in ("linear", "cyclic"):
            for n in range(1, 6):
                lam = make_rsz_nakayama(n, kind)
                res = auslander_algebra(lam)
                for v in res.gamma.vertices:
                    is_inj = lam.is_injective(res.dictionary[v])
                    assert (v in res.projinj) == is_inj

    def test_gamma_dimension_counts_homs(self):
        # dim(gamma) = total dim of Hom between all pairs of indecomposables.
        for kind in ("linear", "cyclic"):
            for n in range(1, 5):
                lam = make_rsz_nakayama(n, kind)
                res = auslander_algebra(lam)
                indecs = list(lam.indecomposables())
                expected = sum(
                    hom_dim(lam, a, b) for a in indecs for b in indecs
                )
                assert res.gamma.dimension() == expected

    def test_quotient_by_projinj_is_semisimple(self):
        from nakayama.algebra import quotient_algebra

        for kind, expected in (("linear", 2), ("cyclic", 3)):
            res = auslander_algebra(make_rsz_nakayama(3, kind))
            q = quotient_algebra(res.gamma, res.projinj)
            assert all(comp.c == (1,) for comp in q.components)
            assert len(q.components) == expected


class TestTheoremMap:
    def test_image_of_regular_linear(self, gamma_lin3):
        res = auslander_algebra(make_rsz_nakayama(3, "linear"))
        reg = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        pair = thm25_map(res, reg)
        assert set(pair.modules) == {M(1, 1), M(3, 1)}
        assert pair.killed == frozenset({2, 4, 5})

    def test_image_of_minimal_linear(self):
        res = auslander_algebra(make_rsz_nakayama(3, "linear"))
        tmin = ModuleSet.of([M(2, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)])
        pair = thm25_map(res, tmin)
        assert len(pair.modules) == 0
        assert pair.killed == frozenset({1, 2, 3, 4, 5})

    def test_rejects_non_tilting(self):
        res = auslander_algebra(make_rsz_nakayama(3, "linear"))
        with pytest.raises(AlgebraError):
            thm25_map(res, ModuleSet.of([M(1, 1)]))

    def test_one_entry_check_for_a_tilting_module(self):
        # thm25_map and both mutations check a tilting module from outside
        # alike; P = M(3,2) is a projective, non-injective summand, so
        # proj_mutation_sequence gets as far as checking T.
        res = auslander_algebra(make_rsz_nakayama(3, "linear"))
        T, P = ModuleSet.of([M(1, 1), M(3, 2)]), M(3, 2)
        calls = [
            lambda: mutation_at(res.gamma, T, P),
            lambda: proj_mutation_sequence(res.gamma, T, P),
            lambda: thm25_map(res, T),
        ]
        for call in calls:
            with pytest.raises(AlgebraError) as info:
                call()
            assert type(info.value) is AlgebraError
            assert str(info.value) == "not a tilting module: |T| = 2 != 5"

    def test_distinct_images(self):
        for kind in ("linear", "cyclic"):
            res = auslander_algebra(make_rsz_nakayama(3, kind))
            images = [thm25_map(res, T) for T in enumerate_tilting(res.gamma)]
            keys = {(p.modules.modules, p.killed) for p in images}
            assert len(keys) == len(images)


class TestBijection:
    @pytest.mark.parametrize("kind", ["linear", "cyclic"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_passes(self, kind, n):
        res = auslander_algebra(make_rsz_nakayama(n, kind))
        report = verify_bijection(res)
        assert report.passed
        assert report.injective and report.surjective
        assert report.tilting_count == report.sttilt_count
        assert report.missing == () and report.extra == ()

    def test_bijection_does_not_recheck_tilting(self, monkeypatch):
        # `_violation` is the one check behind every tilting test, the entry
        # check of thm25_map included; is_tilting is its public face.
        calls = []
        for name in ("_violation", "is_tilting"):

            def counting(*args, _original=getattr(tilting, name)):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(tilting, name, counting)
        for kind in ("linear", "cyclic"):
            assert verify_bijection(auslander_algebra(make_rsz_nakayama(3, kind))).passed
        assert calls == []

    @staticmethod
    def stubbed_targets(monkeypatch, edit):
        """Replace the targets of `verify_bijection` by `edit(parts, supports)`."""
        real = auslander._support_parts
        monkeypatch.setattr(auslander, "_support_parts", lambda A, base: edit(*real(A, base)))

    def test_dropped_target_is_the_one_extra_image(self, monkeypatch):
        # The tilting module that maps onto the dropped pair has no target.
        res = auslander_algebra(make_rsz_nakayama(3, "cyclic"))
        dropped = enumerate_sttilt_over(res.gamma, res.projinj)[2]
        self.stubbed_targets(monkeypatch, lambda parts, supports: (parts[:2] + parts[3:], supports[:2] + supports[3:]))
        report = verify_bijection(res)
        assert (report.injective, report.surjective, report.passed) == (True, False, False)
        assert (report.tilting_count, report.sttilt_count) == (8, 7)
        assert report.missing == () and report.extra == (dropped,)

    def test_foreign_and_dropped_targets_are_listed_in_sort_key_order(self, monkeypatch):
        # Two foreign targets, a simple at a surviving vertex with support 0,
        # are missing from the images; two dropped targets leave extra images.
        res = auslander_algebra(make_rsz_nakayama(3, "cyclic"))
        gamma = res.gamma
        pairs = enumerate_sttilt_over(gamma, res.projinj)
        surviving = frozenset(gamma.vertices) - res.projinj
        foreign = [SupportPair(ModuleSet([M(v, 1)]), surviving) for v in sorted(surviving, reverse=True)[:2]]

        def edit(parts, supports):
            keep = range(2, len(parts))
            return (
                [parts[k] for k in keep] + [(gamma.tables.at(*p.modules[0]),) for p in foreign],
                [supports[k] for k in keep] + [0, 0],
            )

        self.stubbed_targets(monkeypatch, edit)
        report = verify_bijection(res)
        assert (report.injective, report.surjective, report.passed) == (True, False, False)
        assert report.missing == tuple(sorted(foreign, key=SupportPair.sort_key)) == tuple(foreign[::-1])
        assert report.extra == tuple(sorted(pairs[:2], key=SupportPair.sort_key))

    def test_repeated_tilting_module_is_not_injective(self, monkeypatch):
        real = auslander._tilting_cliques
        monkeypatch.setattr(auslander, "_tilting_cliques", lambda A: tuple(x + x[:1] for x in real(A)))
        report = verify_bijection(auslander_algebra(make_rsz_nakayama(3, "linear")))
        assert (report.injective, report.surjective, report.passed) == (False, True, False)
        assert (report.tilting_count, report.sttilt_count) == (5, 4)
        assert report.missing == () and report.extra == ()

    def test_bijection_builds_no_quotient(self, monkeypatch):
        # The targets come from the support criterion with the
        # projective-injectives as base kill set, so no kill set is walked.
        calls = 0
        real = algebra.quotient_algebra

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        for mod in (algebra, tau_tilting, auslander):  # auslander imports none
            monkeypatch.setattr(mod, "quotient_algebra", counting, raising=False)
        assert all(verify_bijection(res).passed for res in auslander_family(6))
        assert calls == 0

    def test_bijection_counts_n3(self):
        lin = verify_bijection(auslander_algebra(make_rsz_nakayama(3, "linear")))
        assert lin.tilting_count == 4
        cyc = verify_bijection(auslander_algebra(make_rsz_nakayama(3, "cyclic")))
        assert cyc.tilting_count == 8

    def test_bijection_requires_auslander_setting(self):
        from nakayama.auslander import AuslanderResult

        # Hereditary (1,2,3) is 1-Gorenstein but not an Auslander algebra.
        bad = AuslanderResult(
            lam=make_rsz_nakayama(2, "linear"),
            gamma=Algebra("linear", (1, 2, 3)),
            dictionary={},
            projinj=frozenset(),
        )
        with pytest.raises(AlgebraError):
            verify_bijection(bad)


class TestCountReports:
    @pytest.mark.parametrize("kind,n,expected", [
        ("linear", 1, 1),
        ("linear", 2, 2),
        ("linear", 3, 4),
        ("linear", 4, 8),
        ("cyclic", 1, 2),
        ("cyclic", 2, 4),
        ("cyclic", 3, 8),
        ("cyclic", 4, 16),
    ])
    def test_counts(self, kind, n, expected):
        report = verify_counts(auslander_algebra(make_rsz_nakayama(n, kind)))
        assert report.passed
        assert (report.n, report.kind) == (n, kind)
        assert report.count == expected == report.expected
        assert report.shape_ok and report.minimal_ok

    def test_structural_failure_is_reported(self, monkeypatch):
        def fails(*args, **kwargs):
            raise TiltingError("Gen-minimum mismatch")

        monkeypatch.setattr("nakayama.auslander.minimal_tilting", fails)
        report = verify_counts(auslander_algebra(make_rsz_nakayama(2, "linear")))
        assert not report.minimal_ok and not report.passed

    def test_unexpected_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("missing table entry")

        monkeypatch.setattr("nakayama.auslander.minimal_tilting", broken)
        with pytest.raises(KeyError):
            verify_counts(auslander_algebra(make_rsz_nakayama(2, "linear")))


class TestProfiles:
    @pytest.mark.parametrize("kind", ["linear", "cyclic"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gamma_is_auslander_and_1_gorenstein(self, kind, n):
        gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
        prof = gorenstein_profile(gamma)
        assert prof.gldim <= 2
        assert prof.i0_projective and prof.i1_projective
        assert prof.is_auslander and prof.is_1_gorenstein
