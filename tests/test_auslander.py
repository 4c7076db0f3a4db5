import pytest

from nakayama.algebra import Algebra, AlgebraError, IndecModule, ModuleSet, make_rsz_nakayama
from nakayama.auslander import (
    auslander_algebra,
    thm25_map,
    verify_bijection,
    verify_counts,
)
from nakayama.homology import gorenstein_profile, hom_dim
from nakayama import auslander, tilting
from nakayama.tilting import TiltingError, enumerate_tilting, is_tilting

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
        calls = []

        def counting(*args):
            calls.append(args)
            return is_tilting(*args)

        for module in (auslander, tilting):
            monkeypatch.setattr(module, "is_tilting", counting)
        for kind in ("linear", "cyclic"):
            assert verify_bijection(auslander_algebra(make_rsz_nakayama(3, kind))).passed
        assert calls == []

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
