import pytest

from nakayama import homology
from nakayama.algebra import Algebra, AlgebraError, IndecModule, make_rsz_nakayama
from nakayama.homology import (
    INFINITE,
    cosyzygy,
    ext1_dim,
    ext_dim,
    global_dimension,
    gorenstein_profile,
    hom_dim,
    inj_dim,
    proj_dim,
    regular_i0,
    regular_i1,
    regular_module,
    syzygy,
    tau,
    tau_inv,
)

M = IndecModule


class TestHomDim:
    def test_worked_example(self, gamma_lin3):
        assert hom_dim(gamma_lin3, M(4, 3), M(5, 2)) == 1
        assert hom_dim(gamma_lin3, M(5, 2), M(4, 3)) == 0

    def test_endomorphisms_of_uniserials_are_scalar_or_less(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                d = hom_dim(A, m, m)
                assert d >= 1
                if A.kind == "linear":
                    assert d == 1

    def test_projective_covers_detect_composition_factors(self, small_universe):
        # dim Hom(P(i), N) = multiplicity of i among the layers of N.
        for A in small_universe:
            for i in A.vertices:
                P = A.projective(i)
                for m in A.indecomposables():
                    assert hom_dim(A, P, m) == A.layers(m).count(i)


class TestSyzygyCosyzygy:
    def test_syzygy_examples(self, gamma_lin3):
        assert syzygy(gamma_lin3, M(3, 1)) == M(2, 1)
        assert syzygy(gamma_lin3, M(4, 3)) is None
        assert syzygy(gamma_lin3, M(4, 2)) == M(2, 1)

    def test_cosyzygy_examples(self, gamma_lin3):
        assert cosyzygy(gamma_lin3, M(1, 1)) == M(2, 1)
        assert cosyzygy(gamma_lin3, M(4, 3)) is None
        assert cosyzygy(gamma_lin3, M(3, 2)) == M(4, 1)

    def test_syzygy_dimension_count(self, small_universe):
        # 0 -> Omega M -> P(top) -> M -> 0 forces the dimension identity.
        for A in small_universe:
            for m in A.indecomposables():
                om = syzygy(A, m)
                omega_len = om.length if om is not None else 0
                assert omega_len == A.c[m.top - 1] - m.length

    def test_cosyzygy_dimension_count(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                env = A.injective_env_vertex(A.socle_vertex(m))
                cm = cosyzygy(A, m)
                cm_len = cm.length if cm is not None else 0
                assert cm_len == env.length - m.length


class TestProjInjDim:
    def test_pd_examples(self, gamma_lin3):
        assert proj_dim(gamma_lin3, M(4, 1)) == 1
        assert proj_dim(gamma_lin3, M(4, 3)) == 0
        assert proj_dim(gamma_lin3, M(3, 1)) == 2

    def test_infinite_pd_selfinjective(self):
        A = make_rsz_nakayama(3, "cyclic")
        assert proj_dim(A, A.simple(1)) == INFINITE
        assert inj_dim(A, A.simple(1)) == INFINITE

    def test_id_examples(self, gamma_lin3):
        assert inj_dim(gamma_lin3, M(4, 3)) == 0
        assert inj_dim(gamma_lin3, M(2, 1)) == 1
        # S(1) -> M(2,1) -> M(4,2): two cosyzygy steps reach an injective.
        assert inj_dim(gamma_lin3, M(1, 1)) == 2

    def test_semisimple_global_dimension(self):
        assert global_dimension(Algebra("linear", (1, 1, 1))) == 0

    def test_global_dimension_examples(self, gamma_lin3, gamma_cyc3):
        assert global_dimension(gamma_lin3) == 2
        assert global_dimension(gamma_cyc3) == 2
        assert global_dimension(make_rsz_nakayama(4, "cyclic")) == INFINITE
        assert global_dimension(make_rsz_nakayama(4, "linear")) == 3

    def test_global_dimension_is_the_largest_pd_of_a_simple(self, small_universe):
        for A in small_universe:
            assert global_dimension(A) == max(proj_dim(A, A.simple(i)) for i in A.vertices), A

    def test_global_dimension_walks_each_syzygy_orbit_once(self, monkeypatch):
        calls = 0
        kernel = homology._syzygy

        def counted(A, M):
            nonlocal calls
            calls += 1
            return kernel(A, M)

        monkeypatch.setattr(homology, "_syzygy", counted)
        n = 200
        assert global_dimension(make_rsz_nakayama(n, "cyclic")) == INFINITE
        assert calls <= 2 * n


class TestTau:
    def test_tau_examples(self, dual_numbers_gamma):
        # Over the cyclic series (3,2): tau of the non-projectives.
        A = dual_numbers_gamma
        assert tau(A, M(2, 2)) is None  # projective
        assert tau(A, M(1, 2)) == M(2, 2)
        assert tau(A, M(1, 1)) == M(2, 1)
        assert tau(A, M(2, 1)) == M(1, 1)

    def test_tau_inv_inverse_on_nonprojectives(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                t = tau(A, m)
                if t is None:
                    assert A.is_projective(m)
                else:
                    assert not A.is_projective(m)
                    assert tau_inv(A, t) == m

    def test_ar_translation_preserves_length(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                t = tau(A, m)
                if t is not None:
                    assert t.length == m.length


class TestExt:
    def test_ext_example(self, gamma_lin3):
        assert ext1_dim(gamma_lin3, M(4, 1), M(3, 2)) == 1
        assert ext1_dim(gamma_lin3, M(4, 1), M(2, 1)) == 0

    def test_ext_vanishes_on_projectives(self, small_universe):
        for A in small_universe:
            for i in A.vertices:
                P = A.projective(i)
                for m in A.indecomposables():
                    assert ext1_dim(A, P, m) == 0

    def test_ext_vanishes_into_injectives(self, small_universe):
        for A in small_universe:
            injectives = [m for m in A.indecomposables() if A.is_injective(m)]
            for m in A.indecomposables():
                for inj in injectives:
                    assert ext1_dim(A, m, inj) == 0

    @staticmethod
    def _stable_hom_dim(A, N, T):
        # Maps N -> T modulo those factoring through an injective.  A basis
        # map with image the length-k submodule of T factors through the
        # envelope E of N exactly when the extended image, of length
        # k + (len E - len N), still fits inside T.
        env = A.injective_env_vertex(A.socle_vertex(N))
        shift = env.length - N.length
        count = 0
        for k in range(1, min(N.length, T.length) + 1):
            if A.submodule(T, k).top == N.top and k + shift > T.length:
                count += 1
        return count

    def test_auslander_reiten_duality(self, small_universe):
        # dim ext1(M, N) equals the stable hom dimension of (N, tau M).
        for A in small_universe:
            mods = A.indecomposables()
            for m in mods:
                t = tau(A, m)
                for nmod in mods:
                    expected = 0 if t is None else self._stable_hom_dim(A, nmod, t)
                    assert ext1_dim(A, m, nmod) == expected
                    if ext1_dim(A, m, nmod) and t is not None:
                        assert hom_dim(A, nmod, t) > 0

    def test_higher_ext_degree_shift(self, small_universe):
        for A in small_universe:
            for m in A.indecomposables():
                om = syzygy(A, m)
                for nmod in A.indecomposables():
                    expected = 0 if om is None else ext1_dim(A, om, nmod)
                    assert ext_dim(A, m, nmod, 2) == expected

    def test_huge_degree_matches_the_congruent_small_degree(self, small_universe):
        huge = 10**18
        for A in small_universe:
            for m in A.indecomposables():
                # Walk the syzygy chain to zero or to its first repeat.
                chain = [m]
                while chain[-1] is not None and chain[-1] not in chain[:-1]:
                    chain.append(syzygy(A, chain[-1]))
                if chain[-1] is None:
                    small = len(chain)
                else:
                    start = chain.index(chain[-1])
                    small = 1 + start + (huge - 1 - start) % (len(chain) - 1 - start)
                om = m
                for _ in range(small - 1):
                    om = syzygy(A, om)
                for nmod in A.indecomposables():
                    expected = 0 if om is None else ext1_dim(A, om, nmod)
                    assert ext_dim(A, m, nmod, huge) == expected, (A, m, nmod)

    def test_ext2_vanishes_below_pd2(self, gamma_lin3):
        for m in gamma_lin3.indecomposables():
            if proj_dim(gamma_lin3, m) <= 1:
                for nmod in gamma_lin3.indecomposables():
                    assert ext_dim(gamma_lin3, m, nmod, 2) == 0

    def test_ext_degree_validation(self, gamma_lin3):
        with pytest.raises(ValueError):
            ext_dim(gamma_lin3, M(1, 1), M(1, 1), 0)

    @pytest.mark.parametrize("i", [True, 2.5, 2.0, "2", None], ids=["True", "2.5", "2.0", "str", "None"])
    def test_ext_degree_must_be_an_integer(self, gamma_lin3, i):
        with pytest.raises(AlgebraError, match=f"^degree {i!r} is not an integer$"):
            ext_dim(gamma_lin3, M(1, 1), M(1, 1), i)


class TestGorensteinProfiles:
    def test_regular_module(self, gamma_lin3):
        assert regular_module(gamma_lin3).modules == (
            M(1, 1),
            M(2, 2),
            M(3, 2),
            M(4, 3),
            M(5, 2),
        )

    def test_regular_envelopes(self, gamma_lin3):
        assert regular_i0(gamma_lin3).modules == (M(2, 2), M(4, 3), M(5, 2))
        assert regular_i1(gamma_lin3).modules == (M(4, 3), M(5, 2))

    def test_auslander_profile_linear(self, gamma_lin3):
        prof = gorenstein_profile(gamma_lin3)
        assert prof.gldim == 2
        assert prof.i0_projective and prof.i1_projective
        assert prof.is_auslander and prof.is_1_gorenstein

    def test_auslander_profile_cyclic(self, gamma_cyc3):
        prof = gorenstein_profile(gamma_cyc3)
        assert prof.gldim == 2
        assert prof.is_auslander and prof.is_1_gorenstein

    def test_rsz_cyclic_profile(self):
        prof = gorenstein_profile(make_rsz_nakayama(4, "cyclic"))
        assert prof.gldim == INFINITE
        assert prof.is_1_gorenstein
        assert not prof.is_auslander

    def test_every_algebra_is_1_gorenstein(self, small_universe):
        # Serial algebras are QF-3: the envelope of the regular module is
        # projective, so the 1-Gorenstein property holds across the universe.
        for A in small_universe:
            assert gorenstein_profile(A).is_1_gorenstein

    def test_linear_rsz_auslander_only_for_small_n(self):
        assert gorenstein_profile(make_rsz_nakayama(3, "linear")).is_auslander
        prof4 = gorenstein_profile(make_rsz_nakayama(4, "linear"))
        assert prof4.gldim == 3 and not prof4.is_auslander


# Every public function that takes modules, called with one invalid module
# of the cyclic series (2, 2).  M(1, 2) is projective, so a function that
# validated lazily would return 0 for `ext1_dim(P, bad)` or
# `ext_dim(P, bad, 2)` without looking at `bad`.
ENTRY_POINTS = {
    "hom_dim(bad, M)": lambda A, bad: hom_dim(A, bad, M(1, 1)),
    "hom_dim(M, bad)": lambda A, bad: hom_dim(A, M(1, 1), bad),
    "ext1_dim(bad, M)": lambda A, bad: ext1_dim(A, bad, M(1, 1)),
    "ext1_dim(M, bad)": lambda A, bad: ext1_dim(A, M(1, 1), bad),
    "ext1_dim(P, bad)": lambda A, bad: ext1_dim(A, M(1, 2), bad),
    "ext_dim(bad, M, 2)": lambda A, bad: ext_dim(A, bad, M(1, 1), 2),
    "ext_dim(P, bad, 2)": lambda A, bad: ext_dim(A, M(1, 2), bad, 2),
    "syzygy": lambda A, bad: syzygy(A, bad),
    "cosyzygy": lambda A, bad: cosyzygy(A, bad),
    "tau": lambda A, bad: tau(A, bad),
    "tau_inv": lambda A, bad: tau_inv(A, bad),
    "proj_dim": lambda A, bad: proj_dim(A, bad),
    "inj_dim": lambda A, bad: inj_dim(A, bad),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize(
    "bad, message",
    [
        (M(3, 1), "vertex 3 out of range 1..2"),
        (M(1, 10), "length 10 invalid at vertex 1: need 1..2"),
        (M(1.5, 1), r"vertex 1\.5 is not an integer"),
        (M(2, 1.5), r"length 1\.5 at vertex 2 is not an integer"),
        (M(True, 1), "vertex True is not an integer"),
    ],
    ids=["top", "length", "float top", "float length", "bool top"],
)
def test_invalid_module_raises_at_entry(entry, bad, message):
    with pytest.raises(AlgebraError, match=message):
        entry(Algebra("cyclic", (2, 2)), bad)


def test_single_queries_build_no_table():
    # A table over this algebra would hold 4 * 10^12 Hom entries.
    A = make_rsz_nakayama(10**6, "cyclic")
    assert hom_dim(A, M(2, 2), M(2, 1)) == 1
    assert hom_dim(A, M(2, 1), M(2, 2)) == 0
    assert ext1_dim(A, M(1, 1), M(10**6, 1)) == 1
    assert ext1_dim(A, M(1, 1), M(1, 1)) == 0
    assert syzygy(A, M(1, 1)) == tau(A, M(1, 1)) == M(10**6, 1)
    assert syzygy(A, M(1, 2)) is None and tau(A, M(1, 2)) is None
    assert "tables" not in vars(A)
