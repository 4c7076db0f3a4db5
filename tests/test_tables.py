"""The per-algebra tables against the public closed forms, and the clique engine."""

import pytest
from hypothesis import given, settings, strategies as st

from nakayama import homology as H
from nakayama.algebra import Algebra, AlgebraError, IndecModule, ModuleSet, iter_algebras
from nakayama.tables import cliques
from nakayama.tilting import is_tilting, projective_injective_socles

M = IndecModule


def assert_tables_match_closed_forms(A: Algebra) -> None:
    tab = A.tables
    mods = list(A.indecomposables())
    assert list(tab.modules) == mods
    d = tab.size

    def module(i):
        return None if i is None else mods[i]

    for i, x in enumerate(mods):
        assert tab.projective[i] == A.is_projective(x), (A, x)
        assert tab.pd[i] == H.proj_dim(A, x), (A, x)
        assert (tab.pd[i] <= 1) == (H.proj_dim(A, x) <= 1), (A, x)
        assert module(tab.tau[i]) == H.tau(A, x), (A, x)
        assert module(tab.syzygy[i]) == H.syzygy(A, x), (A, x)
        for j, y in enumerate(mods):
            assert tab.hom[i * d + j] == H.hom_dim(A, x, y), (A, x, y)
            assert tab.ext1[i * d + j] == H.ext1_dim(A, x, y), (A, x, y)
    assert tab.projinj_socles == projective_injective_socles(A)


def test_tables_equal_closed_forms_exhaustively():
    for A in iter_algebras(6, 4):
        assert_tables_match_closed_forms(A)


@st.composite
def kupisch_algebras(draw):
    """Random valid Kupisch series of both kinds, N <= 12, entries <= 8."""
    kind = draw(st.sampled_from(("linear", "cyclic")))
    n = draw(st.integers(1, 12))
    if kind == "linear":
        c = [1]
        for i in range(2, n + 1):
            c.append(draw(st.integers(1, min(c[-1] + 1, i, 8))))
    else:
        # Entries rise by at most one per step, and the last one must stay
        # within reach of c[N] >= c[1] - 1, which closes the cycle.
        c = [draw(st.integers(2, 8))]
        for i in range(1, n):
            low = max(2, c[0] - 1 - (n - 1 - i))
            c.append(draw(st.integers(low, min(c[-1] + 1, 8))))
    return Algebra(kind, tuple(c))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(kupisch_algebras())
def test_tables_equal_closed_forms_on_random_series(A):
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
