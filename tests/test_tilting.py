import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import nakayama.tilting
from nakayama.algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    ModuleSet,
    iter_algebras,
    make_rsz_nakayama,
)
from nakayama.auslander import auslander_algebra
from nakayama.homology import cosyzygy, ext1_dim, proj_dim, regular_i0
from nakayama.tables import mask
from nakayama.tilting import (
    ProjMutation,
    TiltingError,
    check_gen_minimum,
    enumerate_tilting,
    exchange_graph,
    exchange_graph_dot,
    generates,
    is_tilting,
    leq_gen,
    minimal_tilting,
    mutation_at,
    mutation_closure,
    proj_mutation_sequence,
    summand_shape_check,
    tilting_record,
)
from test_tables import kupisch_algebras

M = IndecModule

GOLDEN_LINEAR_N3 = [
    {M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
    {M(1, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
    {M(2, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
    {M(2, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
]

GOLDEN_CYCLIC_N3 = [
    {M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
    {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3)},
    {M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
    {M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
    {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3)},
    {M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
    {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3)},
    {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3)},
]


class TestIsTilting:
    def test_regular_module_is_tilting(self, gamma_lin3):
        from nakayama.homology import regular_module

        reg = regular_module(gamma_lin3)
        ok, why = is_tilting(gamma_lin3, reg)
        assert ok and why is None
        assert tilting_record(gamma_lin3, reg) is reg

    def test_certificate_for_ext_violation(self, gamma_lin3):
        bad = ModuleSet.of([M(5, 2), M(4, 3), M(4, 1), M(3, 2), M(1, 1)])
        ok, why = is_tilting(gamma_lin3, bad)
        assert not ok
        assert why == "ext1_dim(M(4,1),M(3,2)) = 1 != 0"

    def test_certificate_for_pd_violation(self, gamma_lin3):
        ok, why = is_tilting(gamma_lin3, ModuleSet.of([M(3, 1)]))
        assert not ok
        assert why == "pd(M(3,1)) = 2 > 1"

    def test_certificate_for_cardinality(self, gamma_lin3):
        ok, why = is_tilting(gamma_lin3, ModuleSet.of([M(4, 3)]))
        assert not ok
        assert why == "|T| = 1 != 5"

    def test_tilting_record_raises_on_bad_input(self, gamma_lin3):
        with pytest.raises(TiltingError):
            tilting_record(gamma_lin3, ModuleSet.of([M(3, 1)]))

    def test_every_certificate_matches_the_reference_order(self):
        """pd of each summand in order, then Ext^1 over ordered pairs (x == y
        included), then the count: the first failure is the certificate."""

        def reference(A, ms):
            for x in ms:
                p = proj_dim(A, x)
                if p > 1:
                    return f"pd({x}) = {p} > 1"
            for x in ms:
                for y in ms:
                    e = ext1_dim(A, x, y)
                    if e:
                        return f"ext1_dim({x},{y}) = {e} != 0"
            return None if len(ms) == A.n else f"|T| = {len(ms)} != {A.n}"

        algebras = list(iter_algebras(3, 3))
        assert len(algebras) == 22
        certificates = set()
        for A in algebras:
            mods = A.indecomposables().modules
            for k in range(A.n + 2):
                for summands in combinations(mods, k):
                    ms = ModuleSet(summands)
                    why = reference(A, ms)
                    assert is_tilting(A, ms) == (why is None, why), (A, ms)
                    certificates.add(why)
        # Tilting modules, and both finite and infinite projective dimensions, were met.
        assert None in certificates
        for pd in ("2", "inf"):
            assert any(w and w.endswith(f") = {pd} > 1") for w in certificates), pd


class TestEnumeration:
    def test_golden_linear_n3(self, gamma_lin3):
        got = [set(T) for T in enumerate_tilting(gamma_lin3)]
        assert len(got) == 4
        for expected in GOLDEN_LINEAR_N3:
            assert expected in got

    def test_golden_cyclic_n3(self, gamma_cyc3):
        got = [set(T) for T in enumerate_tilting(gamma_cyc3)]
        assert len(got) == 8
        for expected in GOLDEN_CYCLIC_N3:
            assert expected in got

    def test_dual_numbers_exactly_two(self, dual_numbers_gamma):
        got = [set(T) for T in enumerate_tilting(dual_numbers_gamma)]
        assert got == [{M(1, 1), M(1, 3)}, {M(1, 3), M(2, 2)}]

    def test_brute_force_cross_check(self, small_universe):
        # Compare the clique search against testing every n-subset directly.
        for A in small_universe:
            if A.dimension() > 8:
                continue
            indecs = list(A.indecomposables())
            brute = [
                set(sub)
                for sub in combinations(indecs, A.n)
                if is_tilting(A, ModuleSet.of(sub))[0]
            ]
            fast = [set(T) for T in enumerate_tilting(A)]
            assert len(brute) == len(fast)
            for t in brute:
                assert t in fast

    # The path algebra of A_2: its candidates M(1,1), M(2,1), M(2,2) sit at
    # positions 0, 1, 2, and Ext^1(M(2,1), M(1,1)) = 1.
    @pytest.mark.parametrize(
        "bad, why",
        [((0, 1), "ext1_dim(M(2,1),M(1,1)) = 1 != 0"), ((2,), "|T| = 1 != 2")],
        ids=["conflicting-pair", "n-1-summands"],
    )
    def test_every_clique_is_reverified(self, monkeypatch, bad, why):
        A = Algebra("linear", (1, 2))
        assert A.tables.ext1_candidates == [0, 1, 2]
        monkeypatch.setattr(nakayama.tilting, "cliques", lambda adj, allowed, size: [(0, 2), bad])
        with pytest.raises(TiltingError, match=f"^{re.escape(f'not a tilting module: {why}')}$"):
            enumerate_tilting(A)

    def test_selfinjective_has_only_regular(self):
        A = make_rsz_nakayama(3, "cyclic")
        got = enumerate_tilting(A)
        assert len(got) == 1
        assert set(got[0]) == {M(1, 2), M(2, 2), M(3, 2)}

    def test_shape_flags(self, gamma_lin3):
        A = gamma_lin3
        socles = {A.socle_vertex(A.projective(v)) for v in A.projective_injective_vertices()}
        for T in enumerate_tilting(A):
            for m in T:
                assert A.is_projective(m) or (A.is_simple(m) and m.top in socles)
            assert summand_shape_check(A, T) == []

    def test_shape_check_flags_offenders(self, gamma_lin3):
        # M(3,1) is neither projective nor a socle simple of a proj-inj.
        assert summand_shape_check(gamma_lin3, ModuleSet.of([M(3, 1), M(4, 3)])) == [
            M(3, 1)
        ]


def _in_gen(T, X):
    """X is a quotient of a summand of T: same top, no greater length."""
    return any(Y.top == X.top and X.length <= Y.length for Y in T)


def _gen_in(T1, T2):
    """Gen(T1) lies in Gen(T2): every summand of T1 is a quotient of one of T2."""
    return all(_in_gen(T2, X) for X in T1)


@st.composite
def gen_order_cases(draw):
    """(A, T1, T2, X): basic modules, tilting or not, and one indecomposable
    over a series whose largest entry is just below or at a power of two,
    so the longest lengths fill a packed field up to its guard bit.  A
    drawn length 0, or one past c_v, stands for the full length c_v."""
    A = draw(kupisch_algebras(max_entry=draw(st.sampled_from((3, 4, 7, 8, 15, 16))), peak=True))
    pairs = st.tuples(st.integers(1, A.n), st.integers(0, max(A.c)))

    def modules(drawn):
        return [M(v, length if 0 < length <= A.c[v - 1] else A.c[v - 1]) for v, length in drawn]

    def basic():
        return ModuleSet.of(modules(draw(st.lists(pairs, max_size=2 * A.n))))

    return A, basic(), basic(), modules([draw(pairs)])[0]


class TestGenOrder:
    def test_generates_quotients_only(self, gamma_lin3):
        T = ModuleSet.of([M(4, 3)])
        assert generates(gamma_lin3, T, M(4, 3))
        assert generates(gamma_lin3, T, M(4, 1))
        assert not generates(gamma_lin3, T, M(3, 2))

    def test_matches_the_reference_on_every_pair(self, small_universe):
        for A in small_universe:
            nodes = enumerate_tilting(A)
            for T1 in nodes:
                for T2 in nodes:
                    assert leq_gen(A, T1, T2) == _gen_in(T1, T2), (A, T1, T2)
                for X in A.indecomposables():
                    assert generates(A, T1, X) == _in_gen(T1, X), (A, T1, X)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(gen_order_cases())
    def test_packed_profiles_match_the_reference(self, case):
        A, T1, T2, X = case
        assert leq_gen(A, T1, T2) == _gen_in(T1, T2)
        assert leq_gen(A, T2, T1) == _gen_in(T2, T1)
        assert leq_gen(A, T1, T1)
        assert generates(A, T1, X) == _in_gen(T1, X)
        assert generates(A, T2, X) == _in_gen(T2, X)

    def test_wide_fields_match_the_reference(self):
        # Lengths up to 1253 take 12-bit fields, 8 of them.
        A = Algebra("cyclic", tuple(range(1246, 1254)))
        nodes = enumerate_tilting(A)
        assert nakayama.tilting._gen_profile(A, nodes[0])[3] == 12
        rng = random.Random(25)
        for _ in range(3000):
            T1, T2 = rng.choice(nodes), rng.choice(nodes)
            assert leq_gen(A, T1, T2) == _gen_in(T1, T2), (T1, T2)

    def test_one_module_set_on_several_series(self):
        # A ModuleSet keeps its packed Gen profile for the last series that
        # validated it; reused with another algebra it answers for that one.
        mods = [M(1, 1), M(2, 2), M(3, 3)]
        T, fresh = ModuleSet.of(mods), ModuleSet.of(mods)
        small, large = Algebra("linear", (1, 2, 3)), Algebra("linear", (1, 2, 3, 4))
        for A in (large, small, large, small):
            for S in enumerate_tilting(A):
                assert leq_gen(A, T, S) == _gen_in(T, S), (A, S)
                assert leq_gen(A, S, T) == _gen_in(S, T), (A, S)
            for X in A.indecomposables():
                assert generates(A, T, X) == _in_gen(T, X), (A, X)
        refusals = [
            (Algebra("linear", (1, 2, 2)), "length 3 invalid at vertex 3: need 1..2"),
            (Algebra("linear", (1, 2)), "vertex 3 out of range 1..2"),
        ]
        for A, message in refusals:
            with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
                leq_gen(A, T, T)
            with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
                generates(A, T, M(1, 1))
        assert not leq_gen(large, ModuleSet.of([M(4, 1)]), T)
        assert (T, hash(T), repr(T)) == (fresh, hash(fresh), repr(fresh))

    def test_regular_is_maximum(self, gamma_lin3):
        from nakayama.homology import regular_module

        reg = regular_module(gamma_lin3)
        for T in enumerate_tilting(gamma_lin3):
            assert leq_gen(gamma_lin3, T, reg)

    BAD_LENGTH = "length 9 invalid at vertex 2: need 1..2"
    BAD_TOP = "vertex 4 out of range 1..3"
    GOOD = ModuleSet.of([M(2, 2), M(3, 1)])

    @pytest.mark.parametrize(
        "call",
        [
            lambda A, bad, good: leq_gen(A, bad, good),
            lambda A, bad, good: leq_gen(A, good, bad),
            lambda A, bad, good: generates(A, bad, M(2, 1)),
            lambda A, bad, good: generates(A, good, next(iter(bad))),
        ],
        ids=["leq_gen-T1", "leq_gen-T2", "generates-T", "generates-X"],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            (M(2, 9), BAD_LENGTH),
            (M(4, 1), BAD_TOP),
            (M(2, 2.0), "length 2.0 at vertex 2 is not an integer"),
            (M(True, 1), "vertex True is not an integer"),
        ],
        ids=["length", "top", "float-length", "bool-top"],
    )
    def test_every_argument_is_validated(self, call, bad, message):
        A = Algebra("linear", (1, 2, 2))
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            call(A, ModuleSet.of([bad]), self.GOOD)


class TestMutation:
    def test_mutations_from_regular(self, gamma_lin3):
        T1 = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        t2 = mutation_at(gamma_lin3, T1, M(3, 2))
        assert set(t2) == {M(1, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)}
        t3 = mutation_at(gamma_lin3, T1, M(1, 1))
        assert set(t3) == {M(2, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)}
        assert mutation_at(gamma_lin3, T1, M(2, 2)) is None
        assert mutation_at(gamma_lin3, T1, M(4, 3)) is None
        assert mutation_at(gamma_lin3, T1, M(5, 2)) is None

    def test_mutation_is_involutive(self, gamma_lin3):
        T1 = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        t2 = mutation_at(gamma_lin3, T1, M(3, 2))
        back = mutation_at(gamma_lin3, t2, M(4, 1))
        assert back == T1

    def test_mutation_requires_summand(self, gamma_lin3):
        T1 = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        with pytest.raises(AlgebraError):
            mutation_at(gamma_lin3, T1, M(4, 1))

    def test_mutation_requires_tilting(self):
        # Ext^1(M(2,1), M(1,1)) != 0; unchecked, the "mutation" at M(1,1)
        # would be the tilting module M(2,1) M(2,2) M(3,2).
        A = Algebra("linear", (1, 2, 2))
        T = ModuleSet.of([M(1, 1), M(2, 1), M(2, 2)])
        with pytest.raises(AlgebraError, match="^not a tilting module: ext1_dim"):
            mutation_at(A, T, M(1, 1))

    def test_proj_mutation_sequence(self, gamma_lin3):
        T1 = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        seq = proj_mutation_sequence(gamma_lin3, T1, M(3, 2))
        assert seq.removed == M(3, 2)
        assert seq.envelope == M(4, 3)
        assert seq.cokernel == M(4, 1)
        assert seq.cokernel.length == 1
        assert set(seq.mutated) == {M(1, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)}

    def test_proj_mutation_sequence_validation(self, gamma_lin3):
        T1 = ModuleSet.of([M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        with pytest.raises(AlgebraError):
            proj_mutation_sequence(gamma_lin3, T1, M(4, 3))  # injective
        t3 = ModuleSet.of([M(2, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)])
        with pytest.raises(AlgebraError):
            proj_mutation_sequence(gamma_lin3, t3, M(2, 1))  # not projective

    def test_closure_equals_enumeration(self, gamma_lin3, gamma_cyc3, dual_numbers_gamma):
        for A in (gamma_lin3, gamma_cyc3, dual_numbers_gamma):
            assert mutation_closure(A) == enumerate_tilting(A)

    def test_closure_names_a_non_tilting_start(self, gamma_lin3, monkeypatch):
        start = ModuleSet.of([M(3, 1)])
        monkeypatch.setattr(nakayama.tilting, "regular_module", lambda A: start)
        with pytest.raises(TiltingError) as err:
            mutation_closure(gamma_lin3)
        assert str(err.value) == f"the regular module is not tilting: {is_tilting(gamma_lin3, start)[1]}"

    def test_closure_equals_enumeration_universe(self):
        for A in iter_algebras(6, 4):
            assert mutation_closure(A) == enumerate_tilting(A)

    def test_closure_validates_once(self, gamma_cyc3, monkeypatch):
        # One `indices` call for the regular module, and one `_violation`
        # call per module reached: none per (module, summand) pair.
        calls = {"indices": 0, "_violation": 0}
        for name in calls:
            real = getattr(nakayama.tilting, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(nakayama.tilting, name, counting)
        k = len(mutation_closure(gamma_cyc3))
        assert k == 8
        assert calls == {"indices": 1, "_violation": k}


# The mutation road before it worked on table indices, kept as the
# reference: a scan over every candidate, `minus`/`plus`, `tilting_record`,
# and the envelope sequence from the validated public functions.


def reference_mutation_at(A, T, X):
    if X not in T:
        raise AlgebraError(f"{X} is not a summand of the given tilting module")
    ok, why = is_tilting(A, T)
    if not ok:
        raise AlgebraError(f"not a tilting module: {why}")
    tab = A.tables
    cands, pos, perp = tab.ext1_candidates, tab.ext1_position, tab.ext1_perp
    at = [pos[tab.at(m.top, m.length)] for m in T]
    x = at[T.index(X)]
    rest_mask = mask(a for a in at if a != x)
    partners = [
        tab.modules[cands[b]]
        for b, p in enumerate(perp)
        if b != x and not rest_mask >> b & 1 and not (rest_mask | 1 << b) & ~p
    ]
    if not partners:
        return None
    if len(partners) > 1:
        raise TiltingError(f"multiple exchange partners for {X}: {partners}")
    return tilting_record(A, T.minus(X).plus(partners[0]))


def reference_proj_mutation_sequence(A, T, P):
    if P not in T:
        raise AlgebraError(f"{P} is not a summand of the given tilting module")
    if not A.is_projective(P):
        raise AlgebraError(f"{P} is not projective")
    if A.is_injective(P):
        raise AlgebraError(f"{P} is injective; the envelope sequence is trivial")
    envelope = A.injective_env_vertex(A.socle_vertex(P))
    coker = cosyzygy(A, P)
    mutated = reference_mutation_at(A, T, P)
    if mutated is not None:
        added = next(m for m in mutated if m not in T)
        if added != coker:
            raise TiltingError(f"mutation at {P} produced {added}, not the envelope cokernel {coker}")
    return ProjMutation(removed=P, envelope=envelope, cokernel=coker, mutated=mutated)


def outcome(call, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return call(*args)
    except (AlgebraError, TiltingError) as exc:
        return type(exc), str(exc)


class TestMutationReference:
    def test_every_mutation_matches_the_reference_road(self):
        """Every (T, X) with X a summand of a tilting T over Gamma of the rsz
        algebras n <= 5 and over iter_algebras(4, 4), which holds the
        one-simple algebras; and, for the error texts, X outside T, T
        without X (too few summands) and T with X swapped for the first
        module outside T (mostly not tilting)."""
        algebras = [
            auslander_algebra(make_rsz_nakayama(n, kind)).gamma for kind in ("linear", "cyclic") for n in range(1, 6)
        ] + list(iter_algebras(4, 4))
        errors = set()
        start = time.perf_counter()
        for A in algebras:
            mods = A.indecomposables()
            for T in enumerate_tilting(A):
                cases = [(T, X) for X in T]
                outside = [m for m in mods if m not in T][:1]
                cases += [(T, Y) for Y in outside]
                for X in T:
                    rest = T.minus(X)
                    cases += [(rest, Y) for Y in rest[:1]]
                    cases += [(rest.plus(Y), Y) for Y in outside]
                for U, X in cases:
                    for new, ref in (
                        (mutation_at, reference_mutation_at),
                        (proj_mutation_sequence, reference_proj_mutation_sequence),
                    ):
                        got = outcome(new, A, U, X)
                        assert got == outcome(ref, A, U, X), (A, U, X)
                        if isinstance(got, tuple) and isinstance(got[0], type):
                            errors.add(re.sub(r"M\(\d+,\d+\)|: .*", "", got[1]))
        # Over algebras that are not Auslander algebras a projective may
        # also mutate to a module other than its envelope cokernel.
        assert errors >= {
            " is not a summand of the given tilting module",
            "not a tilting module",
            " is not projective",
            " is injective; the envelope sequence is trivial",
        }
        assert time.perf_counter() - start < 3.0

    def test_one_summand_keeps_nothing(self):
        # With one simple, T/X is zero and every candidate other than X
        # would complete it; over a local algebra the projective is the
        # only candidate, so there is no partner.
        for A in iter_algebras(1, 6):
            P = A.projective(1)
            assert [A.tables.modules[i] for i in A.tables.ext1_candidates] == [P]
            assert mutation_at(A, ModuleSet.of([P]), P) is None


class TestMinimalTilting:
    def test_linear_n3_minimum(self, gamma_lin3):
        assert set(minimal_tilting(gamma_lin3)) == {M(2, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)}

    def test_dual_numbers_minimum(self, dual_numbers_gamma):
        assert set(minimal_tilting(dual_numbers_gamma)) == {M(1, 1), M(1, 3)}

    def test_cyclic_n3_minimum(self, gamma_cyc3):
        mini = minimal_tilting(gamma_cyc3)
        assert set(mini) == {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3)}
        # Every other tilting module generates it.
        tilting = enumerate_tilting(gamma_cyc3)
        for other in tilting:
            assert leq_gen(gamma_cyc3, mini, other)
        check_gen_minimum(gamma_cyc3, mini, tilting)

    def test_minimum_check_makes_at_most_2k_calls(self, gamma_cyc3, monkeypatch):
        calls = []

        def counting(A, T1, T2):
            calls.append((T1, T2))
            return leq_gen(A, T1, T2)

        tilting = enumerate_tilting(gamma_cyc3)
        monkeypatch.setattr(nakayama.tilting, "leq_gen", counting)
        check_gen_minimum(gamma_cyc3, minimal_tilting(gamma_cyc3), tilting)
        assert len(calls) <= 2 * len(tilting)

    def test_minimum_mismatch_names_the_enumerated_minima(self, gamma_lin3):
        formula = minimal_tilting(gamma_lin3)
        others = [T for T in enumerate_tilting(gamma_lin3) if T != formula]
        minima = [str(T) for T in others if all(leq_gen(gamma_lin3, T, o) for o in others)]
        with pytest.raises(TiltingError) as err:
            check_gen_minimum(gamma_lin3, formula, others)
        assert str(err.value) == (
            f"Gen-minimum mismatch: formula gave {formula}, enumeration gave {minima}"
        )

    def test_non_tilting_candidate_names_the_violation(self, gamma_lin3, monkeypatch):
        # Without the cosyzygies the candidate is I0 alone, which is not tilting.
        monkeypatch.setattr(nakayama.tilting, "cosyzygy", lambda A, P: None)
        ok, why = is_tilting(gamma_lin3, regular_i0(gamma_lin3))
        assert not ok
        with pytest.raises(TiltingError) as err:
            minimal_tilting(gamma_lin3)
        assert str(err.value) == f"minimal tilting candidate fails: {why}"

    def test_candidate_is_verified_once(self, gamma_cyc3, monkeypatch):
        calls = []
        violation = nakayama.tilting._violation

        def counting(A, idx):
            calls.append(idx)
            return violation(A, idx)

        monkeypatch.setattr(nakayama.tilting, "_violation", counting)
        minimal_tilting(gamma_cyc3)
        assert len(calls) == 1

    def test_i0_is_projective_for_every_nakayama_algebra(self):
        # Why minimal_tilting needs no 1-Gorenstein guard.
        for A in iter_algebras(5, 4):
            assert all(A.is_projective(m) for m in regular_i0(A)), A

    def test_works_beyond_auslander_algebras(self):
        # Serial algebras are QF-3, so the formula applies to any of them;
        # over the linear radical-square-zero series it still checks out.
        assert set(minimal_tilting(make_rsz_nakayama(3, "linear"))) == {M(2, 1), M(2, 2), M(3, 2)}


class TestExchangeGraph:
    def test_linear_n3_square(self, gamma_lin3):
        g = exchange_graph(gamma_lin3)
        assert len(g.nodes) == 4
        # Two incomparable mutations from the top and from the bottom: a 4-cycle.
        assert len(g.edges) == 4
        degree = {i: 0 for i in range(4)}
        for i, j in g.edges:
            degree[i] += 1
            degree[j] += 1
        assert all(d == 2 for d in degree.values())
        assert len(g.hasse) == 4

    def test_cyclic_n3_cube(self, gamma_cyc3):
        g = exchange_graph(gamma_cyc3)
        assert len(g.nodes) == 8
        assert len(g.edges) == 12
        degree = {i: 0 for i in range(8)}
        for i, j in g.edges:
            degree[i] += 1
            degree[j] += 1
        assert all(d == 3 for d in degree.values())
        assert len(g.hasse) == 12

    def test_dot_output(self, dual_numbers_gamma):
        g = exchange_graph(dual_numbers_gamma)
        dot = exchange_graph_dot(g)
        assert dot.startswith("digraph exchange {")
        assert '  t0 [label="M(1,1) M(1,3)"];' in dot
        assert "t0 -> t1 [dir=none];" in dot
        assert "t1 -> t0 [style=dashed];" in dot
        assert dot.endswith("}\n")

    def test_hasse_is_subrelation_of_gen(self, gamma_lin3):
        g = exchange_graph(gamma_lin3)
        for i, j in g.hasse:
            assert leq_gen(gamma_lin3, g.nodes[i], g.nodes[j])
            assert not leq_gen(gamma_lin3, g.nodes[j], g.nodes[i])


def _reference_graph(A):
    """The exchange graph by brute force: pairwise intersections, the full
    Gen-order matrix from `_gen_in` and the cubic Hasse loop."""
    nodes = enumerate_tilting(A)
    k = len(nodes)
    edges = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if len(set(nodes[i]) & set(nodes[j])) == A.n - 1
    ]
    less = [
        [i != j and _gen_in(nodes[i], nodes[j]) for j in range(k)]
        for i in range(k)
    ]
    hasse = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if less[i][j] and not any(less[i][m] and less[m][j] for m in range(k))
    ]
    return tuple(nodes), tuple(edges), tuple(hasse)


@pytest.fixture(scope="module")
def graph_universe():
    """Auslander algebras up to n = 6 of both kinds, iter_algebras(5, 4), and
    the path algebra (1, ..., 6), whose Gen order is the Tamari lattice: the
    Auslander algebras give only Boolean cubes."""
    gammas = [
        auslander_algebra(make_rsz_nakayama(n, kind)).gamma
        for n in range(1, 7)
        for kind in ("linear", "cyclic")
    ]
    path = Algebra("linear", tuple(range(1, 7)))
    return [(A, exchange_graph(A)) for A in gammas + list(iter_algebras(5, 4)) + [path]]


class TestExchangeGraphReference:
    def test_matches_brute_force(self, graph_universe):
        for A, g in graph_universe:
            assert (g.nodes, g.edges, g.hasse) == _reference_graph(A), A

    def test_hasse_is_exchange_graph_oriented_by_gen(self, graph_universe):
        # Happel-Unger: the covers of the Gen order are exactly the mutations.
        for A, g in graph_universe:
            oriented = sorted(
                (i, j) if leq_gen(A, g.nodes[i], g.nodes[j]) else (j, i)
                for i, j in g.edges
            )
            assert list(g.hasse) == oriented, A

    def test_incomparable_exchange_pair_raises(self, gamma_lin3, monkeypatch):
        g = exchange_graph(gamma_lin3)
        pairs = {f"{g.nodes[i]} and {g.nodes[j]}" for i, j in g.edges}
        monkeypatch.setattr(nakayama.tilting, "leq_gen", lambda A, T1, T2: False)
        with pytest.raises(TiltingError) as err:
            exchange_graph(gamma_lin3)
        named = re.fullmatch(r"the exchange pair (.*) is incomparable in the Gen order", str(err.value))
        assert named and named[1] in pairs

    def test_three_complements_raise(self, monkeypatch):
        A = Algebra("linear", (1, 2, 2))
        shared = [M(1, 1), M(2, 2)]
        stub = [ModuleSet.of(shared + [extra]) for extra in (M(2, 1), M(3, 1), M(3, 2))]
        monkeypatch.setattr(nakayama.tilting, "enumerate_tilting", lambda A: stub)
        message = "3 complements of the almost complete tilting module M(1,1) M(2,2)"
        with pytest.raises(TiltingError, match=f"^{re.escape(message)}$"):
            exchange_graph(A)


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_linear_count(self, n):
        gamma = auslander_algebra(make_rsz_nakayama(n, "linear")).gamma
        assert len(enumerate_tilting(gamma)) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cyclic_count(self, n):
        gamma = auslander_algebra(make_rsz_nakayama(n, "cyclic")).gamma
        assert len(enumerate_tilting(gamma)) == 2 ** n
