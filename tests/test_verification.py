"""The battery's pass conditions fail on the faults they exist to catch.

Each case swaps one name for a stub that produces the fault, in the
`nakayama.verification` namespace or, for the tilting modules, in
`nakayama.auslander`, where `AuslanderResult.cliques` enumerates them as
Ext^1 candidate positions (`_tilting_cliques`), and checks that exactly
the affected record fails.
"""

from collections import Counter
from itertools import combinations
from dataclasses import replace

from nakayama import algebra, auslander, homology, tau_tilting, tilting
from nakayama import verification as V
from nakayama.algebra import Algebra, IndecModule as M, ModuleSet
from nakayama.auslander import auslander_family
from nakayama.tables import mask


def verdicts(records):
    return {r["name"]: r["passed"] for r in records}


def test_non_simple_cokernel_fails_even_without_a_mutation(monkeypatch):
    real = V._proj_mutation

    def stub(gamma, T, at, s, found):
        return replace(real(gamma, T, at, s, found), cokernel=T[s], mutated=None)

    monkeypatch.setattr(V, "_proj_mutation", stub)
    # Linear n=1 has no projective non-injective summand; cyclic n=1 has M(2,2).
    assert verdicts(V.mutation_shape_assertions(auslander_family(1))) == {
        "proj_mutation_shape_linear_n1": True,
        "proj_mutation_shape_cyclic_n1": False,
    }


def test_mutation_check_validates_no_enumerated_module(monkeypatch):
    # The listed modules were verified by the enumeration; the check reads
    # their candidate positions without validating them again, and reads the
    # projective non-injectives and the simple cokernels off coordinates.
    family = auslander_family(6)
    for res in family:
        res.tilting  # enumerate before counting
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(tilting, "indices", counting("indices", tilting.indices))
    monkeypatch.setattr(algebra.Algebra, "check_module", counting("check_module", algebra.Algebra.check_module))
    records = V.mutation_shape_assertions(family)
    assert all(r["passed"] for r in records)
    assert calls == Counter()


def test_duplicated_zero_pair_fails(monkeypatch):
    real = V._support_parts

    def stub(A, base=0):
        parts, supports = real(A, base)
        zero = parts.index(())
        keep = [zero, zero] + [k for k in range(len(parts)) if k != zero][1:]
        return [parts[k] for k in keep], [supports[k] for k in keep]

    monkeypatch.setattr(V, "_support_parts", stub)
    assert verdicts(V.semisimple_sttilt_assertions(2)) == {
        "semisimple_sttilt_n1": False,
        "semisimple_sttilt_n2": False,
    }


def test_dropped_pair_fails(monkeypatch):
    real = V._support_parts

    def stub(A, base=0):
        parts, supports = real(A, base)
        return parts[:-1], supports[:-1]

    monkeypatch.setattr(V, "_support_parts", stub)
    records = V.semisimple_sttilt_assertions(3)
    assert verdicts(records) == {f"semisimple_sttilt_n{n}": False for n in (1, 2, 3)}
    assert [r["detail"] for r in records] == [
        f"count={2**n - 1} expected={2**n} zero_pair=yes" for n in (1, 2, 3)
    ]


def test_semisimple_check_builds_no_quotient(monkeypatch):
    # The pairs come from the support criterion on the tau-rigid sets, so no
    # kill set is walked and no quotient algebra is built.
    calls = 0
    real = algebra.quotient_algebra

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for mod in (algebra, tau_tilting, V):  # V no longer imports it
        monkeypatch.setattr(mod, "quotient_algebra", counting, raising=False)
    records = V.semisimple_sttilt_assertions(10)
    assert all(r["passed"] for r in records) and len(records) == 10
    assert calls == 0


def test_construction_check_builds_no_quotient(monkeypatch):
    # The quotient by the projective-injectives is read off Gamma's Kupisch
    # series: its simples are the other vertices, and P(v) stays simple
    # there iff c(v) = 1 or the vertex below v is killed.
    calls = 0
    real = algebra.quotient_algebra

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for mod in (algebra, tau_tilting, V):  # V no longer imports it
        monkeypatch.setattr(mod, "quotient_algebra", counting, raising=False)
    records = V.construction_assertions(auslander_family(6))
    assert all(r["passed"] for r in records) and len(records) == 12
    assert calls == 0


def test_construction_check_reads_the_quotient_off_the_series():
    # Move the injective Lambda-modules to every other set of Gamma's
    # vertices, so the projective-injective flags still hold, and hold the
    # semisimple check to the quotient algebra itself.
    failed = 0
    for res in auslander_family(3):
        injective = [m for m in res.dictionary.values() if res.lam.is_injective(m)]
        others = [m for m in res.dictionary.values() if not res.lam.is_injective(m)]
        for killed in combinations(res.gamma.vertices, len(injective)):
            rest = [v for v in res.gamma.vertices if v not in killed]
            moved = replace(
                res,
                dictionary=dict(zip(killed + tuple(rest), injective + others)),
                projinj=frozenset(killed),
            )
            (record,) = V.construction_assertions([moved])
            q = algebra.quotient_algebra(res.gamma, killed)
            semisimple = all(comp.c == (1,) * comp.n for comp in q.components)
            assert record["passed"] == semisimple, (res.gamma, killed)
            if not semisimple:
                failed += 1
                assert record["detail"] == "quotient by the projective-injectives is not semisimple"
    assert failed > 0


def test_wrong_gamma_for_the_dual_numbers_fails(monkeypatch):
    right, wrong = Algebra("cyclic", (3, 2)), Algebra("cyclic", (2, 3))
    real_auslander, real_cliques, real_modules = V.auslander_algebra, auslander._tilting_cliques, auslander._modules

    def auslander_stub(lam):
        res = real_auslander(lam)
        return replace(res, gamma=wrong) if res.gamma == right else res

    monkeypatch.setattr(V, "auslander_algebra", auslander_stub)
    # The tilting list stays the right one, positions and modules; only Gamma is wrong.
    monkeypatch.setattr(auslander, "_tilting_cliques", lambda A: real_cliques(right if A == wrong else A))
    monkeypatch.setattr(auslander, "_modules", lambda A, found: real_modules(right if A == wrong else A, found))
    assert verdicts(V.golden_list_assertions()) == {
        "golden_tilting_list_linear_n3": True,
        "golden_tilting_list_cyclic_n3": True,
        "dual_numbers_two_tilting": False,
    }


def positions(A, T):
    """The Ext^1 candidate positions of the summands of T, each a candidate."""
    tab = A.tables
    return tuple(tab.ext1_position[tab.at(*m)] for m in T)


def keyed(found):
    """A stubbed `_tilting_cliques` result: the positions and their masks."""
    return found, [mask(at) for at in found]


def test_missing_formula_module_fails_only_the_minimum(monkeypatch):
    real = auslander._tilting_cliques

    def stub(A):
        return keyed([at for at in real(A)[0] if at != positions(A, auslander.minimal_tilting(A))])

    monkeypatch.setattr(auslander, "_tilting_cliques", stub)
    family = auslander_family(2)
    records = V.shape_assertions(family) + V.mutation_shape_assertions(family) + V.minimal_tilting_assertions(family)
    failed = {r["name"]: r["detail"] for r in records if not r["passed"]}
    assert sorted(failed) == [
        "minimal_tilting_cyclic_n1",
        "minimal_tilting_cyclic_n2",
        "minimal_tilting_linear_n1",
        "minimal_tilting_linear_n2",
    ]
    assert all(detail.startswith("Gen-minimum mismatch") for detail in failed.values())


def test_non_simple_non_projective_summand_fails_the_shape_checks(monkeypatch):
    # A position names an Ext^1 candidate, and every candidate of Gamma is
    # projective or a simple socle, so the fault goes into Gamma's candidate
    # list: it gains M(v, l), 1 < l < c(v), where Gamma has one (Gamma of
    # linear n = 3 and of cyclic n >= 1), and the last listed module swaps
    # its first summand for it.
    real = auslander._tilting_cliques
    planted = {}

    def stub(A):
        found = real(A)[0]
        tab = A.tables
        bad = next((M(v, l) for v in A.vertices for l in range(2, A.c[v - 1])), None)
        if bad is None:
            return keyed(found)
        cands = sorted([*tab.ext1_candidates, tab.at(*bad)])
        new = {i: a for a, i in enumerate(cands)}
        moved = [tuple(new[tab.ext1_candidates[a]] for a in at) for at in found]
        moved[-1] = tuple(sorted([*moved[-1][1:], new[tab.at(*bad)]]))
        last = tab.module_set(tab.ext1_candidates[a] for a in found[-1])
        planted[A] = (ModuleSet.of([*last[1:], bad]), bad)
        monkeypatch.setattr(tab, "ext1_candidates", cands)
        monkeypatch.setattr(tab, "ext1_position", new)
        return keyed(moved)

    monkeypatch.setattr(auslander, "_tilting_cliques", stub)
    family = auslander_family(3)
    shapes = V.shape_assertions(family)
    counts = V.count_assertions(family)
    for res, shape, count in zip(family, shapes, counts):
        if res.gamma not in planted:
            assert res.lam.kind == "linear" and res.lam.n < 3
            assert shape["passed"] and count["passed"]
            continue
        T, bad = planted[res.gamma]
        assert res.shape_offenders == [(T, [bad])]
        assert not shape["passed"] and shape["detail"].endswith(f"; first offender {T}: {bad}")
        assert not count["passed"] and "shapes=bad" in count["detail"]
    assert len(planted) == 4


def test_second_gen_minimal_module_fails_the_minimum(monkeypatch):
    # The formula module without a summand shorter than another at its top
    # has the same Gen class, so the list holds two Gen-minimal modules.
    real = auslander._tilting_cliques
    twins = {}

    def stub(A):
        ms = tilting.minimal_tilting(A)
        shorter = next((m for m in ms if any(x.top == m.top and x.length > m.length for x in ms)), None)
        if shorter is None:
            return real(A)
        twins[A] = (ms, ms.minus(shorter))
        return keyed(real(A)[0] + [positions(A, twins[A][1])])

    monkeypatch.setattr(auslander, "_tilting_cliques", stub)
    family = auslander_family(3)
    minimal = V.minimal_tilting_assertions(family)
    counts = V.count_assertions(family)
    assert len(twins) >= 4
    for res, record, count in zip(family, minimal, counts):
        if res.gamma not in twins:
            assert record["passed"]
            continue
        ms, twin = twins[res.gamma]
        assert record == {
            "name": f"minimal_tilting_{res.lam.kind}_n{res.lam.n}",
            "passed": False,
            "detail": f"Gen-minimum mismatch: formula gave {ms}, enumeration gave {[str(ms), str(twin)]}",
        }
        assert not count["passed"] and "minimal=bad" in count["detail"]


def test_count_check_validates_no_enumerated_module(monkeypatch):
    # The listed modules were verified by the enumeration, and the count
    # check reads their candidate positions; `minimal_tilting` builds the
    # formula module from Gamma's Kupisch series.  Nothing is validated.
    family = auslander_family(6)
    for res in family:
        res.cliques  # enumerate before counting
        res.gamma.tables.projinj_socles  # and read Gamma's own projectives
    calls = 0
    real = algebra.Algebra.check_module

    def counting(self, m):
        nonlocal calls
        calls += 1
        return real(self, m)

    monkeypatch.setattr(algebra.Algebra, "check_module", counting)
    records = V.count_assertions(family)
    assert all(r["passed"] for r in records)
    assert calls == 0


def test_count_check_builds_no_tilting_module():
    # Past n = 6 `paper_report` runs only the counts, which read positions.
    family = auslander_family(8)
    assert all(r["passed"] for r in V.count_assertions(family))
    assert not [res for res in family if "tilting" in vars(res)]


def test_paper_report_enumerates_each_gamma_once(monkeypatch):
    calls = Counter()

    def counting(name, real):
        def wrapper(A):
            calls[name] += 1
            return real(A)

        return wrapper

    monkeypatch.setattr(auslander, "_tilting_cliques", counting("_tilting_cliques", auslander._tilting_cliques))
    enumerate_tilting = counting("enumerate_tilting", tilting.enumerate_tilting)
    for mod in (tilting, auslander, V):
        monkeypatch.setattr(mod, "enumerate_tilting", enumerate_tilting, raising=False)
    V.paper_report(4)
    # 2 * 4 family members, plus the golden lists' n=3 pair and the dual numbers
    assert calls == {"_tilting_cliques": 11}


def test_paper_report_checks_each_gamma_once(monkeypatch):
    """Two reports read each per-Gamma check; it runs once per algebra (the
    shape and minimum checks on candidate positions, the profile).  The
    checks for modules from outside, `summand_shape_check` and
    `check_gen_minimum`, do not run."""
    family = auslander_family(6)
    names = ("_shape_offenders", "minimal_tilting", "_gen_minimum")
    expected = Counter(
        [(name, res.gamma) for name in names for res in family]
        + [("gorenstein_profile", res.gamma) for res in family]
        + [("gorenstein_profile", res.lam) for res in family if res.lam.kind == "cyclic"]
    )
    calls = Counter()
    targets = (
        *((tilting, name, 1) for name in names),
        (tilting, "summand_shape_check", 2),
        (tilting, "check_gen_minimum", 1),
        (homology, "gorenstein_profile", 1),
    )
    for owner, name, arity in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, _arity=arity):
            calls[(_name, *args[:_arity])] += 1
            return _original(*args)

        for mod in (owner, auslander, V):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    V.paper_report(6)
    assert calls == expected


CLOSURE_ALGEBRAS = [Algebra("linear", (1, 2, 2)), Algebra("cyclic", (3, 2, 3, 2))]


def closure_verdicts_with(monkeypatch, fault):
    real = V.enumerate_tilting
    monkeypatch.setattr(V, "enumerate_tilting", lambda A: fault(A, real(A)))
    return {r["name"]: (r["passed"], r["detail"]) for r in V.mutation_closure_assertions(CLOSURE_ALGEBRAS)}


def test_mutation_closure_passes_on_the_enumeration():
    assert [r["passed"] for r in V.mutation_closure_assertions(CLOSURE_ALGEBRAS)] == [True, True]


def test_dropped_module_fails_the_closure(monkeypatch):
    # Dropping the last listed module: one of its neighbours mutates to it.
    records = closure_verdicts_with(monkeypatch, lambda A, tilting: tilting[:-1])
    assert [passed for passed, _ in records.values()] == [False, False]
    assert all("which is not listed" in detail for _, detail in records.values())


def test_repeated_module_fails_the_closure(monkeypatch):
    records = closure_verdicts_with(monkeypatch, lambda A, tilting: tilting + tilting[:1])
    assert [detail for _, detail in records.values()] == [
        f"{tilting.enumerate_tilting(A)[0]} is listed twice" for A in CLOSURE_ALGEBRAS
    ]


def test_listed_module_that_is_not_tilting_fails_the_closure(monkeypatch):
    records = closure_verdicts_with(monkeypatch, lambda A, tilting: tilting + [ModuleSet.of([M(1, 1)])])
    assert [passed for passed, _ in records.values()] == [False, False]
    assert all(detail.endswith("is listed but not reached by mutation") for _, detail in records.values())


def test_list_without_the_regular_module_fails_the_closure(monkeypatch):
    records = closure_verdicts_with(
        monkeypatch, lambda A, tilting: [T for T in tilting if T != homology.regular_module(A)]
    )
    assert [passed for passed, _ in records.values()] == [False, False]
    assert all(detail.startswith("the regular module ") for _, detail in records.values())
