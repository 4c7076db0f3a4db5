"""The battery's pass conditions fail on the faults they exist to catch.

Each case swaps one name for a stub that produces the fault, in the
`nakayama.verification` namespace or, for the tilting modules, in
`nakayama.auslander`, where `AuslanderResult.tilting` enumerates them,
and checks that exactly the affected record fails.
"""

from collections import Counter
from itertools import combinations
from dataclasses import replace

from nakayama import algebra, auslander, homology, tau_tilting, tilting
from nakayama import verification as V
from nakayama.algebra import Algebra, IndecModule as M, ModuleSet
from nakayama.auslander import auslander_family


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
    real_auslander, real_enumerate = V.auslander_algebra, auslander.enumerate_tilting

    def auslander_stub(lam):
        res = real_auslander(lam)
        return replace(res, gamma=wrong) if res.gamma == right else res

    monkeypatch.setattr(V, "auslander_algebra", auslander_stub)
    # The tilting list stays the right one; only Gamma is wrong.
    monkeypatch.setattr(auslander, "enumerate_tilting", lambda A: real_enumerate(right if A == wrong else A))
    assert verdicts(V.golden_list_assertions()) == {
        "golden_tilting_list_linear_n3": True,
        "golden_tilting_list_cyclic_n3": True,
        "dual_numbers_two_tilting": False,
    }


def test_missing_formula_module_fails_only_the_minimum(monkeypatch):
    real = auslander.enumerate_tilting
    monkeypatch.setattr(auslander, "enumerate_tilting", lambda A: [T for T in real(A) if T != auslander.minimal_tilting(A)])
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
    # The last listed module swaps its first summand for M(v, l), 1 < l < c(v),
    # where Gamma has one: Gamma of linear n = 3 and of cyclic n >= 1.
    real = auslander.enumerate_tilting
    planted = {}

    def stub(A):
        tilting = real(A)
        bad = next((M(v, l) for v in A.vertices for l in range(2, A.c[v - 1])), None)
        if bad is None:
            return tilting
        T = ModuleSet.of([*tilting[-1][1:], bad])
        planted[A] = (T, bad)
        return tilting[:-1] + [T]

    monkeypatch.setattr(auslander, "enumerate_tilting", stub)
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
    # The formula module plus a proper quotient of one of its summands has
    # the same Gen class, so the list holds two Gen-minimal modules.
    real = auslander.enumerate_tilting
    twins = {}

    def stub(A):
        ms = tilting.minimal_tilting(A)
        extra = next((M(m.top, l) for m in ms for l in range(1, m.length) if M(m.top, l) not in ms), None)
        if extra is None:
            return real(A)
        twins[A] = (ms, ModuleSet.of([*ms, extra]))
        return real(A) + [twins[A][1]]

    monkeypatch.setattr(auslander, "enumerate_tilting", stub)
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
    # check reads their summand masks; `minimal_tilting` builds the formula
    # module from Gamma's Kupisch series.  Nothing is validated.
    family = auslander_family(6)
    for res in family:
        res.tilting  # enumerate before counting
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


def test_paper_report_enumerates_each_gamma_once(monkeypatch):
    calls = []
    real = auslander.enumerate_tilting

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(auslander, "enumerate_tilting", counting)
    V.paper_report(4)
    # 2 * 4 family members, plus the golden lists' n=3 pair and the dual numbers
    assert len(calls) == 11


def test_paper_report_checks_each_gamma_once(monkeypatch):
    """Two reports read each per-Gamma check; it runs once per algebra (the
    summand masks, the shape and minimum checks on them, the profile).  The
    checks for modules from outside, `summand_shape_check` and
    `check_gen_minimum`, do not run."""
    family = auslander_family(6)
    names = ("_summand_masks", "_shape_offenders", "minimal_tilting", "_gen_minimum")
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
