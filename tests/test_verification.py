"""The battery's pass conditions fail on the faults they exist to catch.

Each case swaps one name for a stub that produces the fault, in the
`nakayama.verification` namespace or, for the tilting modules, in
`nakayama.auslander`, where `AuslanderResult.tilting` enumerates them,
and checks that exactly the affected record fails.
"""

from collections import Counter
from dataclasses import replace

from nakayama import auslander, homology, tilting
from nakayama import verification as V
from nakayama.algebra import Algebra, IndecModule as M, ModuleSet
from nakayama.auslander import auslander_family


def verdicts(records):
    return {r["name"]: r["passed"] for r in records}


def test_non_simple_cokernel_fails_even_without_a_mutation(monkeypatch):
    real = V.proj_mutation_sequence

    def stub(gamma, T, P):
        return replace(real(gamma, T, P), cokernel=P, mutated=None)

    monkeypatch.setattr(V, "proj_mutation_sequence", stub)
    # Linear n=1 has no projective non-injective summand; cyclic n=1 has M(2,2).
    assert verdicts(V.mutation_shape_assertions(auslander_family(1))) == {
        "proj_mutation_shape_linear_n1": True,
        "proj_mutation_shape_cyclic_n1": False,
    }


def test_duplicated_zero_pair_fails(monkeypatch):
    real = V.enumerate_sttilt

    def stub(A):
        pairs = real(A)
        zero = next(p for p in pairs if not p.modules)
        return [zero, zero] + [p for p in pairs if p.modules][1:]

    monkeypatch.setattr(V, "enumerate_sttilt", stub)
    assert verdicts(V.semisimple_sttilt_assertions(2)) == {
        "semisimple_sttilt_n1": False,
        "semisimple_sttilt_n2": False,
    }


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


def test_flagged_summand_fails_the_counts(monkeypatch):
    monkeypatch.setattr("nakayama.auslander.summand_shape_check", lambda A, ms: list(ms)[:1])
    records = V.count_assertions(auslander_family(2))
    assert verdicts(records) == {
        "tilting_count_linear_n1": False,
        "tilting_count_linear_n2": False,
        "tilting_count_cyclic_n1": False,
        "tilting_count_cyclic_n2": False,
    }
    assert all("shapes=bad" in r["detail"] for r in records)


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
    """Two reports read each per-Gamma check; it runs once per tilting
    module (the shape) or once per algebra (the minimum, the profile)."""
    family = auslander_family(6)
    expected = Counter(
        [("summand_shape_check", res.gamma, T) for res in family for T in res.tilting]
        + [(name, res.gamma) for name in ("minimal_tilting", "check_gen_minimum") for res in family]
        + [("gorenstein_profile", res.gamma) for res in family]
        + [("gorenstein_profile", res.lam) for res in family if res.lam.kind == "cyclic"]
    )
    calls = Counter()
    targets = (
        (tilting, "summand_shape_check", 2),
        (tilting, "minimal_tilting", 1),
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
