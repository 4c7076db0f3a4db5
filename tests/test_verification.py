"""The battery's pass conditions fail on the faults they exist to catch.

Each case swaps one name in the `nakayama.verification` namespace for a
stub that produces the fault, and checks that exactly the affected record
fails.
"""

from dataclasses import replace

from nakayama import verification as V
from nakayama.algebra import Algebra


def verdicts(records):
    return {r["name"]: r["passed"] for r in records}


def test_non_simple_cokernel_fails_even_without_a_mutation(monkeypatch):
    real = V.proj_mutation_sequence

    def stub(gamma, T, P):
        return replace(real(gamma, T, P), cokernel=P, mutated=None)

    monkeypatch.setattr(V, "proj_mutation_sequence", stub)
    # Linear n=1 has no projective non-injective summand; cyclic n=1 has M(2,2).
    assert verdicts(V.mutation_shape_assertions(1)) == {
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
    real_auslander, real_enumerate = V.auslander_algebra, V.enumerate_tilting

    def auslander_stub(lam):
        res = real_auslander(lam)
        return replace(res, gamma=wrong) if res.gamma == right else res

    monkeypatch.setattr(V, "auslander_algebra", auslander_stub)
    # The tilting list stays the right one; only Gamma is wrong.
    monkeypatch.setattr(V, "enumerate_tilting", lambda A: real_enumerate(right if A == wrong else A))
    assert verdicts(V.golden_list_assertions()) == {
        "golden_tilting_list_linear_n3": True,
        "golden_tilting_list_cyclic_n3": True,
        "dual_numbers_two_tilting": False,
    }


def test_missing_formula_module_fails_only_the_minimum(monkeypatch):
    real = V.enumerate_tilting
    monkeypatch.setattr(V, "enumerate_tilting", lambda A: [T for T in real(A) if T != V.minimal_tilting(A)])
    records = V.shape_assertions(2) + V.mutation_shape_assertions(2) + V.minimal_tilting_assertions(2)
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
    records = V.count_assertions(2)
    assert verdicts(records) == {
        "tilting_count_linear_n1": False,
        "tilting_count_linear_n2": False,
        "tilting_count_cyclic_n1": False,
        "tilting_count_cyclic_n2": False,
    }
    assert all("shapes=bad" in r["detail"] for r in records)
