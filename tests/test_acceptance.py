"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Each test runs the `nakayama.verification` battery behind one claim at
the acceptance bounds (an `auslander_family(max_n)` for the checks on
Auslander algebras) and asserts that every record passed and that the
battery covered the whole range.  The verdict is printed through
capsys.disabled() so the line is visible in a plain `pytest -v` run.
The two long-running checks carry explicit wall-clock budgets
(counts < 60 s, oracle < 300 s).
"""

import time

from nakayama import verification as V
from nakayama.auslander import auslander_family


def report(capsys, num, name, records, expected, elapsed=None, budget_s=None):
    failures = [f"{r['name']}: {r['detail']}" for r in records if not r["passed"]]
    if len(records) != expected:
        failures.append(f"{len(records)} records, expected {expected}")
    detail = f"{len(records)} records"
    if budget_s is not None:
        detail += f", {elapsed:.1f}s"
        if elapsed >= budget_s:
            failures.append(f"runtime {elapsed:.1f}s >= {budget_s:.0f}s")
    passed = not failures
    with capsys.disabled():
        tail = "; ".join(failures[:3]) or detail
        print(f"\n[acceptance {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({tail})")
    assert passed, f"acceptance {num:02d} {name}: {'; '.join(failures)}"


def test_01_tilting_counts_with_time_budget(capsys):
    start = time.perf_counter()
    records = V.count_assertions(auslander_family(14))
    report(
        capsys, 1, "tilting counts 2^(n-1) linear, 2^n cyclic, shapes and minimum, n<=14",
        records, 28, time.perf_counter() - start, budget_s=60.0,
    )


def test_02_golden_lists_n3(capsys):
    records = [r for r in V.golden_list_assertions() if r["name"].startswith("golden_tilting_list_")]
    report(capsys, 2, "published n=3 tilting lists, both kinds", records, 2)


def test_03_dual_numbers_base_case(capsys):
    records = [r for r in V.golden_list_assertions() if r["name"] == "dual_numbers_two_tilting"]
    report(capsys, 3, "Auslander algebra of the dual numbers has exactly 2 tilting", records, 1)


def test_04_summand_shapes(capsys):
    report(
        capsys, 4, "summands projective or simple socle of proj-injective, n<=6",
        V.shape_assertions(auslander_family(6)), 12,
    )


def test_05_projective_mutation_shape(capsys):
    report(
        capsys, 5, "mutation at projective non-injective gives the simple cokernel, n<=6",
        V.mutation_shape_assertions(auslander_family(6)), 12,
    )


def test_06_minimal_tilting_is_unique_gen_minimum(capsys):
    report(
        capsys, 6, "I0 + cosyzygy formula is the unique Gen-minimum, n<=5",
        V.minimal_tilting_assertions(auslander_family(5)), 10,
    )


def test_07_semisimple_support_pairs(capsys):
    report(
        capsys, 7, "semisimple algebras have 2^n support pairs, n<=10",
        V.semisimple_sttilt_assertions(10), 10,
    )


def test_08_bijection_onto_support_pairs(capsys):
    report(
        capsys, 8, "tilting modules biject with support pairs of the quotient, n<=6",
        V.bijection_assertions(auslander_family(6)), 12,
    )


def test_09_oracle_equivalence_with_time_budget(capsys):
    start = time.perf_counter()
    records = V.oracle_sweep_assertions(6, 4) + V.end_algebra_assertions(auslander_family(5))
    report(
        capsys, 9, "matrix oracle agrees on every series N<=6 entries<=4 and End quivers n<=5",
        records, 11, time.perf_counter() - start, budget_s=300.0,
    )


def test_10_gorenstein_profiles(capsys):
    report(
        capsys, 10, "Auslander profiles for Gamma; 1-Gorenstein infinite-gldim Lambda, n<=8",
        V.profile_assertions(auslander_family(8)), 24,
    )
