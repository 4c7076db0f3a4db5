"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Each test prints its verdict through capsys.disabled() so the line is
visible in a plain `pytest -v` run, then asserts.  The two long-running
checks carry explicit wall-clock budgets (counts < 60 s, oracle < 300 s).
"""

import itertools
import time

from nakayama import homology as H
from nakayama import oracle as O
from nakayama.algebra import Algebra, IndecModule, iter_algebras, make_rsz_nakayama
from nakayama.auslander import auslander_algebra, verify_bijection
from nakayama.homology import gorenstein_profile
from nakayama.tau_tilting import enumerate_sttilt
from nakayama.tilting import (
    enumerate_tilting,
    leq_gen,
    minimal_tilting,
    proj_mutation_sequence,
    summand_shape_check,
)

M = IndecModule


def report(capsys, num, name, passed, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"\n[acceptance {num:02d}] {name}: {'PASS' if passed else 'FAIL'}{tail}")
    assert passed, f"acceptance {num:02d} {name}: {detail}"


def test_01_tilting_counts_with_time_budget(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 13):
        gamma = auslander_algebra(make_rsz_nakayama(n, "linear")).gamma
        count = len(enumerate_tilting(gamma))
        if count != 2 ** (n - 1):
            failures.append(f"linear n={n}: {count} != {2 ** (n - 1)}")
    for n in range(1, 11):
        gamma = auslander_algebra(make_rsz_nakayama(n, "cyclic")).gamma
        count = len(enumerate_tilting(gamma))
        if count != 2 ** n:
            failures.append(f"cyclic n={n}: {count} != {2 ** n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(
        capsys, 1, "tilting counts 2^(n-1) linear n<=12, 2^n cyclic n<=10",
        not failures, "; ".join(failures) or f"{elapsed:.1f}s",
    )


def test_02_golden_lists_n3(capsys):
    golden_linear = [
        {M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
        {M(1, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
        {M(2, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
        {M(2, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
    ]
    golden_cyclic = [
        {M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
        {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3)},
        {M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
        {M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
        {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3)},
        {M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
        {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3)},
        {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3)},
    ]
    ok = True
    details = []
    for kind, golden in (("linear", golden_linear), ("cyclic", golden_cyclic)):
        gamma = auslander_algebra(make_rsz_nakayama(3, kind)).gamma
        got = {frozenset(rec.modules) for rec in enumerate_tilting(gamma)}
        want = {frozenset(s) for s in golden}
        if got != want:
            ok = False
            details.append(f"{kind}: enumerated {len(got)}, expected {len(want)}")
    report(capsys, 2, "published n=3 tilting lists, both kinds", ok, "; ".join(details))


def test_03_dual_numbers_base_case(capsys):
    gamma = auslander_algebra(make_rsz_nakayama(1, "cyclic")).gamma
    got = {frozenset(rec.modules) for rec in enumerate_tilting(gamma)}
    want = {frozenset({M(1, 1), M(1, 3)}), frozenset({M(1, 3), M(2, 2)})}
    report(
        capsys, 3, "Auslander algebra of the dual numbers has exactly 2 tilting",
        got == want and gamma == Algebra("cyclic", (3, 2)), f"count={len(got)}",
    )


def test_04_summand_shapes(capsys):
    violations = []
    checked = 0
    for kind in ("linear", "cyclic"):
        for n in range(1, 7):
            gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
            for rec in enumerate_tilting(gamma):
                checked += 1
                bad = summand_shape_check(gamma, rec.modules)
                if bad:
                    violations.append(f"{kind} n={n} {rec.modules}: {bad}")
    report(
        capsys, 4, "summands projective or simple socle of proj-injective, n<=6",
        not violations, f"{checked} tilting modules, {len(violations)} violations",
    )


def test_05_projective_mutation_shape(capsys):
    violations = []
    checked = 0
    for kind in ("linear", "cyclic"):
        for n in range(1, 7):
            gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
            for rec in enumerate_tilting(gamma):
                for p in rec.modules:
                    if not gamma.is_projective(p) or gamma.is_injective(p):
                        continue
                    checked += 1
                    try:
                        seq = proj_mutation_sequence(gamma, rec.modules, p)
                    except Exception as exc:
                        violations.append(f"{kind} n={n} at {p}: {exc}")
                        continue
                    if seq.cokernel is None or seq.cokernel.length != 1:
                        violations.append(
                            f"{kind} n={n} at {p}: cokernel {seq.cokernel} not simple"
                        )
    report(
        capsys, 5, "mutation at projective non-injective gives the simple cokernel",
        not violations, f"{checked} mutations, {len(violations)} violations",
    )


def test_06_minimal_tilting_is_unique_gen_minimum(capsys):
    failures = []
    for kind in ("linear", "cyclic"):
        for n in range(1, 6):
            gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
            try:
                rec = minimal_tilting(gamma, check=True)
            except Exception as exc:
                failures.append(f"{kind} n={n}: {exc}")
                continue
            others = enumerate_tilting(gamma)
            if not all(leq_gen(gamma, rec.modules, o.modules) for o in others):
                failures.append(f"{kind} n={n}: not below every tilting module")
    report(
        capsys, 6, "I0 + cosyzygy formula is the unique Gen-minimum, n<=5",
        not failures, "; ".join(failures),
    )


def test_07_semisimple_support_pairs(capsys):
    failures = []
    for n in range(1, 11):
        A = Algebra("linear", (1,) * n)
        pairs = enumerate_sttilt(A)
        if len(pairs) != 2 ** n:
            failures.append(f"n={n}: {len(pairs)} != {2 ** n}")
        zero = [p for p in pairs if len(p.modules) == 0]
        if len(zero) != 1 or zero[0].killed != frozenset(A.vertices):
            failures.append(f"n={n}: zero pair wrong")
    report(
        capsys, 7, "semisimple algebras have 2^n support pairs, n<=10",
        not failures, "; ".join(failures),
    )


def test_08_bijection_onto_support_pairs(capsys):
    failures = []
    for kind in ("linear", "cyclic"):
        for n in range(1, 7):
            res = auslander_algebra(make_rsz_nakayama(n, kind))
            rep = verify_bijection(res)
            if not rep.passed:
                failures.append(
                    f"{kind} n={n}: tilt={rep.tilting_count} sttilt={rep.sttilt_count} "
                    f"missing={len(rep.missing)} extra={len(rep.extra)}"
                )
    report(
        capsys, 8, "tilting modules biject with support pairs of the quotient, n<=6",
        not failures, "; ".join(failures),
    )


def test_09_oracle_equivalence_with_time_budget(capsys):
    start = time.perf_counter()
    failures = []
    algebras = 0
    pairs = 0
    for A in iter_algebras(6, 4):
        algebras += 1
        indecs = list(A.indecomposables())
        for m in indecs:
            if O.syzygy_oracle(A, m) != H.syzygy(A, m):
                failures.append(f"syzygy {A} {m}")
            if O.tau_via_dtr(A, m) != H.tau(A, m):
                failures.append(f"tau {A} {m}")
        for m, nn in itertools.product(indecs, repeat=2):
            pairs += 1
            if O.hom_space_dim(A, m, nn) != H.hom_dim(A, m, nn):
                failures.append(f"hom {A} {m} {nn}")
            if O.ext1_space_dim(A, m, nn) != H.ext1_dim(A, m, nn):
                failures.append(f"ext1 {A} {m} {nn}")
        O.clear_caches()
    for kind in ("linear", "cyclic"):
        for n in range(1, 6):
            res = auslander_algebra(make_rsz_nakayama(n, kind))
            gamma = res.gamma
            objects = [res.dictionary[v] for v in gamma.vertices]
            q = O.quiver_of(O.end_algebra(res.lam, objects))
            model_arrows = {
                (v, gamma.down(v)): 1 for v in gamma.vertices if gamma.kupisch(v) >= 2
            }
            blocks_ok = all(
                q.block_dims[(a, b)] == gamma.path_count(b, a)
                for a in gamma.vertices
                for b in gamma.vertices
            )
            if not (
                q.total_dim == gamma.dimension()
                and q.arrow_counts == model_arrows
                and blocks_ok
            ):
                failures.append(f"end algebra {kind} n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    report(
        capsys, 9, "matrix oracle agrees on every series N<=6 entries<=4",
        not failures,
        "; ".join(failures[:3]) or f"{algebras} algebras, {pairs} pairs, {elapsed:.1f}s",
    )


def test_10_gorenstein_profiles(capsys):
    failures = []
    for kind in ("linear", "cyclic"):
        for n in range(1, 7):
            gamma = auslander_algebra(make_rsz_nakayama(n, kind)).gamma
            prof = gorenstein_profile(gamma)
            if not (prof.gldim <= 2 and prof.i0_projective and prof.i1_projective):
                failures.append(f"gamma {kind} n={n}")
    for n in range(1, 9):
        lam = make_rsz_nakayama(n, "cyclic")
        prof = gorenstein_profile(lam)
        if not (prof.is_1_gorenstein and prof.gldim == H.INFINITE):
            failures.append(f"lambda cyclic n={n}")
    report(
        capsys, 10, "Auslander profiles for Gamma; 1-Gorenstein infinite-gldim Lambda",
        not failures, "; ".join(failures),
    )
