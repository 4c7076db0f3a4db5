"""Named verification assertions covering the headline claims.

Each function returns a list of dicts with keys "name", "passed" and
"detail", so the CLI can emit one JSON record per claim.  This is the
only copy of the checks: `paper_report` caps the sweeps for interactive
use, and the acceptance tests run the same functions at the acceptance
bounds and assert that every record passed.

The checks on Auslander algebras take a list of `AuslanderResult`s, an
`auslander_family` or part of one; `paper_report` builds one family, so
each Gamma is built, and its tilting modules enumerated and checked, once.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .algebra import (
    Algebra,
    AlgebraError,
    IndecModule,
    iter_algebras,
    make_rsz_nakayama,
    quotient_algebra,
)
from . import homology as H
from . import oracle as O
from .auslander import (
    AuslanderResult,
    auslander_algebra,
    auslander_family,
    verify_bijection,
    verify_counts,
)
from .homology import regular_module
from .tau_tilting import enumerate_sttilt
from .tilting import TiltingError, enumerate_tilting, mutation_closure, proj_mutation_sequence


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _label(res: AuslanderResult) -> str:
    return f"{res.lam.kind}_n{res.lam.n}"


def construction_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Auslander algebra construction: dictionary, projective-injectives, quotient."""
    out = []
    for res in family:
        lam, gamma = res.lam, res.gamma
        problems = []
        if sorted(res.dictionary) != list(gamma.vertices):
            problems.append("dictionary does not cover the vertices")
        if sorted(set(res.dictionary.values())) != sorted(lam.indecomposables()):
            problems.append("dictionary is not a bijection onto ind(Lambda)")
        for v in gamma.vertices:
            if (v in res.projinj) != lam.is_injective(res.dictionary[v]):
                problems.append(f"projective-injective flag wrong at vertex {v}")
                break
        q = quotient_algebra(gamma, res.projinj)
        simples = sum(comp.n for comp in q.components)
        expected_simples = lam.n if lam.kind == "cyclic" else lam.n - 1
        if simples != expected_simples:
            problems.append(f"quotient has {simples} simples, expected {expected_simples}")
        if any(comp.c != (1,) * comp.n for comp in q.components):
            problems.append("quotient by the projective-injectives is not semisimple")
        out.append(
            _assertion(
                f"auslander_construction_{_label(res)}",
                not problems,
                problems[0] if problems else f"gamma={gamma} projinj={sorted(res.projinj)}",
            )
        )
    return out


def shape_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Every tilting summand is projective or the simple socle of a projective-injective."""
    out = []
    for res in family:
        offenders = [f"{T}: {b[0]}" for T, b in res.shape_offenders]
        out.append(
            _assertion(
                f"tilting_summand_shape_{_label(res)}",
                not offenders,
                f"checked {len(res.tilting)} tilting modules"
                + (f"; first offender {offenders[0]}" if offenders else ""),
            )
        )
    return out


def count_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Tilting counts over the Auslander algebras: 2^(n-1) linear, 2^n cyclic."""
    out = []
    for res in family:
        rep = verify_counts(res)
        out.append(
            _assertion(
                f"tilting_count_{_label(res)}",
                rep.passed,
                f"count={rep.count} expected={rep.expected} "
                f"shapes={'ok' if rep.shape_ok else 'bad'} "
                f"minimal={'ok' if rep.minimal_ok else 'bad'}",
            )
        )
    return out


def golden_list_assertions() -> list[dict]:
    """The two n=3 Auslander algebras have exactly the published tilting lists."""
    M = IndecModule
    golden = {
        "linear": [
            {M(1, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
            {M(1, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
            {M(2, 1), M(2, 2), M(3, 2), M(4, 3), M(5, 2)},
            {M(2, 1), M(2, 2), M(4, 1), M(4, 3), M(5, 2)},
        ],
        "cyclic": [
            {M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
            {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(4, 2), M(5, 3)},
            {M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
            {M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3), M(6, 2)},
            {M(1, 1), M(1, 3), M(2, 2), M(3, 3), M(5, 1), M(5, 3)},
            {M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3), M(6, 2)},
            {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(4, 2), M(5, 3)},
            {M(1, 1), M(1, 3), M(3, 1), M(3, 3), M(5, 1), M(5, 3)},
        ],
    }
    out = []
    for kind, expected in golden.items():
        res = auslander_algebra(make_rsz_nakayama(3, kind))
        got = [set(T) for T in res.tilting]
        ok = len(got) == len(expected) and all(e in got for e in expected)
        out.append(
            _assertion(
                f"golden_tilting_list_{kind}_n3",
                ok,
                f"enumerated {len(got)} tilting modules over {res.gamma}",
            )
        )
    # The Auslander algebra of K[x]/(x^2) has exactly two tilting modules.
    res1 = auslander_algebra(make_rsz_nakayama(1, "cyclic"))
    sets = [set(T) for T in res1.tilting]
    ok = (
        res1.gamma == Algebra("cyclic", (3, 2))
        and len(sets) == 2
        and {M(1, 1), M(1, 3)} in sets
        and {M(1, 3), M(2, 2)} in sets
    )
    out.append(_assertion("dual_numbers_two_tilting", ok, f"count={len(sets)} over {res1.gamma}"))
    return out


def mutation_shape_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Projective non-injective summands mutate to the envelope cokernel, a simple."""
    out = []
    for res in family:
        gamma = res.gamma
        proj_noninj = {P for P in map(gamma.projective, gamma.vertices) if not gamma.is_injective(P)}
        violations = []
        checked = 0
        for T in res.tilting:
            for p in T:
                if p not in proj_noninj:
                    continue
                checked += 1
                try:
                    seq = proj_mutation_sequence(gamma, T, p)
                except (AlgebraError, TiltingError) as exc:  # structural failure
                    violations.append(f"{T} at {p}: {exc}")
                    continue
                if not gamma.is_simple(seq.cokernel):
                    violations.append(f"{T} at {p}: cokernel {seq.cokernel} not simple")
        out.append(
            _assertion(
                f"proj_mutation_shape_{_label(res)}",
                not violations,
                f"checked {checked} projective summand mutations"
                + (f"; first violation: {violations[0]}" if violations else ""),
            )
        )
    return out


def mutation_closure_assertions(algebras: Iterable[Algebra]) -> list[dict]:
    """Each enumeration of tilting modules is complete: it holds exactly the
    mutation closure of the regular module.

    A finite connected component of the tilting quiver is the whole quiver
    (Happel-Unger, On the quiver of tilting modules, J. Algebra 284, 2005),
    and a Nakayama algebra has finitely many tilting modules, so
    `mutation_closure` holds every tilting module.  A listed module that is
    not tilting is never reached, so it fails the check too.  The check
    needs no second enumeration; `paper_report` does not run it.
    """
    out = []
    for A in algebras:
        tilting = enumerate_tilting(A)
        problem = _closure_problem(A, tilting)
        out.append(
            _assertion(
                f"tilting_mutation_closure_{A.kind}_{'_'.join(map(str, A.c))}",
                problem is None,
                problem or f"{len(tilting)} tilting modules, all reached by mutation from the regular module",
            )
        )
    return out


def _closure_problem(A: Algebra, tilting: list) -> str | None:
    """Why `tilting` is not the mutation closure of the regular module, or None."""
    listed = set()
    for T in tilting:
        if T in listed:
            return f"{T} is listed twice"
        listed.add(T)
    if regular_module(A) not in listed:
        return f"the regular module {regular_module(A)} is not listed"
    reached = set(mutation_closure(A))
    if reached - listed:
        return f"the mutation closure holds {min(reached - listed)}, which is not listed"
    for T in tilting:
        if T not in reached:
            return f"{T} is listed but not reached by mutation"
    return None


def minimal_tilting_assertions(family: list[AuslanderResult]) -> list[dict]:
    """The formula I0 + cosyzygy(A) is the unique Gen-minimal tilting module."""
    out = []
    for res in family:
        ms, error = res.minimum
        detail = f"minimum is {ms}" if error is None else error
        out.append(_assertion(f"minimal_tilting_{_label(res)}", error is None, detail))
    return out


def semisimple_sttilt_assertions(max_n: int) -> list[dict]:
    """A semisimple algebra with n simples has exactly 2^n support pairs."""
    out = []
    for n in range(1, max_n + 1):
        A = Algebra("linear", (1,) * n)
        pairs = enumerate_sttilt(A)
        expected = 2 ** n
        zero = [p for p in pairs if not p.modules]
        zero_ok = len(zero) == 1 and zero[0].killed == frozenset(A.vertices)
        out.append(
            _assertion(
                f"semisimple_sttilt_n{n}",
                len(pairs) == expected and zero_ok,
                f"count={len(pairs)} expected={expected} zero_pair={'yes' if zero_ok else 'missing'}",
            )
        )
    return out


def bijection_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Tilting modules biject onto support pairs of the projective-injective quotient."""
    out = []
    for res in family:
        rep = verify_bijection(res)
        out.append(
            _assertion(
                f"tilting_sttilt_bijection_{_label(res)}",
                rep.passed,
                f"tilting={rep.tilting_count} sttilt={rep.sttilt_count} "
                f"injective={rep.injective} surjective={rep.surjective}",
            )
        )
    return out


def profile_assertions(family: list[AuslanderResult]) -> list[dict]:
    """Auslander algebras are Auslander 1-Gorenstein; cyclic rsz algebras are
    1-Gorenstein of infinite global dimension (n >= 1)."""
    out = []
    for res in family:
        prof = res.profile
        out.append(
            _assertion(
                f"gamma_profile_{_label(res)}",
                prof.is_auslander and prof.is_1_gorenstein and prof.gldim <= 2,
                f"gldim={prof.gldim} auslander={prof.is_auslander}",
            )
        )
    for lam in (res.lam for res in family if res.lam.kind == "cyclic"):
        prof = H.gorenstein_profile(lam)
        out.append(
            _assertion(
                f"cyclic_rsz_profile_n{lam.n}",
                prof.is_1_gorenstein and prof.gldim == H.INFINITE,
                f"gldim={prof.gldim} 1-gorenstein={prof.is_1_gorenstein}",
            )
        )
    return out


def oracle_sweep_assertions(max_n: int, max_entry: int = 4) -> list[dict]:
    """Closed forms vs the matrix oracle, exhaustively over small Kupisch series."""
    algebras = 0
    pairs = 0
    first_fail = None
    for A in iter_algebras(max_n, max_entry):
        algebras += 1
        indecs = list(A.indecomposables())
        for m in indecs:
            if H.syzygy(A, m) != O.syzygy_oracle(A, m):
                first_fail = first_fail or f"syzygy {A} {m}"
            if H.tau(A, m) != O.tau_via_dtr(A, m):
                first_fail = first_fail or f"tau {A} {m}"
        for m, nn in itertools.product(indecs, repeat=2):
            pairs += 1
            if H.hom_dim(A, m, nn) != O.hom_space_dim(A, m, nn):
                first_fail = first_fail or f"hom {A} {m} {nn}"
            if H.ext1_dim(A, m, nn) != O.ext1_space_dim(A, m, nn):
                first_fail = first_fail or f"ext1 {A} {m} {nn}"
    detail = f"algebras={algebras} ordered_pairs={pairs}"
    if first_fail:
        detail += f"; first failure: {first_fail}"
    return [_assertion(f"oracle_equivalence_N{max_n}_entries{max_entry}", first_fail is None, detail)]


def end_algebra_assertions(family: list[AuslanderResult]) -> list[dict]:
    """The Kupisch model of the Auslander algebra matches End-algebra matrices."""
    out = []
    for res in family:
        gamma = res.gamma
        objects = [res.dictionary[v] for v in gamma.vertices]
        q = O.quiver_of(O.end_algebra(res.lam, objects))
        model_arrows = {(v, gamma.down(v)): 1 for v in gamma.vertices if gamma.kupisch(v) >= 2}
        blocks_ok = all(
            q.block_dims[(a, b)] == gamma.path_count(b, a)
            for a in gamma.vertices
            for b in gamma.vertices
        )
        ok = q.total_dim == gamma.dimension() and q.arrow_counts == model_arrows and blocks_ok
        out.append(
            _assertion(
                f"auslander_end_algebra_{_label(res)}",
                ok,
                f"total_dim={q.total_dim} model_dim={gamma.dimension()} arrows={'ok' if q.arrow_counts == model_arrows else 'bad'}",
            )
        )
    return out


def paper_report(max_n: int = 4, with_oracle: bool = False) -> list[dict]:
    """The full battery of named assertions, bounded by max_n.

    Order: construction checks, tilting shape and mutation suites, the
    minimal tilting module, semisimple support counts, the bijection,
    the tilting counts with the published n=3 lists and the base case,
    Gorenstein profiles, and optionally the exhaustive oracle sweep.
    """
    if max_n < 1:
        raise AlgebraError(f"need max_n >= 1, got {max_n}")
    family = auslander_family(max_n)
    upto6 = [res for res in family if res.lam.n <= 6]
    upto5 = [res for res in upto6 if res.lam.n <= 5]
    out = []
    out += construction_assertions(upto6)
    out += shape_assertions(upto6)
    out += mutation_shape_assertions(upto6)
    out += minimal_tilting_assertions(upto5)
    out += semisimple_sttilt_assertions(10)
    out += bijection_assertions(upto6)
    out += count_assertions(family)
    out += golden_list_assertions()
    out += profile_assertions(upto6)
    if with_oracle:
        out += oracle_sweep_assertions(min(max_n, 6))
        out += end_algebra_assertions(upto5)
    return out
